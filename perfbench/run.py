#!/usr/bin/env python3
"""cevlab benchmark: run the CLI's reference workloads as child processes,
time them from outside, and check every artifact.

    python3 perfbench/run.py                       # every workload, every metric
    python3 perfbench/run.py --workload ladder --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload dump --trace 1   # per-layer metrics
    python3 perfbench/run.py --smoke               # tiny sizes, second seed
    python3 perfbench/run.py --write-hashes        # refresh perfbench/hashes.json

Run from the repository root; the program is imported from ``src/``.  Each
workload repeats whole rounds of its CLI commands until ``--seconds`` have
passed and reports medians over the rounds.  ``setup_s`` is the same
commands run with ``--dry-run``, once before each round.  With ``--trace 1`` the rounds alternate
untraced and traced (``traced_cli.py``) and the per-layer metrics are
printed instead.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
from workloads import WORKLOADS, Op, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
HASHES = HERE / "hashes.json"

DEFAULT_SEED = 20240601
SMOKE_SEED = 7
OP_TIMEOUT_S = 150.0

END_TO_END = {
    "wall_s": "s",
    "path_steps_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class OpRun:
    op: Op
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stderr: str
    sha256: str | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.code != 0 or bool(self.problems)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Launcher:
    """Runs children through ``spawner.py``, which stays small, so a child's
    peak RSS never includes this process's memory."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      text=True)

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait()

    def run(self, argv: list[str], threads: int) -> tuple[float, float, float, int, str]:
        """Run one child to completion in the work dir; returns (wall s,
        user+sys CPU s, peak RSS MB, exit code, stderr tail)."""
        err_path = WORK / "child.stderr"
        request = {"argv": argv, "cwd": str(WORK), "stderr": str(err_path),
                   "timeout": OP_TIMEOUT_S,
                   "env": dict(os.environ, PYTHONPATH=str(SRC), CEVLAB_THREADS=str(threads))}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("spawner.py exited early")
        res = json.loads(reply)
        tail = err_path.read_text(errors="replace")[-400:]
        return res["wall_s"], res["cpu_s"], res["rss_mb"], res["code"], tail


def cli_argv(op: Op, seed: int, spans: Path | None = None) -> list[str]:
    if spans is None:
        return [sys.executable, "-m", "cevlab", *op.argv(seed)]
    return [sys.executable, str(HERE / "traced_cli.py"), str(spans), *op.argv(seed)]


def run_round(launcher: Launcher, w: Workload, ops: list[Op], seed: int, smoke: bool,
              threads: int, traced: bool) -> tuple[list[OpRun], list[dict]]:
    """One pass over the workload's commands, then the checks."""
    runs, span_docs = [], []
    for op in ops:
        artifact = WORK / op.artifact
        artifact.unlink(missing_ok=True)
        spans = WORK / f"{op.name}.spans.json" if traced else None
        runs.append(OpRun(op, *launcher.run(cli_argv(op, seed, spans), threads)))
        if spans is not None and runs[-1].code == 0:
            span_docs.append(json.loads(spans.read_text()))
    texts = {}
    for r in runs:
        path = WORK / r.op.artifact
        if r.code == 0 and path.is_file():
            data = path.read_bytes()
            r.sha256 = hashlib.sha256(data).hexdigest()
            texts[r.op.name] = data.decode("utf-8")
        elif r.code == 0:
            r.problems.append("no artifact written")
    if len(texts) == len(runs):
        try:
            for name, problems in w.check(seed, smoke, texts).items():
                next(r for r in runs if r.op.name == name).problems.extend(problems)
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            for r in runs:
                r.problems.append(f"check raised {exc!r}")
    else:
        for r in runs:
            if r.op.name in texts:
                r.problems.append("not checked: another command of the round failed")
    return runs, span_docs


def setup_round(launcher: Launcher, ops: list[Op], seed: int, threads: int) -> float:
    """Summed wall time of the workload's commands with --dry-run."""
    total = 0.0
    for op in ops:
        wall, _, _, code, tail = launcher.run(cli_argv(op, seed) + ["--dry-run"], threads)
        if code != 0:
            raise RuntimeError(f"dry run of {op.name} exited {code}: {tail}")
        total += wall
    return total


def round_metrics(runs: list[OpRun]) -> dict[str, float]:
    wall = sum(r.wall_s for r in runs)
    return {
        "wall_s": wall,
        "path_steps_per_s": sum(r.op.path_steps for r in runs) / wall,
        "cpu_s": sum(r.cpu_s for r in runs),
        "peak_rss_mb": max(r.rss_mb for r in runs),
    }


def medians(samples: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def load_hashes() -> dict[str, dict[str, str]]:
    return json.loads(HASHES.read_text()) if HASHES.is_file() else {}


def hash_key(name: str, seed: int, smoke: bool) -> str:
    return f"{name}/{'smoke' if smoke else 'full'}/{seed}"


def run_workload(launcher: Launcher, w: Workload, seed: int, seconds: float, trace: bool,
                 smoke: bool, threads: int) -> dict:
    """Measure one workload; returns its report (metrics, counts, hashes)."""
    ops = w.ops(smoke)
    setup = []
    if not trace:
        setup_round(launcher, ops[:1], seed, threads)  # untimed: fills the bytecode cache
    plain, traced, docs = [], [], []
    start = time.perf_counter()
    while True:
        if not trace:
            # spread over the run like the measured rounds, so both see the
            # same mix of the machine's fast and slow phases
            setup.append(setup_round(launcher, ops, seed, threads))
        plain.append(run_round(launcher, w, ops, seed, smoke, threads, traced=False)[0])
        if trace:
            runs, span_docs = run_round(launcher, w, ops, seed, smoke, threads, traced=True)
            traced.append(runs)
            docs.append(span_docs)
        elapsed = time.perf_counter() - start
        # start another round only if it is expected to end within the budget
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            break
    every = [r for rnd in plain + traced for r in rnd]
    first = {r.op.artifact: r.sha256 for r in plain[0]}
    for r in every:
        if r.sha256 is not None and first[r.op.artifact] not in (None, r.sha256):
            r.problems.append("artifact differs from the first round at the same seed")
    report = {
        "workload": w.name, "seed": seed, "threads": threads, "smoke": smoke,
        "rounds": len(plain), "attempted": len(every),
        "failed": sum(r.failed for r in every),
        "correct": not any(r.problems for r in every),
        "problems": sorted({f"{r.op.name}: {p}" for r in every for p in r.problems}
                           | {f"{r.op.name}: exit {r.code}: {r.stderr.strip()}"
                              for r in every if r.code != 0}),
        "hashes": first,
    }
    ok_rounds = [rnd for rnd in plain if not any(r.failed for r in rnd)]
    if not trace:
        metrics = medians([round_metrics(rnd) for rnd in ok_rounds]) if ok_rounds else {}
        if metrics:
            metrics["setup_s"] = statistics.median(setup)
        report.update(metrics=metrics, samples=len(ok_rounds), setup_samples=len(setup))
        (WORK / f"{w.name}.rounds.json").write_text(json.dumps(
            {"rounds": [round_metrics(rnd) for rnd in ok_rounds], "setup_s": setup}))
        return report
    layer_samples, absent = [], set()
    for runs, span_docs in zip(traced, docs):
        if any(r.failed for r in runs):
            continue
        layer_samples.append(tracing.layer_metrics(span_docs, sum(r.wall_s for r in runs)))
        for doc in span_docs:
            absent.update(doc["absent"])
        if not any(row[0] == tracing.WRITE for doc in span_docs for row in doc["spans"]):
            absent.add(tracing.WRITE)
    metrics = medians(layer_samples) if layer_samples else {}
    if metrics and ok_rounds:
        metrics["trace.overhead_s"] = (
            statistics.median(sum(r.wall_s for r in rnd) for rnd in traced)
            - statistics.median(round_metrics(rnd)["wall_s"] for rnd in ok_rounds))
    report.update(metrics=metrics, samples=len(layer_samples),
                  absent=tracing.absent_metrics(absent), absent_spans=sorted(absent))
    spans_out = WORK / f"{w.name}.trace.json"
    spans_out.write_text(json.dumps({"absent": sorted(absent), "rounds": docs}))
    return report


def units(trace: bool) -> dict[str, str]:
    if trace:
        return {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
    return END_TO_END


def print_report(rep: dict, trace: bool) -> None:
    refs = load_hashes().get(hash_key(rep["workload"], rep["seed"], rep["smoke"]), {})
    print(f"== {rep['workload']}  seed {rep['seed']}  threads {rep['threads']}  "
          f"rounds {rep['rounds']}{'  (smoke)' if rep['smoke'] else ''}")
    for name, unit in units(trace).items():
        value = rep["metrics"].get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        note = ""
        if name == "setup_s" and "setup_samples" in rep:
            note = f"median of {rep['setup_samples']}"
        elif value is not None:
            note = f"median of {rep['samples']}"
        if name in rep.get("absent", ()):
            note = "absent"
        print(f"  {name:34s} {shown:>14s} {unit:6s} {note}")
    print(f"  operations attempted {rep['attempted']}  failed {rep['failed']}")
    for problem in rep["problems"]:
        print(f"  FAILED {problem}")
    for artifact, digest in rep["hashes"].items():
        ref = refs.get(artifact)
        verdict = ("no reference" if ref is None else "matches reference"
                   if ref == digest else "DIFFERS from reference (not gated)")
        print(f"  sha256 {artifact:18s} {digest}  {verdict}")


def result_line(reports: list[dict], trace: bool, prefix: bool) -> dict:
    metrics = {}
    for rep in reports:
        for name, unit in units(trace).items():
            key = f"{rep['workload']}.{name}" if prefix else name
            metrics[key] = {"value": float(rep["metrics"].get(name, 0.0)), "unit": unit}
    return {
        "correct": all(rep["correct"] for rep in reports),
        "attempted": sum(rep["attempted"] for rep in reports),
        "failed": sum(rep["failed"] for rep in reports),
        "metrics": metrics,
    }


def write_hashes(launcher: Launcher, threads: int | None) -> int:
    table = {}
    for smoke, seed in ((False, DEFAULT_SEED), (True, SMOKE_SEED)):
        for w in WORKLOADS.values():
            n = min(threads or w.threads, nproc())
            runs, _ = run_round(launcher, w, w.ops(smoke), seed, smoke, n, traced=False)
            bad = [f"{r.op.name}: {p}" for r in runs for p in r.problems]
            bad += [f"{r.op.name}: exit {r.code}" for r in runs if r.code != 0]
            if bad:
                print("\n".join(bad), file=sys.stderr)
                return 1
            table[hash_key(w.name, seed, smoke)] = {r.op.artifact: r.sha256 for r in runs}
            print(f"{hash_key(w.name, seed, smoke)}: {len(runs)} artifacts")
    HASHES.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {HASHES.relative_to(ROOT)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int,
                    help="override the workload's thread count (capped at nproc)")
    ap.add_argument("--smoke", action="store_true",
                    help=f"tiny sizes at seed {SMOKE_SEED}, one round of each mode")
    ap.add_argument("--write-hashes", action="store_true",
                    help="rewrite the reference artifact hashes")
    args = ap.parse_args(argv)

    if not (SRC / "cevlab" / "__init__.py").is_file():
        print(f"error: no cevlab sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        ap.error("--seed must be in [0, 2^64)")
    WORK.mkdir(exist_ok=True)
    lock = open(WORK / "lock", "w")
    try:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        print(f"error: another benchmark run is using {WORK}", file=sys.stderr)
        return 2
    reports = []
    with lock, Launcher() as launcher:
        if args.write_hashes:
            return write_hashes(launcher, args.threads)
        for name in [args.workload] if args.workload else list(WORKLOADS):
            w = WORKLOADS[name]
            threads = min(args.threads or w.threads, nproc())
            if args.smoke:
                for trace in (False, True):
                    rep = run_workload(launcher, w, SMOKE_SEED, 0.0, trace, True, threads)
                    print_report(rep, trace)
                    reports.append(rep)
                continue
            rep = run_workload(launcher, w, args.seed, args.seconds, bool(args.trace), False,
                               threads)
            print_report(rep, bool(args.trace))
            reports.append(rep)
    if args.smoke:
        line = {"correct": all(r["correct"] for r in reports),
                "attempted": sum(r["attempted"] for r in reports),
                "failed": sum(r["failed"] for r in reports), "metrics": {}}
    else:
        line = result_line(reports, bool(args.trace), prefix=args.workload is None)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
