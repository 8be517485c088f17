"""Config parsing, flag overrides, CSV/JSON artifacts, and CLI exit codes."""

import contextlib
import csv
import dataclasses
import errno
import hashlib
import io
import itertools
import json
import math
import os
import tracemalloc
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cevlab import ParseError, PayoffKind, SchemeId, ValidationError, cli, parse_config
from cevlab.config import EXPERIMENTS
from cevlab.cli import (
    _csv_line,
    _csv_text,
    _fields,
    _format_float,
    _json_dumps,
    _trajectory_lines,
    main,
)

# Reference SHA-256 of every benchmark artifact (perfbench/README.md).
REFERENCE_HASHES = Path(__file__).resolve().parents[1] / "perfbench" / "hashes.json"
# Reference stdout line of every pinned command below, and the SHA-256 of
# each artifact that the benchmark does not pin.
CLI_REFERENCE = Path(__file__).resolve().with_name("cli_reference.json")

# The benchmark's standard model flags ($STD in perfbench/README.md).
STD_FLAGS = [
    "--model.k=1.0",
    "--model.l=1.0",
    "--model.sigma=1.0",
    "--model.a=0.75",
    "--model.x0=1.0",
    "--grid.t_end=1.0",
]

# The benchmark's smoke commands (perfbench/workloads.py) without their seed
# and output flags: (workload, artifact, CLI arguments).
_REPORT_STD = [*STD_FLAGS[:4], "--model.x0=2.0", STD_FLAGS[5]]
_REPORT_GRID = [*_REPORT_STD, "--grid.n_steps=256", "--run.n_paths=1000"]
_SMOKE_COMMANDS = [
    ("dump", "dump_csv.csv", ["simulate", *STD_FLAGS, "--grid.n_steps=64", "--run.n_paths=64"]),
    ("dump", "dump_json.json", ["simulate", *STD_FLAGS, "--grid.n_steps=64", "--run.n_paths=64"]),
    ("ladder", "ladder.json", ["convergence", *STD_FLAGS, "--grid.n_steps=512",
                               "--run.n_paths=1000", "--run.ref_exponent=9",
                               "--run.levels=4,5,6,7"]),
    ("reports", "moments_sd.json", ["moments", *_REPORT_GRID, "--run.scheme=SemiDiscrete"]),
    ("reports", "moments_eft.json", ["moments", *_REPORT_GRID,
                                     "--run.scheme=EulerFullTruncation"]),
    ("reports", "call.json", ["price", *_REPORT_GRID, "--run.payoff=EuropeanCall",
                              "--run.strike=1.4"]),
    ("reports", "put.json", ["price", *_REPORT_GRID, "--run.payoff=EuropeanPut",
                             "--run.strike=1.4"]),
    ("reports", "negativity.json", ["negativity", *STD_FLAGS, "--grid.n_steps=16",
                                    "--run.n_paths=1000"]),
]
# The experiment x format pairs that no smoke command covers, and a ladder
# longer than one chunk (2048 steps, drawn from live per-path streams), pinned
# in CLI_REFERENCE: (None, artifact, CLI arguments).
_CLI_COMMANDS = [
    (None, "check.csv", ["check", *STD_FLAGS, "--grid.n_steps=64", "--model.sigma=2.0"]),
    (None, "check.json", ["check", *STD_FLAGS, "--grid.n_steps=64"]),
    (None, "convergence.csv", ["convergence", *STD_FLAGS, "--grid.n_steps=256",
                               "--run.n_paths=1000", "--run.ref_exponent=8",
                               "--run.levels=3,4,5"]),
    (None, "moments_er.csv", ["moments", *_REPORT_GRID, "--run.scheme=EulerReflected"]),
    (None, "negativity.csv", ["negativity", *STD_FLAGS, "--grid.n_steps=16",
                              "--run.n_paths=1000"]),
    (None, "asian.csv", ["price", *_REPORT_GRID, "--run.payoff=AsianArithmeticCall",
                         "--run.strike=1.4"]),
    (None, "convergence_chunked.json", ["convergence", *STD_FLAGS, "--grid.n_steps=2048",
                                        "--run.n_paths=1000", "--run.ref_exponent=11",
                                        "--run.levels=4,5,6,7"]),
]
_PINNED_COMMANDS = _SMOKE_COMMANDS + _CLI_COMMANDS

STANDARD = """\
# standard run configuration
k = 1
l = 1
sigma = 1
a = 0.75
x0 = 1
t_end = 1
n_steps = 64
experiment = check
"""


# STANDARD as a run that draws paths, and so reads the run keys.
SIMULATE = STANDARD.replace("experiment = check", "experiment = simulate")


class TestParseConfig:
    def test_round_trip(self):
        cfg = parse_config(SIMULATE)
        assert cfg.params.k == 1.0 and cfg.params.sigma == 1.0
        assert cfg.params.a == 0.75 and cfg.params.x0 == 1.0
        assert cfg.grid.t_end == 1.0 and cfg.grid.n_steps == 64
        assert cfg.experiment == "simulate"
        assert cfg.scheme is SchemeId.SEMI_DISCRETE
        assert cfg.n_paths == 1000 and cfg.seed == 0
        assert cfg.out_format == "csv"
        # canonical flat view reparses to the same config
        text = "\n".join(f"{k} = {v}" for k, v in cfg.flat_items().items())
        assert parse_config(text) == cfg

    def test_invariant_violation_names_field(self):
        with pytest.raises(ValidationError, match=r"a must lie in \(0.5, 1\)"):
            parse_config(STANDARD.replace("a = 0.75", "a = 1.2"))

    def test_missing_key_reported(self):
        text = "\n".join(
            line for line in STANDARD.splitlines() if not line.startswith("sigma")
        )
        with pytest.raises(ParseError, match="missing key: sigma"):
            parse_config(text)

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError, match="unknown key: volatility"):
            parse_config(STANDARD + "volatility = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ParseError, match="duplicate key: k"):
            parse_config(STANDARD + "k = 2\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_config("k = 1\nl = 1\nsigma\n")

    def test_non_finite_number_rejected(self):
        with pytest.raises(ParseError, match="finite"):
            parse_config(STANDARD.replace("sigma = 1", "sigma = inf"))

    def test_overrides_win_over_file(self):
        cfg = parse_config(
            SIMULATE,
            {"model.k": "2", "grid.n_steps": "128", "run.seed": "77", "out": "x.csv"},
        )
        assert cfg.params.k == 2.0
        assert cfg.grid.n_steps == 128
        assert cfg.seed == 77
        assert cfg.out_path == "x.csv"

    def test_unknown_flag_rejected(self):
        with pytest.raises(ParseError, match="unknown flag"):
            parse_config(STANDARD, {"model.kappa": "2"})

    def test_scheme_parsing(self):
        cfg = parse_config(SIMULATE + "scheme = EulerReflected\n")
        assert cfg.scheme is SchemeId.EULER_REFLECTED
        with pytest.raises(ValidationError, match="unknown scheme"):
            parse_config(SIMULATE + "scheme = Heun\n")

    def test_price_requires_payoff_and_strike(self):
        base = STANDARD.replace("experiment = check", "experiment = price")
        with pytest.raises(ParseError, match="missing key: payoff"):
            parse_config(base)
        with pytest.raises(ParseError, match="missing key: strike"):
            parse_config(base + "payoff = EuropeanCall\n")
        cfg = parse_config(base + "payoff = AsianArithmeticCall\nstrike = 0.9\n")
        assert cfg.payoff.kind is PayoffKind.ASIAN_ARITHMETIC_CALL
        assert cfg.payoff.strike == 0.9

    def test_convergence_requires_ladder(self):
        base = STANDARD.replace("experiment = check", "experiment = convergence")
        with pytest.raises(ParseError, match="missing key: levels"):
            parse_config(base)
        cfg = parse_config(
            base + "levels = 4,5,6\nref_exponent = 9\n", {"grid.n_steps": "512"}
        )
        # the validated levels are carried; the grid is the reference grid
        assert cfg.levels == (4, 5, 6)
        assert cfg.grid.n_steps == 2**9
        assert cfg.flat_items()["ref_exponent"] == 9

    def test_report_experiments_enforce_path_floor(self):
        base = STANDARD.replace("experiment = check", "experiment = moments")
        with pytest.raises(ValidationError, match="n_paths >= 1000"):
            parse_config(base + "n_paths = 10\n")
        # raw path dumps have no floor
        sim = STANDARD.replace("experiment = check", "experiment = simulate")
        assert parse_config(sim + "n_paths = 3\n").n_paths == 3

    def test_stability_precheck_for_stepping_experiments(self):
        sim = STANDARD.replace("experiment = check", "experiment = simulate")
        with pytest.raises(ValidationError, match="stability"):
            parse_config(sim, {"grid.t_end": "64"})  # dt = 1 > 2/2.75
        # infeasibility is data for 'check'
        cfg = parse_config(STANDARD, {"grid.t_end": "64"})
        assert cfg.grid.dt == 1.0
        # Euler baselines skip the bound for simulate
        assert parse_config(
            sim + "scheme = EulerNaive\n", {"grid.t_end": "64"}
        ).scheme is SchemeId.EULER_NAIVE

    @pytest.mark.parametrize("experiment", ["price", "negativity"])
    @pytest.mark.parametrize(
        "scheme", ["EulerNaive", "EulerFullTruncation", "EulerReflected"]
    )
    def test_semi_discrete_only_experiments_reject_other_schemes(
        self, experiment, scheme
    ):
        base = STANDARD.replace("experiment = check", f"experiment = {experiment}")
        if experiment == "price":
            base += "payoff = EuropeanCall\nstrike = 1\n"
        with pytest.raises(ValidationError, match="always steps SemiDiscrete"):
            parse_config(base + f"scheme = {scheme}\n")
        # naming the scheme it does step stays valid
        cfg = parse_config(base + "scheme = SemiDiscrete\n")
        assert cfg.scheme is SchemeId.SEMI_DISCRETE
        assert cfg == parse_config(base)

    def test_infeasible_convergence_level_named(self):
        base = STANDARD.replace("experiment = check", "experiment = convergence")
        with pytest.raises(ValidationError, match="e=4"):
            parse_config(
                base + "levels = 4,5\nref_exponent = 9\n",
                {"grid.t_end": "16", "grid.n_steps": "512"},
            )

    @pytest.mark.parametrize(
        "key, value, owner, experiment",
        [
            (key, value, owner, experiment)
            for key, value, owner in [
                ("levels", "4,5", "convergence"),
                ("ref_exponent", "9", "convergence"),
                ("payoff", "EuropeanPut", "price"),
                ("strike", "1.0", "price"),
            ]
            for experiment in EXPERIMENTS
            if experiment != owner
        ],
    )
    def test_key_the_experiment_ignores_rejected(self, key, value, owner, experiment):
        base = STANDARD.replace("experiment = check", f"experiment = {experiment}")
        base += _EXPERIMENT_EXTRA.get(experiment, "")
        with pytest.raises(ValidationError, match=f"{key} applies only to {owner}"):
            parse_config(base + f"{key} = {value}\n")

    @pytest.mark.parametrize("experiment", [e for e in EXPERIMENTS if e != "check"])
    def test_provenance_keys_accepted_by_every_experiment(self, experiment):
        base = STANDARD.replace("experiment = check", f"experiment = {experiment}")
        base += _EXPERIMENT_EXTRA.get(experiment, "")
        cfg = parse_config(base + "scheme = SemiDiscrete\nn_paths = 1000\nseed = 3\n")
        text = "\n".join(f"{k} = {v}" for k, v in cfg.flat_items().items())
        assert parse_config(text) == cfg

    @pytest.mark.parametrize("key, value", [
        ("scheme", "SemiDiscrete"), ("n_paths", "1000"), ("seed", "3")])
    def test_check_rejects_the_run_keys(self, key, value):
        # check draws no paths, so a seed or scheme would be recorded in the
        # provenance of a run that never used it
        with pytest.raises(ValidationError, match=f"{key} applies only to simulate/"):
            parse_config(STANDARD + f"{key} = {value}\n")
        cfg = parse_config(STANDARD)
        assert (cfg.scheme, cfg.n_paths, cfg.seed) == (None, None, None)
        assert not {"scheme", "n_paths", "seed"} & set(cfg.flat_items())


# The keys that convergence and price require on top of STANDARD
# (convergence: n_steps = 64 = 2^ref_exponent).
_EXPERIMENT_EXTRA = {
    "convergence": "levels = 4,5\nref_exponent = 6\n",
    "price": "payoff = EuropeanCall\nstrike = 1\n",
}


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "std.cfg"
    path.write_text(STANDARD, encoding="utf-8")
    return path


def _fill_disk(monkeypatch, space: int, error: BaseException | None = None) -> list[str]:
    """Make the files that ``cli`` opens fail with ENOSPC, or raise
    ``error``, once ``space`` characters are written; returns the list of
    the writes that passed."""
    written = []

    class FullDisk:
        def __init__(self, fh):
            self._fh = fh

        def write(self, text):
            if sum(map(len, written)) + len(text) > space:
                raise error or OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            written.append(text)
            return self._fh.write(text)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

    monkeypatch.setattr(
        "cevlab.cli.open", lambda *a, **k: FullDisk(open(*a, **k)), raising=False)
    return written


class TestCliExitCodes:
    def test_check_success(self, config_file, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(["check", "--config", str(config_file), f"--out={out}"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "feasible=true" in printed
        assert "max_step=0.727273" in printed
        assert "margin=0.625" in printed

    def test_usage_error_unknown_flag_form(self, config_file, capsys):
        assert main(["check", "--config", str(config_file), "--model.k", "2"]) == 1

    def test_usage_error_missing_config_value(self, capsys):
        assert main(["check", "--config"]) == 1

    @pytest.mark.parametrize("form", ["--config", "--config="])
    def test_second_config_is_exit_1(self, config_file, tmp_path, capsys, form):
        """Only one config file is read, so a second one is refused rather
        than left unread."""
        other = tmp_path / "other.cfg"
        other.write_text(STANDARD.replace("k = 1", "k = 2"), encoding="utf-8")
        second = [f"--config={other}"] if form.endswith("=") else [form, str(other)]
        out = tmp_path / "report.csv"
        args = ["check", "--config", str(config_file), *second, f"--out={out}"]
        assert main(args) == 1
        assert "--config may be given only once" in capsys.readouterr().err
        assert not out.exists()

    def test_experiment_disagreeing_with_its_flag_is_exit_1(
        self, config_file, tmp_path, capsys
    ):
        out = tmp_path / "report.csv"
        args = ["check", "--config", str(config_file), f"--out={out}"]
        assert main([*args, "--run.experiment=price"]) == 1
        assert "disagrees with --run.experiment=price" in capsys.readouterr().err
        assert not out.exists()
        # the same experiment twice is no conflict, up to case and blanks
        assert main([*args, "--run.experiment= Check"]) == 0
        assert "feasible=true" in capsys.readouterr().out

    @pytest.mark.parametrize("args, message", [
        (["check", "--model.k=abc"], "invalid number for k: 'abc'"),
        (["check", "--grid.n_steps=1.5"], "invalid integer for n_steps: '1.5'"),
        (["walk"], "unknown experiment 'walk'"),
        (["convergence", "--run.levels=4,x", "--run.ref_exponent=6"],
         "invalid levels list: '4,x'"),
        (["check", "--output.format=xml"], "unknown format 'xml'; expected csv or json"),
        (["moments", "--out="], "empty value for flag: --out"),
        (["check", "--model.k= "], "empty value for flag: --model.k"),
        (["check", "--output.path=x"], "unknown flag: --output.path"),
        (["check", "moments"], "unexpected positional argument 'moments'"),
        (["check\nmoments"], "line break in value for flag: --run.experiment"),
        # every line boundary of str.splitlines
        *[(["check", f"--out=a{sep}b.csv"], "line break in value for flag: --out")
          for sep in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"],
    ])
    def test_rejected_input_is_exit_1(self, config_file, tmp_path, monkeypatch,
                                      capsys, args, message):
        monkeypatch.chdir(tmp_path)
        assert main([*args, "--config", str(config_file)]) == 1
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("cevlab_*"))

    @pytest.mark.parametrize("args, message", [
        (["--config=std.cfg"], "line 3: empty value for key: l"),
        (["--config="], "--config requires a file path"),
        (["--config=missing.cfg"], "cannot read config file"),
        (["--config=latin1.cfg"], "error: cannot read config file: 'utf-8' codec"),
    ])
    def test_unusable_config_file_is_exit_1(self, tmp_path, monkeypatch, capsys,
                                            args, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "std.cfg").write_text(STANDARD.replace("l = 1", "l ="))
        (tmp_path / "latin1.cfg").write_bytes(b"k = 1\nl = \xff\n")
        assert main(["check", *args]) == 1
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("cevlab_*"))

    def test_config_file_with_a_byte_order_mark_is_read(self, tmp_path, capsys):
        # a leading UTF-8 BOM is not part of the first key
        bom = tmp_path / "bom.cfg"
        bom.write_bytes(b"\xef\xbb\xbf" + STANDARD.partition("\n")[2].encode())
        out = tmp_path / "report.csv"
        assert main(["check", "--config", str(bom), f"--out={out}"]) == 0
        assert "feasible=true" in capsys.readouterr().out

    def test_flag_value_not_utf8_is_exit_1_and_writes_nothing(
            self, tmp_path, monkeypatch, capsys):
        # undecodable argv bytes arrive as lone surrogates, which no
        # provenance file could record
        monkeypatch.chdir(tmp_path)
        args = ["simulate", *STD_FLAGS, "--grid.n_steps=4", "--run.n_paths=1",
                "--output.format=json"]
        assert main([*args, "--out=r\udcff.json"]) == 1
        assert "invalid UTF-8 in value for flag: --out" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_parse_error_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(STANDARD.replace("sigma = 1", ""), encoding="utf-8")
        assert main(["check", "--config", str(bad)]) == 1
        assert "missing key: sigma" in capsys.readouterr().err

    def test_validation_error_is_exit_2(self, config_file, capsys):
        assert main(["check", "--config", str(config_file), "--model.a=1.2"]) == 2
        assert "a must lie in (0.5, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_u64_is_exit_2(self, config_file, tmp_path, capsys, seed):
        out = tmp_path / "paths.csv"
        args = ["simulate", "--config", str(config_file), f"--run.seed={seed}"]
        assert main([*args, f"--out={out}"]) == 2
        assert "seed must be an integer in [0, 2^64)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-1", "many"])
    def test_bad_worker_cap_is_exit_2(self, tmp_path, monkeypatch, capsys, threads):
        # the worker cap has one home, the environment, and the error names it
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("CEVLAB_THREADS", threads)
        args = ["moments", *STD_FLAGS, "--grid.n_steps=16", "--run.n_paths=1000"]
        assert main([*args, "--out=m.json"]) == 2
        err = capsys.readouterr().err
        assert f"CEVLAB_THREADS must be a positive integer, got {threads!r}" in err
        assert not (tmp_path / "m.json").exists()

    def test_infeasible_level_is_exit_2(self, config_file, tmp_path, capsys):
        code = main(
            [
                "convergence",
                "--config",
                str(config_file),
                "--grid.t_end=16",
                "--grid.n_steps=512",
                "--run.levels=4,5",
                "--run.ref_exponent=9",
            ]
        )
        assert code == 2
        assert "e=4" in capsys.readouterr().err

    def test_convergence_n_steps_mismatch_is_exit_2(self, tmp_path, monkeypatch, capsys):
        # convergence steps on 2^ref_exponent and its own levels, so any other
        # n_steps would be recorded in the provenance of a run that never used it
        monkeypatch.chdir(tmp_path)
        args = ["convergence", *STD_FLAGS, "--grid.n_steps=7", "--run.ref_exponent=8"]
        args += ["--run.levels=3,4,5", "--run.n_paths=1000", "--output.format=json"]
        assert main([*args, "--out=c.json"]) == 2
        err = capsys.readouterr().err
        assert "n_steps (7) must equal 2^ref_exponent (2^8)" in err
        assert not (tmp_path / "c.json").exists()
        assert main([*args, "--grid.n_steps=256", "--out=c.json"]) == 0

    @pytest.mark.parametrize(
        "ref, message",
        [
            # 2^20000 has 6021 decimal digits, past int-to-str's limit
            ("20000", "n_steps (64) must equal 2^ref_exponent (2^20000)"),
            ("-1", "ref_exponent must be >= 0, got -1"),
        ],
    )
    def test_ref_exponent_out_of_range_is_exit_2(self, capsys, ref, message):
        args = ["convergence", *STD_FLAGS, "--grid.n_steps=64", "--run.levels=3,4"]
        args += [f"--run.ref_exponent={ref}", "--run.n_paths=1000", "--dry-run"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_ignored_scheme_is_exit_2(self, config_file, tmp_path, capsys):
        out = tmp_path / "price.json"
        code = main(
            [
                "price",
                "--config",
                str(config_file),
                "--run.scheme=EulerNaive",
                "--run.payoff=EuropeanCall",
                "--run.strike=1.0",
                "--run.n_paths=1000",
                f"--out={out}",
            ]
        )
        assert code == 2
        assert "always steps SemiDiscrete" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_ladder_is_exit_3(self, config_file, tmp_path, capsys):
        # Euler with k*dt ~ 1e99 overflows, so every level's rmse is NaN
        out = tmp_path / "div.json"
        code = main(
            [
                "convergence",
                "--config",
                str(config_file),
                "--model.k=1e100",
                "--run.scheme=EulerNaive",
                "--run.levels=2,3,4",
                "--run.ref_exponent=6",
                "--run.n_paths=1000",
                f"--out={out}",
            ]
        )
        assert code == 3
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_ignored_key_is_exit_2(self, config_file, tmp_path, capsys):
        out = tmp_path / "moments.json"
        code = main(
            [
                "moments",
                "--config",
                str(config_file),
                "--run.payoff=EuropeanPut",
                "--run.strike=5",
                "--run.n_paths=1000",
                f"--out={out}",
            ]
        )
        assert code == 2
        assert "payoff applies only to price" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_moments_are_exit_3(self, tmp_path, monkeypatch, capsys):
        # Euler with k*dt ~ 1e98 overflows, so the sample moments would be NaN
        monkeypatch.chdir(tmp_path)
        args = ["moments", *STD_FLAGS, "--grid.n_steps=64", "--model.k=1e100"]
        args += ["--run.scheme=EulerNaive", "--run.n_paths=1000", "--out=m.json"]
        assert main(args) == 3
        assert "is not finite" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_unwritable_output_is_exit_3(self, config_file, capsys):
        code = main(
            ["check", "--config", str(config_file), "--out=/nonexistent/dir/x.csv"]
        )
        assert code == 3

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_artifact_write_is_exit_3(self, tmp_path, monkeypatch, capsys, fmt):
        # the disk fills up halfway through the artifact, inside its arrays
        # (one path per block): the run reports the failure, leaks no fd and
        # leaves no partial artifact with a provenance block behind
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("cevlab.cli._BLOCK_CELLS", 9)
        args = ["simulate", *STD_FLAGS, "--grid.n_steps=8", "--run.n_paths=7",
                f"--output.format={fmt}"]
        assert main([*args, "--out=whole"]) == 0
        space = os.path.getsize("whole") // 2
        written = _fill_disk(monkeypatch, space)
        capsys.readouterr()
        before = len(os.listdir("/proc/self/fd"))
        assert main([*args, f"--out=paths.{fmt}"]) == 3
        assert len(os.listdir("/proc/self/fd")) == before
        err = capsys.readouterr().err
        assert f"error: cannot write output file: [Errno {errno.ENOSPC}]" in err
        assert not (tmp_path / f"paths.{fmt}").exists()
        # the last write that went through was a block of rows: one path
        last = written[-1]
        assert last.count("\r\n") == 9 if fmt == "csv" else last.count(", ") == 8

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("error", [
        KeyboardInterrupt(), SystemExit(7), RuntimeError("boom")], ids=repr)
    def test_interrupted_artifact_write_leaves_nothing(
            self, tmp_path, monkeypatch, capsys, fmt, error):
        # an interrupt or a fault of the program halfway through the write
        # leaves no partial artifact either: an interrupt is raised again,
        # any other exception is an internal error, exit 3
        monkeypatch.chdir(tmp_path)
        _fill_disk(monkeypatch, 300, error)
        args = ["simulate", *STD_FLAGS, "--grid.n_steps=8", "--run.n_paths=7",
                f"--output.format={fmt}", f"--out=part.{fmt}"]
        before = len(os.listdir("/proc/self/fd"))
        if isinstance(error, Exception):
            assert main(args) == 3
            assert "internal error: RuntimeError('boom')" in capsys.readouterr().err
        else:
            with pytest.raises(type(error)):
                main(args)
        assert len(os.listdir("/proc/self/fd")) == before
        assert not list(tmp_path.iterdir())

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_to_a_device_leaves_it(self, config_file, tmp_path, capsys):
        # only a regular file is removed; through a link, so that a fault
        # here could remove no more than the link
        out = tmp_path / "full"
        out.symlink_to("/dev/full")
        assert main(["check", "--config", str(config_file), f"--out={out}"]) == 3
        assert "cannot write output file" in capsys.readouterr().err
        assert out.is_symlink()

    def test_failed_write_through_a_link_removes_its_target(
        self, tmp_path, monkeypatch, capsys
    ):
        # the partial artifact is the file the link points to: that file is
        # removed, and the link is left alone
        monkeypatch.chdir(tmp_path)
        target = tmp_path / "target.json"
        target.write_text("old")
        (tmp_path / "link.json").symlink_to(target)
        _fill_disk(monkeypatch, 200)
        args = ["simulate", *STD_FLAGS, "--grid.n_steps=8", "--run.n_paths=7",
                "--output.format=json", "--out=link.json"]
        assert main(args) == 3
        assert "cannot write output file" in capsys.readouterr().err
        assert not target.exists()
        assert (tmp_path / "link.json").is_symlink()

    def test_help_is_exit_0(self, capsys):
        assert main(["--help"]) == 0
        assert "usage: cevlab" in capsys.readouterr().out

    def test_dry_run_prints_resolved_config(self, config_file, capsys):
        assert main(["check", "--config", str(config_file), "--dry-run"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["resolved_config"]["a"] == 0.75
        assert document["resolved_config"]["experiment"] == "check"

    def test_control_characters_in_strings_round_trip(self, config_file, tmp_path, capsys):
        """A tab in --out is escaped in the JSON artifact and in --dry-run."""
        out = tmp_path / "a\tb.json"
        args = ["check", "--config", str(config_file), "--output.format=json",
                f"--out={out}"]
        assert main([*args, "--dry-run"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["resolved_config"]["out"] == str(out)
        assert main(args) == 0
        document = json.loads(out.read_text(encoding="utf-8"))
        assert document["provenance"]["config"]["out"] == str(out)


class TestArtifacts:
    def test_simulate_csv_schema_and_row_count(self, config_file, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = main(
            [
                "simulate",
                "--config",
                str(config_file),
                "--run.n_paths=3",
                "--grid.n_steps=8",
                f"--out={out}",
            ]
        )
        assert code == 0
        raw = out.read_bytes().decode("utf-8")
        lines = raw.split("\r\n")  # RFC-4180 line endings
        assert lines[0] == "path,step,time,value,z_negative"
        data = [line for line in lines[1:] if line]
        assert len(data) == 3 * (8 + 1)
        first = data[0].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert float(first[3]) == 1.0 and first[4] == "0"

    def test_convergence_csv_schema(self, config_file, tmp_path):
        out = tmp_path / "conv.csv"
        code = main(
            [
                "convergence",
                "--config",
                str(config_file),
                "--grid.n_steps=256",
                "--run.levels=3,4,5",
                "--run.ref_exponent=8",
                "--run.n_paths=1000",
                f"--out={out}",
            ]
        )
        assert code == 0
        lines = out.read_bytes().decode("utf-8").split("\r\n")
        assert lines[0] == "level,dt,mse,rmse,ci95"
        assert len([l for l in lines[1:] if l]) == 3

    def test_moments_csv_schema(self, config_file, tmp_path):
        out = tmp_path / "mom.csv"
        code = main(
            ["moments", "--config", str(config_file), "--run.n_paths=1000", f"--out={out}"]
        )
        assert code == 0
        lines = out.read_bytes().decode("utf-8").split("\r\n")
        assert lines[0] == "metric,value,se"
        metrics = [line.split(",")[0] for line in lines[1:] if line]
        assert metrics == [
            "sample_mean",
            "sample_second_moment",
            "analytic_mean",
            "abs_mean_error",
        ]

    def test_price_csv_schema(self, config_file, tmp_path):
        out = tmp_path / "price.csv"
        code = main(
            [
                "price",
                "--config",
                str(config_file),
                "--run.n_paths=1000",
                "--run.payoff=EuropeanCall",
                "--run.strike=1.0",
                f"--out={out}",
            ]
        )
        assert code == 0
        lines = out.read_bytes().decode("utf-8").split("\r\n")
        assert lines[0] == "metric,value,se"
        assert lines[1].startswith("price,")

    def test_json_report_reruns_bitwise_from_provenance(self, config_file, tmp_path):
        out1 = tmp_path / "a.json"
        args = [
            "convergence",
            "--config",
            str(config_file),
            "--grid.n_steps=256",
            "--run.levels=3,4,5",
            "--run.ref_exponent=8",
            "--run.n_paths=1000",
            "--run.seed=42",
            "--output.format=json",
        ]
        assert main(args + [f"--out={out1}"]) == 0
        document = json.loads(out1.read_text(encoding="utf-8"))
        assert document["provenance"]["master_seed"] == 42
        assert document["provenance"]["version"]
        # rebuild a config file from the provenance block and rerun
        conf = dict(document["provenance"]["config"])
        out2 = tmp_path / "b.json"
        conf["out"] = str(out2)
        rerun_cfg = tmp_path / "rerun.cfg"
        rerun_cfg.write_text(
            "".join(f"{k} = {v}\n" for k, v in conf.items()), encoding="utf-8"
        )
        assert main(["convergence", "--config", str(rerun_cfg)]) == 0
        a = json.loads(out1.read_text(encoding="utf-8"))
        b = json.loads(out2.read_text(encoding="utf-8"))
        assert a["results"] == b["results"]
        # byte-identical apart from the differing output path entry
        assert out1.read_text(encoding="utf-8").replace(str(out1), "X") == out2.read_text(
            encoding="utf-8"
        ).replace(str(out2), "X")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_output_identical_across_thread_caps(
        self, config_file, tmp_path, monkeypatch
    ):
        # Trajectory rows are formatted by the workers too: 7 paths give
        # uneven row blocks for 2 and 3 workers, and Euler with k*dt ~ 1e99
        # fills rows with NaN and Infinity cells.
        convergence = ["convergence", "--grid.n_steps=512", "--run.levels=3,4,5",
                       "--run.ref_exponent=9", "--run.n_paths=5000", "--run.seed=7"]
        simulate = ["simulate", "--grid.n_steps=8", "--run.n_paths=7", "--run.seed=7"]
        diverging = [*simulate, "--run.scheme=EulerNaive", "--model.k=1e100"]
        runs = [(convergence, "json", ("4",))] + [
            (args, fmt, ("2", "3")) for args in (simulate, diverging) for fmt in ("csv", "json")
        ]
        for (experiment, *flags), fmt, caps in runs:
            outs = {}
            for threads in ("1", *caps):
                monkeypatch.setenv("CEVLAB_THREADS", threads)
                out = tmp_path / f"t{threads}.{fmt}"
                args = [experiment, "--config", str(config_file), *flags]
                assert main([*args, f"--output.format={fmt}", f"--out={out}"]) == 0
                outs[threads] = out.read_bytes().replace(str(out).encode(), b"X")
            assert all(out == outs["1"] for out in outs.values()), (flags, fmt)
            if "--model.k=1e100" in flags:
                assert b"NaN" in outs["1"] and b"Infinity" in outs["1"]

    def test_json_floats_round_trip(self, config_file, tmp_path):
        out = tmp_path / "m.json"
        assert (
            main(
                [
                    "moments",
                    "--config",
                    str(config_file),
                    "--run.n_paths=1000",
                    "--output.format=json",
                    f"--out={out}",
                ]
            )
            == 0
        )
        document = json.loads(out.read_text(encoding="utf-8"))
        results = document["results"]
        # 17 significant digits guarantee exact round-trip of doubles
        assert results["sample_mean"] == pytest.approx(
            results["sample_mean"], abs=0.0
        )
        assert isinstance(results["se_mean"], float)
        assert math.isfinite(results["sample_second_moment"])

    @pytest.mark.parametrize(
        "workload, artifact, args", _PINNED_COMMANDS, ids=[c[1] for c in _PINNED_COMMANDS]
    )
    def test_smoke_artifacts_match_reference_hashes(
        self, workload, artifact, args, tmp_path, monkeypatch, capsys
    ):
        # every experiment x format, at seed 7 where it draws paths, artifact
        # and stdout byte for byte; the benchmark's smoke commands are pinned
        # by its hash list
        monkeypatch.chdir(tmp_path)
        fmt = artifact.rpartition(".")[2]
        seed = [] if args[0] == "check" else ["--run.seed=7"]
        args = [*args, *seed, f"--output.format={fmt}", f"--out={artifact}"]
        assert main(args) == 0
        expected = json.loads(CLI_REFERENCE.read_text(encoding="utf-8"))[artifact]
        if workload is not None:
            reference = json.loads(REFERENCE_HASHES.read_text(encoding="utf-8"))
            expected["sha256"] = reference[f"{workload}/smoke/7"][artifact]
        digest = hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest()
        assert digest == expected["sha256"]
        assert capsys.readouterr().out == expected["stdout"]


# Floats the formatter must reproduce exactly: every finite double, signed
# zero, subnormals, the ends of the range, and the non-finite tokens.
_EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
     1.7976931348623157e308, -1.7976931348623157e308, math.nan, math.inf, -math.inf]
)
_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | _EDGE_FLOATS
_INT_DTYPES = st.sampled_from([np.uint8, np.int32, np.int64, np.uint64])
_SHAPES = hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5)
_ARRAYS = hnp.arrays(np.float64, _SHAPES, elements=_FLOATS) | hnp.arrays(np.uint8, _SHAPES)
# Emission block sizes, in cells, that cut the drawn arrays into several
# blocks and rows into pieces, with a ragged last block (None: the default).
_BLOCKS = st.sampled_from([None, 1, 2, 3, 5])


def _assert_same_text(got: str, expected: str) -> None:
    """Equal texts; else name the first line that differs (pytest's own diff
    of two long texts takes minutes)."""
    if got != expected:
        pairs = itertools.zip_longest(got.split("\n"), expected.split("\n"))
        line, (a, b) = next((i, p) for i, p in enumerate(pairs) if p[0] != p[1])
        pytest.fail(f"line {line}: {a!r} != {b!r}")


def _block_cells(n):
    return mock.patch("cevlab.cli._BLOCK_CELLS", n) if n else contextlib.nullcontext()


@st.composite
def _trajectories(draw):
    """``(times, values, events)``, the arguments of ``_trajectory_lines``."""
    n_paths, n_cols = draw(st.integers(0, 4)), draw(st.integers(1, 6))
    return (
        draw(hnp.arrays(np.float64, n_cols, elements=_FLOATS)),
        draw(hnp.arrays(np.float64, (n_paths, n_cols), elements=_FLOATS)),
        draw(hnp.arrays(np.uint8, (n_paths, n_cols))),
    )


def _trajectory(n_paths: int, n_steps: int) -> tuple[np.ndarray, ...]:
    """``(times, values, events)`` of positive paths with rare events, like
    ``simulate``'s."""
    rng = np.random.default_rng(20240601)
    values = rng.lognormal(0.0, 0.5, (n_paths, n_steps + 1))
    events = (rng.random(values.shape) < 0.01).astype(np.uint8)
    return np.linspace(0.0, 1.0, n_steps + 1), values, events


def _csv_writer_text(header, rows) -> str:
    """The text ``csv.writer`` writes for ``header`` and ``rows``, floats
    formatted as in an artifact: the oracle of the CSV line rule."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(
        [_format_float(c) if isinstance(c, float) else c for c in row] for row in rows)
    return buf.getvalue()


# Three full emission blocks of 64-step paths and a ragged fourth one
_TRAJECTORY = _trajectory(3 * (cli._BLOCK_CELLS // 65) + 11, 64)


def _json_text(obj: object) -> str:
    """The whole text that ``_json_dumps`` writes for ``obj``."""
    pieces: list[str] = []
    _json_dumps(obj, pieces.append)
    return "".join(pieces)


@dataclasses.dataclass(frozen=True)
class _Record:
    n: int
    x: float
    values: object


class TestArrayFormatting:
    """The array formatters write exactly what per-cell formatting writes."""

    @given(row=hnp.arrays(np.float64, st.integers(0, 12), elements=_FLOATS))
    @settings(max_examples=300)
    def test_float_row_matches_per_cell_format(self, row):
        expected = ", ".join(_format_float(x) for x in row.tolist())
        assert _json_text(row) == f"[{expected}]"

    @given(data=st.data(), dtype=_INT_DTYPES, size=st.integers(0, 12))
    @settings(max_examples=100)
    def test_int_row_matches_str(self, data, dtype, size):
        row = data.draw(hnp.arrays(dtype, size))
        assert _json_text(row) == "[" + ", ".join(str(x) for x in row.tolist()) + "]"

    @given(arr=_ARRAYS, block=_BLOCKS)
    @example(arr=_TRAJECTORY[1], block=None)
    @example(arr=_TRAJECTORY[2], block=None)
    @settings(max_examples=150, deadline=None)  # the reference takes ~0.2 s on the example
    def test_json_array_layout_matches_nested_lists(self, arr, block):
        doc = {"times": arr, "nested": {"paths": arr}}
        listed = {"times": arr.tolist(), "nested": {"paths": arr.tolist()}}
        with _block_cells(block):
            text = _json_text(doc)
        _assert_same_text(text, _json_text(listed))

    @given(traj=_trajectories(), block=_BLOCKS)
    @example(traj=_TRAJECTORY, block=None)
    @settings(max_examples=100, deadline=None)
    def test_trajectory_csv_matches_csv_writer(self, traj, block):
        times, values, events = traj
        n_paths, n_cols = values.shape
        header = ("path", "step", "time", "value", "z_negative")
        rows = [
            (p, k, float(times[k]), float(values[p, k]), int(events[p, k]))
            for p in range(n_paths)
            for k in range(n_cols)
        ]
        by_path = io.StringIO()
        with _block_cells(block):
            _csv_text(header, _trajectory_lines(*traj), by_path)
        _assert_same_text(by_path.getvalue(), _csv_writer_text(header, rows))

    def test_csv_lines_match_csv_writer(self):
        header = ("metric", "value", "se")
        rows = [
            ("nan", math.nan, 0.0), ("inf", math.inf, -math.inf),
            ("negative_zero", -0.0, 5e-324), ("huge", 1e308, -1e308),
            ("ints", 0, 2**64), ("mixed", -7, 0.1),
        ]
        buf = io.StringIO()
        _csv_text(header, [_csv_line(row) for row in rows], buf)
        assert buf.getvalue() == _csv_writer_text(header, rows)
        assert buf.getvalue().splitlines()[1:4] == [
            "nan,NaN,0", "inf,Infinity,-Infinity", "negative_zero,-0,4.9406564584124654e-324"]

    def test_json_layout_of_every_value_kind(self):
        doc = {
            "empty_map": {}, "empty_list": [], "flag": True, "none": None,
            "text": 'say "hi" \\ bye', "n": 3, "x": -0.5,
            "flat": [1, 2.5, "a"],
            "nested": [{"k": [1, 2]}, [], [3]],
            "times": np.array([0.0, 0.5]),
            "paths": np.array([[1.0, math.nan], [math.inf, 2.0]]),
            "events": np.zeros((2, 3), dtype=np.uint8),
            "no_rows": np.zeros((0, 3)),
            "record": _Record(1, -0.5, np.array([0.0, 0.5])),
            "records": [_Record(2, math.nan, np.array([3.0])), _Record(3, 1e-300, [])],
        }
        as_dicts = {
            **doc,
            "record": {"n": 1, "x": -0.5, "values": np.array([0.0, 0.5])},
            "records": [
                {"n": 2, "x": math.nan, "values": np.array([3.0])},
                {"n": 3, "x": 1e-300, "values": []},
            ],
        }
        expected = (
            '{\n  "empty_map": {},\n  "empty_list": [],\n  "flag": true,\n'
            '  "none": null,\n  "text": "say \\"hi\\" \\\\ bye",\n  "n": 3,\n'
            '  "x": -0.5,\n  "flat": [1, 2.5, "a"],\n'
            '  "nested": [\n    {\n      "k": [1, 2]\n    },\n    [],\n    [3]\n  ],\n'
            '  "times": [0, 0.5],\n  "paths": [\n    [1, NaN],\n    [Infinity, 2]\n  ],\n'
            '  "events": [\n    [0, 0, 0],\n    [0, 0, 0]\n  ],\n  "no_rows": [],\n'
            '  "record": {\n    "n": 1,\n    "x": -0.5,\n    "values": [0, 0.5]\n  },\n'
            '  "records": [\n    {\n      "n": 2,\n      "x": NaN,\n      "values": [3]\n'
            '    },\n    {\n      "n": 3,\n      "x": 1e-300,\n'
            '      "values": []\n    }\n  ]\n}'
        )
        assert _json_text(doc) == expected
        assert _json_text(as_dicts) == expected
        # a record's fields are walked shallowly: its arrays are not copied
        assert _fields(doc["record"])["values"] is doc["record"].values

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n_paths, n_steps", [(8192, 64), (2, 266_239)])
    def test_array_emission_memory_is_bounded(self, fmt, n_paths, n_steps):
        # the text is held a block at a time, and a long row is cut: in
        # blocks of 4096 cells these peak at 0.99-1.29 MB of traced memory,
        # plus, for the CSV, the ",step,time," cells that are formatted once
        # for all paths (29 bytes a column here); in blocks of 8320 (128
        # rows) the JSON of 8192 x 65 cells peaks at 2.05 MB
        traj = _trajectory(n_paths, n_steps)
        null = types.SimpleNamespace(write=lambda text: None)
        tracemalloc.start()
        try:
            if fmt == "csv":
                header = ("path", "step", "time", "value", "z_negative")
                _csv_text(header, _trajectory_lines(*traj), null)
            else:
                _json_dumps(traj[1], null.write)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6e6 + (40 * n_steps if fmt == "csv" else 0)

    def test_unsupported_arrays_rejected(self):
        with pytest.raises(TypeError):
            _json_text(np.zeros((2, 2, 2)))
        with pytest.raises(TypeError):
            _json_text(np.array(["a"]))
