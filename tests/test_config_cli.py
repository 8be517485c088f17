"""Config parsing, flag overrides, CSV/JSON artifacts, and CLI exit codes."""

import dataclasses
import errno
import hashlib
import io
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cevlab import ParseError, SchemeId, ValidationError, parse_config
from cevlab.config import EXPERIMENTS
from cevlab.cli import (
    _csv_text,
    _fields,
    _format_float,
    _json_dumps,
    _row_text,
    _Trajectories,
    _write_rows,
    main,
)
from cevlab.experiments import PayoffKind

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
# The experiment x format pairs that no smoke command covers, pinned in
# CLI_REFERENCE: (None, artifact, CLI arguments).
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


class TestParseConfig:
    def test_round_trip(self):
        cfg = parse_config(STANDARD)
        assert cfg.params.k == 1.0 and cfg.params.sigma == 1.0
        assert cfg.params.a == 0.75 and cfg.params.x0 == 1.0
        assert cfg.grid.t_end == 1.0 and cfg.grid.n_steps == 64
        assert cfg.experiment == "check"
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
            STANDARD,
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
        cfg = parse_config(STANDARD + "scheme = EulerReflected\n")
        assert cfg.scheme is SchemeId.EULER_REFLECTED
        with pytest.raises(ValidationError, match="unknown scheme"):
            parse_config(STANDARD + "scheme = Heun\n")

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

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_provenance_keys_accepted_by_every_experiment(self, experiment):
        base = STANDARD.replace("experiment = check", f"experiment = {experiment}")
        base += _EXPERIMENT_EXTRA.get(experiment, "")
        cfg = parse_config(base + "scheme = SemiDiscrete\nn_paths = 1000\nseed = 3\n")
        text = "\n".join(f"{k} = {v}" for k, v in cfg.flat_items().items())
        assert parse_config(text) == cfg


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
    @pytest.mark.parametrize("failure", ["ENOSPC", "exit"])
    def test_failed_emission_block_is_exit_3(
        self, tmp_path, monkeypatch, capsys, fmt, failure
    ):
        # a forked worker formatting the second block of rows fails, or dies
        # without a word; the run still reports the failure and leaks no fd
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("CEVLAB_THREADS", "2")
        caller = os.getpid()
        original = _write_rows

        def failing_rows(n_rows, rows, write):
            def emit(start, stop, out):
                if os.getpid() != caller:
                    if failure == "exit":
                        os._exit(1)
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                rows(start, stop, out)

            original(n_rows, emit, write)

        monkeypatch.setattr("cevlab.cli._write_rows", failing_rows)
        args = ["simulate", *STD_FLAGS, "--grid.n_steps=8", "--run.n_paths=7"]
        before = len(os.listdir("/proc/self/fd"))
        assert main([*args, f"--output.format={fmt}", f"--out=paths.{fmt}"]) == 3
        assert len(os.listdir("/proc/self/fd")) == before
        err = capsys.readouterr().err
        assert "error: cannot write output file:" in err
        if failure == "exit":
            assert "worker process" in err and "sent no result" in err
        else:
            assert os.strerror(errno.ENOSPC) in err

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
        # every experiment x format at seed 7, artifact and stdout byte for
        # byte; the benchmark's smoke commands are pinned by its hash list
        monkeypatch.chdir(tmp_path)
        fmt = artifact.rpartition(".")[2]
        args = [*args, "--run.seed=7", f"--output.format={fmt}", f"--out={artifact}"]
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
        assert _row_text(row, ", ") == expected

    @given(data=st.data(), dtype=_INT_DTYPES, size=st.integers(0, 12))
    @settings(max_examples=100)
    def test_int_row_matches_str(self, data, dtype, size):
        row = data.draw(hnp.arrays(dtype, size))
        assert _row_text(row, ",") == ",".join(str(x) for x in row.tolist())

    @given(
        data=st.data(),
        shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5),
        floats=st.booleans(),
    )
    @settings(max_examples=150)
    def test_json_array_layout_matches_nested_lists(self, data, shape, floats):
        if floats:
            arr = data.draw(hnp.arrays(np.float64, shape, elements=_FLOATS))
        else:
            arr = data.draw(hnp.arrays(np.uint8, shape))
        doc = {"times": arr, "nested": {"paths": arr}}
        listed = {"times": arr.tolist(), "nested": {"paths": arr.tolist()}}
        assert _json_dumps(doc) == _json_dumps(listed)

    @given(
        data=st.data(),
        n_paths=st.integers(0, 4),
        n_cols=st.integers(1, 6),
    )
    @settings(max_examples=100)
    def test_trajectory_csv_matches_csv_writer(self, data, n_paths, n_cols):
        times = data.draw(hnp.arrays(np.float64, n_cols, elements=_FLOATS))
        values = data.draw(hnp.arrays(np.float64, (n_paths, n_cols), elements=_FLOATS))
        events = data.draw(hnp.arrays(np.uint8, (n_paths, n_cols)))
        header = ("path", "step", "time", "value", "z_negative")
        rows = [
            (p, k, float(times[k]), float(values[p, k]), int(events[p, k]))
            for p in range(n_paths)
            for k in range(n_cols)
        ]
        by_path, by_row = io.StringIO(), io.StringIO()
        _csv_text(header, _Trajectories(times, values, events), by_path)
        _csv_text(header, rows, by_row)
        assert by_path.getvalue() == by_row.getvalue()

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
        assert _json_dumps(doc) == expected
        assert _json_dumps(as_dicts) == expected
        # a record's fields are walked shallowly: its arrays are not copied
        assert _fields(doc["record"])["values"] is doc["record"].values

    def test_unsupported_arrays_rejected(self):
        with pytest.raises(TypeError):
            _json_dumps(np.zeros((2, 2, 2)))
        with pytest.raises(TypeError):
            _json_dumps(np.array(["a"]))
