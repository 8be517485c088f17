"""Flat key=value run configuration with dotted CLI flag overrides.

A config document is UTF-8 text, one ``key = value`` pair per line, ``#``
comments allowed.  CLI flags use ``--section.key=value`` and override file
values.  Section names exist only on the flag side; the file is flat.

Every rule this module applies comes from ``model``, so parsing and
validating a run loads no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .errors import ParseError, ValidationError
from .model import (
    CevParams,
    PayoffKind,
    PayoffSpec,
    SchemeId,
    TimeGrid,
    _ladder_heights,
    _require_feasible,
    _require_feasible_ladder,
    _require_paths,
    _require_u64,
)

__all__ = ["RunConfig", "parse_config", "EXPERIMENTS", "FLAG_TO_KEY"]

EXPERIMENTS = ("check", "simulate", "convergence", "moments", "negativity", "price")

# CI-bearing reports get a path floor; raw path dumps and event counts do not.
_MIN_REPORT_PATHS = 1000
_REPORT_EXPERIMENTS = ("convergence", "moments", "price")
# Experiments that have no scheme choice: a scheme key naming another scheme
# would be recorded in the provenance of a run that never used it.
_SEMI_DISCRETE_ONLY = ("negativity", "price")
# Keys read by one experiment only: it requires them, and any other
# experiment rejects them rather than ignore them.
_EXPERIMENT_KEYS = {"levels": "convergence", "ref_exponent": "convergence",
                    "payoff": "price", "strike": "price"}

_REQUIRED_KEYS = ("k", "l", "sigma", "a", "x0", "t_end", "n_steps", "experiment")

# Dotted flag name -> flat config key; its values are every key a config
# document may set.
FLAG_TO_KEY = {
    "model.k": "k",
    "model.l": "l",
    "model.sigma": "sigma",
    "model.a": "a",
    "model.x0": "x0",
    "grid.t_end": "t_end",
    "grid.n_steps": "n_steps",
    "run.experiment": "experiment",
    "run.scheme": "scheme",
    "run.n_paths": "n_paths",
    "run.seed": "seed",
    "run.levels": "levels",
    "run.ref_exponent": "ref_exponent",
    "run.payoff": "payoff",
    "run.strike": "strike",
    "output.format": "format",
    "output.path": "out",
    "out": "out",
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved and validated run description."""

    params: CevParams
    grid: TimeGrid
    experiment: str
    scheme: SchemeId
    n_paths: int
    seed: int
    levels: tuple[int, ...] | None  # convergence's test exponents under grid
    payoff: PayoffSpec | None
    out_format: str
    out_path: str

    def flat_items(self) -> dict[str, object]:
        """Canonical flat key=value view; feeding it back through
        parse_config reproduces this config exactly."""
        items: dict[str, object] = {
            "k": self.params.k,
            "l": self.params.l,
            "sigma": self.params.sigma,
            "a": self.params.a,
            "x0": self.params.x0,
            "t_end": self.grid.t_end,
            "n_steps": self.grid.n_steps,
            "experiment": self.experiment,
            "scheme": self.scheme.value,
            "n_paths": self.n_paths,
            "seed": self.seed,
            "format": self.out_format,
            "out": self.out_path,
        }
        if self.levels is not None:
            items["levels"] = ",".join(str(e) for e in self.levels)
            items["ref_exponent"] = self.grid.n_steps.bit_length() - 1
        if self.payoff is not None:
            items["payoff"] = self.payoff.kind.value
            items["strike"] = self.payoff.strike
        return items


def _parse_document(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in FLAG_TO_KEY.values():
            raise ParseError(f"line {lineno}: unknown key: {key}")
        if key in values:
            raise ParseError(f"line {lineno}: duplicate key: {key}")
        if not value:
            raise ParseError(f"line {lineno}: empty value for key: {key}")
        values[key] = value
    return values


def _apply_overrides(values: dict[str, str], overrides: Mapping[str, str]) -> None:
    for flag, value in overrides.items():
        key = FLAG_TO_KEY.get(flag)
        if key is None:
            known = ", ".join(sorted(FLAG_TO_KEY))
            raise ParseError(f"unknown flag: --{flag} (known: {known})")
        values[key] = value


def _float(values: Mapping[str, str], key: str) -> float:
    try:
        x = float(values[key])
    except ValueError:
        raise ParseError(f"invalid number for {key}: {values[key]!r}") from None
    if not math.isfinite(x):
        raise ParseError(f"{key} must be finite, got {values[key]!r}")
    return x


def _int(values: Mapping[str, str], key: str) -> int:
    try:
        return int(values[key])
    except ValueError:
        raise ParseError(f"invalid integer for {key}: {values[key]!r}") from None


def parse_config(text: str, overrides: Mapping[str, str] | None = None) -> RunConfig:
    """Parse a flat config document, apply flag overrides, validate.

    Raises ParseError for malformed or incomplete input and ValidationError
    when values violate a model invariant or the stability precondition of
    the requested experiment, or set a key that the experiment ignores.
    """
    values = _parse_document(text)
    if overrides:
        _apply_overrides(values, overrides)

    for key in _REQUIRED_KEYS:
        if key not in values:
            raise ParseError(f"missing key: {key}")

    experiment = values["experiment"].strip().lower()
    if experiment not in EXPERIMENTS:
        raise ParseError(
            f"unknown experiment {values['experiment']!r}; "
            f"expected one of: {', '.join(EXPERIMENTS)}"
        )
    for key, owner in _EXPERIMENT_KEYS.items():
        if experiment == owner and key not in values:
            raise ParseError(f"missing key: {key}")
        if experiment != owner and key in values:
            raise ValidationError(f"{key} applies only to {owner}, not to {experiment}")

    params = CevParams(
        k=_float(values, "k"),
        l=_float(values, "l"),
        sigma=_float(values, "sigma"),
        a=_float(values, "a"),
        x0=_float(values, "x0"),
    )
    grid = TimeGrid(t_end=_float(values, "t_end"), n_steps=_int(values, "n_steps"))

    scheme = SchemeId.parse(values.get("scheme", SchemeId.SEMI_DISCRETE.value))
    if experiment in _SEMI_DISCRETE_ONLY and scheme is not SchemeId.SEMI_DISCRETE:
        raise ValidationError(
            f"{experiment} always steps {SchemeId.SEMI_DISCRETE.value}; "
            f"scheme {scheme.value} is not supported"
        )
    n_paths = _int(values, "n_paths") if "n_paths" in values else 1000
    seed = _int(values, "seed") if "seed" in values else 0
    _require_u64("seed", seed)
    _require_paths(n_paths, 1)
    if experiment in _REPORT_EXPERIMENTS and n_paths < _MIN_REPORT_PATHS:
        raise ValidationError(
            f"{experiment} reports require n_paths >= {_MIN_REPORT_PATHS}"
        )

    levels: tuple[int, ...] | None = None
    if experiment == "convergence":
        try:
            levels = tuple(int(tok) for tok in values["levels"].split(","))
        except ValueError:
            raise ParseError(f"invalid levels list: {values['levels']!r}") from None
        ref_exponent = _int(values, "ref_exponent")
        if ref_exponent < 0:
            raise ValidationError(f"ref_exponent must be >= 0, got {ref_exponent}")
        # by bit_length: 2^ref_exponent itself may be too large to form or print
        n = grid.n_steps
        if n & (n - 1) or n.bit_length() - 1 != ref_exponent:
            raise ValidationError(
                f"convergence steps on its reference grid: n_steps ({n}) "
                f"must equal 2^ref_exponent (2^{ref_exponent})"
            )
        _ladder_heights(grid, levels)  # raises unless the ladder is valid

    payoff: PayoffSpec | None = None
    if experiment == "price":
        payoff = PayoffSpec(
            kind=PayoffKind.parse(values["payoff"]),
            strike=_float(values, "strike"),
        )

    out_format = values.get("format", "csv").strip().lower()
    if out_format not in ("csv", "json"):
        raise ParseError(f"unknown format {values.get('format')!r}; expected csv or json")
    out_path = values.get("out", f"cevlab_{experiment}.{out_format}")

    # stability pre-checks: 'check' reports infeasibility as data, everything
    # else that steps the semi-discrete scheme must start from a feasible grid
    if scheme is SchemeId.SEMI_DISCRETE and experiment != "check":
        if levels is not None:
            _require_feasible_ladder(params, grid, levels)
        else:
            _require_feasible(params, grid.dt, "grid step")

    return RunConfig(
        params=params,
        grid=grid,
        experiment=experiment,
        scheme=scheme,
        n_paths=n_paths,
        seed=seed,
        levels=levels,
        payoff=payoff,
        out_format=out_format,
        out_path=out_path,
    )
