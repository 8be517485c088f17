"""Flat key=value run configuration with dotted CLI flag overrides.

A config document is UTF-8 text, one ``key = value`` pair per line, ``#``
comments allowed.  CLI flags use ``--section.key=value`` and override file
values.  Section names exist only on the flag side; the file is flat.  A
flag obeys the rules of the file key it names (``FLAG_TO_KEY``): a known
key and a value that is not blank.  ``_EXPERIMENTS`` is the one table of
what each experiment reads; any other key is rejected, never ignored.

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
    "out": "out",
}

_REQUIRED_KEYS = ("k", "l", "sigma", "a", "x0", "t_end", "n_steps", "experiment")
_RUN_KEYS = ("scheme", "n_paths", "seed")  # read by the experiments that draw paths
# What each experiment reads besides _REQUIRED_KEYS, format and out:
# experiment: (keys it reads if given, keys it requires, path floor of its
# report, the one scheme it steps if it has no scheme choice).
_EXPERIMENTS = {
    "check": ((), (), 0, None),
    "simulate": (_RUN_KEYS, (), 0, None),
    "convergence": (_RUN_KEYS, ("levels", "ref_exponent"), 1000, None),
    "moments": (_RUN_KEYS, (), 1000, None),
    "negativity": (_RUN_KEYS, (), 0, SchemeId.SEMI_DISCRETE),
    "price": (_RUN_KEYS, ("payoff", "strike"), 1000, SchemeId.SEMI_DISCRETE),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved and validated run description."""

    params: CevParams
    grid: TimeGrid
    experiment: str
    scheme: SchemeId | None  # None, with n_paths and seed, where no path is drawn
    n_paths: int | None
    seed: int | None
    levels: tuple[int, ...] | None  # convergence's test exponents under grid
    payoff: PayoffSpec | None
    out_format: str
    out_path: str

    def flat_items(self) -> dict[str, object]:
        """Canonical flat key=value view of every key that has a value;
        feeding it back through parse_config reproduces this config exactly."""
        scheme, levels, payoff = self.scheme, self.levels, self.payoff
        items = {
            "k": self.params.k,
            "l": self.params.l,
            "sigma": self.params.sigma,
            "a": self.params.a,
            "x0": self.params.x0,
            "t_end": self.grid.t_end,
            "n_steps": self.grid.n_steps,
            "experiment": self.experiment,
            "scheme": scheme and scheme.value,
            "n_paths": self.n_paths,
            "seed": self.seed,
            "format": self.out_format,
            "out": self.out_path,
            "levels": levels and ",".join(str(e) for e in levels),
            "ref_exponent": levels and self.grid.n_steps.bit_length() - 1,
            "payoff": payoff and payoff.kind.value,
            "strike": payoff and payoff.strike,
        }
        return {key: value for key, value in items.items() if value is not None}


def _entry(key: str | None, value: str, where: str, name: str) -> str:
    """The stripped ``value`` of a file line or flag setting ``key``, under
    the rules both obey: the key is known and the value is one line of UTF-8
    text, not empty, so a provenance config written as a file reads back the
    same."""
    if key not in FLAG_TO_KEY.values():
        raise ParseError(f"{where}unknown {name}")
    value = value.strip()
    if not value:
        raise ParseError(f"{where}empty value for {name}")
    if value.splitlines() != [value]:
        raise ParseError(f"{where}line break in value for {name}")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:  # a flag's undecodable bytes, kept as surrogates
        raise ParseError(f"{where}invalid UTF-8 in value for {name}") from None
    return value


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
        value = _entry(key, value, f"line {lineno}: ", f"key: {key}")
        if key in values:
            raise ParseError(f"line {lineno}: duplicate key: {key}")
        values[key] = value
    return values


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
    the requested experiment, or set a key that the experiment does not read.
    """
    values = _parse_document(text)
    for flag, value in (overrides or {}).items():
        key = FLAG_TO_KEY.get(flag)
        values[key] = _entry(key, value, "", f"flag: --{flag}")

    for key in _REQUIRED_KEYS:
        if key not in values:
            raise ParseError(f"missing key: {key}")

    experiment = values["experiment"].lower()
    if experiment not in EXPERIMENTS:
        raise ParseError(
            f"unknown experiment {values['experiment']!r}; "
            f"expected one of: {', '.join(EXPERIMENTS)}"
        )
    optional, required, min_paths, fixed = _EXPERIMENTS[experiment]
    for key in FLAG_TO_KEY.values():
        readers = [e for e, (o, r, *_) in _EXPERIMENTS.items() if key in o + r]
        if key in required and key not in values:
            raise ParseError(f"missing key: {key}")
        if key in values and readers and experiment not in readers:
            raise ValidationError(
                f"{key} applies only to {'/'.join(readers)}, not to {experiment}"
            )

    params = CevParams(
        k=_float(values, "k"),
        l=_float(values, "l"),
        sigma=_float(values, "sigma"),
        a=_float(values, "a"),
        x0=_float(values, "x0"),
    )
    grid = TimeGrid(t_end=_float(values, "t_end"), n_steps=_int(values, "n_steps"))

    scheme = n_paths = seed = None
    if optional:  # the run keys: the experiment draws paths
        scheme = SchemeId.parse(values.get("scheme", SchemeId.SEMI_DISCRETE.value))
        if fixed not in (None, scheme):
            raise ValidationError(
                f"{experiment} always steps {fixed.value}; "
                f"scheme {scheme.value} is not supported"
            )
        n_paths = _int(values, "n_paths") if "n_paths" in values else 1000
        seed = _int(values, "seed") if "seed" in values else 0
        _require_u64("seed", seed)
        _require_paths(n_paths, 1)
        if n_paths < min_paths:
            raise ValidationError(f"{experiment} reports require n_paths >= {min_paths}")

    levels: tuple[int, ...] | None = None
    if "levels" in required:
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
    if "payoff" in required:
        payoff = PayoffSpec(
            kind=PayoffKind.parse(values["payoff"]),
            strike=_float(values, "strike"),
        )

    out_format = values.get("format", "csv").lower()
    if out_format not in ("csv", "json"):
        raise ParseError(f"unknown format {values.get('format')!r}; expected csv or json")
    out_path = values.get("out", f"cevlab_{experiment}.{out_format}")

    # stability pre-checks: every run that steps the semi-discrete scheme
    # starts from a feasible grid ('check' reports infeasibility as data)
    if scheme is SchemeId.SEMI_DISCRETE:
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
