"""Flat key = value run configuration.

The config format is deliberately minimal: one dotted key per line, '#'
comments, UTF-8.  Unknown keys are rejected, malformed or non-finite literals
are syntax errors with line/column positions, and out-of-range values are
validation errors naming the offending key.  Unspecified keys fall back to the
reference single-trajectory setup (sech carrier initial data on [-20, 20)
with N = 400, dt = 0.01, defocusing cubic nonlinearity, 100 noise modes at
amplitude 0.01, horizon T = 10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ParseError, UnknownKeyError, ValidationError


@dataclass(frozen=True)
class RunConfig:
    """Validated settings for every experiment driver."""

    grid_a: float = -20.0
    grid_b: float = 20.0
    grid_n: int = 400
    alpha: float = 0.6
    lam: float = 1.0
    sigma: float = 1.0
    epsilon: float = 0.01
    integrator: str = "midpoint"
    dt: float = 0.01
    fp_tol: float = 1e-12
    fp_max_iter: int = 50
    splitting_nonlinear: bool = False
    noise_k: int = 100
    noise_profile: str = "sin"
    noise_seed: int = 123456789
    horizon_t: float = 10.0
    out_dir: str = "out"
    snapshot_stride: int = 100
    diagnostics_stride: int = 10
    energy_stride: int = 10
    energy_n_paths: int = 10
    mass_alphas: tuple[float, ...] = (0.6, 0.75, 0.9)
    mass_sample_dt: float = 2.0
    converge_base_dt: float = 0.01
    converge_levels: int = 5
    converge_ref_level: int = 5
    converge_n_paths: int = 100
    workers: int = 1


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise _Malformed(f"invalid number {text!r}") from None
    if not math.isfinite(value):
        raise _Malformed(f"non-finite number {text!r}")
    return value


def _parse_int(text: str) -> int:
    try:
        return int(text, 10)
    except ValueError:
        raise _Malformed(f"invalid integer {text!r}") from None


def _parse_bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise _Malformed(f"invalid boolean {text!r} (expected true or false)")


def _parse_str(text: str) -> str:
    if not text:
        raise _Malformed("empty value")
    return text


def _parse_float_list(text: str) -> tuple[float, ...]:
    items = [part.strip() for part in text.split(",")]
    if not items or any(not part for part in items):
        raise _Malformed(f"invalid number list {text!r}")
    return tuple(_parse_float(part) for part in items)


class _Malformed(Exception):
    """Internal: literal did not parse; converted to ParseError with position."""


def _positive(key: str, value):
    if value <= 0:
        raise ValidationError(key, f"must be > 0, got {value}")
    return value


def _non_negative(key: str, value):
    if value < 0:
        raise ValidationError(key, f"must be >= 0, got {value}")
    return value


def _at_least(minimum):
    def check(key, value):
        if value < minimum:
            raise ValidationError(key, f"must be >= {minimum}, got {value}")
        return value

    return check


def _check_seed(key: str, value: int) -> int:
    # Philox keys are 64-bit: a wider seed would alias one below 2^64
    if not 0 <= value < 2**64:
        raise ValidationError(key, f"seed must lie in [0, 2^64 - 1], got {value}")
    return value


def _unit_interval(key: str, value: float) -> float:
    if not 0.0 < value <= 1.0:
        raise ValidationError(key, f"must lie in (0, 1], got {value}")
    return value


def _alpha_list(key: str, value: tuple[float, ...]) -> tuple[float, ...]:
    for item in value:
        _unit_interval(key, item)
    return value


def _even_grid(key: str, value: int) -> int:
    if value % 2 != 0 or value < 4:
        raise ValidationError(key, f"must be an even integer >= 4, got {value}")
    return value


def _choice(*options):
    def check(key, value):
        if value not in options:
            raise ValidationError(key, f"must be one of {options}, got {value!r}")
        return value

    return check


def _any(key, value):
    return value


# key -> (dataclass attribute, literal parser, semantic validator)
_SCHEMA = {
    "grid.a": ("grid_a", _parse_float, _any),
    "grid.b": ("grid_b", _parse_float, _any),
    "grid.N": ("grid_n", _parse_int, _even_grid),
    "model.alpha": ("alpha", _parse_float, _unit_interval),
    "model.lambda": ("lam", _parse_float, _any),
    "model.sigma": ("sigma", _parse_float, _non_negative),
    "model.epsilon": ("epsilon", _parse_float, _non_negative),
    "scheme.integrator": ("integrator", _parse_str, _choice("midpoint", "splitting")),
    "scheme.dt": ("dt", _parse_float, _positive),
    "scheme.fp_tol": ("fp_tol", _parse_float, _positive),
    "scheme.fp_max_iter": ("fp_max_iter", _parse_int, _at_least(1)),
    "scheme.splitting_nonlinear": ("splitting_nonlinear", _parse_bool, _any),
    "noise.K": ("noise_k", _parse_int, _at_least(1)),
    "noise.profile": ("noise_profile", _parse_str, _choice("sin")),
    "noise.seed": ("noise_seed", _parse_int, _check_seed),
    "horizon.T": ("horizon_t", _parse_float, _positive),
    "output.dir": ("out_dir", _parse_str, _any),
    "output.snapshot_stride": ("snapshot_stride", _parse_int, _non_negative),
    "output.diagnostics_stride": ("diagnostics_stride", _parse_int, _at_least(1)),
    "energy.stride": ("energy_stride", _parse_int, _at_least(1)),
    "energy.n_paths": ("energy_n_paths", _parse_int, _at_least(1)),
    "mass.alphas": ("mass_alphas", _parse_float_list, _alpha_list),
    "mass.sample_dt": ("mass_sample_dt", _parse_float, _positive),
    "converge.base_dt": ("converge_base_dt", _parse_float, _positive),
    "converge.levels": ("converge_levels", _parse_int, _at_least(1)),
    "converge.ref_level": ("converge_ref_level", _parse_int, _at_least(1)),
    "converge.n_paths": ("converge_n_paths", _parse_int, _at_least(1)),
    "experiments.workers": ("workers", _parse_int, _at_least(1)),
}

_COMMENTS = {
    "grid.a": "left endpoint of the periodic domain [a, b)",
    "grid.b": "right endpoint (excluded node)",
    "grid.N": "grid points, even",
    "model.alpha": "fractional exponent in (0, 1]",
    "model.lambda": "nonlinearity sign: +1 defocusing, -1 focusing",
    "model.sigma": "nonlinearity power",
    "model.epsilon": "noise amplitude",
    "scheme.integrator": "midpoint | splitting",
    "scheme.dt": "time step",
    "scheme.fp_tol": "implicit-solver residual tolerance (discrete l2)",
    "scheme.fp_max_iter": "implicit-solver iteration cap",
    "scheme.splitting_nonlinear": "enable the experimental sigma > 0 splitting",
    "noise.K": "retained noise modes",
    "noise.profile": "spatial mode family",
    "noise.seed": "master seed (overridden by SFNSE_SEED, then --seed)",
    "horizon.T": "final model time",
    "output.dir": "output directory for CSV and snapshot files",
    "output.snapshot_stride": "steps between snapshots; 0 disables",
    "output.diagnostics_stride": "steps between diagnostics rows",
    "energy.stride": "steps between energy samples",
    "energy.n_paths": "ensemble size for the energy study",
    "mass.alphas": "exponents for the mass table",
    "mass.sample_dt": "model time between mass samples",
    "converge.base_dt": "coarsest step of the convergence study",
    "converge.levels": "number of halving levels (r = 0..levels-1)",
    "converge.ref_level": "reference halving level, must exceed levels-1",
    "converge.n_paths": "Monte Carlo paths (paper scale: 500)",
    "experiments.workers": "worker processes for path fan-out",
}


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config; unspecified keys keep their defaults."""
    overrides: dict[str, object] = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if "=" not in line:
            raise ParseError(lineno, len(line.rstrip()) + 1, "expected 'key = value'")
        key_part, _, value_part = line.partition("=")
        key = key_part.strip()
        if not key:
            raise ParseError(lineno, 1, "missing key before '='")
        if key not in _SCHEMA:
            raise UnknownKeyError(key, line=lineno)
        if key in seen:
            raise ParseError(lineno, 1, f"duplicate key {key!r} (first set on line {seen[key]})")
        seen[key] = lineno
        value_text = value_part.strip()
        value_col = line.index("=") + 1 + (len(value_part) - len(value_part.lstrip())) + 1
        attr, literal, validate = _SCHEMA[key]
        try:
            value = literal(value_text)
        except _Malformed as exc:
            raise ParseError(lineno, value_col, f"{key}: {exc}") from None
        overrides[attr] = validate(key, value)

    config = RunConfig(**overrides)
    if not config.grid_b > config.grid_a:
        raise ValidationError("grid.b", f"must exceed grid.a={config.grid_a}, got {config.grid_b}")
    return config


def write_default_config() -> str:
    """Render every key with its default value; parses back to RunConfig()."""
    defaults = RunConfig()
    by_attr = {attr: key for key, (attr, _, _) in _SCHEMA.items()}
    lines = ["# default run configuration", ""]
    for field in fields(RunConfig):
        key = by_attr[field.name]
        value = getattr(defaults, field.name)
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, tuple):
            text = ", ".join(repr(item) for item in value)
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{key} = {text}  # {_COMMENTS[key]}")
    return "\n".join(lines) + "\n"
