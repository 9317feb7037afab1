"""Flat key = value run configuration.

The config format is deliberately minimal: one dotted key per line, '#'
comments, UTF-8.  Unknown keys are rejected, malformed or non-finite literals
are syntax errors with line/column positions, and out-of-range values are
validation errors naming the offending key.  Unspecified keys fall back to the
reference single-trajectory setup (sech carrier initial data on [-20, 20)
with N = 400, dt = 0.01, defocusing cubic nonlinearity, 100 noise modes at
amplitude 0.01, horizon T = 10).

Each setting is declared once, as a ``RunConfig`` field: its annotation picks
the literal parser, and ``_setting`` attaches the dotted key, the range check
and the one-line comment that ``write_default_config`` renders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

from .errors import ParseError, UnknownKeyError, ValidationError


class _Malformed(Exception):
    """Internal: literal did not parse; converted to ParseError with position."""


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


def _parse_str(text: str) -> str:
    if not text:
        raise _Malformed("empty value")
    return text


def _parse_float_list(text: str) -> tuple[float, ...]:
    items = [part.strip() for part in text.split(",")]
    if not items or any(not part for part in items):
        raise _Malformed(f"invalid number list {text!r}")
    return tuple(_parse_float(part) for part in items)


# field annotation (a string under postponed evaluation) -> literal parser
_LITERALS = {"float": _parse_float, "int": _parse_int, "str": _parse_str, "tuple[float, ...]": _parse_float_list}


def _positive(key: str, value):
    if value <= 0:
        raise ValidationError(key, f"must be > 0, got {value}")
    return value


def _non_negative(key: str, value):
    if value < 0:
        raise ValidationError(key, f"must be >= 0, got {value}")
    return value


def _at_least_1(key: str, value: int) -> int:
    if value < 1:
        raise ValidationError(key, f"must be >= 1, got {value}")
    return value


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


def _setting(key: str, default, comment: str, check=lambda key, value: value):
    """A RunConfig field declaring its config key, range check and comment."""
    return field(default=default, metadata={"key": key, "comment": comment, "check": check})


@dataclass(frozen=True)
class RunConfig:
    """Validated settings for every experiment driver."""

    grid_a: float = _setting("grid.a", -20.0, "left endpoint of the periodic domain [a, b)")
    grid_b: float = _setting("grid.b", 20.0, "right endpoint (excluded node)")
    grid_n: int = _setting("grid.N", 400, "grid points, even", _even_grid)
    alpha: float = _setting("model.alpha", 0.6, "fractional exponent in (0, 1]", _unit_interval)
    lam: float = _setting("model.lambda", 1.0, "nonlinearity sign: +1 defocusing, -1 focusing")
    sigma: float = _setting("model.sigma", 1.0, "nonlinearity power", _non_negative)
    epsilon: float = _setting("model.epsilon", 0.01, "noise amplitude", _non_negative)
    integrator: str = _setting(
        "scheme.integrator", "midpoint", "midpoint | splitting", _choice("midpoint", "splitting")
    )
    dt: float = _setting("scheme.dt", 0.01, "time step", _positive)
    fp_tol: float = _setting("scheme.fp_tol", 1e-12, "implicit-solver residual tolerance (discrete l2)", _positive)
    fp_max_iter: int = _setting("scheme.fp_max_iter", 50, "implicit-solver iteration cap", _at_least_1)
    noise_k: int = _setting("noise.K", 100, "retained noise modes", _at_least_1)
    noise_profile: str = _setting("noise.profile", "sin", "spatial mode family", _choice("sin"))
    noise_seed: int = _setting(
        "noise.seed", 123456789, "master seed (overridden by SFNSE_SEED, then --seed)", _check_seed
    )
    horizon_t: float = _setting("horizon.T", 10.0, "final model time", _positive)
    out_dir: str = _setting("output.dir", "out", "output directory for CSV and snapshot files")
    snapshot_stride: int = _setting("output.snapshot_stride", 100, "steps between snapshots; 0 disables", _non_negative)
    diagnostics_stride: int = _setting("output.diagnostics_stride", 10, "steps between diagnostics rows", _at_least_1)
    energy_stride: int = _setting("energy.stride", 10, "steps between energy samples", _at_least_1)
    energy_n_paths: int = _setting("energy.n_paths", 10, "ensemble size for the energy study", _at_least_1)
    mass_alphas: tuple[float, ...] = _setting(
        "mass.alphas", (0.6, 0.75, 0.9), "exponents for the mass table", _alpha_list
    )
    mass_sample_dt: float = _setting("mass.sample_dt", 2.0, "model time between mass samples", _positive)
    converge_base_dt: float = _setting("converge.base_dt", 0.01, "coarsest step of the convergence study", _positive)
    converge_levels: int = _setting("converge.levels", 5, "number of halving levels (r = 0..levels-1)", _at_least_1)
    converge_ref_level: int = _setting(
        "converge.ref_level", 5, "reference halving level, must exceed levels-1", _at_least_1
    )
    converge_n_paths: int = _setting("converge.n_paths", 100, "Monte Carlo paths (paper scale: 500)", _at_least_1)
    workers: int = _setting("experiments.workers", 1, "worker processes for path fan-out", _at_least_1)


_BY_KEY = {setting.metadata["key"]: setting for setting in fields(RunConfig)}


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
        if key not in _BY_KEY:
            raise UnknownKeyError(key, line=lineno)
        if key in seen:
            raise ParseError(lineno, 1, f"duplicate key {key!r} (first set on line {seen[key]})")
        seen[key] = lineno
        value_text = value_part.strip()
        value_col = line.index("=") + 1 + (len(value_part) - len(value_part.lstrip())) + 1
        setting = _BY_KEY[key]
        try:
            value = _LITERALS[setting.type](value_text)
        except _Malformed as exc:
            raise ParseError(lineno, value_col, f"{key}: {exc}") from None
        overrides[setting.name] = setting.metadata["check"](key, value)

    config = RunConfig(**overrides)
    if not config.grid_b > config.grid_a:
        raise ValidationError("grid.b", f"must exceed grid.a={config.grid_a}, got {config.grid_b}")
    return config


def _override(config: RunConfig, name: str, value, *attrs: str) -> RunConfig:
    """Set fields ``attrs`` to ``value`` (parsed first if a string) by their own checks, naming ``name``."""
    changes = {}
    for setting in fields(RunConfig):
        if setting.name in attrs:
            try:
                item = _LITERALS[setting.type](value) if isinstance(value, str) else value
            except _Malformed as exc:
                raise ValidationError(name, str(exc)) from None
            changes[setting.name] = setting.metadata["check"](name, item)
    return replace(config, **changes)


def write_default_config() -> str:
    """Render every key with its default value; parses back to RunConfig()."""
    lines = ["# default run configuration", ""]
    for setting in fields(RunConfig):
        value = setting.default
        if isinstance(value, tuple):
            text = ", ".join(repr(item) for item in value)
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{setting.metadata['key']} = {text}  # {setting.metadata['comment']}")
    return "\n".join(lines) + "\n"
