"""Flat key = value run configuration.

The config format is deliberately minimal: one dotted key per line, '#'
comments, UTF-8.  Unknown keys are rejected, malformed or non-finite literals
are syntax errors with line/column positions, and out-of-range values are
validation errors naming the offending key.  Unspecified keys fall back to the
reference single-trajectory setup (sech carrier initial data on [-20, 20)
with N = 400, dt = 0.01, defocusing cubic nonlinearity, 100 noise modes at
amplitude 0.01, horizon T = 10).

Each setting is declared once, as a ``RunConfig`` field: its annotation picks
the literal parser and the type check, and ``_setting`` attaches the dotted
key, the range check and the one-line comment that ``write_default_config``
renders.  A range rule is never copied: a field calls the checker of the
module that owns the rule, or one of the shared checkers in ``spectral``
(finite real > 0, finite real >= 0, integer >= a bound) that the solver
constructors call too.  ``RunConfig`` applies every check on construction,
so a config built in code is refused the same way as a parsed one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace

from .dynamics import _stepper
from .errors import DomainError, ParseError, UnknownKeyError, ValidationError
from .noise import _check_profile, _check_philox_seed
from .spectral import GridSpec, _check_alpha, _check_grid_n, _is_real
from .spectral import _check_above_zero, _check_at_least, _check_not_negative


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


def _setting(key: str, default, comment: str, check=lambda value: None):
    """A RunConfig field declaring its config key, range check (raising DomainError) and comment."""
    return field(default=default, metadata={"key": key, "comment": comment, "check": check})


# field annotation -> test of admitted values; never a bool, though Python counts it an int
_KINDS = {
    "int": (lambda value: isinstance(value, numbers.Integral), "an integer"),
    "float": (_is_real, "a finite real number"),
    "str": (lambda value: isinstance(value, str), "a string"),
    "tuple[float, ...]": (lambda value: isinstance(value, tuple) and len(value) > 0, "a non-empty tuple"),
}


def _check(setting, value, name: str) -> None:
    """Apply the type and range check of field ``setting`` to ``value``; a failure names ``name``."""
    kind = _KINDS.get(setting.type)
    try:
        if kind and (isinstance(value, bool) or not kind[0](value)):
            raise DomainError(f"must be {kind[1]}, got {value!r}")
        setting.metadata["check"](value)
    except DomainError as exc:
        raise ValidationError(name, str(exc)) from None


@dataclass(frozen=True)
class RunConfig:
    """Settings for every experiment driver, checked on construction (ValidationError names the key)."""

    grid_a: float = _setting("grid.a", -20.0, "left endpoint of the periodic domain [a, b)")
    grid_b: float = _setting("grid.b", 20.0, "right endpoint (excluded node)")
    grid_n: int = _setting("grid.N", 400, "grid points, even", _check_grid_n)
    alpha: float = _setting("model.alpha", 0.6, "fractional exponent in (0, 1]", _check_alpha)
    lam: float = _setting("model.lambda", 1.0, "nonlinearity sign: +1 defocusing, -1 focusing")
    sigma: float = _setting("model.sigma", 1.0, "nonlinearity power", _check_not_negative)
    epsilon: float = _setting("model.epsilon", 0.01, "noise amplitude", _check_not_negative)
    integrator: str = _setting("scheme.integrator", "midpoint", "midpoint | splitting", _stepper)
    dt: float = _setting("scheme.dt", 0.01, "time step", _check_above_zero)
    fp_tol: float = _setting(
        "scheme.fp_tol", 1e-12, "implicit-solver residual tolerance (discrete l2)", _check_above_zero
    )
    fp_max_iter: int = _setting("scheme.fp_max_iter", 50, "implicit-solver iteration cap", _check_at_least)
    noise_k: int = _setting("noise.K", 100, "retained noise modes", _check_at_least)
    noise_profile: str = _setting("noise.profile", "sin", "spatial mode family", _check_profile)
    noise_seed: int = _setting(
        "noise.seed", 123456789, "master seed (overridden by SFNSE_SEED, then --seed)", _check_philox_seed
    )
    horizon_t: float = _setting("horizon.T", 10.0, "final model time", _check_above_zero)
    out_dir: str = _setting("output.dir", "out", "output directory for CSV and snapshot files")
    snapshot_stride: int = _setting(
        "output.snapshot_stride", 100, "steps between snapshots; 0 disables", lambda value: _check_at_least(value, 0)
    )
    diagnostics_stride: int = _setting(
        "output.diagnostics_stride", 10, "steps between diagnostics rows", _check_at_least
    )
    energy_stride: int = _setting("energy.stride", 10, "steps between energy samples", _check_at_least)
    energy_n_paths: int = _setting("energy.n_paths", 10, "ensemble size for the energy study", _check_at_least)
    mass_alphas: tuple[float, ...] = _setting(
        "mass.alphas",
        (0.6, 0.75, 0.9),
        "exponents for the mass table",
        lambda alphas: [_check_alpha(alpha) for alpha in alphas],
    )
    mass_sample_dt: float = _setting("mass.sample_dt", 2.0, "model time between mass samples", _check_above_zero)
    converge_base_dt: float = _setting(
        "converge.base_dt", 0.01, "coarsest step of the convergence study", _check_above_zero
    )
    converge_levels: int = _setting("converge.levels", 5, "number of halving levels (r = 0..levels-1)", _check_at_least)
    converge_ref_level: int = _setting(
        "converge.ref_level", 5, "reference halving level, must exceed levels-1", _check_at_least
    )
    converge_n_paths: int = _setting("converge.n_paths", 100, "Monte Carlo paths (paper scale: 500)", _check_at_least)
    workers: int = _setting("experiments.workers", 1, "worker processes for path fan-out", _check_at_least)

    def __post_init__(self) -> None:
        for setting in fields(self):
            _check(setting, getattr(self, setting.name), setting.metadata["key"])
        try:
            GridSpec(self.grid_a, self.grid_b, self.grid_n)
        except DomainError as exc:
            raise ValidationError("grid.b", str(exc)) from None


_BY_KEY = {setting.metadata["key"]: setting for setting in fields(RunConfig)}


def parse_config(text: str) -> RunConfig:
    """Parse a config into a RunConfig, which validates itself; unspecified keys keep their defaults."""
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
        overrides[setting.name] = value
    return RunConfig(**overrides)


def _override(config: RunConfig, name: str, value, *attrs: str) -> RunConfig:
    """Set fields ``attrs`` to ``value`` (parsed first if a string) by their own checks, naming ``name``."""
    changes = {}
    for setting in fields(RunConfig):
        if setting.name in attrs:
            try:
                item = _LITERALS[setting.type](value) if isinstance(value, str) else value
            except _Malformed as exc:
                raise ValidationError(name, str(exc)) from None
            _check(setting, item, name)
            changes[setting.name] = item
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
