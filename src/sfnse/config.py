"""Flat key = value run configuration.

The config format is deliberately minimal: one dotted key per line, '#'
comments, UTF-8.  Unknown keys, duplicate keys and malformed or non-finite
literals are syntax errors (``ParseError``) with line/column positions, and
out-of-range values are validation errors naming the offending key.
Unspecified keys fall back to the reference single-trajectory setup (sech
carrier initial data on [-20, 20) with N = 400, dt = 0.01, defocusing cubic
nonlinearity, 100 noise modes at amplitude 0.01, horizon T = 10).

Each setting is declared once, as a ``RunConfig`` field: its annotation picks
its kind's entry in ``_KINDS`` (literal parser, type check, literal writer),
which parses a file line and an override (``SFNSE_SEED``, ``--seed``,
``--paths``, ``--out``) alike, as text.  ``_setting`` attaches the dotted
key, the range check and the one-line comment that ``write_default_config``
renders.  A range rule is never copied: a field calls the checker of the
module that owns the rule, or one of the shared checkers in ``spectral``
(finite real > 0, finite real >= 0, integer >= a bound) that the solver
constructors call too.  ``RunConfig`` applies every check on construction,
so a config built in code is refused the same way as a parsed one.

``RunConfig`` also owns the rules between keys: the grid ordering,
``converge.ref_level`` above ``converge.levels - 1`` and its
``converge.base_dt / 2^ref_level`` underflow, and the ``noise.K x grid.N``
table guard.  A rule that needs a study's step count is checked once, at
that study's entry in ``experiments``, before it builds a grid or a table.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace

from .dynamics import _stepper
from .errors import DomainError, ParseError, ValidationError
from .noise import _check_profile, _check_profile_table, _check_philox_seed
from .spectral import GridSpec, _check_alpha, _check_grid_n, _is_real
from .spectral import _check_above_zero, _check_at_least, _check_not_negative


class _Malformed(Exception):
    """Internal: a literal did not parse; its caller names the line and column, or the override source."""


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


def _setting(key: str, default, comment: str, check=lambda value: None):
    """A RunConfig field declaring its config key, range check (raising DomainError) and comment."""
    return field(default=default, metadata={"key": key, "comment": comment, "check": check})


# field annotation (a string under postponed evaluation) -> (literal parser, test of
# admitted values, noun, literal writer); a bool is never admitted, though Python counts it an int
_KINDS = {
    "int": (_parse_int, lambda value: isinstance(value, numbers.Integral), "an integer", str),
    "float": (_parse_float, _is_real, "a finite real number", repr),
    "str": (_parse_str, lambda value: isinstance(value, str), "a string", str),
    "tuple[float, ...]": (
        _parse_float_list,
        lambda value: isinstance(value, tuple) and len(value) > 0,
        "a non-empty tuple",
        lambda values: ", ".join(repr(item) for item in values),
    ),
}


def _check(setting, value, name: str) -> None:
    """Apply the type and range check of field ``setting`` to ``value``; a failure names ``name``."""
    _, admits, noun, _ = _KINDS[setting.type]
    try:
        if isinstance(value, bool) or not admits(value):
            raise DomainError(f"must be {noun}, got {value!r}")
        setting.metadata["check"](value)
    except DomainError as exc:
        raise ValidationError(name, str(exc)) from None


@dataclass(frozen=True)
class RunConfig:
    """Settings for every experiment driver, checked on construction (ValidationError names the key).

    Construction (``parse_config``, a direct call or ``dataclasses.replace``) applies each field's range check,
    then the rules between keys; the checks on a study's step count run at that study's entry.
    """

    grid_a: float = _setting("grid.a", -20.0, "left endpoint of the periodic domain [a, b)")
    grid_b: float = _setting("grid.b", 20.0, "right endpoint (excluded node)")
    grid_n: int = _setting("grid.N", 400, "grid points, even", _check_grid_n)
    alpha: float = _setting("model.alpha", 0.6, "fractional exponent in (0, 1]", _check_alpha)
    lam: float = _setting("model.lambda", 1.0, "nonlinearity sign: +1 defocusing, -1 focusing")
    sigma: float = _setting("model.sigma", 1.0, "nonlinearity power", _check_not_negative)
    epsilon: float = _setting("model.epsilon", 0.01, "noise amplitude", _check_not_negative)
    integrator: str = _setting("scheme.integrator", "midpoint", "midpoint | splitting; read by evolve only", _stepper)
    dt: float = _setting("scheme.dt", 0.01, "time step", _check_above_zero)
    fp_tol: float = _setting(
        "scheme.fp_tol", 1e-12, "implicit-solver residual tolerance (discrete l2)", _check_above_zero
    )
    fp_max_iter: int = _setting("scheme.fp_max_iter", 50, "implicit-solver iteration cap", _check_at_least)
    noise_k: int = _setting("noise.K", 100, "retained noise modes", _check_at_least)
    noise_profile: str = _setting("noise.profile", "sin", "sin (a_l = 1/l) | unit (a_l = 1)", _check_profile)
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
    converge_levels: int = _setting(
        "converge.levels", 5, "number of halving levels (r = 0..levels-1)", lambda value: _check_at_least(value, 2)
    )
    converge_ref_level: int = _setting(
        "converge.ref_level", 5, "reference halving level, must exceed levels-1", _check_at_least
    )
    converge_n_paths: int = _setting("converge.n_paths", 100, "Monte Carlo paths (paper scale: 500)", _check_at_least)

    def __post_init__(self) -> None:
        for setting in fields(self):
            _check(setting, getattr(self, setting.name), setting.metadata["key"])
        try:
            GridSpec(self.grid_a, self.grid_b, self.grid_n)
        except DomainError as exc:
            raise ValidationError("grid.b", str(exc)) from None
        ref, finest = self.converge_ref_level, self.converge_levels - 1
        if ref <= finest:
            raise ValidationError("converge.ref_level", f"reference level {ref} must exceed finest level {finest}")
        # base_dt / 2**ref_level without forming 2**ref_level, which can be past any float
        if math.ldexp(self.converge_base_dt, -ref) == 0.0:
            raise ValidationError("converge.ref_level", f"converge.base_dt halved {ref} times underflows a float")
        try:
            _check_profile_table(self.noise_k, self.grid_n)
        except DomainError as exc:
            raise ValidationError("noise.K", str(exc)) from None


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
            raise ParseError(lineno, 1, f"unknown config key {key!r}")
        if key in seen:
            raise ParseError(lineno, 1, f"duplicate key {key!r} (first set on line {seen[key]})")
        seen[key] = lineno
        value_text = value_part.strip()
        value_col = line.index("=") + 1 + (len(value_part) - len(value_part.lstrip())) + 1
        setting = _BY_KEY[key]
        try:
            overrides[setting.name] = _KINDS[setting.type][0](value_text)
        except _Malformed as exc:
            raise ParseError(lineno, value_col, f"{key}: {exc}") from None
    return RunConfig(**overrides)


def _override(config: RunConfig, source: str, text: str, *attrs: str) -> RunConfig:
    """Parse ``text`` as the literal of fields ``attrs`` and set them by their own checks, naming ``source``."""
    changes = {}
    for setting in fields(RunConfig):
        if setting.name in attrs:
            try:
                value = _KINDS[setting.type][0](text)
            except _Malformed as exc:
                raise ValidationError(source, str(exc)) from None
            _check(setting, value, source)
            changes[setting.name] = value
    return replace(config, **changes)


def write_default_config() -> str:
    """Render every key with its default value; parses back to RunConfig()."""
    lines = ["# default run configuration", ""]
    for setting in fields(RunConfig):
        text = _KINDS[setting.type][3](setting.default)
        lines.append(f"{setting.metadata['key']} = {text}  # {setting.metadata['comment']}")
    return "\n".join(lines) + "\n"
