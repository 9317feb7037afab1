"""Time integrators for the noisy fractional Schrodinger flow.

Two schemes: an implicit stochastic midpoint rule, solved per step by a
fixed-point iteration with the stiff linear part inverted exactly per Fourier
mode, and an explicit splitting scheme alternating the exact phase/noise flow
with the exact linear spectral flow.  The midpoint rule consumes Stratonovich
increments directly (no Ito correction).  Both steps map a length-N array to
a new length-N array: each call works in arrays it allocates itself and
returns one of them, so no later call writes a result that a caller kept.
``evolve`` hands its observers the same arrays, with the step and the time
they fire at; the only ``ComplexField`` it builds is the returned final state.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, NonConvergence
from .noise import NoiseModel, WienerPath, increment_field
from .spectral import ComplexField, GridSpec, _check_alpha, _fft, _field_values, _frac_multiplier, _ifft
from .spectral import _check_above_zero, _check_at_least, _check_not_negative, _is_real


@dataclass(frozen=True)
class ModelParams:
    """Equation parameters: fractional exponent and nonlinearity.

    ``lam`` is the nonlinearity sign/strength (+1 defocusing, -1 focusing),
    ``sigma`` the nonlinearity power.  The noise amplitude belongs to the
    ``NoiseModel``, which applies it to every increment field.
    Construction warns (without failing) when a focusing run (lam < 0) leaves
    the range that guarantees global existence in one dimension,
    sigma < 2*alpha.
    """

    alpha: float
    lam: float
    sigma: float

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        if not _is_real(self.lam):
            raise DomainError(f"nonlinearity strength lam must be finite, got {self.lam}")
        _check_not_negative(self.sigma, "nonlinearity power sigma")
        if self.lam < 0.0 and not self.sigma < 2.0 * self.alpha:
            warnings.warn(
                f"focusing run with sigma={self.sigma} >= 2*alpha={2 * self.alpha}: "
                "outside the guaranteed global-existence range",
                stacklevel=3,  # past the dataclass __init__, to the code that built the model
            )


@dataclass(frozen=True)
class SchemeParams:
    """Time step and implicit-solver controls.

    ``dt`` must be positive.  ``fp_tol`` bounds the certified residual of the
    midpoint relation in the discrete l2 norm; ``fp_max_iter`` caps
    fixed-point evaluations.
    """

    dt: float
    fp_tol: float = 1e-12
    fp_max_iter: int = 50

    def __post_init__(self) -> None:
        _check_above_zero(self.dt, "time step dt")
        _check_above_zero(self.fp_tol, "fp_tol")
        _check_at_least(self.fp_max_iter, 1, "fp_max_iter")


_FLOAT64 = np.dtype(np.float64)


def _check_step_args(v: np.ndarray, dW, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    # a complex64 state is stepped as its complex128 cast, never in single precision
    v = _field_values(v, grid)
    # a float64 array, every step's increment, is taken as it is
    if type(dW) is not np.ndarray or dW.dtype is not _FLOAT64:
        if np.iscomplexobj(dW):  # the cast would drop its imaginary part
            raise DomainError("noise increment must be real, got a complex array")
        dW = np.asarray(dW, dtype=np.float64)
    if dW.shape != (grid.N,):
        raise DomainError(f"noise increment shape {dW.shape} does not match grid N={grid.N}")
    return v, dW


class _StepSymbols(NamedTuple):
    flow: np.ndarray  # exp(-i dt L), the splitting step's linear flow
    gain: np.ndarray  # -i / (2 + i dt L), the midpoint's per-mode inverse applied to a forcing
    neg_dt_lap: np.ndarray  # -dt L, the midpoint's forcing of its start psi_0 = phi


@lru_cache(maxsize=64)
def _step_symbols(N: int, mu: float, alpha: float, dt: float) -> _StepSymbols:
    # the dt-dependent symbols of both schemes, built once per (N, mu, alpha, dt)
    # rather than per step: exp(-i dt L) alone costs about a quarter of a
    # splitting step at N = 400.  Keyed on the grid's numbers, like
    # spectral._frac_multiplier, not on the GridSpec itself
    lap = _frac_multiplier(N, mu, alpha)
    symbols = _StepSymbols(np.exp(-1j * dt * lap), -1j / (2.0 + 1j * dt * lap), -dt * lap)
    for symbol in symbols:
        symbol.setflags(write=False)
    return symbols


# The certified residual's roundoff floor, per unit of sqrt(h/N)/dt * ||f_m||.
# On 3 sech(x) at N = 2048, dt = 5e-4 the residual stalled up to 11.8 eps
# above it: 4 eps stalls at step 1435, 8 eps finishes, 16 eps keeps a margin.
_FLOOR = 16.0 * float(np.finfo(np.float64).eps)


def midpoint_step(
    v: np.ndarray,
    dW,
    model: ModelParams,
    scheme: SchemeParams,
    grid: GridSpec,
) -> np.ndarray:
    """One step of the implicit stochastic midpoint scheme on the array phi = v.

    Returns the array phi' solving, with psi = (phi + phi')/2 and L the positive
    fractional Laplacian,

        i (phi' - phi)/dt = L psi + lam |psi|^(2 sigma) psi + psi dW/dt.

    The fixed-point iteration inverts the stiff linear part per mode: with
    the forcing f_m = fft((dt lam |psi_m|^(2 sigma) + dW) psi_m),

        (2 I + i dt L) psi^_{m+1} = 2 phi^ - i f_m,

    starting from psi_0 = phi, which keeps the contraction factor of order
    dt*(lam + |dW|/dt) independent of the grid resolution.  Since psi_m solves
    the same relation with f_{m-1} (and f_{-1} = -dt L phi^ for the start),
    the midpoint-relation residual of psi_m is sqrt(h/N)/dt * ||f_m - f_{m-1}||
    in the discrete l2 norm, read off two successive forcings.  The first
    iterate whose residual is <= max(fp_tol, 16 eps sqrt(h/N)/dt ||f_m||) is
    accepted, and phi' = 2 psi_m - phi.  The second term, the residual's own
    roundoff floor (see _FLOOR), passes the default fp_tol only on large states.

    Raises NonConvergence when fp_max_iter evaluations do not certify the
    tolerance, which usually signals that dt is too large.  ``v`` and ``dW``
    are never written.
    """
    v, dW = _check_step_args(v, dW, grid)
    dt = scheme.dt
    symbols = _step_symbols(grid.N, grid.mu, model.alpha, dt)
    phi_hat = _fft(v)
    base = 2j * phi_hat * symbols.gain  # 2 phi^ / (2 I + i dt L)
    lam_dt = model.lam * dt
    two_sigma = 2.0 * model.sigma
    # ||w||_{l2,h} from raw DFT coefficients is sqrt(h/N) * ||fft(w)||_2
    residual_scale = math.sqrt(grid.h / grid.N) / dt

    psi = v
    forcing_prev = symbols.neg_dt_lap * phi_hat  # f_{-1}: (2 I + i dt L) phi^ = 2 phi^ - i f_{-1}
    residual = math.inf
    # a diverging iterate overflows on its way to a non-finite residual, which
    # raises NonConvergence below; numpy need not warn about it first
    with np.errstate(over="ignore", invalid="ignore"):
        for evals in range(1, scheme.fp_max_iter + 1):
            multiplier = np.abs(psi)
            multiplier **= two_sigma
            multiplier *= lam_dt
            multiplier += dW
            forcing = _fft(multiplier * psi)
            change = forcing - forcing_prev
            residual = residual_scale * math.sqrt(np.vdot(change, change).real)
            if residual <= scheme.fp_tol:
                break
            if not math.isfinite(residual):
                raise NonConvergence(
                    f"midpoint fixed point diverged after {evals} evaluations (dt too large?)",
                    iterations=evals,
                    residual=math.inf,
                )
            # the floor costs one more reduction, so only a finite residual above fp_tol pays it
            if residual <= _FLOOR * residual_scale * math.sqrt(np.vdot(forcing, forcing).real):
                break
            psi = _ifft(base + symbols.gain * forcing)
            forcing_prev = forcing
        else:
            raise NonConvergence(
                f"midpoint fixed point stalled at residual {residual:.3e} "
                f"after {scheme.fp_max_iter} evaluations (dt too large?)",
                iterations=scheme.fp_max_iter,
                residual=float(residual),
            )
    # outside the block, so an accepted iterate cannot overflow silently
    return 2.0 * psi - v


def splitting_step(
    v: np.ndarray,
    dW,
    model: ModelParams,
    scheme: SchemeParams,
    grid: GridSpec,
) -> np.ndarray:
    """One step of the mass-preserving splitting scheme on the array u = v.

    Applies the exact phase/noise flow nodewise, then the exact linear flow
    spectrally:

        u' = exp(-i dt (-Delta)^alpha) [exp(-i dt lam |u|^(2 sigma) - i dW(x)) u].

    The phase flow is exact because |u| is invariant along it.  Both factors
    are unimodular, so the discrete mass is preserved to roundoff.  The phase
    factor is built as cos + i sin of its angle.  ``v`` and ``dW`` are never
    written, and the result is a new array.
    """
    v, dW = _check_step_args(v, dW, grid)
    dt = scheme.dt
    # the angle -(dt lam |v|^(2 sigma) + dW), the imaginary part of
    # -1j * (dt * lam * abs(v) ** (2 sigma) + dW) to the sign of a zero
    if model.sigma == 0.0:
        # |u|^0 = 1: skip the abs/pow per step (same bytes)
        angle = np.add(dt * model.lam, dW)
    else:
        angle = np.abs(v)
        angle **= 2.0 * model.sigma
        angle *= dt * model.lam
        angle += dW
    np.negative(angle, out=angle)
    # exp(i angle) as cos + i sin, without the complex exp's temporaries; it
    # has the complex exp's bytes where the build's float64 cos/sin round as
    # its complex exp does (README, Reproducibility notes).  w is the one
    # work array, and the result
    w = np.empty_like(v)
    np.cos(angle, out=w.real)
    np.sin(angle, out=w.imag)
    np.multiply(v, w, out=w)
    _fft(w, out=w)
    w *= _step_symbols(grid.N, grid.mu, model.alpha, dt).flow
    return _ifft(w, out=w)


@dataclass(frozen=True)
class Observer:
    """Probe of the (read-only) state array at step 0 and after every stride-th step.

    ``fn(n, t, v)`` gets the step n, the model time t and the state array v,
    so a probe can act on the state as it fires (say, write it out) and keep
    nothing.  The record is what ``fn`` returns.
    """

    stride: int
    fn: Callable[[int, float, np.ndarray], Any]

    def __post_init__(self) -> None:
        # a fractional stride would fire wherever (n + 1) % stride happens to be 0
        _check_at_least(self.stride, 1, "observer stride")


_STEPPERS = {"midpoint": midpoint_step, "splitting": splitting_step}


def _stepper(integrator: str):
    try:
        return _STEPPERS[integrator]
    except (KeyError, TypeError):  # TypeError: an unhashable name such as ["midpoint"]
        raise DomainError(f"integrator must be one of {tuple(_STEPPERS)}, got {integrator!r}") from None


def evolve(
    initial: ComplexField,
    integrator,
    model: ModelParams,
    scheme: SchemeParams,
    grid: GridSpec,
    path: WienerPath,
    noise: NoiseModel,
    observers: Sequence[Observer] = (),
) -> tuple[ComplexField, list[list[Any]]]:
    """Drive one trajectory over all steps of the given noise path.

    ``integrator`` names the step, "midpoint" or "splitting"; each step
    calls it once, after building that step's increment field from ``noise``
    and the path row.  Observers fire on the initial state and after every
    stride-th step, each called as ``fn(n, t, state)`` with model time
    t = initial.time + n * dt, not a running sum of dt; ``records[i]``
    lists what ``observers[i].fn`` returned, in step order.  Step failures
    are re-raised with the failing step index attached.  A path whose dt is
    not the scheme's, or a noise model sampled on another N than ``grid``,
    is refused before the first step.

    The steps and the observers see plain length-N arrays.  The one
    ``ComplexField`` built is the returned final state, which checks it once.
    """
    step_fn = _stepper(integrator)
    if not math.isclose(path.dt, scheme.dt, rel_tol=1e-12, abs_tol=0.0):
        raise DomainError(f"path dt {path.dt} does not match scheme dt {scheme.dt}")
    if noise.mode_profiles.shape[1] != grid.N:
        raise DomainError(f"noise model sampled at N={noise.mode_profiles.shape[1]}, grid has N={grid.N}")

    v, t = initial.values, initial.time
    records = [[obs.fn(0, t, v)] for obs in observers]
    for n in range(path.steps):
        dW = increment_field(path, n, noise)
        try:
            v = step_fn(v, dW, model, scheme, grid)
        except NonConvergence as exc:
            exc.step = n
            raise
        t = initial.time + (n + 1) * scheme.dt
        for obs, record in zip(observers, records):
            if (n + 1) % obs.stride == 0:
                record.append(obs.fn(n + 1, t, v))
    return ComplexField(v, time=t), records
