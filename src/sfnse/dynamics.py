"""Time integrators for the noisy fractional Schrodinger flow.

Two schemes: an implicit stochastic midpoint rule, solved per step by a
fixed-point iteration with the stiff linear part inverted exactly per Fourier
mode, and an explicit splitting scheme alternating the exact phase/noise flow
with the exact linear spectral flow.  The midpoint rule consumes Stratonovich
increments directly (no Ito correction); the splitting scheme covers the
linear-potential case sigma = 0, with an optional amplitude-phase extension
for sigma > 0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    NonConvergence,
    ShapeError,
    UnsupportedNonlinearity,
)
from .noise import NoiseModel, WienerPath, increment_field
from .spectral import ComplexField, GridSpec, _check_alpha, operator_symbols


@dataclass(frozen=True)
class ModelParams:
    """Equation parameters: fractional exponent, nonlinearity, noise amplitude.

    ``lam`` is the nonlinearity sign/strength (+1 defocusing, -1 focusing),
    ``sigma`` the nonlinearity power, ``epsilon`` the noise amplitude.
    Construction warns (without failing) when a focusing run (lam < 0) leaves
    the range that guarantees global existence in one dimension,
    sigma < 2*alpha.
    """

    alpha: float
    lam: float
    sigma: float
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        if self.sigma < 0.0:
            raise DomainError(f"nonlinearity power sigma must be >= 0, got {self.sigma}")
        if self.epsilon < 0.0:
            raise DomainError(f"noise amplitude epsilon must be >= 0, got {self.epsilon}")
        if self.lam < 0.0 and not self.sigma < 2.0 * self.alpha:
            warnings.warn(
                f"focusing run with sigma={self.sigma} >= 2*alpha={2 * self.alpha}: "
                "outside the guaranteed global-existence range",
                stacklevel=2,
            )


@dataclass(frozen=True)
class SchemeParams:
    """Time step and implicit-solver controls.

    ``fp_tol`` bounds the certified residual of the midpoint relation in the
    discrete l2 norm; ``fp_max_iter`` caps fixed-point evaluations.  dt = 0 is
    allowed as a degenerate step that returns the state unchanged.
    ``splitting_nonlinear`` opts into the experimental sigma > 0 splitting.
    """

    dt: float
    fp_tol: float = 1e-12
    fp_max_iter: int = 50
    splitting_nonlinear: bool = False

    def __post_init__(self) -> None:
        if self.dt < 0.0:
            raise DomainError(f"time step dt must be >= 0, got {self.dt}")
        if self.fp_tol <= 0.0:
            raise DomainError(f"fp_tol must be > 0, got {self.fp_tol}")
        if self.fp_max_iter < 1:
            raise DomainError(f"fp_max_iter must be >= 1, got {self.fp_max_iter}")


def _check_dw(dW, grid: GridSpec) -> np.ndarray:
    dW = np.asarray(dW, dtype=np.float64)
    if dW.shape != (grid.N,):
        raise ShapeError(f"noise increment shape {dW.shape} does not match grid N={grid.N}")
    return dW


def midpoint_step(
    state: ComplexField,
    dW,
    model: ModelParams,
    scheme: SchemeParams,
    grid: GridSpec,
) -> ComplexField:
    """One step of the implicit stochastic midpoint scheme.

    Returns phi' solving, with psi = (phi + phi')/2 and L the positive
    fractional Laplacian,

        i (phi' - phi)/dt = L psi + lam |psi|^(2 sigma) psi + psi dW/dt.

    The fixed-point iteration inverts the stiff linear part per mode,

        psi_{m+1} = (2 I + i dt L)^(-1) [2 phi - i dt lam |psi_m|^(2s) psi_m - i psi_m dW],

    starting from psi_0 = phi, which keeps the contraction factor of order
    dt*(lam + |dW|/dt) independent of the grid resolution.  The accepted
    iterate carries a certified residual of the midpoint relation <= fp_tol
    in the discrete l2 norm (tighter than the 10*fp_tol contract).

    Raises NonConvergence when fp_max_iter evaluations do not certify the
    tolerance, which usually signals that dt is too large.
    """
    v = state.values
    if v.shape != (grid.N,):
        raise ShapeError(f"state length {v.shape} does not match grid N={grid.N}")
    dW = _check_dw(dW, grid)
    if scheme.dt == 0.0:
        return state
    dt = scheme.dt
    lap = operator_symbols(grid, model.alpha).lap_symbol
    denom = 2.0 + 1j * dt * lap
    two_phi_hat = 2.0 * np.fft.fft(v)
    two_sigma = 2.0 * model.sigma
    # ||w||_{l2,h} from raw DFT coefficients: sqrt(h/N) * ||fft(w)||_2
    coeff_norm = math.sqrt(grid.h / grid.N)

    psi = v
    psi_hat = 0.5 * two_phi_hat
    residual = math.inf
    for evals in range(1, scheme.fp_max_iter + 1):
        if model.lam != 0.0:
            nl = model.lam * np.abs(psi) ** two_sigma * psi
        else:
            nl = 0.0
        forcing = np.fft.fft(dt * nl + dW * psi)
        psi_hat_next = (two_phi_hat - 1j * forcing) / denom
        # (2 I + i dt L)(psi_m - psi_{m+1}) = -i dt R(psi_m) for the relation residual R
        residual = coeff_norm * np.linalg.norm(denom * (psi_hat - psi_hat_next)) / dt
        if residual <= scheme.fp_tol:
            return ComplexField(2.0 * psi - v, time=state.time + dt)
        if not math.isfinite(residual):
            raise NonConvergence(
                f"midpoint fixed point diverged after {evals} evaluations (dt too large?)",
                iterations=evals,
                residual=math.inf,
            )
        psi_hat = psi_hat_next
        psi = np.fft.ifft(psi_hat_next)
    raise NonConvergence(
        f"midpoint fixed point stalled at residual {residual:.3e} "
        f"after {scheme.fp_max_iter} evaluations (dt too large?)",
        iterations=scheme.fp_max_iter,
        residual=float(residual),
    )


@lru_cache(maxsize=64)
def _linear_flow_factor(grid: GridSpec, alpha: float, dt: float) -> np.ndarray:
    # exp(-i dt L) costs about a quarter of a splitting step at N = 400, so it
    # is built once per (grid, alpha, dt) rather than per step
    factor = np.exp(-1j * dt * operator_symbols(grid, alpha).lap_symbol)
    factor.setflags(write=False)
    return factor


def splitting_step(
    state: ComplexField,
    dW,
    model: ModelParams,
    scheme: SchemeParams,
    grid: GridSpec,
) -> ComplexField:
    """One step of the mass-preserving splitting scheme.

    Applies the exact phase/noise flow nodewise, then the exact linear flow
    spectrally:

        u' = exp(-i dt (-Delta)^alpha) [exp(-i dt lam - i dW(x)) u].

    Both factors are unimodular, so the discrete mass is preserved to
    roundoff.  For sigma > 0 the scheme is only defined through the optional
    extension exp(-i dt lam |u|^(2 sigma) - i dW(x)), which uses that |u| is
    invariant along the phase flow; it must be enabled explicitly via
    SchemeParams.splitting_nonlinear.
    """
    v = state.values
    if v.shape != (grid.N,):
        raise ShapeError(f"state length {v.shape} does not match grid N={grid.N}")
    dW = _check_dw(dW, grid)
    if model.sigma != 0.0 and not scheme.splitting_nonlinear:
        raise UnsupportedNonlinearity(
            f"splitting with sigma={model.sigma} requires SchemeParams.splitting_nonlinear"
        )
    if scheme.dt == 0.0:
        return state
    dt = scheme.dt
    if model.sigma == 0.0:
        phase = np.exp(-1j * (dt * model.lam + dW))
    else:
        phase = np.exp(-1j * (dt * model.lam * np.abs(v) ** (2.0 * model.sigma) + dW))
    linear = _linear_flow_factor(grid, model.alpha, dt)
    out = np.fft.ifft(np.fft.fft(v * phase) * linear)
    return ComplexField(out, time=state.time + dt)


@dataclass(frozen=True)
class Observer:
    """Named trajectory probe evaluated at step 0 and after every stride-th step."""

    name: str
    stride: int
    fn: Callable[[ComplexField], Any]

    def __post_init__(self) -> None:
        if self.stride < 1:
            raise DomainError(f"observer stride must be >= 1, got {self.stride}")


_STEPPERS = {"midpoint": midpoint_step, "splitting": splitting_step}


def evolve(
    initial: ComplexField,
    integrator,
    model: ModelParams,
    scheme: SchemeParams,
    grid: GridSpec,
    path: WienerPath,
    noise: NoiseModel,
    observers: Sequence[Observer] = (),
) -> tuple[ComplexField, dict[str, list[tuple[int, float, Any]]]]:
    """Drive one trajectory over all steps of the given noise path.

    ``integrator`` names the step, "midpoint" or "splitting"; each step
    calls it once, after building that step's increment field from ``noise``
    and the path row.  Observers fire on the initial state and after every
    stride-th step; records come back per observer name as (step, time,
    value) tuples in step order.  Step failures are re-raised with the
    failing step index attached.
    """
    try:
        step_fn = _STEPPERS[integrator]
    except KeyError:
        raise DomainError(f"integrator must be 'midpoint' or 'splitting', got {integrator!r}") from None
    if path.steps > 0 and not math.isclose(path.dt, scheme.dt, rel_tol=1e-12, abs_tol=0.0):
        raise ConfigError(f"path dt {path.dt} does not match scheme dt {scheme.dt}")

    records: dict[str, list[tuple[int, float, Any]]] = {obs.name: [] for obs in observers}
    state = initial
    for obs in observers:
        records[obs.name].append((0, state.time, obs.fn(state)))
    for n in range(path.steps):
        dW = increment_field(path, n, noise, grid)
        try:
            state = step_fn(state, dW, model, scheme, grid)
        except NonConvergence as exc:
            exc.step = n
            raise
        for obs in observers:
            if (n + 1) % obs.stride == 0:
                records[obs.name].append((n + 1, state.time, obs.fn(state)))
    return state, records
