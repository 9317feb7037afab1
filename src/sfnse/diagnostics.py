"""Conserved-quantity evaluation, error norms, and structure checks.

Mass uses the rectangle rule h * sum |u_j|^2 on the periodic grid; energy
evaluates its fractional kinetic term spectrally through the Parseval
identity.  The symplecticity check differentiates a one-step map with frozen
noise by central finite differences and measures how far the Jacobian is
from preserving the canonical two-form on (Re u, Im u).  Every function
takes states as length-N complex arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .spectral import GridSpec, _fft, _field_values, operator_symbols
from .dynamics import ModelParams, SchemeParams

SYMPLECTIC_N_MAX = 32  # dense 2N x 2N Jacobian guard


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One row of trajectory diagnostics; the time is in the observer record."""

    mass: float
    energy: float
    max_amplitude: float


def mass(v, grid: GridSpec, mode: str = "norm") -> float:
    """Discrete mass h * sum_j |u_j|^2 ("squared") or its square root ("norm").

    The default is the norm form, which is what conservation tables report.
    """
    m2 = grid.h * float(np.sum(np.abs(_field_values(v, grid)) ** 2))
    if mode == "squared":
        return m2
    if mode == "norm":
        return math.sqrt(m2)
    raise DomainError(f"mass mode must be 'squared' or 'norm', got {mode!r}")


def energy(v, grid: GridSpec, model: ModelParams) -> float:
    """Discrete energy: spectral fractional kinetic term plus power potential.

    H = (b-a)/2 * sum_k |k mu|^(2 alpha) |u~_k|^2
        + lam/(2 sigma + 2) * h * sum_j |u_j|^(2 sigma + 2)
    """
    v = _field_values(v, grid)
    coeffs = _fft(v) / grid.N
    lap = operator_symbols(grid, model.alpha).lap_symbol
    kinetic = 0.5 * (grid.b - grid.a) * float(np.sum(lap * np.abs(coeffs) ** 2))
    potential = (
        model.lam
        / (2.0 * model.sigma + 2.0)
        * grid.h
        * float(np.sum(np.abs(v) ** (2.0 * model.sigma + 2.0)))
    )
    return kinetic + potential


def l2_error(a, b, grid: GridSpec) -> float:
    """Discrete l2 distance sqrt(h * sum_j |a_j - b_j|^2)."""
    va, vb = _field_values(a, grid), _field_values(b, grid)
    return math.sqrt(grid.h * float(np.sum(np.abs(va - vb) ** 2)))


def record_diagnostics(v, grid: GridSpec, model: ModelParams) -> DiagnosticsRecord:
    """Bundle the standard per-snapshot diagnostics (mass in its norm form)."""
    v = _field_values(v, grid)
    return DiagnosticsRecord(
        mass=mass(v, grid),
        energy=energy(v, grid, model),
        max_amplitude=float(np.max(np.abs(v))),
    )


def symplectic_defect(
    stepper,
    v,
    dW,
    model: ModelParams,
    scheme: SchemeParams,
    grid: GridSpec,
    fd_eps: float = 1e-6,
) -> float:
    """Max-norm defect of the one-step map's Jacobian against the canonical form.

    With frozen noise increment the step is a smooth map of (p, q) =
    (Re u, Im u).  ``stepper`` is an array step with the signature of
    ``midpoint_step``.  Its 2N x 2N Jacobian J is formed column by column
    with central differences of size ``fd_eps``; the return value is
    max |(J^T Omega J - Omega)_{ij}| for Omega pairing p_j with q_j.  The
    default fd_eps balances truncation against cancellation for unit-scale
    states.  Guarded to N <= 32.
    """
    N = grid.N
    if N > SYMPLECTIC_N_MAX:
        raise DomainError(f"symplectic defect is guarded to N <= {SYMPLECTIC_N_MAX}, got N={N}")
    if fd_eps <= 0.0:
        raise DomainError(f"fd_eps must be > 0, got {fd_eps}")
    dW = np.asarray(dW, dtype=np.float64)

    def flow(x: np.ndarray) -> np.ndarray:
        out = stepper(x[:N] + 1j * x[N:], dW, model, scheme, grid)
        return np.concatenate([out.real, out.imag])

    v = _field_values(v, grid)
    x0 = np.concatenate([v.real, v.imag])
    J = np.empty((2 * N, 2 * N))
    for i in range(2 * N):
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += fd_eps
        xm[i] -= fd_eps
        J[:, i] = (flow(xp) - flow(xm)) / (2.0 * fd_eps)

    eye = np.eye(N)
    omega = np.block([[np.zeros((N, N)), eye], [-eye, np.zeros((N, N))]])
    return float(np.max(np.abs(J.T @ omega @ J - omega)))
