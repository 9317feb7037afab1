"""Conserved-quantity evaluation, error norms, and structure checks.

Mass uses the rectangle rule h * sum |u_j|^2 on the periodic grid; energy
evaluates its fractional kinetic term spectrally through the Parseval
identity.  The symplecticity check differentiates a one-step map with frozen
noise by central finite differences of a fixed size along fixed tangents and
measures how far its Jacobian is from preserving the canonical two-form on
(Re u, Im u).
Every function takes states as length-N complex arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .spectral import GridSpec, _fft, _field_values, operator_symbols
from .dynamics import ModelParams, SchemeParams

_TANGENT_PAIRS = 8  # unit tangent pairs (xi, eta) the symplecticity check probes
_TANGENT_SEED = 5  # seed of their complex Gaussian draws
_FD_EPS = 1e-6  # central-difference size: balances truncation against cancellation for unit-scale states


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
    lap = operator_symbols(grid, model.alpha)
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
) -> float:
    """Largest change of the canonical two-form under the one-step map's Jacobian.

    With frozen noise increment the step is a smooth map of (p, q) =
    (Re u, Im u); ``stepper`` is an array step with the signature of
    ``midpoint_step``.  Along each of 8 fixed unit tangent pairs (xi, eta),
    J xi is a central difference of size 1e-6 (32 step calls at any N).
    Returns max |omega(J xi, J eta) - omega(xi, eta)| for the canonical form
    omega(a, b) = Im <a, b>, which pairs p_j with q_j; an image that is not
    finite gives inf.
    """
    v = _field_values(v, grid)
    rng = np.random.default_rng(_TANGENT_SEED)
    shape = (_TANGENT_PAIRS, 2, grid.N)
    pairs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    pairs /= np.linalg.norm(pairs, axis=-1, keepdims=True)

    def image(t: np.ndarray) -> np.ndarray:
        forward = stepper(v + _FD_EPS * t, dW, model, scheme, grid)
        return (forward - stepper(v - _FD_EPS * t, dW, model, scheme, grid)) / (2.0 * _FD_EPS)

    images = np.array([[image(xi), image(eta)] for xi, eta in pairs])
    if not np.all(np.isfinite(images)):
        return math.inf
    # np.max, unlike max(), keeps a nan from an overflowing two-form
    return float(np.max([abs(np.vdot(*jp).imag - np.vdot(*p).imag) for p, jp in zip(pairs, images)]))
