"""Conserved-quantity evaluation and error norms.

Mass uses the rectangle rule h * sum |u_j|^2 on the periodic grid; energy
evaluates its fractional kinetic term spectrally through the Parseval
identity.  Every function takes states as length-N complex arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .spectral import GridSpec, _fft, _field_values, _frac_multiplier
from .dynamics import ModelParams


def mass(v, grid: GridSpec) -> float:
    """Discrete mass in its norm form, sqrt(h * sum_j |u_j|^2), as conservation tables report it."""
    return math.sqrt(grid.h * float(np.sum(np.abs(_field_values(v, grid)) ** 2)))


def energy(v, grid: GridSpec, model: ModelParams) -> float:
    """Discrete energy: spectral fractional kinetic term plus power potential.

    H = (b-a)/2 * sum_k |k mu|^(2 alpha) |u~_k|^2
        + lam/(2 sigma + 2) * h * sum_j |u_j|^(2 sigma + 2)
    """
    v = _field_values(v, grid)
    coeffs = _fft(v) / grid.N
    lap = _frac_multiplier(grid.N, grid.mu, model.alpha)
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
    d = np.abs(va - vb)
    np.multiply(d, d, out=d)
    return math.sqrt(grid.h * float(np.add.reduce(d)))

