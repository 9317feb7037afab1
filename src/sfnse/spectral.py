"""Periodic grid, discrete Fourier transforms, and the fractional Laplacian.

On a uniform periodic grid the fractional Laplacian acts as the diagonal
Fourier multiplier |k*mu|^(2*alpha).  The module also holds the argument
checkers every module shares, so each range rule is written once.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError

try:  # the C kernels behind np.fft since numpy 2.0
    from numpy.fft import _pocketfft_umath as _pocketfft
except ImportError:  # numpy < 2.0
    _pocketfft = None


def _fft(v, out=None) -> np.ndarray:
    """Unnormalised forward DFT along the last axis, in complex128.

    Every transform in the package goes through this pair.  It runs the same
    kernel with the same scaling as ``np.fft.fft``, so it gives the same
    bytes, but skips ``np.fft``'s per-call Python bookkeeping.  ``out``, a
    complex128 array of v's shape, receives the result and may be ``v``
    itself; without it the result is a new array.
    """
    v = np.asarray(v, dtype=np.complex128)
    if out is None:
        out = np.empty_like(v)
    if _pocketfft is None:
        out[...] = np.fft.fft(v)
        return out
    return _pocketfft.fft(v, 1.0, out=out)


def _ifft(v, out=None) -> np.ndarray:
    """Inverse of ``_fft`` (scaled by 1/n), along the last axis, in complex128, with the same ``out``."""
    v = np.asarray(v, dtype=np.complex128)
    if out is None:
        out = np.empty_like(v)
    if _pocketfft is None:
        out[...] = np.fft.ifft(v)
        return out
    return _pocketfft.ifft(v, 1.0 / v.shape[-1], out=out)


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [a, b) with N nodes x_j = a + j*h.

    The right endpoint is excluded (periodic identification).  ``h`` is the
    node spacing and ``mu`` the fundamental wavenumber 2*pi/(b - a); both are
    derived in ``__post_init__``.
    """

    a: float
    b: float
    N: int
    h: float = field(init=False)
    mu: float = field(init=False)

    def __post_init__(self) -> None:
        if not (self.b > self.a and np.isfinite(self.b - self.a)):
            raise DomainError(f"grid needs finite a < b, got [{self.a}, {self.b})")
        _check_grid_n(self.N)
        object.__setattr__(self, "h", (self.b - self.a) / self.N)
        object.__setattr__(self, "mu", 2.0 * np.pi / (self.b - self.a))

    def nodes(self) -> np.ndarray:
        """Grid nodes x_j, j = 0..N-1."""
        return self.a + self.h * np.arange(self.N)

    def wavenumbers(self) -> np.ndarray:
        """Physical wavenumbers k*mu in DFT ordering k = 0..N/2-1, -N/2..-1."""
        return _wavenumbers(self.N, self.mu)


def _wavenumbers(N: int, mu: float) -> np.ndarray:
    return mu * np.fft.fftfreq(N, d=1.0 / N)


def _check_grid_n(N: int) -> None:
    if _check_at_least(N, 4, "grid N") % 2 != 0:
        raise DomainError(f"grid N must be even, got {N}")


def _check_integer(value, name: str) -> int:
    # a float (even 64.0) or a bool is refused: truncating 1.5 to 1 would alias two inputs
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_at_least(value, low: int = 1, name: str = "value") -> int:
    """``value`` as an int; DomainError naming ``name`` unless it is an integer >= ``low``."""
    value = _check_integer(value, name)
    if value < low:
        raise DomainError(f"{name} must be >= {low}, got {value}")
    return value


def _is_real(value) -> bool:
    # a finite real number; like an integer argument, never a bool
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _check_above_zero(value, name: str = "value") -> float:
    """``value`` as a float; DomainError naming ``name`` unless it is a finite real > 0."""
    if not (_is_real(value) and value > 0.0):
        raise DomainError(f"{name} must be finite and > 0, got {value!r}")
    return float(value)


def _check_not_negative(value, name: str = "value") -> float:
    """``value`` as a float; DomainError naming ``name`` unless it is a finite real >= 0."""
    if not (_is_real(value) and value >= 0.0):
        raise DomainError(f"{name} must be finite and >= 0, got {value!r}")
    return float(value)


def build_grid(a: float, b: float, N: int) -> GridSpec:
    """Construct a periodic grid on [a, b) with N nodes."""
    return GridSpec(float(a), float(b), _check_integer(N, "grid N"))


@dataclass(frozen=True)
class ComplexField:
    """Complex samples u_j at the grid nodes, tagged with a model time."""

    values: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.complex128)
        if v.ndim != 1:
            raise DomainError(f"field values must be a 1-D array, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise DomainError("field contains non-finite values")
        if not np.isfinite(self.time):
            raise DomainError(f"field time must be finite, got {self.time}")
        object.__setattr__(self, "values", v)


def _check_alpha(alpha: float) -> float:
    if not (_is_real(alpha) and 0.0 < alpha <= 1.0):
        raise DomainError(f"alpha must lie in (0, 1], got {alpha!r}")
    return float(alpha)


@lru_cache(maxsize=128, typed=True)
def _frac_multiplier(N: int, mu: float, alpha: float) -> np.ndarray:
    # The multiplier |k*mu|^(2*alpha) in DFT ordering, built once per (N, mu,
    # alpha) and read-only, so every caller shares the same array.  Alpha is
    # checked on a cache miss; the cache is typed, so True never hits the
    # entry of 1.0.  It is keyed on plain numbers, not on the GridSpec: its
    # generated __hash__ and __eq__ run in Python on every lookup, and each
    # converge path builds its own grid
    alpha = _check_alpha(alpha)
    lap = np.abs(_wavenumbers(N, mu)) ** (2.0 * alpha)
    lap.setflags(write=False)
    return lap


def _field_values(v, grid: GridSpec) -> np.ndarray:
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (grid.N,):
        raise DomainError(f"field length {v.shape} does not match grid N={grid.N}")
    return v


def transform(v, grid: GridSpec, direction: str = "forward") -> np.ndarray:
    """Discrete Fourier transform with the interpolation normalization.

    Forward returns the coefficients u~_k = (1/N) sum_j u_j exp(-i k mu (x_j - a))
    in DFT ordering; inverse is its exact inverse, so a round trip is the
    identity to roundoff.  Takes and returns length-N arrays.  Like every
    transform in the package it runs on numpy's pocketfft kernels directly
    (``np.fft`` on numpy < 2.0), so its bytes equal those of ``np.fft``.
    """
    v = _field_values(v, grid)
    if direction == "forward":
        return _fft(v) / grid.N
    if direction == "inverse":
        return _ifft(v) * grid.N
    raise DomainError(f"direction must be 'forward' or 'inverse', got {direction!r}")


def apply_frac_laplacian(v, grid: GridSpec, alpha: float) -> np.ndarray:
    """Apply the positive fractional Laplacian, multiplier +|k*mu|^(2*alpha).

    Takes and returns length-N arrays.  Sign conventions are left to the
    callers: time-stepping schemes apply their own signs to this positive
    operator.
    """
    return _ifft(_fft(_field_values(v, grid)) * _frac_multiplier(grid.N, grid.mu, alpha))
