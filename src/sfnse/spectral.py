"""Periodic grid, discrete Fourier transforms, and fractional spectral operators.

On a uniform periodic grid the fractional Laplacian acts as the diagonal
Fourier multiplier |k*mu|^(2*alpha).  Its skew-adjoint square root multiplies
mode k by i*k*mu*|k*mu|^(alpha-1); applying it twice recovers the negative
fractional Laplacian on every mode except the Nyquist mode, where the +N/2
and -N/2 images carry half weight each and cancel for the odd symbol.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError

try:  # the C kernels behind np.fft since numpy 2.0
    from numpy.fft import _pocketfft_umath as _pocketfft
except ImportError:  # numpy < 2.0
    _pocketfft = None

DENSE_N_MAX = 256  # guard for dense operator construction


def _fft(v) -> np.ndarray:
    """Unnormalised forward DFT along the last axis, in complex128.

    Every transform in the package goes through this pair.  It runs the same
    kernel with the same scaling as ``np.fft.fft``, so it gives the same
    bytes, but skips ``np.fft``'s per-call Python bookkeeping.
    """
    v = np.asarray(v, dtype=np.complex128)
    if _pocketfft is None:
        return np.fft.fft(v)
    return _pocketfft.fft(v, 1.0, out=np.empty_like(v))


def _ifft(v) -> np.ndarray:
    """Inverse of ``_fft`` (scaled by 1/n), along the last axis, in complex128."""
    v = np.asarray(v, dtype=np.complex128)
    if _pocketfft is None:
        return np.fft.ifft(v)
    return _pocketfft.ifft(v, 1.0 / v.shape[-1], out=np.empty_like(v))


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
        return self.mu * np.fft.fftfreq(self.N, d=1.0 / self.N)


def _check_grid_n(N: int) -> None:
    if N % 2 != 0 or N < 4:
        raise DomainError(f"grid needs an even N >= 4, got N={N}")


def _check_integer(value, name: str) -> int:
    # a float (even 64.0) or a bool is refused: truncating 1.5 to 1 would alias two inputs
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return int(value)


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


@dataclass(frozen=True)
class OperatorSymbols:
    """Precomputed diagonal Fourier multipliers for one (grid, alpha) pair.

    ``lap_symbol`` holds |k*mu|^(2*alpha) per mode (the positive fractional
    Laplacian); ``g_symbol`` holds i*k*mu*|k*mu|^(alpha-1) with zeros at k = 0
    and at the Nyquist bin, whose two half-weight images cancel for the odd
    symbol.  Both arrays use DFT ordering and are read-only, so instances may
    be shared freely across workers.
    """

    lap_symbol: np.ndarray
    g_symbol: np.ndarray


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    return alpha


@lru_cache(maxsize=128)
def operator_symbols(grid: GridSpec, alpha: float) -> OperatorSymbols:
    """Spectral multipliers for the fractional operators, built once per (grid, alpha).

    Alpha is validated on a cache miss; repeated calls return the same
    read-only ``OperatorSymbols`` object.
    """
    alpha = _check_alpha(alpha)
    kmu = grid.wavenumbers()
    absk = np.abs(kmu)
    lap = absk ** (2.0 * alpha)
    # sign(k)*|k*mu|^alpha == k*mu*|k*mu|^(alpha-1) without the 0**negative hazard
    g = 1j * np.sign(kmu) * absk**alpha
    g[grid.N // 2] = 0.0  # odd symbol: the two half-weight Nyquist images cancel
    lap.setflags(write=False)
    g.setflags(write=False)
    return OperatorSymbols(lap, g)


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
    sym = operator_symbols(grid, alpha)
    return _ifft(_fft(_field_values(v, grid)) * sym.lap_symbol)


def apply_g_operator(v, grid: GridSpec, alpha: float) -> np.ndarray:
    """Apply the skew-adjoint square root of the negative fractional Laplacian.

    Mode k is multiplied by i*k*mu*|k*mu|^(alpha-1); the Nyquist bin maps to
    zero because its two half-weight images cancel for this odd symbol.
    Applying the operator twice equals the negated fractional Laplacian on
    every Nyquist-free array.  Takes and returns length-N arrays.
    """
    sym = operator_symbols(grid, alpha)
    return _ifft(_fft(_field_values(v, grid)) * sym.g_symbol)


def materialize_operator(grid: GridSpec, alpha: float, which: str) -> np.ndarray:
    """Dense real matrix realization of the spectral operators at small N.

    Built by direct summation over the symmetric mode range k = -N/2..N/2
    with half weights c_k = 2 at k = +-N/2, independently of the FFT code
    path, so it doubles as a cross-check oracle.  ``which`` selects "D1"
    (skew-symmetric square-root operator) or "D2" (symmetric positive
    fractional Laplacian).
    """
    alpha = _check_alpha(alpha)
    if grid.N > DENSE_N_MAX:
        raise DomainError(f"dense operators are guarded to N <= {DENSE_N_MAX}, got N={grid.N}")
    if which not in ("D1", "D2"):
        raise DomainError(f"which must be 'D1' or 'D2', got {which!r}")
    N, mu = grid.N, grid.mu
    j = np.arange(N)
    diff = j[:, None] - j[None, :]
    theta = 2.0 * np.pi / N  # mu * h
    acc = np.zeros((N, N), dtype=np.complex128)
    for k in range(-N // 2, N // 2 + 1):
        if k == 0:
            continue
        ck = 2.0 if abs(k) == N // 2 else 1.0
        w = abs(k * mu)
        coef = 1j * k * mu * w ** (alpha - 1.0) if which == "D1" else w ** (2.0 * alpha)
        acc += coef / (N * ck) * np.exp(1j * theta * k * diff)
    return acc.real
