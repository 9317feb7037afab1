"""Test-local oracles for the spectral operators, independent of the package's FFT code.

The skew-adjoint square root of the negative fractional Laplacian multiplies
mode k by i*k*mu*|k*mu|^(alpha-1); applying it twice recovers the negative
fractional Laplacian on every mode except the Nyquist mode, where the +N/2
and -N/2 images carry half weight each and cancel for the odd symbol.  The
solver never applies it: the schemes act through the Laplacian's multiplier
alone, so the square root lives here, next to the dense matrix realisations
D1 (square root) and D2 (fractional Laplacian) that the structure checks use.
"""

import numpy as np


def g_symbol(grid, alpha):
    """i*k*mu*|k*mu|^(alpha-1) in DFT ordering, zero at k = 0 and at the Nyquist bin."""
    kmu = grid.wavenumbers()
    # sign(k)*|k*mu|^alpha == k*mu*|k*mu|^(alpha-1) without the 0**negative hazard
    g = 1j * np.sign(kmu) * np.abs(kmu) ** alpha
    g[grid.N // 2] = 0.0  # odd symbol: the two half-weight Nyquist images cancel
    return g


def apply_g(v, grid, alpha):
    """The skew-adjoint square root applied to a length-N array."""
    return np.fft.ifft(np.fft.fft(np.asarray(v, dtype=np.complex128)) * g_symbol(grid, alpha))


def dense_operator(grid, alpha, which):
    """Dense real matrix of "D1" (skew square root) or "D2" (fractional Laplacian).

    Built by direct summation over the symmetric mode range k = -N/2..N/2
    with half weights c_k = 2 at k = +-N/2, so it shares no code path with
    any FFT.
    """
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
