"""Test-local oracles for the spectral operators, independent of the package's FFT code.

The skew-adjoint square root of the negative fractional Laplacian multiplies
mode k by i*k*mu*|k*mu|^(alpha-1); applying it twice recovers the negative
fractional Laplacian on every mode except the Nyquist mode, where the +N/2
and -N/2 images carry half weight each and cancel for the odd symbol.  The
solver never applies it: the schemes act through the Laplacian's multiplier
alone, so the square root lives here, next to the dense matrix realisations
D1 (square root) and D2 (fractional Laplacian) that the structure checks use.

``apply_frac_laplacian`` is the positive fractional Laplacian itself, on
the package's own FFT pair and multiplier: the schemes never apply it as an
operator, but the eigenmode, Cayley and midpoint-relation checks do.

The symplecticity checks live here too.  The paper's discrete symplectic law
is a property of a scheme's map, not of a run, so no study computes it.  With
its noise increment frozen, a step is a smooth map of (p, q) = (Re u, Im u),
and both checks measure how far its Jacobian J is from preserving the
canonical two-form omega(a, b) = Im <a, b>, which pairs p_j with q_j.
``symplectic_defect`` is matrix-free: along each of 8 fixed unit tangent
pairs (xi, eta), J xi is a central difference of size 1e-6 (32 step calls at
any N), so it runs at N = 400 and on the flow of a whole path.
``dense_symplectic_defect`` builds the whole 2N x 2N Jacobian (4N step
calls) and is its reference at small N.

``reference_splitting_step`` is the splitting step as plain expressions:
every intermediate a new array, with ``np.fft`` and the complex ``np.exp``.
The package's kernel works in place on one per-call array and builds its
phase as cos + i sin, and must give the same bytes wherever the build's
float64 cos/sin round as its complex exp does.  ``h_alpha_norm`` is the
squared H^alpha norm that the existence checks follow in time.

``ground_state`` is the positive solution Q of (-Delta)^alpha Q + Q =
|Q|^(2 sigma) Q on the grid.  With lam = -1 and no noise, u(t) = e^{it} Q
solves the equation exactly, and at sigma = 2 alpha the mass of Q is the
threshold between global and concentrating solutions.
"""

import math

import numpy as np

from sfnse.dynamics import _step_symbols
from sfnse.spectral import _fft, _frac_multiplier, _ifft, _wavenumbers

_TANGENT_PAIRS = 8  # unit tangent pairs (xi, eta) the matrix-free check probes
_TANGENT_SEED = 5  # seed of their complex Gaussian draws
_FD_EPS = 1e-6  # central-difference size: balances truncation against cancellation for unit-scale states


def g_symbol(grid, alpha):
    """i*k*mu*|k*mu|^(alpha-1) in DFT ordering, zero at k = 0 and at the Nyquist bin."""
    kmu = _wavenumbers(grid.N, grid.mu)
    # sign(k)*|k*mu|^alpha == k*mu*|k*mu|^(alpha-1) without the 0**negative hazard
    g = 1j * np.sign(kmu) * np.abs(kmu) ** alpha
    g[grid.N // 2] = 0.0  # odd symbol: the two half-weight Nyquist images cancel
    return g


def apply_frac_laplacian(v, grid, alpha):
    """The positive fractional Laplacian, multiplier +|k*mu|^(2*alpha), applied to a length-N array.

    It runs on the package's FFT pair and cached multiplier, so its bytes
    are those of the linear part of both schemes.
    """
    return _ifft(_fft(v) * _frac_multiplier(grid.N, grid.mu, alpha))


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


def symplectic_defect(stepper, v, dW, model, scheme, grid):
    """Largest change max |omega(J xi, J eta) - omega(xi, eta)| over the tangent pairs.

    ``stepper`` is an array step with the signature of ``midpoint_step``.  An
    image that is not finite gives inf.
    """
    v = np.asarray(v, dtype=np.complex128)
    rng = np.random.default_rng(_TANGENT_SEED)
    shape = (_TANGENT_PAIRS, 2, grid.N)
    pairs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    pairs /= np.linalg.norm(pairs, axis=-1, keepdims=True)

    def image(t):
        forward = stepper(v + _FD_EPS * t, dW, model, scheme, grid)
        return (forward - stepper(v - _FD_EPS * t, dW, model, scheme, grid)) / (2.0 * _FD_EPS)

    images = np.array([[image(xi), image(eta)] for xi, eta in pairs])
    if not np.all(np.isfinite(images)):
        return math.inf
    # np.max, unlike max(), keeps a nan from an overflowing two-form
    return float(np.max([abs(np.vdot(*jp).imag - np.vdot(*p).imag) for p, jp in zip(pairs, images)]))


def dense_symplectic_defect(stepper, v, dW, model, scheme, grid, fd_eps=_FD_EPS):
    """max |J^T Omega J - Omega| over the dense 2N x 2N Jacobian."""
    N = grid.N

    def flow(x):
        out = stepper(x[:N] + 1j * x[N:], dW, model, scheme, grid)
        return np.concatenate([out.real, out.imag])

    x0 = np.concatenate([v.real, v.imag])
    J = np.empty((2 * N, 2 * N))
    for i in range(2 * N):
        step = np.zeros(2 * N)
        step[i] = fd_eps
        J[:, i] = (flow(x0 + step) - flow(x0 - step)) / (2.0 * fd_eps)
    eye, zero = np.eye(N), np.zeros((N, N))
    omega = np.block([[zero, eye], [-eye, zero]])
    return float(np.max(np.abs(J.T @ omega @ J - omega)))


def reference_splitting_step(v, dW, model, scheme, grid):
    """``splitting_step`` as plain expressions, its phase factor from the complex exp."""
    v = np.asarray(v, dtype=np.complex128)
    dW = np.asarray(dW, dtype=np.float64)
    dt = scheme.dt
    phase = np.exp(-1j * (dt * model.lam * np.abs(v) ** (2.0 * model.sigma) + dW))
    return np.fft.ifft(np.fft.fft(v * phase) * _step_symbols(grid.N, grid.mu, model.alpha, dt).flow)


def h_alpha_norm(v, grid, alpha):
    """||u||_{H^alpha}^2 = (b - a) sum_k (1 + |k mu|^(2 alpha)) |u~_k|^2, with u~ = fft(u) / N."""
    coefficients = np.fft.fft(np.asarray(v, dtype=np.complex128)) / grid.N
    weight = 1.0 + np.abs(_wavenumbers(grid.N, grid.mu)) ** (2.0 * alpha)
    return float((grid.b - grid.a) * np.sum(weight * np.abs(coefficients) ** 2))


def ground_state(grid, alpha, sigma, tol=1e-14, max_iter=200):
    """Q > 0 with (-Delta)^alpha Q + Q = |Q|^(2 sigma) Q on the grid, by Petviashvili's iteration.

    Each iterate solves the linear part for the nonlinearity of the last one
    and rescales by the stabilizing factor M^gamma, gamma = (2 sigma + 1) /
    (2 sigma), whose fixed point is M = 1 (Pelinovsky & Stepanyants, SIAM J.
    Numer. Anal. 42(3), 2004).  It starts from sech(x) and stops when every
    node moves by less than tol: at alpha 0.75 and 0.6 (sigma = 2 alpha) on [-20, 20) that
    took 53 and 72-73 iterations at N = 512 to 2048, with a residual of at
    most 2.8e-13 and mass ||Q||^2 2.6092 and 2.5312.
    """
    symbol = 1.0 + np.abs(_wavenumbers(grid.N, grid.mu)) ** (2.0 * alpha)
    gamma = (2.0 * sigma + 1.0) / (2.0 * sigma)
    q = 1.0 / np.cosh(grid.nodes())
    for _ in range(max_iter):
        q_hat = np.fft.fft(q)
        nonlinear_hat = np.fft.fft(np.abs(q) ** (2.0 * sigma) * q)
        factor = np.sum(symbol * np.abs(q_hat) ** 2) / np.vdot(q_hat, nonlinear_hat).real
        q, previous = np.fft.ifft(factor**gamma * nonlinear_hat / symbol).real, q
        if np.max(np.abs(q - previous)) < tol:
            return q
    raise AssertionError(f"no ground state within {max_iter} iterations")
