"""The step kernels against a plain-expression oracle, and against a closed form.

``splitting_step`` works in place on one array each call allocates, and
builds its phase as cos + i sin of its angle.  It must give the bytes of
``reference_splitting_step`` (tests/operator_oracle.py), which computes every
intermediate as a new array with ``np.fft`` and the complex ``np.exp``,
wherever the build's float64 cos/sin round as its complex exp does; on a
build where they do not, the byte checks skip and say so, after checking the
two to roundoff.

With spatially constant noise profiles the noise field is constant in x, so
it commutes with the flow: u(t) = exp(-i eps beta(t)) v(t), v the noise-free
solution, and at sigma = 0 v(t) = exp(-i lam t) exp(-i t L) u0 in closed form.

Without noise and with lam = -1, u(t) = exp(i t) Q solves the nonlinear
equation exactly, Q the grid's ground state (``ground_state`` in
tests/operator_oracle.py), so both schemes' time errors are measured against
it with no spatial error mixed in.
"""

import itertools
import math
import warnings

import numpy as np
import pytest

from sfnse.diagnostics import l2_error
from sfnse.dynamics import ModelParams, SchemeParams, evolve, midpoint_step, splitting_step
from sfnse.experiments import sech_carrier_initial
from sfnse.noise import NoiseModel, build_noise_model, coarsen_path, sample_wiener_path
from sfnse.spectral import ComplexField, _frac_multiplier, build_grid

from operator_oracle import apply_frac_laplacian, ground_state, reference_splitting_step

KERNELS = (midpoint_step, splitting_step)


def _same_bytes(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _case(N, seed, scale=0.5, noise=0.05):
    # a read-only random state and noise increment on [-20, 20)
    grid = build_grid(-20.0, 20.0, N)
    rng = np.random.default_rng(seed)
    v = scale * (rng.standard_normal(N) + 1j * rng.standard_normal(N))
    dW = noise * rng.standard_normal(N)
    v.setflags(write=False)
    dW.setflags(write=False)
    return grid, v, dW


def _model(alpha, lam, sigma):
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "focusing run")
        return ModelParams(alpha, lam, sigma)


def _assert_oracle_bytes(v, dW, model, scheme, grid):
    got = splitting_step(v, dW, model, scheme, grid)
    want = reference_splitting_step(v, dW, model, scheme, grid)
    if _same_bytes(got, want):
        return
    # the phase is the one operation the kernel does differently: the oracle's
    # exp(-1j * x) is exp(+0 - i x), the kernel's cos(-x) + i sin(-x)
    x = scheme.dt * model.lam * np.abs(np.asarray(v, np.complex128)) ** (2.0 * model.sigma) + dW
    trig = np.empty(x.shape, np.complex128)
    trig.real, trig.imag = np.cos(-x), np.sin(-x)
    assert not _same_bytes(trig, np.exp(-1j * x)), "the kernel departs from its oracle"
    assert got.dtype == want.dtype and np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))
    pytest.skip("this build's float64 cos/sin and complex exp round differently: the splitting phase moves the last bits")


class TestOracleBytes:
    @pytest.mark.parametrize("N", [4, 64, 400])
    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0, 1.5])
    @pytest.mark.parametrize("lam", [-1.0, 0.0, 2.5])
    def test_splitting_gives_the_oracle_bytes(self, N, sigma, lam):
        # v and dW are read-only, so a kernel that wrote either would raise
        grid, v, dW = _case(N, seed=N + int(10 * sigma))
        _assert_oracle_bytes(v, dW, _model(0.75, lam, sigma), SchemeParams(0.01), grid)

    def test_zero_angles_keep_the_signs_of_zeros(self):
        # a zero phase angle (lam = 0 with a zero dW, or dW = -dt lam) is -x of
        # a signed zero, as in the complex exp's argument; a zero state carries
        # the signs through to the result
        grid = build_grid(-20.0, 20.0, 64)
        angles = ((0.0, np.zeros(64)), (0.0, -np.zeros(64)), (-1.0, np.full(64, 0.01)))
        for v in (np.zeros(64, complex), -np.zeros(64, complex), _case(64, 3)[1]):
            for (lam, dW), sigma in itertools.product(angles, (0.0, 1.0)):
                _assert_oracle_bytes(v, dW, ModelParams(0.75, lam, sigma), SchemeParams(0.01), grid)

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    def test_complex64_state(self, sigma):
        grid, v, dW = _case(64, seed=7)
        _assert_oracle_bytes(v.astype(np.complex64), dW, ModelParams(0.75, -1.0, sigma), SchemeParams(0.01), grid)

    def test_consecutive_results_share_no_memory(self):
        # evolve's observers may keep every state they get (converge keeps its
        # reference states), so no call may write an array another call returned
        grid, v, dW = _case(400, seed=9)
        model, scheme = ModelParams(0.75, -1.0, 1.0), SchemeParams(0.01)
        for step in KERNELS:
            first = step(v, dW, model, scheme, grid)
            kept = first.copy()
            second = step(first, dW, model, scheme, grid)
            third = step(v, dW, model, scheme, grid)
            for a, b in itertools.combinations((v, first, second, third), 2):
                assert not np.shares_memory(a, b)
            assert _same_bytes(first, kept)


def _const_noise(K, grid, epsilon):
    # profile 1 for every mode: the noise field is eps * (sum of the increments) at every node
    profiles = np.ones((K, grid.N))
    profiles.setflags(write=False)
    return NoiseModel(epsilon, profiles)


def _const_run(integrator, sigma, epsilon, path, grid, noise_k=3):
    # alpha 0.75, lam -1 from the sech carrier; returns the initial and final states
    u0 = sech_carrier_initial(grid)
    model = ModelParams(0.75, -1.0, sigma)
    final, _ = evolve(u0, integrator, model, SchemeParams(path.dt), grid, path, _const_noise(noise_k, grid, epsilon))
    return u0.values, final.values


def _closed_form(u0, grid, T, epsilon, path):
    # exp(-i (lam T + eps beta(T))) exp(-i T L) u0 at sigma = 0, beta(T) summed over the path's modes
    lap = _frac_multiplier(grid.N, grid.mu, 0.75)
    phase = np.exp(-1j * (-1.0 * T + epsilon * path.increments.sum()))
    return phase * np.fft.ifft(np.exp(-1j * T * lap) * np.fft.fft(u0))


class TestConstNoiseOracle:
    GRID = build_grid(0.0, 40.0, 400)

    def test_splitting_is_the_closed_form_at_sigma_zero(self):
        # the noise phase and the linear flow commute, so the scheme is exact up to roundoff
        grid, T = self.GRID, 1.0
        noise = _const_noise(3, grid, 0.05)
        path = sample_wiener_path(noise, 200, T / 200, seed=1)
        u0, final = _const_run("splitting", 0.0, 0.05, path, grid)
        assert np.max(np.abs(final - _closed_form(u0, grid, T, 0.05, path))) < 1e-12

    def test_splitting_at_sigma_one_is_its_noise_free_run_times_the_noise_phase(self):
        grid = self.GRID
        noise = _const_noise(3, grid, 0.05)
        path = sample_wiener_path(noise, 200, 0.005, seed=2)
        _, noisy = _const_run("splitting", 1.0, 0.05, path, grid)
        _, free = _const_run("splitting", 1.0, 0.0, path, grid)
        assert np.max(np.abs(noisy - np.exp(-1j * 0.05 * path.increments.sum()) * free)) < 1e-12
        assert np.max(np.abs(noisy - free)) > 1e-3  # the noise phase is not trivially 1

    def test_midpoint_errors_against_the_closed_form_fall_at_order_near_two(self):
        # on coupled paths, dt = 0.01 / 2^r for r = 0..3 up to T = 1: the
        # measured orders were 1.95, 1.94 and 1.82 (seed 0).  The cross term of
        # the per-step Cayley phase error, 3 a eps^2 dt with a = dt (L_k + lam),
        # sums to an O(dt) global term, so the order falls towards 1 as dt shrinks
        grid, T, levels = self.GRID, 1.0, 3
        noise = _const_noise(1, grid, 0.05)
        fine = sample_wiener_path(noise, round(T / 0.01) * 2**levels, 0.01 / 2**levels, seed=0)
        errors = []
        for r in range(levels + 1):
            path = coarsen_path(fine, 2 ** (levels - r))
            u0, final = _const_run("midpoint", 0.0, 0.05, path, grid, noise_k=1)
            errors.append(l2_error(final, _closed_form(u0, grid, T, 0.05, path), grid))
        orders = [math.log2(errors[r] / errors[r + 1]) for r in range(levels)]
        assert 1e-4 < errors[0] < 1e-3
        assert all(1.7 <= order <= 2.1 for order in orders), orders


class TestGroundStateSolution:
    GRID = build_grid(-20.0, 20.0, 512)

    @pytest.mark.parametrize("alpha, mass", [(0.75, 2.6092), (0.6, 2.5312)])
    def test_ground_state_solves_its_equation(self, alpha, mass):
        grid = self.GRID
        q = ground_state(grid, alpha, 2 * alpha)
        residual = apply_frac_laplacian(q, grid, alpha) + q - np.abs(q) ** (4 * alpha) * q
        assert np.max(np.abs(residual)) < 1e-12
        assert np.all(q > 0)
        assert grid.h * np.sum(q**2) == pytest.approx(mass, abs=1e-4)

    @pytest.mark.parametrize("alpha", [0.75, 0.6])
    @pytest.mark.parametrize("integrator, order", [("splitting", 1.0), ("midpoint", 2.0)])
    def test_errors_against_the_exact_solution_fall_at_the_scheme_order(self, alpha, integrator, order):
        # T = 1 at dt = 0.02 / 2^r, r = 0..4.  Measured at N = 512: splitting
        # errors 8.3e-2 .. 5.2e-3 at orders 0.96-1.00, midpoint 1.0e-3 .. 3.1e-6 at 2.00
        grid = self.GRID
        q = ground_state(grid, alpha, 2 * alpha)
        with pytest.warns(UserWarning, match="focusing run"):
            model = ModelParams(alpha, -1.0, 2 * alpha)
        noise = build_noise_model(1, grid)  # epsilon 0: every noise field is 0
        errors = []
        for r in range(5):
            dt = 0.02 / 2**r
            path = sample_wiener_path(noise, round(1.0 / dt), dt, seed=0)
            final, _ = evolve(ComplexField(q + 0j), integrator, model, SchemeParams(dt), grid, path, noise)
            errors.append(l2_error(final.values, np.exp(1j * final.time) * q, grid))
        orders = [math.log2(errors[r] / errors[r + 1]) for r in range(4)]
        assert all(abs(measured - order) <= 0.1 for measured in orders), (errors, orders)
