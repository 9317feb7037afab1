import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from sfnse import dynamics
from sfnse.diagnostics import l2_error, mass
from sfnse.dynamics import (
    ModelParams,
    Observer,
    SchemeParams,
    evolve,
    midpoint_step,
    splitting_step,
)
from sfnse.errors import (
    ConfigError,
    DomainError,
    NonConvergence,
    ShapeError,
    UnsupportedNonlinearity,
)
from sfnse.noise import WienerPath, build_noise_model, increment_field, sample_wiener_path
from sfnse.spectral import ComplexField, build_grid, operator_symbols


def small_grid(N=16):
    return build_grid(0.0, 2.0 * np.pi, N)


def random_state(grid, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
    return ComplexField(scale * v)


def reference_flow(state, model, grid, t_end, rtol=1e-12, atol=1e-13):
    """High-accuracy deterministic reference: stacked-real ODE solve."""
    lap = operator_symbols(grid, model.alpha).lap_symbol
    N = grid.N

    def rhs(_, y):
        u = y[:N] + 1j * y[N:]
        nl = model.lam * np.abs(u) ** (2 * model.sigma) * u
        du = -1j * (np.fft.ifft(np.fft.fft(u) * lap) + nl)
        return np.concatenate([du.real, du.imag])

    y0 = np.concatenate([state.values.real, state.values.imag])
    sol = solve_ivp(rhs, (0.0, t_end), y0, method="DOP853", rtol=rtol, atol=atol)
    y = sol.y[:, -1]
    return ComplexField(y[:N] + 1j * y[N:], time=state.time + t_end)


class TestModelParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            ModelParams(alpha=1.5, lam=1.0, sigma=1.0)
        with pytest.raises(DomainError):
            ModelParams(alpha=0.5, lam=1.0, sigma=-1.0)
        with pytest.raises(DomainError):
            ModelParams(alpha=0.5, lam=1.0, sigma=0.0, epsilon=-0.01)

    def test_focusing_range_warning(self):
        for lam in (-1.0, -0.5):
            with pytest.warns(UserWarning, match="global-existence"):
                ModelParams(alpha=0.5, lam=lam, sigma=1.0)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ModelParams(alpha=0.6, lam=-1.0, sigma=1.0)  # sigma < 2*alpha: silent
            ModelParams(alpha=0.5, lam=1.0, sigma=3.0)  # defocusing in 1-D: silent


class TestSchemeParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            SchemeParams(dt=-0.1)
        with pytest.raises(DomainError):
            SchemeParams(dt=0.1, fp_tol=0.0)
        with pytest.raises(DomainError):
            SchemeParams(dt=0.1, fp_max_iter=0)


class TestMidpoint:
    def test_linear_case_is_cayley_per_mode(self):
        grid = small_grid()
        state = random_state(grid, 0)
        model = ModelParams(alpha=0.75, lam=0.0, sigma=0.0)
        scheme = SchemeParams(dt=0.05)
        out = midpoint_step(state, np.zeros(grid.N), model, scheme, grid)
        lap = operator_symbols(grid, 0.75).lap_symbol
        cayley = (2.0 - 1j * scheme.dt * lap) / (2.0 + 1j * scheme.dt * lap)
        assert np.max(np.abs(np.abs(cayley) - 1.0)) <= 1e-14
        expect = np.fft.ifft(cayley * np.fft.fft(state.values))
        assert np.max(np.abs(out.values - expect)) < 1e-12

    @pytest.mark.parametrize("lam", [1.0, -1.0])
    def test_one_step_agrees_with_reference(self, lam):
        grid = small_grid(8)
        state = random_state(grid, 1, scale=0.5)
        model = ModelParams(alpha=0.8, lam=lam, sigma=1.0)
        errs = []
        for dt in (0.02, 0.01):
            out = midpoint_step(state, np.zeros(grid.N), model, SchemeParams(dt=dt), grid)
            ref = reference_flow(state, model, grid, dt)
            errs.append(l2_error(out, ref, grid))
        assert errs[0] < 5e-4
        # local error is O(dt^3): halving dt shrinks it by ~8; demand at least O(dt^2)
        assert errs[0] / errs[1] > 3.5

    def test_global_second_order_consistency(self):
        grid = small_grid(16)
        state = random_state(grid, 2, scale=0.4)
        model = ModelParams(alpha=0.75, lam=1.0, sigma=1.0)
        ref = reference_flow(state, model, grid, 0.2)
        errs = []
        for dt in (0.02, 0.01):
            s = state
            for _ in range(round(0.2 / dt)):
                s = midpoint_step(s, np.zeros(grid.N), model, SchemeParams(dt=dt), grid)
            errs.append(l2_error(s, ref, grid))
        order = math.log2(errs[0] / errs[1])
        assert order >= 1.9

    @pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9])
    @pytest.mark.parametrize("sigma", [0.0, 1.0, 2.0])
    def test_mass_conserved_per_step(self, alpha, sigma):
        # state scale chosen so the fixed point contracts well at dt = 0.01
        # even for the quintic nonlinearity
        grid = small_grid()
        model = ModelParams(alpha=alpha, lam=1.0, sigma=sigma, epsilon=0.5)
        scheme = SchemeParams(dt=0.01)
        noise = build_noise_model(6, grid, epsilon=0.5)
        path = sample_wiener_path(noise, 20, scheme.dt, seed=23)
        state = random_state(grid, 4, scale=0.4)
        for n in range(20):
            dW = increment_field(path, n, noise, grid)
            nxt = midpoint_step(state, dW, model, scheme, grid)
            drift = abs(mass(nxt, grid, "squared") - mass(state, grid, "squared"))
            assert drift <= 100 * scheme.fp_tol
            state = nxt

    def test_zero_field_is_fixed_point(self):
        grid = small_grid()
        model = ModelParams(alpha=0.75, lam=-1.0, sigma=1.0)
        out = midpoint_step(
            ComplexField(np.zeros(grid.N, complex)), np.zeros(grid.N), model, SchemeParams(dt=0.01), grid
        )
        assert np.all(out.values == 0.0)

    def test_dt_zero_returns_state(self):
        grid = small_grid()
        state = random_state(grid, 5)
        out = midpoint_step(state, np.zeros(grid.N), ModelParams(0.75, 1.0, 1.0), SchemeParams(dt=0.0), grid)
        assert out is state

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:focusing run")
    def test_nonconvergence_reports_iterations(self):
        grid = small_grid()
        state = random_state(grid, 6, scale=3.0)
        model = ModelParams(alpha=0.9, lam=-1.0, sigma=2.0)
        scheme = SchemeParams(dt=5.0, fp_max_iter=10)
        with pytest.raises(NonConvergence) as info:
            midpoint_step(state, np.zeros(grid.N), model, scheme, grid)
        assert 1 <= info.value.iterations <= 10
        assert info.value.residual > 0.0

    def test_shape_checks(self):
        grid = small_grid()
        state = random_state(grid, 7)
        with pytest.raises(ShapeError):
            midpoint_step(state, np.zeros(grid.N - 1), ModelParams(0.75, 0.0, 0.0), SchemeParams(0.01), grid)


class TestSplitting:
    def test_commuting_linear_flows_exact(self):
        grid = small_grid()
        state = random_state(grid, 8)
        model = ModelParams(alpha=0.6, lam=1.0, sigma=0.0)
        scheme = SchemeParams(dt=0.02)
        s = state
        for _ in range(50):
            s = splitting_step(s, np.zeros(grid.N), model, scheme, grid)
        t = 50 * 0.02
        lap = operator_symbols(grid, 0.6).lap_symbol
        exact = np.fft.ifft(np.fft.fft(state.values) * np.exp(-1j * t * lap)) * np.exp(-1j * t)
        assert np.max(np.abs(s.values - exact)) < 1e-12

    def test_pure_linear_flow_preserves_mode_magnitudes(self):
        grid = small_grid()
        state = random_state(grid, 9)
        model = ModelParams(alpha=0.9, lam=0.0, sigma=0.0)
        out = splitting_step(state, np.zeros(grid.N), model, SchemeParams(dt=0.1), grid)
        before = np.abs(np.fft.fft(state.values))
        after = np.abs(np.fft.fft(out.values))
        assert np.max(np.abs(after - before)) < 1e-12 * np.max(before)

    def test_single_step_mass_exact(self):
        grid = small_grid()
        state = random_state(grid, 10)
        model = ModelParams(alpha=0.75, lam=-1.0, sigma=0.0, epsilon=1.0)
        rng = np.random.default_rng(11)
        dW = 0.3 * rng.standard_normal(grid.N)
        out = splitting_step(state, dW, model, SchemeParams(dt=0.01), grid)
        m0 = mass(state, grid, "squared")
        assert abs(mass(out, grid, "squared") - m0) <= 1e-13 * m0

    def test_sigma_requires_extension_flag(self):
        grid = small_grid()
        state = random_state(grid, 12)
        model = ModelParams(alpha=0.75, lam=1.0, sigma=1.0)
        with pytest.raises(UnsupportedNonlinearity):
            splitting_step(state, np.zeros(grid.N), model, SchemeParams(dt=0.01), grid)
        out = splitting_step(
            state, np.zeros(grid.N), model, SchemeParams(dt=0.01, splitting_nonlinear=True), grid
        )
        m0 = mass(state, grid, "squared")
        assert abs(mass(out, grid, "squared") - m0) <= 1e-13 * m0

    def test_nonlinear_extension_consistent_with_midpoint(self):
        # both schemes approximate the same flow; errors must shrink together
        grid = small_grid(16)
        state = random_state(grid, 13, scale=0.4)
        model = ModelParams(alpha=0.75, lam=1.0, sigma=1.0)
        ref = reference_flow(state, model, grid, 0.1)
        errs = []
        for dt in (0.01, 0.005):
            s = state
            scheme = SchemeParams(dt=dt, splitting_nonlinear=True)
            for _ in range(round(0.1 / dt)):
                s = splitting_step(s, np.zeros(grid.N), model, scheme, grid)
            errs.append(l2_error(s, ref, grid))
        order = math.log2(errs[0] / errs[1])
        assert order >= 0.8

    def test_dt_zero_returns_state(self):
        grid = small_grid()
        state = random_state(grid, 14)
        out = splitting_step(state, np.zeros(grid.N), ModelParams(0.6, 1.0, 0.0), SchemeParams(dt=0.0), grid)
        assert out is state


class TestEvolve:
    def _setup(self, steps=10, epsilon=0.01, K=4, seed=3):
        grid = small_grid()
        model = ModelParams(alpha=0.75, lam=1.0, sigma=0.0, epsilon=epsilon)
        scheme = SchemeParams(dt=0.01)
        noise = build_noise_model(K, grid, epsilon=epsilon)
        path = sample_wiener_path(noise, steps, scheme.dt, seed=seed)
        return grid, model, scheme, noise, path

    def test_zero_steps_returns_initial(self):
        grid, model, scheme, noise, _ = self._setup()
        empty = WienerPath(seed=0, dt=scheme.dt, steps=0, increments=np.empty((0, 4)))
        initial = random_state(grid, 15)
        final, records = evolve(initial, "splitting", model, scheme, grid, empty, noise)
        assert final is initial
        assert records == {}

    def test_splitting_mass_series_constant(self):
        grid, model, scheme, noise, path = self._setup(steps=1000)
        initial = random_state(grid, 16)
        obs = Observer("mass", 100, lambda s: mass(s, grid, "norm"))
        _, records = evolve(initial, "splitting", model, scheme, grid, path, noise, [obs])
        values = [v for _, _, v in records["mass"]]
        assert len(values) == 11
        assert max(values) - min(values) <= 1e-12 * values[0]

    def test_observer_stride_and_times(self):
        grid, model, scheme, noise, path = self._setup(steps=10)
        obs = Observer("m", 3, lambda s: mass(s, grid))
        _, records = evolve(random_state(grid, 17), "midpoint", model, scheme, grid, path, noise, [obs])
        steps = [n for n, _, _ in records["m"]]
        assert steps == [0, 3, 6, 9]
        times = [t for _, t, _ in records["m"]]
        assert times[0] == 0.0
        assert times[1] == pytest.approx(0.03, rel=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:focusing run")
    def test_step_error_carries_index(self):
        grid, model, scheme, noise, path = self._setup(steps=5)
        bad_model = ModelParams(alpha=0.9, lam=-1.0, sigma=2.0)
        bad_scheme = SchemeParams(dt=5.0, fp_max_iter=5)
        bad_path = sample_wiener_path(noise, 5, 5.0, seed=3)
        big = ComplexField(3.0 * random_state(grid, 18).values)
        with pytest.raises(NonConvergence) as info:
            evolve(big, "midpoint", bad_model, bad_scheme, grid, bad_path, noise)
        assert info.value.step == 0

    def test_dt_mismatch_rejected(self):
        grid, model, scheme, noise, path = self._setup()
        with pytest.raises(ConfigError):
            evolve(random_state(grid, 19), "midpoint", model, SchemeParams(dt=0.02), grid, path, noise)

    def test_unknown_integrator(self):
        grid, model, scheme, noise, path = self._setup()
        for integrator in ("leapfrog", splitting_step):
            with pytest.raises(DomainError):
                evolve(random_state(grid, 20), integrator, model, scheme, grid, path, noise)

    def test_one_increment_field_and_one_step_per_step(self, monkeypatch):
        grid, model, scheme, noise, path = self._setup(steps=3)
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            return wrapper

        monkeypatch.setattr(dynamics, "increment_field", counted("field", increment_field))
        for integrator in ("midpoint", "splitting"):
            step = dynamics._STEPPERS[integrator]
            monkeypatch.setitem(dynamics._STEPPERS, integrator, counted(integrator, step))
            calls.clear()
            evolve(random_state(grid, 21), integrator, model, scheme, grid, path, noise)
            assert calls == ["field", integrator] * 3
