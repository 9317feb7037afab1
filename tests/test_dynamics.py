import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from sfnse import dynamics
from sfnse.config import parse_config
from sfnse.diagnostics import l2_error, mass
from sfnse.dynamics import (
    ModelParams,
    Observer,
    SchemeParams,
    evolve,
    midpoint_step,
    splitting_step,
)
from sfnse.errors import DomainError, NonConvergence
from sfnse.experiments import path_seed, sech_carrier_initial
from sfnse.noise import WienerPath, build_noise_model, increment_field, sample_wiener_path
from sfnse.spectral import ComplexField, _frac_multiplier, build_grid

from operator_oracle import apply_frac_laplacian


def small_grid(N=16):
    return build_grid(0.0, 2.0 * np.pi, N)


def random_state(grid, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
    return scale * v


def mass2(v, grid):
    return mass(v, grid) ** 2


def reference_flow(state, model, grid, t_end, rtol=1e-12, atol=1e-13):
    """High-accuracy deterministic reference on arrays: stacked-real ODE solve."""
    lap = _frac_multiplier(grid.N, grid.mu, model.alpha)
    N = grid.N

    def rhs(_, y):
        u = y[:N] + 1j * y[N:]
        nl = model.lam * np.abs(u) ** (2 * model.sigma) * u
        du = -1j * (np.fft.ifft(np.fft.fft(u) * lap) + nl)
        return np.concatenate([du.real, du.imag])

    y0 = np.concatenate([state.real, state.imag])
    sol = solve_ivp(rhs, (0.0, t_end), y0, method="DOP853", rtol=rtol, atol=atol)
    y = sol.y[:, -1]
    return y[:N] + 1j * y[N:]


def midpoint_relation_residual(phi, phi_next, dW, model, dt, grid):
    """l2_h norm of i(phi' - phi)/dt - L psi - lam |psi|^(2 sigma) psi - psi dW/dt, psi = (phi + phi')/2."""
    psi = 0.5 * (phi + phi_next)
    lhs = 1j * (phi_next - phi) / dt
    nonlinear = model.lam * np.abs(psi) ** (2.0 * model.sigma) * psi
    rhs = apply_frac_laplacian(psi, grid, model.alpha) + nonlinear + psi * dW / dt
    return math.sqrt(grid.h * np.sum(np.abs(lhs - rhs) ** 2))


def iterate_residual_midpoint(v, dW, model, scheme, grid):
    """The midpoint fixed-point loop with its residual taken from successive iterates.

    This is the loop ``midpoint_step`` ran before it read the residual off
    successive forcings.  Returns phi' and the residual of every evaluation,
    the certifying one last.
    """
    dt = scheme.dt
    lap = _frac_multiplier(grid.N, grid.mu, model.alpha)
    denom = 2.0 + 1j * dt * lap
    two_phi_hat = 2.0 * np.fft.fft(v)
    coeff_norm = math.sqrt(grid.h / grid.N)
    psi, psi_hat = v, 0.5 * two_phi_hat
    residuals = []
    for _ in range(scheme.fp_max_iter):
        nl = model.lam * np.abs(psi) ** (2.0 * model.sigma) * psi
        forcing = np.fft.fft(dt * nl + dW * psi)
        psi_hat_next = (two_phi_hat - 1j * forcing) / denom
        residuals.append(coeff_norm * np.linalg.norm(denom * (psi_hat - psi_hat_next)) / dt)
        if residuals[-1] <= scheme.fp_tol:
            return 2.0 * psi - v, residuals
        psi_hat = psi_hat_next
        psi = np.fft.ifft(psi_hat_next)
    raise AssertionError(f"iterate-residual loop did not certify within {scheme.fp_max_iter} evaluations")


class TestModelParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            ModelParams(alpha=1.5, lam=1.0, sigma=1.0)
        with pytest.raises(DomainError):
            ModelParams(alpha=0.5, lam=1.0, sigma=-1.0)
        with pytest.raises(DomainError):
            ModelParams(0.6, 1.0, sigma=math.nan)
        with pytest.raises(DomainError):
            ModelParams(0.6, lam=math.nan, sigma=1.0)

    def test_focusing_range_warning(self):
        for lam in (-1.0, -0.5):
            with pytest.warns(UserWarning, match="global-existence") as record:
                ModelParams(alpha=0.5, lam=lam, sigma=1.0)
            # the warning names the code that built the model, not the generated __init__
            assert [w.filename for w in record] == [__file__]
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
            SchemeParams(dt=0.0)
        for dt in (math.nan, math.inf):
            with pytest.raises(DomainError):
                SchemeParams(dt=dt)
        with pytest.raises(DomainError):
            SchemeParams(0.01, fp_tol=math.nan)
        with pytest.raises(DomainError):
            SchemeParams(dt=0.1, fp_tol=0.0)
        with pytest.raises(DomainError):
            SchemeParams(dt=0.1, fp_max_iter=0)
        # a cap that is not an integer, a bool among them, is refused rather
        # than failing in the first step (2.5) or running one evaluation (True)
        for cap in (2.5, np.float64(3.0), True):
            with pytest.raises(DomainError, match="fp_max_iter must be an integer"):
                SchemeParams(0.01, fp_max_iter=cap)


class TestMidpoint:
    def test_linear_case_is_cayley_per_mode(self):
        grid = small_grid()
        state = random_state(grid, 0)
        model = ModelParams(alpha=0.75, lam=0.0, sigma=0.0)
        scheme = SchemeParams(dt=0.05)
        out = midpoint_step(state, np.zeros(grid.N), model, scheme, grid)
        lap = _frac_multiplier(grid.N, grid.mu, 0.75)
        cayley = (2.0 - 1j * scheme.dt * lap) / (2.0 + 1j * scheme.dt * lap)
        assert np.max(np.abs(np.abs(cayley) - 1.0)) <= 1e-14
        expect = np.fft.ifft(cayley * np.fft.fft(state))
        assert np.max(np.abs(out - expect)) < 1e-12

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
        model = ModelParams(alpha=alpha, lam=1.0, sigma=sigma)
        scheme = SchemeParams(dt=0.01)
        noise = build_noise_model(6, grid, epsilon=0.5)
        path = sample_wiener_path(noise, 20, scheme.dt, seed=23)
        state = random_state(grid, 4, scale=0.4)
        for n in range(20):
            dW = increment_field(path, n, noise, grid)
            nxt = midpoint_step(state, dW, model, scheme, grid)
            drift = abs(mass2(nxt, grid) - mass2(state, grid))
            assert drift <= 100 * scheme.fp_tol
            state = nxt

    def test_zero_field_is_fixed_point(self):
        grid = small_grid()
        model = ModelParams(alpha=0.75, lam=-1.0, sigma=1.0)
        out = midpoint_step(np.zeros(grid.N, complex), np.zeros(grid.N), model, SchemeParams(dt=0.01), grid)
        assert np.all(out == 0.0)

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

    def test_large_focusing_state_certifies_at_the_roundoff_floor(self):
        # 3 sech(x) with sigma < 2 alpha, where ModelParams promises global existence: the state
        # grows until the residual's roundoff floor passes fp_tol, and a certificate of fp_tol
        # alone stalls at step 1720 (residual 1.04e-12 after 50 evaluations)
        grid = build_grid(-20.0, 20.0, 2048)
        noise = build_noise_model(100, grid, epsilon=0.01)
        path = sample_wiener_path(noise, 1800, 5e-4, 0)
        initial = ComplexField(3.0 / np.cosh(grid.nodes()) + 0j)
        model, scheme = ModelParams(0.6, -1.0, 1.0), SchemeParams(5e-4)
        observer = Observer(100, lambda n, t, v: mass(v, grid))
        _, (masses,) = evolve(initial, "midpoint", model, scheme, grid, path, noise, [observer])
        assert len(masses) == 19 and max(masses) - min(masses) < 1e-10

    @pytest.mark.parametrize(
        "lam, sigma, epsilon",
        # the last case has no forcing at all (f_m = 0), so only the start
        # forcing f_{-1} = -dt L phi^ stops psi_0 = phi from certifying at once
        [(-1.0, 0.0, 0.5), (1.0, 1.0, 0.5), (1.0, 2.0, 0.5), (0.0, 0.0, 0.0)],
    )
    def test_certificate_holds_for_the_midpoint_relation(self, lam, sigma, epsilon):
        # the relation is recomputed from apply_frac_laplacian, not from the
        # kernel's forcing algebra
        grid = small_grid(32)
        model = ModelParams(alpha=0.75, lam=lam, sigma=sigma)
        scheme = SchemeParams(dt=0.01)
        noise = build_noise_model(6, grid, epsilon=epsilon)
        path = sample_wiener_path(noise, 5, scheme.dt, seed=31)
        state = random_state(grid, 32, scale=0.4)
        for n in range(path.steps):
            dW = increment_field(path, n, noise, grid)
            assert (np.max(np.abs(dW)) > 0.0) == (epsilon > 0.0)
            nxt = midpoint_step(state, dW, model, scheme, grid)
            assert midpoint_relation_residual(state, state, dW, model, scheme.dt, grid) > 1e3 * scheme.fp_tol
            assert midpoint_relation_residual(state, nxt, dW, model, scheme.dt, grid) <= 10 * scheme.fp_tol
            state = nxt

    def test_certifying_cap_matches_iterate_residual_loop(self):
        # on the energy-ensemble model, the smallest fp_max_iter that certifies
        # (found by raising the cap, as perfbench counts evaluations) and the
        # residual reported below it match the iterate-residual loop's
        config = parse_config((Path(__file__).resolve().parents[1] / "configs" / "energy_ensemble.cfg").read_text())
        grid = build_grid(config.grid_a, config.grid_b, config.grid_n)
        noise = build_noise_model(config.noise_k, grid, epsilon=config.epsilon, profile=config.noise_profile)
        model = ModelParams(config.alpha, config.lam, config.sigma)
        scheme = SchemeParams(config.dt, config.fp_tol, config.fp_max_iter)
        path = sample_wiener_path(noise, 5, scheme.dt, path_seed(config.noise_seed, 0))
        state = sech_carrier_initial(grid).values
        for n in range(path.steps):
            dW = increment_field(path, n, noise, grid)
            expected, residuals = iterate_residual_midpoint(state, dW, model, scheme, grid)
            stalled = []
            for cap in range(1, scheme.fp_max_iter + 1):
                try:
                    nxt = midpoint_step(state, dW, model, dataclasses.replace(scheme, fp_max_iter=cap), grid)
                except NonConvergence as exc:
                    stalled.append(exc.residual)
                    continue
                break
            assert len(stalled) + 1 == len(residuals) > 1
            np.testing.assert_allclose(stalled, residuals[:-1], rtol=1e-6, atol=scheme.fp_tol)
            np.testing.assert_allclose(nxt, expected, rtol=0.0, atol=1e-13 * np.max(np.abs(expected)))
            state = nxt

    def test_inputs_never_written(self):
        # the midpoint builds its multiplier in place; it must never be v or dW
        grid = small_grid()
        v = random_state(grid, 33, scale=0.4)
        dW = 0.1 * np.random.default_rng(34).standard_normal(grid.N)
        v.setflags(write=False)
        dW.setflags(write=False)
        for step in (midpoint_step, splitting_step):
            step(v, dW, ModelParams(0.75, 1.0, 1.0), SchemeParams(0.01), grid)

    def test_shape_checks(self):
        grid = small_grid()
        state = random_state(grid, 7)
        for v, dW in ((state, np.zeros(grid.N - 1)), (state[:-2], np.zeros(grid.N))):
            for step in (midpoint_step, splitting_step):
                with pytest.raises(DomainError, match="does not match grid N="):
                    step(v, dW, ModelParams(0.75, 0.0, 0.0), SchemeParams(0.01), grid)

    @pytest.mark.parametrize("step", [midpoint_step, splitting_step])
    def test_complex_increment_refused(self, step):
        # casting it to float64 would drop its imaginary part with only a ComplexWarning
        grid = small_grid()
        with pytest.raises(DomainError, match="noise increment must be real"):
            step(random_state(grid, 7), 1j * np.ones(grid.N), ModelParams(0.75, 0.0, 0.0), SchemeParams(0.01), grid)


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
        lap = _frac_multiplier(grid.N, grid.mu, 0.6)
        exact = np.fft.ifft(np.fft.fft(state) * np.exp(-1j * t * lap)) * np.exp(-1j * t)
        assert np.max(np.abs(s - exact)) < 1e-12

    def test_pure_linear_flow_preserves_mode_magnitudes(self):
        grid = small_grid()
        state = random_state(grid, 9)
        model = ModelParams(alpha=0.9, lam=0.0, sigma=0.0)
        out = splitting_step(state, np.zeros(grid.N), model, SchemeParams(dt=0.1), grid)
        before = np.abs(np.fft.fft(state))
        after = np.abs(np.fft.fft(out))
        assert np.max(np.abs(after - before)) < 1e-12 * np.max(before)

    def test_single_step_mass_exact(self):
        grid = small_grid()
        state = random_state(grid, 10)
        model = ModelParams(alpha=0.75, lam=-1.0, sigma=0.0)
        rng = np.random.default_rng(11)
        dW = 0.3 * rng.standard_normal(grid.N)
        out = splitting_step(state, dW, model, SchemeParams(dt=0.01), grid)
        m0 = mass2(state, grid)
        assert abs(mass2(out, grid) - m0) <= 1e-13 * m0

    def test_sigma_positive_conserves_mass(self):
        grid = small_grid()
        state = random_state(grid, 12)
        model = ModelParams(alpha=0.75, lam=1.0, sigma=1.0)
        out = splitting_step(state, np.zeros(grid.N), model, SchemeParams(dt=0.01), grid)
        m0 = mass2(state, grid)
        assert abs(mass2(out, grid) - m0) <= 1e-13 * m0

    def test_sigma_zero_phase_matches_general_phase(self):
        # the sigma = 0 branch skips |u|^0; it must give the general formula's bytes
        grid = small_grid()
        state = random_state(grid, 22)
        model = ModelParams(alpha=0.75, lam=-1.0, sigma=0.0)
        dW = 0.1 * np.random.default_rng(23).standard_normal(grid.N)
        dt = 0.01
        phase = np.exp(-1j * (dt * model.lam * np.abs(state) ** 0.0 + dW))
        linear = np.exp(-1j * dt * _frac_multiplier(grid.N, grid.mu, 0.75))
        general = np.fft.ifft(np.fft.fft(state * phase) * linear)
        assert np.array_equal(splitting_step(state, dW, model, SchemeParams(dt=dt), grid), general)

    def test_nonlinear_extension_consistent_with_midpoint(self):
        # both schemes approximate the same flow; errors must shrink together
        grid = small_grid(16)
        state = random_state(grid, 13, scale=0.4)
        model = ModelParams(alpha=0.75, lam=1.0, sigma=1.0)
        ref = reference_flow(state, model, grid, 0.1)
        errs = []
        for dt in (0.01, 0.005):
            s = state
            scheme = SchemeParams(dt=dt)
            for _ in range(round(0.1 / dt)):
                s = splitting_step(s, np.zeros(grid.N), model, scheme, grid)
            errs.append(l2_error(s, ref, grid))
        order = math.log2(errs[0] / errs[1])
        assert order >= 0.8


class TestEvolve:
    def _setup(self, steps=10, epsilon=0.01, K=4, seed=3):
        grid = small_grid()
        model = ModelParams(alpha=0.75, lam=1.0, sigma=0.0)
        scheme = SchemeParams(dt=0.01)
        noise = build_noise_model(K, grid, epsilon=epsilon)
        path = sample_wiener_path(noise, steps, scheme.dt, seed=seed)
        return grid, model, scheme, noise, path

    def test_zero_steps_returns_initial(self):
        grid, model, scheme, noise, _ = self._setup()
        empty = WienerPath(dt=scheme.dt, increments=np.empty((0, 4)))
        initial = ComplexField(random_state(grid, 15))
        final, records = evolve(initial, "splitting", model, scheme, grid, empty, noise)
        assert np.array_equal(final.values, initial.values) and final.time == initial.time
        assert records == []

    def test_splitting_mass_series_constant(self):
        grid, model, scheme, noise, path = self._setup(steps=1000)
        initial = ComplexField(random_state(grid, 16))
        obs = Observer(100, lambda n, t, v: mass(v, grid))
        _, (values,) = evolve(initial, "splitting", model, scheme, grid, path, noise, [obs])
        assert len(values) == 11
        assert max(values) - min(values) <= 1e-12 * values[0]

    def test_observer_stride_and_times(self):
        grid, model, scheme, noise, path = self._setup(steps=10)
        obs = Observer(3, lambda n, t, v: mass(v, grid))
        fired = Observer(3, lambda n, t, v: (n, t))  # fn gets the step and time it fires at
        _, (masses, fired_at) = evolve(
            ComplexField(random_state(grid, 17)), "midpoint", model, scheme, grid, path, noise, [obs, fired]
        )
        steps = [n for n, _ in fired_at]
        assert steps == [0, 3, 6, 9]
        assert len(masses) == len(fired_at)
        times = [t for _, t in fired_at]
        assert times[0] == 0.0
        assert times[1] == pytest.approx(0.03, rel=1e-12)

    def test_observer_stride_validated(self):
        for stride in (0, -3):
            with pytest.raises(DomainError, match="stride must be >= 1"):
                Observer(stride, lambda n, t, v: None)
        # truncating is no answer either: 1.5 would otherwise fire at steps 0, 3, 6
        for stride in (1.5, 3.0, True):
            with pytest.raises(DomainError, match="observer stride must be an integer"):
                Observer(stride, lambda n, t, v: None)

    def test_observers_sharing_stride_and_fn_keep_their_own_lists(self):
        # records follow the observers by position, so twins are two lists, in observer order
        grid, model, scheme, noise, path = self._setup(steps=4)

        def step(n, t, v):
            return n

        twins = [Observer(1, step), Observer(1, step), Observer(2, step)]
        _, records = evolve(ComplexField(random_state(grid, 21)), "splitting", model, scheme, grid, path, noise, twins)
        assert records == [[0, 1, 2, 3, 4], [0, 1, 2, 3, 4], [0, 2, 4]]
        assert records[0] is not records[1]
        _, records = evolve(ComplexField(random_state(grid, 21)), "splitting", model, scheme, grid, path, noise)
        assert records == []

    @pytest.mark.filterwarnings("ignore:focusing run")
    def test_step_error_carries_index(self):
        grid, model, scheme, noise, path = self._setup(steps=5)
        bad_model = ModelParams(alpha=0.9, lam=-1.0, sigma=2.0)
        bad_scheme = SchemeParams(dt=5.0, fp_max_iter=5)
        bad_path = sample_wiener_path(noise, 5, 5.0, seed=3)
        big = ComplexField(3.0 * random_state(grid, 18))
        with pytest.raises(NonConvergence) as info:
            evolve(big, "midpoint", bad_model, bad_scheme, grid, bad_path, noise)
        assert info.value.step == 0

    def test_dt_mismatch_rejected(self):
        grid, model, scheme, noise, path = self._setup()
        with pytest.raises(DomainError, match="path dt 0.01 does not match scheme dt 0.02"):
            evolve(ComplexField(random_state(grid, 19)), "midpoint", model, SchemeParams(dt=0.02), grid, path, noise)

    def test_unknown_integrator(self):
        grid, model, scheme, noise, path = self._setup()
        for integrator in ("leapfrog", splitting_step, ["midpoint"]):
            with pytest.raises(DomainError):
                evolve(ComplexField(random_state(grid, 20)), integrator, model, scheme, grid, path, noise)

    def test_one_field_built_and_observers_see_arrays(self, monkeypatch):
        grid, model, scheme, noise, path = self._setup(steps=10)
        initial = ComplexField(random_state(grid, 24), time=0.5)
        v, t = initial.values, initial.time
        expected = [v]
        for n in range(path.steps):
            v = splitting_step(v, increment_field(path, n, noise, grid), model, scheme, grid)
            t = t + scheme.dt
            expected.append(v)
        built = []
        field_init = ComplexField.__init__

        def counted_init(field, *args, **kwargs):
            built.append(field)
            field_init(field, *args, **kwargs)

        monkeypatch.setattr(ComplexField, "__init__", counted_init)
        for stride in (1, 3):
            built.clear()
            obs = Observer(stride, lambda n, t, v: (n, v))
            final, (fired,) = evolve(initial, "splitting", model, scheme, grid, path, noise, [obs])
            assert len(built) == 1 and built[0] is final
            assert np.array_equal(final.values, v) and final.time == t
            assert [n for n, _ in fired] == list(range(0, path.steps + 1, stride))
            seen = [s for _, s in fired]
            assert all(type(s) is np.ndarray for s in seen)
            for s, n in zip(seen, range(0, path.steps + 1, stride), strict=True):
                assert s.tobytes() == expected[n].tobytes()

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
            evolve(ComplexField(random_state(grid, 21)), integrator, model, scheme, grid, path, noise)
            assert calls == ["field", integrator] * 3

    def test_evolve_steps_with_the_public_fields(self, monkeypatch):
        # 17 steps: a full block, then a 1-row final block
        grid, model, scheme, noise, path = self._setup(steps=17)
        for integrator in ("midpoint", "splitting"):
            seen = []
            step = dynamics._STEPPERS[integrator]

            def capture(v, dW, *args, step=step):
                seen.append(dW.tobytes())
                return step(v, dW, *args)

            monkeypatch.setitem(dynamics._STEPPERS, integrator, capture)
            evolve(ComplexField(random_state(grid, 22)), integrator, model, scheme, grid, path, noise)
            assert seen == [increment_field(path, n, noise, grid).tobytes() for n in range(path.steps)]
