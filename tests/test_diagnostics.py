import numpy as np
import pytest

from sfnse.diagnostics import energy, l2_error, mass
from sfnse.dynamics import ModelParams, SchemeParams, midpoint_step, splitting_step
from sfnse.errors import DomainError
from sfnse.spectral import _frac_multiplier, build_grid

from operator_oracle import symplectic_defect


def paper_grid():
    return build_grid(-20.0, 20.0, 400)


def soliton(grid):
    x = grid.nodes()
    return np.exp(2j * x) / np.cosh(x)


def random_state(grid, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * (rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N))


class TestMass:
    def test_zero_field(self):
        g = build_grid(0.0, 1.0, 8)
        assert mass(np.zeros(8, complex), g) == 0.0

    def test_soliton_norm_matches_reference_table_value(self):
        g = paper_grid()
        value = mass(soliton(g), g)
        # rectangle rule on this grid gives sqrt(2) to machine precision;
        # the published table value differs only by grid convention
        assert value == pytest.approx(np.sqrt(2.0), rel=1e-14)
        assert abs(value - 1.414211518677561) < 5e-6

    def test_constant_field_squared(self):
        g = build_grid(0.0, 2.0 * np.pi, 32)
        c = 1.5 - 0.5j
        value = mass(np.full(32, c), g) ** 2
        assert value == pytest.approx(abs(c) ** 2 * 2.0 * np.pi, rel=1e-13)

    def test_squared_equals_parseval_form(self):
        g = build_grid(-3.0, 7.0, 64)
        f = random_state(g, 0)
        coeffs = np.fft.fft(f) / g.N
        spectral = (g.b - g.a) * np.sum(np.abs(coeffs) ** 2)
        assert mass(f, g) ** 2 == pytest.approx(spectral, rel=1e-12)


class TestEnergy:
    def test_zero_field(self):
        g = build_grid(0.0, 1.0, 8)
        model = ModelParams(0.75, 1.0, 1.0)
        assert energy(np.zeros(8, complex), g, model) == 0.0

    def test_constant_field_defocusing_cubic(self):
        g = build_grid(0.0, 2.0, 16)
        model = ModelParams(0.75, 1.0, 1.0)
        c = 0.5 + 0.25j
        value = energy(np.full(16, c), g, model)
        assert value == pytest.approx(0.25 * abs(c) ** 4 * (g.b - g.a), rel=1e-13)

    def test_soliton_energy_vs_refined_grid_oracle(self):
        model = ModelParams(0.6, -1.0, 1.0)
        coarse = energy(soliton(paper_grid()), paper_grid(), model)
        fine_grid = build_grid(-20.0, 20.0, 1600)
        fine = energy(soliton(fine_grid), fine_grid, model)
        assert coarse == pytest.approx(fine, rel=1e-6)

    def test_invariant_under_pure_linear_flow(self):
        g = build_grid(0.0, 2.0 * np.pi, 32)
        model = ModelParams(0.8, 0.0, 0.0)
        f = random_state(g, 1)
        lap = _frac_multiplier(g.N, g.mu, 0.8)
        evolved = np.fft.ifft(np.fft.fft(f) * np.exp(-1j * 0.7 * lap))
        assert energy(evolved, g, model) == pytest.approx(energy(f, g, model), rel=1e-11)


class TestL2Error:
    def test_identical_fields(self):
        g = build_grid(0.0, 1.0, 16)
        f = random_state(g, 2)
        assert l2_error(f, f, g) == 0.0

    def test_against_zero_reduces_to_norm(self):
        g = build_grid(0.0, 1.0, 16)
        f = random_state(g, 3)
        zero = np.zeros(16, complex)
        assert l2_error(f, zero, g) == pytest.approx(mass(f, g), rel=1e-14)

    def test_triangle_inequality_on_random_triples(self):
        g = build_grid(-1.0, 1.0, 32)
        for seed in range(20):
            a = random_state(g, 3 * seed)
            b = random_state(g, 3 * seed + 1)
            c = random_state(g, 3 * seed + 2)
            assert l2_error(a, c, g) <= l2_error(a, b, g) + l2_error(b, c, g) + 1e-14

    def test_shape_check(self):
        g = build_grid(0.0, 1.0, 16)
        with pytest.raises(DomainError, match="does not match grid N=16"):
            l2_error(random_state(g, 4), np.zeros(8, complex), g)
        with pytest.raises(DomainError, match="does not match grid N=16"):
            mass(np.zeros(8, complex), g)


class TestSymplecticDefect:
    def test_linear_midpoint_defect_tiny(self):
        g = build_grid(0.0, 2.0 * np.pi, 8)
        model = ModelParams(0.75, 0.0, 0.0)
        scheme = SchemeParams(dt=0.02)
        defect = symplectic_defect(midpoint_step, random_state(g, 5), np.zeros(8), model, scheme, g)
        assert defect <= 1e-9

    def test_nonlinear_midpoint_with_frozen_noise(self):
        g = build_grid(0.0, 2.0 * np.pi, 8)
        model = ModelParams(0.75, -1.0, 1.0)
        scheme = SchemeParams(dt=0.02, fp_tol=1e-14)
        rng = np.random.default_rng(6)
        dW = 0.1 * rng.standard_normal(8)
        defect = symplectic_defect(midpoint_step, random_state(g, 7, scale=0.5), dW, model, scheme, g)
        assert defect <= 1e-5

    def test_splitting_linear_with_frozen_noise(self):
        g = build_grid(0.0, 2.0 * np.pi, 8)
        model = ModelParams(0.6, 1.0, 0.0)
        scheme = SchemeParams(dt=0.02)
        rng = np.random.default_rng(8)
        dW = 0.2 * rng.standard_normal(8)
        defect = symplectic_defect(splitting_step, random_state(g, 9), dW, model, scheme, g)
        assert defect <= 1e-9

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_map_gives_non_finite_defect(self):
        # explicit Euler on the cubic term at a huge dt: within 10 steps the
        # images overflow, and the defect must say so rather than read 0
        g = paper_grid()

        def blow_up(v, dW, model, scheme, grid):
            for _ in range(10):
                v = v - 1j * scheme.dt * model.lam * np.abs(v) ** 2 * v
            return v

        defect = symplectic_defect(
            blow_up, soliton(g), np.zeros(g.N), ModelParams(0.75, -1.0, 1.0), SchemeParams(dt=10.0), g
        )
        assert not np.isfinite(defect)
