import numpy as np
import pytest

from sfnse.errors import DomainError, ShapeError, SizeError
from sfnse.spectral import (
    ComplexField,
    apply_frac_laplacian,
    apply_g_operator,
    build_grid,
    materialize_operator,
    operator_symbols,
    transform,
)

ALPHAS = (0.5, 0.6, 0.75, 0.9, 1.0)


def random_field(grid, seed, zero_nyquist=False):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
    if zero_nyquist:
        vh = np.fft.fft(v)
        vh[grid.N // 2] = 0.0
        v = np.fft.ifft(vh)
    return ComplexField(v)


class TestGrid:
    def test_paper_grid(self):
        g = build_grid(-20.0, 20.0, 400)
        assert g.h == pytest.approx(0.1, abs=0)
        assert g.mu == pytest.approx(np.pi / 20, rel=1e-15)

    def test_unit_wavenumber(self):
        g = build_grid(0.0, 2.0 * np.pi, 8)
        assert g.h == pytest.approx(np.pi / 4, rel=1e-15)
        assert g.mu == pytest.approx(1.0, rel=1e-15)

    def test_arithmetic_identity(self):
        g = build_grid(0.0, 40.0, 512)
        assert g.h == 0.078125
        assert g.mu == pytest.approx(np.pi / 20, rel=1e-15)
        assert g.h * g.N == pytest.approx(g.b - g.a, rel=1e-15)

    def test_nodes_exclude_right_endpoint(self):
        g = build_grid(0.0, 1.0, 4)
        assert np.allclose(g.nodes(), [0.0, 0.25, 0.5, 0.75])

    @pytest.mark.parametrize("args", [(1.0, 0.0, 8), (0.0, 1.0, 7), (0.0, 1.0, 2)])
    def test_rejects_bad_grids(self, args):
        with pytest.raises(DomainError):
            build_grid(*args)


class TestTransform:
    def test_dc_mode(self):
        g = build_grid(0.0, 2.0 * np.pi, 16)
        coeffs = transform(ComplexField(np.ones(16)), g, "forward")
        assert coeffs[0] == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(coeffs[1:])) < 1e-15

    def test_single_mode(self):
        g = build_grid(-3.0, 5.0, 32)
        x = g.nodes()
        coeffs = transform(ComplexField(np.exp(1j * 3 * g.mu * (x - g.a))), g, "forward")
        assert coeffs[3] == pytest.approx(1.0, abs=1e-14)
        others = np.delete(coeffs, 3)
        assert np.max(np.abs(others)) < 1e-14

    def test_roundtrip_on_random_fields(self):
        g = build_grid(-1.0, 3.0, 64)
        rng = np.random.default_rng(42)
        for _ in range(100):
            v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
            back = transform(transform(v, g, "forward"), g, "inverse")
            assert np.max(np.abs(back - v)) < 1e-13

    def test_parseval(self):
        g = build_grid(0.0, 40.0, 128)
        f = random_field(g, 7)
        coeffs = transform(f, g, "forward")
        physical = g.h * np.sum(np.abs(f.values) ** 2)
        spectral = (g.b - g.a) * np.sum(np.abs(coeffs) ** 2)
        assert spectral == pytest.approx(physical, rel=1e-12)

    def test_shape_and_direction_errors(self):
        g = build_grid(0.0, 1.0, 8)
        with pytest.raises(ShapeError):
            transform(np.ones(9), g, "forward")
        with pytest.raises(DomainError):
            transform(np.ones(8), g, "sideways")


class TestFracLaplacian:
    def test_constant_maps_to_zero(self):
        g = build_grid(0.0, 2.0 * np.pi, 16)
        out = apply_frac_laplacian(ComplexField(np.full(16, 2.0 + 1.0j)), g, 0.6)
        assert np.max(np.abs(out.values)) < 1e-14

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 7])
    def test_eigenmode_identity(self, alpha, k):
        g = build_grid(0.0, 2.0 * np.pi, 16)
        x = g.nodes()
        f = ComplexField(np.exp(1j * k * g.mu * x))
        out = apply_frac_laplacian(f, g, alpha)
        expect = abs(k * g.mu) ** (2 * alpha) * f.values
        assert np.max(np.abs(out.values - expect)) < 1e-12 * abs(k * g.mu) ** (2 * alpha)

    def test_eigenmode_example(self):
        g = build_grid(0.0, 2.0 * np.pi, 16)
        x = g.nodes()
        out = apply_frac_laplacian(ComplexField(np.exp(3j * x)), g, 0.75)
        assert np.max(np.abs(out.values - 3**1.5 * np.exp(3j * x))) < 1e-12 * 3**1.5

    def test_alpha_one_reduces_to_laplacian(self):
        g = build_grid(0.0, 2.0 * np.pi, 32)
        x = g.nodes()
        out = apply_frac_laplacian(ComplexField(np.sin(g.mu * x) + 0j), g, 1.0)
        assert np.max(np.abs(out.values - g.mu**2 * np.sin(g.mu * x))) < 1e-13

    def test_reality_preservation(self):
        g = build_grid(-2.0, 2.0, 32)
        v = np.random.default_rng(1).standard_normal(32)
        out = apply_frac_laplacian(ComplexField(v + 0j), g, 0.75)
        assert np.max(np.abs(out.values.imag)) < 1e-13

    def test_alpha_range(self):
        g = build_grid(0.0, 1.0, 8)
        for alpha in (0.0, -0.5, 1.5):
            with pytest.raises(DomainError):
                apply_frac_laplacian(ComplexField(np.ones(8)), g, alpha)


class TestGOperator:
    def test_constant_maps_to_zero(self):
        g = build_grid(0.0, 2.0 * np.pi, 16)
        out = apply_g_operator(ComplexField(np.full(16, 1.0 + 0j)), g, 0.8)
        assert np.max(np.abs(out.values)) < 1e-14

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_twice_equals_negative_laplacian(self, alpha):
        g = build_grid(0.0, 2.0 * np.pi, 16)
        x = g.nodes()
        f = ComplexField(np.exp(3j * g.mu * x))
        twice = apply_g_operator(apply_g_operator(f, g, alpha), g, alpha)
        expect = -abs(3 * g.mu) ** (2 * alpha) * f.values
        assert np.max(np.abs(twice.values - expect)) < 1e-12 * abs(3 * g.mu) ** (2 * alpha)

    def test_composition_on_nyquist_free_field(self):
        g = build_grid(-4.0, 4.0, 32)
        f = random_field(g, 3, zero_nyquist=True)
        twice = apply_g_operator(apply_g_operator(f, g, 0.75), g, 0.75)
        neg = apply_frac_laplacian(f, g, 0.75)
        scale = np.max(np.abs(neg.values))
        assert np.max(np.abs(twice.values + neg.values)) < 1e-12 * scale

    def test_reality_preservation(self):
        g = build_grid(-2.0, 2.0, 32)
        v = np.random.default_rng(2).standard_normal(32)
        out = apply_g_operator(ComplexField(v + 0j), g, 0.6)
        assert np.max(np.abs(out.values.imag)) < 1e-13

    def test_matches_dense_matrix_oracle(self):
        g = build_grid(0.0, 2.0 * np.pi, 16)
        d1 = materialize_operator(g, 0.75, "D1")
        v = np.random.default_rng(5).standard_normal(16)
        spectral = apply_g_operator(ComplexField(v + 0j), g, 0.75)
        assert np.max(np.abs(d1 @ v - spectral.values)) < 1e-12


class TestSymbols:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_symbol_invariants(self, alpha):
        g = build_grid(0.0, 10.0, 32)
        sym = operator_symbols(g, alpha)
        assert sym.lap_symbol[0] == 0.0
        assert np.all(sym.lap_symbol >= 0.0)
        assert np.max(np.abs(sym.g_symbol.real)) == 0.0
        # odd in k away from the Nyquist bin
        for k in range(1, g.N // 2):
            assert sym.g_symbol[-k] == -sym.g_symbol[k]
            assert sym.g_symbol[k] ** 2 == pytest.approx(-sym.lap_symbol[k], rel=1e-12)
        assert sym.g_symbol[g.N // 2] == 0.0

    def test_symbols_are_shared_and_readonly(self):
        g = build_grid(0.0, 1.0, 16)
        s1 = operator_symbols(g, 0.75)
        s2 = operator_symbols(g, 0.75)
        assert s1 is s2
        assert operator_symbols(build_grid(0.0, 1.0, 16), 0.75) is s1
        with pytest.raises(ValueError):
            s1.lap_symbol[0] = 1.0


class TestDenseOperators:
    @pytest.mark.parametrize("N", [8, 16, 32])
    @pytest.mark.parametrize("alpha", (0.6, 0.75, 1.0))
    def test_skewness_and_symmetry(self, N, alpha):
        g = build_grid(0.0, 2.0 * np.pi, N)
        d1 = materialize_operator(g, alpha, "D1")
        d2 = materialize_operator(g, alpha, "D2")
        assert np.max(np.abs(d1 + d1.T)) < 1e-13
        assert np.max(np.abs(d2 - d2.T)) < 1e-13
        # square of a real skew-symmetric matrix is symmetric
        sq = d1 @ d1
        assert np.max(np.abs(sq - sq.T)) < 1e-12

    @pytest.mark.parametrize("alpha", (0.6, 0.75, 0.9))
    def test_rank_one_nyquist_correction(self, alpha):
        # D1^2 + D2 concentrates on the Nyquist mode: c/N * (-1)^(j+l) with
        # c = |N mu / 2|^(2 alpha); measured, not assumed.
        g = build_grid(0.0, 2.0 * np.pi, 8)
        d1 = materialize_operator(g, alpha, "D1")
        d2 = materialize_operator(g, alpha, "D2")
        corr = d1 @ d1 + d2
        j = np.arange(8)
        signs = (-1.0) ** (j[:, None] + j[None, :])
        c = corr[0, 0] * g.N
        assert c == pytest.approx((g.N * g.mu / 2) ** (2 * alpha), rel=1e-12)
        assert np.max(np.abs(corr - c * signs / g.N)) < 1e-12 * abs(c)

    def test_dense_matches_spectral_action(self):
        g = build_grid(-20.0, 20.0, 16)
        v = np.random.default_rng(9).standard_normal(16)
        d2 = materialize_operator(g, 0.9, "D2")
        out = apply_frac_laplacian(ComplexField(v + 0j), g, 0.9)
        assert np.max(np.abs(d2 @ v - out.values)) < 1e-12

    def test_size_guard_and_which_choice(self):
        g = build_grid(0.0, 1.0, 8)
        with pytest.raises(DomainError):
            materialize_operator(g, 0.75, "D3")
        big = build_grid(0.0, 1.0, 512)
        with pytest.raises(SizeError):
            materialize_operator(big, 0.75, "D1")
