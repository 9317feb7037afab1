import numpy as np
import pytest

from sfnse.dynamics import ModelParams, SchemeParams, midpoint_step, splitting_step
from sfnse.errors import DomainError
from sfnse.spectral import ComplexField, _fft, _frac_multiplier, _ifft, build_grid, transform

from operator_oracle import apply_frac_laplacian, apply_g, dense_operator, g_symbol

ALPHAS = (0.5, 0.6, 0.75, 0.9, 1.0)


def random_field(grid, seed, zero_nyquist=False):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
    if zero_nyquist:
        vh = np.fft.fft(v)
        vh[grid.N // 2] = 0.0
        v = np.fft.ifft(vh)
    return v


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

    @pytest.mark.parametrize(
        "args",
        [
            (1.0, 0.0, 8),
            (0.0, 1.0, 7),
            (0.0, 1.0, 2),
            (-np.inf, 0.0, 8),
            (0.0, np.inf, 8),
            (-1e308, 1e308, 8),
            (0.0, 1e-320, 8),  # mu = 2 pi / 1e-320 overflows to inf
        ],
    )
    def test_rejects_bad_grids(self, args):
        with pytest.raises(DomainError):
            build_grid(*args)


class TestComplexField:
    """The boundary validator: a caller's initial state, evolve's final state, snapshots."""

    def test_real_values_coerced_to_complex128(self):
        field = ComplexField(np.arange(4), time=0.25)
        assert field.values.dtype == np.complex128
        assert np.array_equal(field.values, [0, 1, 2, 3]) and field.time == 0.25

    def test_rejects_two_dimensional_values(self):
        with pytest.raises(DomainError, match="must be a 1-D array"):
            ComplexField(np.zeros((2, 4), complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_non_finite_values(self, bad):
        values = np.zeros(8, complex)
        values[3] = bad
        with pytest.raises(DomainError):
            ComplexField(values)

    @pytest.mark.parametrize("time", [np.nan, np.inf, None, "0.5", True])
    def test_rejects_non_finite_time(self, time):
        with pytest.raises(DomainError):
            ComplexField(np.zeros(8, complex), time=time)


class TestTransform:
    def test_dc_mode(self):
        g = build_grid(0.0, 2.0 * np.pi, 16)
        coeffs = transform(np.ones(16), g, "forward")
        assert coeffs[0] == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(coeffs[1:])) < 1e-15

    def test_single_mode(self):
        g = build_grid(-3.0, 5.0, 32)
        x = g.nodes()
        coeffs = transform(np.exp(1j * 3 * g.mu * (x - g.a)), g, "forward")
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
        physical = g.h * np.sum(np.abs(f) ** 2)
        spectral = (g.b - g.a) * np.sum(np.abs(coeffs) ** 2)
        assert spectral == pytest.approx(physical, rel=1e-12)

    def test_shape_and_direction_errors(self):
        g = build_grid(0.0, 1.0, 8)
        with pytest.raises(DomainError, match="does not match grid N=8"):
            transform(np.ones(9), g, "forward")
        with pytest.raises(DomainError):
            transform(np.ones(8), g, "sideways")


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _fft_inputs(N):
    rng = np.random.default_rng(N)
    real = rng.standard_normal((3, N))
    stacked = real + 1j * rng.standard_normal((3, N))
    return [real[0], stacked[0], real, stacked]


class TestFftPair:
    @pytest.mark.parametrize("N", [4, 16, 400, 4096])
    def test_bit_identical_to_numpy_fft(self, N):
        for v in _fft_inputs(N):
            assert _same_bits(_fft(v), np.fft.fft(v))
            assert _same_bits(_ifft(v), np.fft.ifft(v))

    @pytest.mark.parametrize("N", [4, 400])
    def test_out_array_receives_the_same_bits(self, N):
        # into a given array, or in place
        for v in _fft_inputs(N):
            for transform, reference in ((_fft, np.fft.fft), (_ifft, np.fft.ifft)):
                out = np.empty(v.shape, dtype=np.complex128)
                assert transform(v, out=out) is out and _same_bits(out, reference(v))
                inplace = v.astype(np.complex128)
                assert transform(inplace, out=inplace) is inplace and _same_bits(inplace, reference(v))

    def test_complex64_transformed_in_double_precision(self):
        v = random_field(build_grid(0.0, 1.0, 64), 5).astype(np.complex64)
        assert _same_bits(_fft(v), np.fft.fft(v.astype(np.complex128)))
        assert _same_bits(_ifft(v), np.fft.ifft(v.astype(np.complex128)))

    @pytest.mark.parametrize("step", [midpoint_step, splitting_step])
    def test_complex64_state_steps_as_its_complex128_cast(self, step):
        grid = build_grid(-20.0, 20.0, 64)
        v = (np.exp(1j * grid.nodes()) / np.cosh(grid.nodes())).astype(np.complex64)
        dW = 0.01 * np.sin(grid.nodes())
        model, scheme = ModelParams(0.75, -1.0, 1.0), SchemeParams(0.01)
        got = step(v, dW, model, scheme, grid)
        assert _same_bits(got, step(v.astype(np.complex128), dW, model, scheme, grid))


class TestFracLaplacian:
    def test_constant_maps_to_zero(self):
        g = build_grid(0.0, 2.0 * np.pi, 16)
        out = apply_frac_laplacian(np.full(16, 2.0 + 1.0j), g, 0.6)
        assert np.max(np.abs(out)) < 1e-14

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 7])
    def test_eigenmode_identity(self, alpha, k):
        g = build_grid(0.0, 2.0 * np.pi, 16)
        x = g.nodes()
        f = np.exp(1j * k * g.mu * x)
        out = apply_frac_laplacian(f, g, alpha)
        expect = abs(k * g.mu) ** (2 * alpha) * f
        assert np.max(np.abs(out - expect)) < 1e-12 * abs(k * g.mu) ** (2 * alpha)

    def test_eigenmode_example(self):
        g = build_grid(0.0, 2.0 * np.pi, 16)
        x = g.nodes()
        out = apply_frac_laplacian(np.exp(3j * x), g, 0.75)
        assert np.max(np.abs(out - 3**1.5 * np.exp(3j * x))) < 1e-12 * 3**1.5

    def test_alpha_one_reduces_to_laplacian(self):
        g = build_grid(0.0, 2.0 * np.pi, 32)
        x = g.nodes()
        out = apply_frac_laplacian(np.sin(g.mu * x) + 0j, g, 1.0)
        assert np.max(np.abs(out - g.mu**2 * np.sin(g.mu * x))) < 1e-13

    def test_reality_preservation(self):
        g = build_grid(-2.0, 2.0, 32)
        v = np.random.default_rng(1).standard_normal(32)
        out = apply_frac_laplacian(v + 0j, g, 0.75)
        assert np.max(np.abs(out.imag)) < 1e-13

    def test_alpha_range(self):
        g = build_grid(0.0, 1.0, 8)
        for alpha in (0.0, -0.5, 1.5, "0.5"):
            with pytest.raises(DomainError):
                apply_frac_laplacian(np.ones(8), g, alpha)
        with pytest.raises(DomainError):
            ModelParams(True, 0.0, 0.0)
        # a cached 1.0 must not let True through
        apply_frac_laplacian(np.ones(8), g, 1.0)
        with pytest.raises(DomainError):
            apply_frac_laplacian(np.ones(8), g, True)


class TestGOperator:
    """The skew square root, from the test-local oracle."""

    def test_constant_maps_to_zero(self):
        g = build_grid(0.0, 2.0 * np.pi, 16)
        out = apply_g(np.full(16, 1.0 + 0j), g, 0.8)
        assert np.max(np.abs(out)) < 1e-14

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_twice_equals_negative_laplacian(self, alpha):
        g = build_grid(0.0, 2.0 * np.pi, 16)
        x = g.nodes()
        f = np.exp(3j * g.mu * x)
        twice = apply_g(apply_g(f, g, alpha), g, alpha)
        expect = -abs(3 * g.mu) ** (2 * alpha) * f
        assert np.max(np.abs(twice - expect)) < 1e-12 * abs(3 * g.mu) ** (2 * alpha)

    def test_composition_on_nyquist_free_field(self):
        g = build_grid(-4.0, 4.0, 32)
        f = random_field(g, 3, zero_nyquist=True)
        twice = apply_g(apply_g(f, g, 0.75), g, 0.75)
        neg = apply_frac_laplacian(f, g, 0.75)
        scale = np.max(np.abs(neg))
        assert np.max(np.abs(twice + neg)) < 1e-12 * scale

    def test_reality_preservation(self):
        g = build_grid(-2.0, 2.0, 32)
        v = np.random.default_rng(2).standard_normal(32)
        out = apply_g(v + 0j, g, 0.6)
        assert np.max(np.abs(out.imag)) < 1e-13

    def test_matches_dense_matrix_oracle(self):
        g = build_grid(0.0, 2.0 * np.pi, 16)
        d1 = dense_operator(g, 0.75, "D1")
        v = np.random.default_rng(5).standard_normal(16)
        spectral = apply_g(v + 0j, g, 0.75)
        assert np.max(np.abs(d1 @ v - spectral)) < 1e-12


class TestSymbols:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_symbol_invariants(self, alpha):
        g = build_grid(0.0, 10.0, 32)
        lap, gs = _frac_multiplier(g.N, g.mu, alpha), g_symbol(g, alpha)
        assert lap[0] == 0.0
        assert np.all(lap >= 0.0)
        assert np.max(np.abs(gs.real)) == 0.0
        # odd in k away from the Nyquist bin
        for k in range(1, g.N // 2):
            assert gs[-k] == -gs[k]
            assert gs[k] ** 2 == pytest.approx(-lap[k], rel=1e-12)
        assert gs[g.N // 2] == 0.0

    def test_symbols_are_shared_and_readonly(self):
        g = build_grid(0.0, 1.0, 16)
        s1 = _frac_multiplier(g.N, g.mu, 0.75)
        s2 = _frac_multiplier(g.N, g.mu, 0.75)
        assert s1 is s2
        other = build_grid(0.0, 1.0, 16)
        assert _frac_multiplier(other.N, other.mu, 0.75) is s1
        with pytest.raises(ValueError):
            s1[0] = 1.0


class TestDenseOperators:
    @pytest.mark.parametrize("N", [8, 16, 32])
    @pytest.mark.parametrize("alpha", (0.6, 0.75, 1.0))
    def test_skewness_and_symmetry(self, N, alpha):
        g = build_grid(0.0, 2.0 * np.pi, N)
        d1 = dense_operator(g, alpha, "D1")
        d2 = dense_operator(g, alpha, "D2")
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
        d1 = dense_operator(g, alpha, "D1")
        d2 = dense_operator(g, alpha, "D2")
        corr = d1 @ d1 + d2
        j = np.arange(8)
        signs = (-1.0) ** (j[:, None] + j[None, :])
        c = corr[0, 0] * g.N
        assert c == pytest.approx((g.N * g.mu / 2) ** (2 * alpha), rel=1e-12)
        assert np.max(np.abs(corr - c * signs / g.N)) < 1e-12 * abs(c)

    def test_dense_matches_spectral_action(self):
        g = build_grid(-20.0, 20.0, 16)
        v = np.random.default_rng(9).standard_normal(16)
        d2 = dense_operator(g, 0.9, "D2")
        out = apply_frac_laplacian(v + 0j, g, 0.9)
        assert np.max(np.abs(d2 @ v - out)) < 1e-12
