import math

import numpy as np
import pytest

from sfnse.errors import DivisibilityError, DomainError, IoError, ShapeError
from sfnse.noise import (
    WienerPath,
    _normal_from_raw,
    _philox,
    build_noise_model,
    coarsen_path,
    dump_path,
    increment_entry,
    increment_field,
    load_path,
    sample_wiener_path,
)
from sfnse.spectral import build_grid


@pytest.fixture
def grid():
    return build_grid(-20.0, 20.0, 400)


class TestNoiseModel:
    def test_sin_family(self, grid):
        model = build_noise_model(100, grid, epsilon=0.01)
        assert model.mode_profiles.shape == (100, 400)
        x = grid.nodes()
        for l in (1, 7, 100):
            assert np.allclose(model.mode_profiles[l - 1], np.sin(np.pi * l * x) / l, atol=0)

    def test_zero_profile(self, grid):
        model = build_noise_model(1, grid, epsilon=0.5, profile=np.zeros((1, 400)))
        path = sample_wiener_path(model, 4, 0.1, seed=0)
        assert np.all(increment_field(path, 0, model, grid) == 0.0)

    def test_two_orthogonal_profiles(self):
        g = build_grid(0.0, 2.0 * np.pi, 16)
        x = g.nodes()
        profiles = np.stack([np.sin(x), np.cos(x)])
        model = build_noise_model(2, g, profile=profiles)
        assert np.array_equal(model.mode_profiles, profiles)
        assert not model.mode_profiles.flags.writeable

    def test_rejects_bad_inputs(self, grid):
        with pytest.raises(DomainError):
            build_noise_model(0, grid)
        with pytest.raises(DomainError):
            build_noise_model(2, grid, profile=np.zeros((2, 399)))
        with pytest.raises(DomainError):
            build_noise_model(1, grid, epsilon=-0.1)


class TestSampling:
    def test_deterministic(self, grid):
        model = build_noise_model(5, grid)
        a = sample_wiener_path(model, 20, 0.01, seed=99)
        b = sample_wiener_path(model, 20, 0.01, seed=99)
        assert np.array_equal(a.increments, b.increments)
        assert a.increments.shape == (20, 5)

    def test_counter_random_access(self, grid):
        model = build_noise_model(3, grid)
        path = sample_wiener_path(model, 50, 0.02, seed=1234)
        for step, mode in [(0, 0), (0, 2), (7, 1), (49, 2), (13, 0)]:
            direct = increment_entry(1234, step, mode, K=3, dt=0.02)
            assert direct == path.increments[step, mode]

    def test_moments_at_1e5_samples(self, grid):
        dt = 0.01
        model = build_noise_model(1, grid)
        path = sample_wiener_path(model, 10**5, dt, seed=1)
        column = path.increments[:, 0]
        n = column.size
        assert abs(column.mean()) < 4.0 * math.sqrt(dt / n)
        var = column.var(ddof=1)
        assert abs(var - dt) < 4.0 * dt * math.sqrt(2.0 / (n - 1))
        # spec example band, deterministic under the fixed seed
        assert dt * 0.99 < var < dt * 1.01

    def test_neighbor_seeds_uncorrelated(self, grid):
        model = build_noise_model(1, grid)
        a = sample_wiener_path(model, 10**5, 1.0, seed=777).increments[:, 0]
        b = sample_wiener_path(model, 10**5, 1.0, seed=778).increments[:, 0]
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.05

    def test_rejects_bad_args(self, grid):
        model = build_noise_model(1, grid)
        with pytest.raises(DomainError):
            sample_wiener_path(model, 0, 0.1, seed=0)
        with pytest.raises(DomainError):
            sample_wiener_path(model, 1, 0.0, seed=0)
        with pytest.raises(DomainError):
            sample_wiener_path(model, 1, 0.1, seed=-1)

    def test_seed_above_64_bits_rejected_not_aliased(self, grid):
        model = build_noise_model(2, grid)
        with pytest.raises(DomainError):
            sample_wiener_path(model, 4, 0.1, seed=2**64)
        with pytest.raises(DomainError):
            increment_entry(2**64, 0, 0, K=2, dt=0.1)
        top = sample_wiener_path(model, 4, 0.1, seed=2**64 - 1)
        assert top.seed == 2**64 - 1
        assert not np.array_equal(top.increments, sample_wiener_path(model, 4, 0.1, seed=0).increments)
        assert increment_entry(2**64 - 1, 3, 1, K=2, dt=0.1) == top.increments[3, 1]


def _uniforms(words):
    # the uniform that _normal_from_raw builds from each raw word
    return np.minimum((words >> np.uint64(11)) * 2.0**-53 + 2.0**-54, 1.0 - 2.0**-53)


class TestInverseNormal:
    EXTREME_WORDS = np.array(
        [0, 1, 2**11, 2**52, 2**63 - 1, 2**63, 2**64 - 2**11, 2**64 - 2, 2**64 - 1], dtype=np.uint64
    )

    def test_matches_scipy_ndtri(self):
        from scipy.special import ndtri

        tail = np.arange(1, 10**5, 3, dtype=np.uint64) << np.uint64(11)  # u < 3e-11: far tail branch
        words = np.concatenate(
            [_philox(2024).random_raw(10**6).astype(np.uint64), self.EXTREME_WORDS, tail, ~tail]
        )
        got = _normal_from_raw(words)
        want = ndtri(_uniforms(words))
        assert np.all(np.isfinite(want))
        assert np.all(np.abs(got - want) <= 2e-15 * np.abs(want))

    def test_scalar_and_array_calls_agree_bitwise(self):
        # a long array, so that the picked entries span several evaluation blocks
        words = np.concatenate([self.EXTREME_WORDS, _philox(7).random_raw(10**5).astype(np.uint64)])
        picked = np.union1d(np.arange(self.EXTREME_WORDS.size), np.arange(0, words.size, 50))
        array_values = _normal_from_raw(words)[picked]
        scalar_values = np.array([_normal_from_raw(w) for w in words[picked]])
        assert _normal_from_raw(words[0]).shape == ()
        assert np.array_equal(array_values.view(np.uint64), scalar_values.view(np.uint64))

    def test_extreme_words_finite_with_opposite_signs(self):
        low = float(_normal_from_raw(np.uint64(0)))
        high = float(_normal_from_raw(np.uint64(2**64 - 1)))
        assert math.isfinite(low) and math.isfinite(high)
        assert low < -8.0 and high > 8.0


class TestCoarsening:
    def test_factor_one_is_identity(self, grid):
        model = build_noise_model(2, grid)
        path = sample_wiener_path(model, 8, 0.1, seed=5)
        assert coarsen_path(path, 1) is path

    def test_factor_two_sums_pairs_exactly(self, grid):
        model = build_noise_model(4, grid)
        path = sample_wiener_path(model, 16, 0.1, seed=6)
        coarse = coarsen_path(path, 2)
        expect = path.increments[0::2] + path.increments[1::2]
        assert np.array_equal(coarse.increments, expect)
        assert coarse.dt == pytest.approx(0.2)
        assert coarse.steps == 8
        assert coarse.seed == path.seed

    def test_iterated_halving_matches_single_coarsen(self, grid):
        model = build_noise_model(3, grid)
        path = sample_wiener_path(model, 32, 0.05, seed=7)
        twice = coarsen_path(coarsen_path(path, 2), 2)
        once = coarsen_path(path, 4)
        assert np.array_equal(twice.increments, once.increments)
        thrice = coarsen_path(coarsen_path(coarsen_path(path, 2), 2), 2)
        assert np.array_equal(thrice.increments, coarsen_path(path, 8).increments)

    def test_odd_factor_left_fold(self, grid):
        model = build_noise_model(2, grid)
        path = sample_wiener_path(model, 15, 0.1, seed=8)
        coarse = coarsen_path(path, 5)
        blocks = path.increments.reshape(3, 5, 2)
        expect = blocks[:, 0].copy()
        for t in range(1, 5):
            expect += blocks[:, t]
        assert np.array_equal(coarse.increments, expect)

    def test_divisibility(self, grid):
        model = build_noise_model(1, grid)
        path = sample_wiener_path(model, 10, 0.1, seed=9)
        with pytest.raises(DivisibilityError):
            coarsen_path(path, 3)


class TestIncrementField:
    def test_epsilon_off(self, grid):
        model = build_noise_model(3, grid, epsilon=0.0)
        path = sample_wiener_path(model, 5, 0.1, seed=10)
        assert np.all(increment_field(path, 2, model, grid) == 0.0)

    def test_single_flat_mode(self):
        g = build_grid(0.0, 1.0, 8)
        model = build_noise_model(1, g, epsilon=0.25, profile=np.ones((1, 8)))
        path = sample_wiener_path(model, 3, 0.5, seed=11)
        c = path.increments[1, 0]
        assert np.allclose(increment_field(path, 1, model, g), 0.25 * c, atol=0)

    def test_matches_naive_double_loop(self, grid):
        model = build_noise_model(7, grid, epsilon=0.3)
        path = sample_wiener_path(model, 4, 0.05, seed=12)
        fast = increment_field(path, 3, model, grid)
        slow = np.zeros(grid.N)
        for j in range(grid.N):
            for l in range(7):
                slow[j] += model.mode_profiles[l, j] * path.increments[3, l]
        slow *= 0.3
        assert np.max(np.abs(fast - slow)) < 1e-14

    def test_linear_in_increments_under_coarsening(self, grid):
        model = build_noise_model(5, grid, epsilon=0.1)
        path = sample_wiener_path(model, 8, 0.1, seed=13)
        coarse = coarsen_path(path, 2)
        summed = increment_field(path, 2, model, grid) + increment_field(path, 3, model, grid)
        merged = increment_field(coarse, 1, model, grid)
        assert np.max(np.abs(summed - merged)) < 1e-15 * max(1.0, np.max(np.abs(merged)))

    def test_index_error(self, grid):
        model = build_noise_model(1, grid)
        path = sample_wiener_path(model, 3, 0.1, seed=14)
        with pytest.raises(IndexError):
            increment_field(path, 3, model, grid)

    def test_grid_mismatch(self, grid):
        model = build_noise_model(2, grid)
        other = build_grid(0.0, 1.0, 8)
        path = sample_wiener_path(model, 3, 0.1, seed=15)
        with pytest.raises(ShapeError):
            increment_field(path, 0, model, other)


class TestPathFiles:
    def test_roundtrip_bit_exact(self, grid, tmp_path):
        model = build_noise_model(6, grid)
        path = sample_wiener_path(model, 12, 0.01, seed=31415)
        target = tmp_path / "path.sfnw"
        dump_path(path, target)
        loaded = load_path(target)
        assert loaded.seed == path.seed
        assert loaded.dt == path.dt
        assert loaded.steps == path.steps
        assert np.array_equal(loaded.increments, path.increments)
        second = tmp_path / "again.sfnw"
        dump_path(loaded, second)
        assert target.read_bytes() == second.read_bytes()

    def test_detects_corruption(self, tmp_path):
        target = tmp_path / "bad.sfnw"
        target.write_bytes(b"nope")
        with pytest.raises(IoError):
            load_path(target)
        with pytest.raises(IoError):
            load_path(tmp_path / "missing.sfnw")


def test_empty_path_constructible_for_degenerate_evolutions():
    path = WienerPath(seed=0, dt=0.1, steps=0, increments=np.empty((0, 2)))
    assert path.steps == 0
