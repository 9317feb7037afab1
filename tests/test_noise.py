import gc
import math
import weakref

import numpy as np
import pytest

from sfnse.dynamics import ModelParams, Observer, SchemeParams, evolve
from sfnse.errors import DomainError, NonConvergence
from sfnse.noise import (
    _BLOCK,
    _FIELD_ROWS,
    NoiseModel,
    WienerPath,
    _field_block,
    _ndtri_block,
    _uniform_from_raw,
    build_noise_model,
    coarsen_path,
    increment_field,
    sample_wiener_path,
)
from sfnse.spectral import ComplexField, build_grid

from operator_oracle import halved


def philox_words(seed, count):
    # the first ``count`` raw words of the Philox stream keyed by ``seed``
    return np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)).random_raw(count)


def normals(words):
    # the normal deviates of raw words, all of them in one pass (on a copy:
    # _uniform_from_raw shifts the words it is given in place)
    z = np.empty(words.size)
    _ndtri_block(_uniform_from_raw(words.copy()), z)
    return z


def one_pass_table(seed, steps, K, dt):
    """The increment table drawn in one pass: every raw word, then every
    uniform, deviate and scaled increment as a whole-table array."""
    return (math.sqrt(dt) * normals(philox_words(seed, steps * K))).reshape(steps, K)


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
        assert not model.mode_profiles.flags.writeable

    @pytest.mark.parametrize("K, a, b, N", [(1, -20.0, 20.0, 400), (100, -20.0, 20.0, 400), (100, 0.0, 40.0, 4096)])
    def test_profiles_built_in_place_keep_their_bytes(self, K, a, b, N):
        # the in-place build against the whole-array expression, every entry of every family
        grid = build_grid(a, b, N)
        l = np.arange(1, K + 1, dtype=np.float64)[:, None]
        x = grid.nodes()[None, :]
        whole = {"sin": np.sin(np.pi * l * x) / l, "unit": np.sin(np.pi * l * x)}
        for profile, expected in whole.items():
            assert np.array_equal(build_noise_model(K, grid, profile=profile).mode_profiles, expected)

    @pytest.mark.parametrize("a, b", [(0.0, 40.0), (-20.0, 20.0)])
    def test_modes_the_reference_grids_resolve(self, a, b):
        # h = 0.1: mode l sits at DFT bin 20 l mod 400, so the 100 modes fold onto 9
        # bins and every l = 0 mod 10 vanishes at the nodes, to the roundoff of
        # pi l x; N = 4096 resolves all 100.  The tolerance is explicit:
        # np.linalg.matrix_rank's default reads 36 and 25 for "unit" from roundoff
        for profile, vanished in (("sin", 3e-14), ("unit", 3e-12)):
            coarse = build_noise_model(100, build_grid(a, b, 400), profile=profile).mode_profiles
            s = np.linalg.svd(coarse, compute_uv=False)
            assert np.count_nonzero(s > 1e-10 * s[0]) == 9
            assert s[9] <= 4e-13 * s[0]
            assert np.abs(coarse[9::10]).max() <= vanished
            fine = build_noise_model(100, build_grid(a, b, 4096), profile=profile).mode_profiles
            s = np.linalg.svd(fine, compute_uv=False)
            assert np.count_nonzero(s > 1e-10 * s[0]) == 100

    def test_zero_profile(self, grid):
        model = NoiseModel(0.5, np.zeros((1, 400)))
        path = sample_wiener_path(model, 4, 0.1, seed=0)
        assert np.all(increment_field(path, 0, model) == 0.0)

    def test_two_orthogonal_profiles(self):
        g = build_grid(0.0, 2.0 * np.pi, 16)
        x = g.nodes()
        model = NoiseModel(0.5, np.stack([np.sin(x), np.cos(x)]))
        path = sample_wiener_path(model, 3, 0.1, seed=5)
        db = path.increments[2]
        expected = 0.5 * (db[0] * np.sin(x) + db[1] * np.cos(x))
        assert np.allclose(increment_field(path, 2, model), expected, rtol=0, atol=1e-15)

    def test_rejects_bad_inputs(self, grid):
        with pytest.raises(DomainError):
            build_noise_model(0, grid)
        with pytest.raises(DomainError):
            build_noise_model(2, grid, profile="cos")
        for epsilon in (-0.1, math.nan, math.inf):
            with pytest.raises(DomainError):
                build_noise_model(1, grid, epsilon=epsilon)


class TestSampling:
    def test_deterministic(self, grid):
        model = build_noise_model(5, grid)
        a = sample_wiener_path(model, 20, 0.01, seed=99)
        b = sample_wiener_path(model, 20, 0.01, seed=99)
        assert np.array_equal(a.increments, b.increments)
        assert a.increments.shape == (20, 5)

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
        for dt in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="path dt must be finite and > 0"):
                sample_wiener_path(model, 1, dt, seed=0)
        with pytest.raises(DomainError):
            sample_wiener_path(model, 1, 0.1, seed=-1)

    def test_seed_above_64_bits_rejected_not_aliased(self, grid):
        model = build_noise_model(2, grid)
        with pytest.raises(DomainError):
            sample_wiener_path(model, 4, 0.1, seed=2**64)
        top = sample_wiener_path(model, 4, 0.1, seed=2**64 - 1)
        assert not np.array_equal(top.increments, sample_wiener_path(model, 4, 0.1, seed=0).increments)
        assert np.array_equal(top.increments, one_pass_table(2**64 - 1, 4, 2, 0.1))

    def test_table_is_the_keyed_philox_stream(self, grid):
        model = build_noise_model(3, grid)
        path = sample_wiener_path(model, 10, 0.02, seed=42)
        assert path.increments.tobytes() == one_pass_table(42, 10, 3, 0.02).tobytes()

    @pytest.mark.parametrize(
        "steps, K",
        [(1, 1), (_BLOCK - 1, 1), (_BLOCK, 1), (_BLOCK + 1, 1), (3 * _BLOCK + 5, 1), ((2 * _BLOCK + 3) // 7 + 1, 7)],
    )
    def test_block_sampling_matches_one_pass_bit_for_bit(self, steps, K):
        model = NoiseModel(0.0, np.zeros((K, 4)))
        path = sample_wiener_path(model, steps, 0.02, seed=77)
        assert np.array_equal(path.increments, one_pass_table(77, steps, K, 0.02))


def _uniforms(words):
    # the uniform that _uniform_from_raw builds from each raw word
    return np.minimum((words >> np.uint64(11)) * 2.0**-53 + 2.0**-54, 1.0 - 2.0**-53)


class TestInverseNormal:
    EXTREME_WORDS = np.array(
        [0, 1, 2**11, 2**52, 2**63 - 1, 2**63, 2**64 - 2**11, 2**64 - 2, 2**64 - 1], dtype=np.uint64
    )

    def test_matches_scipy_ndtri(self):
        from scipy.special import ndtri

        tail = np.arange(1, 10**5, 3, dtype=np.uint64) << np.uint64(11)  # u < 3e-11: far tail branch
        words = np.concatenate([philox_words(2024, 10**6), self.EXTREME_WORDS, tail, ~tail])
        got = normals(words)
        want = ndtri(_uniforms(words))
        assert np.all(np.isfinite(want))
        assert np.all(np.abs(got - want) <= 2e-15 * np.abs(want))

    def test_in_place_uniforms_keep_the_expression_bytes(self):
        words = np.concatenate([philox_words(7, 10**5), self.EXTREME_WORDS])
        assert _uniform_from_raw(words.copy()).tobytes() == _uniforms(words).tobytes()

    def test_extreme_words_finite_with_opposite_signs(self):
        low, high = normals(np.array([0, 2**64 - 1], dtype=np.uint64))
        assert math.isfinite(low) and math.isfinite(high)
        assert low < -8.0 and high > 8.0


class TestCoarsening:
    def test_factor_two_sums_pairs_exactly(self, grid):
        model = build_noise_model(4, grid)
        path = sample_wiener_path(model, 16, 0.1, seed=6)
        coarse = coarsen_path(path)
        expect = path.increments[0::2] + path.increments[1::2]
        assert np.array_equal(coarse.increments, expect)
        assert coarse.dt == pytest.approx(0.2)
        assert coarse.steps == 8

    def test_iterated_halving_matches_single_coarsen(self, grid):
        # k halvings add the 2^k fine rows of a coarse row in a balanced
        # pairwise tree, which is what a single 2^k coarsening summed; here
        # the tree is written out over strided slices of the fine table
        model = build_noise_model(3, grid)
        path = sample_wiener_path(model, 32, 0.05, seed=7)

        def tree(first, k, stride):
            # rows first, first + stride, ... each summed with its 2^k - 1 successors
            if k == 0:
                return path.increments[first::stride]
            return tree(first, k - 1, stride) + tree(first + 2 ** (k - 1), k - 1, stride)

        for k in (2, 3):
            assert np.array_equal(halved(path, k).increments, tree(0, k, 2**k))

    @pytest.mark.parametrize("factor", [2, 4, 8, 32])
    def test_blockwise_table_equals_whole_table_cascade(self, grid, factor):
        # log2(factor) halvings against pairwise halving of the full table.
        # 9600 x 7 entries span three sampling blocks, so block edges are hit
        model = build_noise_model(7, grid)
        path = sample_wiener_path(model, 9600, 0.01, seed=21)
        inc, remaining = path.increments, factor
        while remaining > 1:
            inc = inc[0::2] + inc[1::2]
            remaining //= 2
        coarse = halved(path, factor.bit_length() - 1)
        assert coarse.dt == path.dt * factor
        table = coarse.increments
        assert table.flags.c_contiguous and not table.flags.writeable
        assert table.shape == inc.shape and table.tobytes() == np.ascontiguousarray(inc).tobytes()

    def test_odd_step_count_refused(self, grid):
        model = build_noise_model(1, grid)
        path = sample_wiener_path(model, 9, 0.1, seed=9)
        with pytest.raises(DomainError, match="halve a path of 9 steps"):
            coarsen_path(path)


class TestIncrementField:
    def test_epsilon_off(self, grid):
        model = build_noise_model(3, grid, epsilon=0.0)
        path = sample_wiener_path(model, 5, 0.1, seed=10)
        assert np.all(increment_field(path, 2, model) == 0.0)

    def test_single_flat_mode(self):
        model = NoiseModel(0.25, np.ones((1, 8)))
        path = sample_wiener_path(model, 3, 0.5, seed=11)
        c = path.increments[1, 0]
        assert np.allclose(increment_field(path, 1, model), 0.25 * c, atol=0)

    def test_matches_naive_double_loop(self, grid):
        model = build_noise_model(7, grid, epsilon=0.3)
        path = sample_wiener_path(model, 4, 0.05, seed=12)
        fast = increment_field(path, 3, model)
        slow = np.zeros(grid.N)
        for j in range(grid.N):
            for l in range(7):
                slow[j] += model.mode_profiles[l, j] * path.increments[3, l]
        slow *= 0.3
        assert np.max(np.abs(fast - slow)) < 1e-14

    def test_linear_in_increments_under_coarsening(self, grid):
        model = build_noise_model(5, grid, epsilon=0.1)
        path = sample_wiener_path(model, 8, 0.1, seed=13)
        coarse = coarsen_path(path)
        summed = increment_field(path, 2, model) + increment_field(path, 3, model)
        merged = increment_field(coarse, 1, model)
        assert np.max(np.abs(summed - merged)) < 1e-15 * max(1.0, np.max(np.abs(merged)))

    def test_index_error(self, grid):
        model = build_noise_model(1, grid)
        path = sample_wiener_path(model, 3, 0.1, seed=14)
        with pytest.raises(IndexError):
            increment_field(path, 3, model)

    @pytest.mark.parametrize("n", [2.0, np.float64(1.0), True, False])
    def test_non_integer_index_refused(self, grid, n):
        # a bool is not step 1 or 0, and a float is refused before numpy's slice would see it
        model = build_noise_model(1, grid)
        path = sample_wiener_path(model, 3, 0.1, seed=14)
        with pytest.raises(DomainError, match="step index must be an integer"):
            increment_field(path, n, model)

    def test_numpy_integer_index_accepted(self, grid):
        model = build_noise_model(2, grid)
        path = sample_wiener_path(model, 3, 0.1, seed=14)
        assert np.array_equal(increment_field(path, np.int64(1), model), increment_field(path, 1, model))


    def test_mode_count_mismatch(self, grid):
        model = build_noise_model(2, grid)
        path = sample_wiener_path(build_noise_model(3, grid), 3, 0.1, seed=15)
        with pytest.raises(DomainError, match="path carries 3 modes, model has K=2"):
            increment_field(path, 0, model)

def block_row(path, model, n):
    """Row n of epsilon * (inc[s:e] @ P) over the block of at least 2 rows that holds step n."""
    inc = path.increments
    if path.steps == 1:
        return (model.epsilon * (np.vstack((inc, inc)) @ model.mode_profiles))[0]
    s = n - n % _FIELD_ROWS
    e = min(s + _FIELD_ROWS, path.steps)
    s = min(s, e - 2)  # a 1-row final block is its path's last 2 rows
    return (model.epsilon * (inc[s:e] @ model.mode_profiles))[n - s]


def fail_at_step_3(n, t, v):
    if n == 3:
        raise ZeroDivisionError(n)


class TestFieldBlocks:
    """A field is one row of a block product, the same bytes whatever was asked before it."""

    def test_every_call_order(self, grid):
        model = build_noise_model(100, grid, epsilon=0.01)
        path = sample_wiener_path(model, 40, 0.01, seed=16)
        expected = [block_row(path, model, n) for n in range(path.steps)]
        shuffled = np.random.default_rng(0).permutation(path.steps)
        for order in (range(path.steps), reversed(range(path.steps)), shuffled):
            for n in order:
                assert increment_field(path, int(n), model).tobytes() == expected[n].tobytes()

    def test_two_paths_interleaved(self, grid):
        model = build_noise_model(100, grid, epsilon=0.01)
        paths = [sample_wiener_path(model, 20, 0.01, seed=seed) for seed in (17, 18)]
        for n in range(20):
            for path in paths:
                assert increment_field(path, n, model).tobytes() == block_row(path, model, n).tobytes()

    def test_interleaved_paths_keep_their_own_blocks(self, grid, monkeypatch):
        # each path holds its own block, so two paths stepped in turn build one
        # block per 16 steps each: neither evicts the other's
        model = build_noise_model(100, grid, epsilon=0.01)
        steps = 3 * _FIELD_ROWS + 1
        paths = [sample_wiener_path(model, steps, 0.01, seed=seed) for seed in (24, 25)]
        built = []

        def counted(path, model, s):
            built.append((paths.index(path), s))
            return _field_block(path, model, s)

        monkeypatch.setattr("sfnse.noise._field_block", counted)
        for n in range(steps):
            for path in paths:
                assert increment_field(path, n, model).tobytes() == block_row(path, model, n).tobytes()
        assert built == [(i, s) for s in range(0, steps, _FIELD_ROWS) for i in range(2)]

    def test_one_path_under_two_models(self, grid):
        # the kept block belongs to one model: another model's call rebuilds it
        models = [build_noise_model(100, grid, epsilon=eps, profile=p) for eps, p in ((0.01, "sin"), (0.02, "unit"))]
        path = sample_wiener_path(models[0], 20, 0.01, seed=26)
        for n in range(20):
            for model in models:
                assert increment_field(path, n, model).tobytes() == block_row(path, model, n).tobytes()

    def test_last_step_of_a_one_row_block(self, grid):
        # 33 steps: the block of step 32 would hold that row alone
        model = build_noise_model(100, grid, epsilon=0.01)
        path = sample_wiener_path(model, 2 * _FIELD_ROWS + 1, 0.01, seed=19)
        last = path.steps - 1
        expected = (model.epsilon * (path.increments[last - 1 :] @ model.mode_profiles))[1]
        cold = increment_field(path, last, model)
        increment_field(path, last - 1, model)
        assert cold.tobytes() == increment_field(path, last, model).tobytes() == expected.tobytes()

    def test_one_step_path(self, grid):
        model = build_noise_model(100, grid, epsilon=0.01)
        path = sample_wiener_path(model, 1, 0.01, seed=20)
        assert increment_field(path, 0, model).tobytes() == block_row(path, model, 0).tobytes()

    def test_caller_owns_the_field(self, grid):
        # writing into a returned field must not reach the next call's value
        model = build_noise_model(10, grid, epsilon=0.01)
        path = sample_wiener_path(model, 8, 0.01, seed=21)
        field = increment_field(path, 2, model)
        field[:] = 0.0
        assert increment_field(path, 2, model).tobytes() == block_row(path, model, 2).tobytes()

    def test_no_path_outlives_its_last_step(self, grid):
        # the block lives on its path and nowhere else, so a path stepped to
        # its end is freed with its last reference
        model = build_noise_model(10, grid, epsilon=0.01)
        path = sample_wiener_path(model, 2 * _FIELD_ROWS + 3, 0.01, seed=22)
        for n in range(path.steps):
            increment_field(path, n, model)
        alive = weakref.ref(path)
        del path
        assert alive() is None

    @pytest.mark.parametrize(
        "scheme, observers, error",
        [
            (SchemeParams(0.01, fp_max_iter=1), [], NonConvergence),
            (SchemeParams(0.01), [Observer(1, fail_at_step_3)], ZeroDivisionError),
        ],
        ids=["nonconvergence", "observer"],
    )
    def test_no_path_outlives_a_failed_run(self, grid, scheme, observers, error):
        # a run that stops early leaves its block on the path, and nothing
        # else holds either once the exception is gone
        model = build_noise_model(10, grid, epsilon=0.01)
        path = sample_wiener_path(model, 20, 0.01, seed=23)
        initial = ComplexField(np.exp(1j * grid.nodes()))
        with pytest.raises(error) as info:
            evolve(initial, "midpoint", ModelParams(0.75, 1.0, 1.0), scheme, grid, path, model, observers)
        del info  # its traceback frames hold the path
        alive = weakref.ref(path)
        del path
        gc.collect()
        assert alive() is None


def test_fractional_integers_refused_not_truncated(grid):
    # truncating would alias seed 1.5 with seed 1, N = 64.7 with 64, and so on
    noise = build_noise_model(4, grid)
    for call in (
        lambda: sample_wiener_path(noise, 4, 0.01, seed=1.5),
        lambda: sample_wiener_path(noise, 4.7, 0.01, seed=1),
        lambda: build_grid(-20, 20, 64.7),
        lambda: build_noise_model(2.5, grid),
        # a bool is an int to Python, but RunConfig refuses it for these settings
        lambda: sample_wiener_path(noise, 4, 0.01, seed=True),
        lambda: sample_wiener_path(noise, True, 0.01, seed=1),
        lambda: build_grid(-20, 20, True),
        lambda: build_noise_model(True, grid),
    ):
        with pytest.raises(DomainError, match="must be an integer"):
            call()


def test_empty_path_constructible_for_degenerate_evolutions():
    path = WienerPath(dt=0.1, increments=np.empty((0, 2)))
    assert path.steps == 0
