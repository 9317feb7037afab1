import concurrent.futures
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from sfnse import experiments
from sfnse.cli import main
from sfnse.config import parse_config
from sfnse.diagnostics import l2_error
from sfnse.dynamics import Observer, evolve
from sfnse.errors import ValidationError
from sfnse.experiments import (
    _grid_and_noise,
    _path_steps,
    model_from_config,
    path_seed,
    run_convergence_study,
    run_energy_ensemble,
    run_evolution,
    run_mass_table,
    scheme_from_config,
    sech_carrier_initial,
)
from sfnse.noise import coarsen_path, sample_wiener_path
from sfnse.output import read_snapshot
from sfnse.spectral import build_grid


def tiny_convergence_config(**overrides):
    text = """
grid.a = 0
grid.b = 40
grid.N = 64
model.alpha = 0.75
model.lambda = -1
model.sigma = 0
model.epsilon = 0.01
horizon.T = 0.1
converge.base_dt = 0.01
converge.levels = 3
converge.ref_level = 5
converge.n_paths = 6
noise.K = 20
noise.seed = 4242
"""
    config = parse_config(text)
    from dataclasses import replace

    return replace(config, **overrides) if overrides else config


def stored_trajectory_errors(config):
    """Mean per-level errors computed the long way: store the reference and
    every level trajectory, then compare level step n with stored reference
    state n * spacing."""
    levels, ref = config.converge_levels, config.converge_ref_level
    fine_dt = math.ldexp(config.converge_base_dt, -ref)
    per_path = []
    for index in range(config.converge_n_paths):
        grid, noise = _grid_and_noise(config)
        model = model_from_config(config)
        fine = sample_wiener_path(noise, _path_steps(config, fine_dt), fine_dt, path_seed(config.noise_seed, index))
        initial = sech_carrier_initial(grid)

        def trajectory(path, stride):
            scheme = scheme_from_config(config, path.dt)
            observer = Observer("s", stride, lambda n, t, v: v.copy())
            _, records = evolve(initial, "splitting", model, scheme, grid, path, noise, [observer])
            return [state for _, _, state in records["s"]]

        ref_states = trajectory(fine, 2 ** (ref - (levels - 1)))
        errors = []
        for r in range(levels):
            states = trajectory(coarsen_path(fine, 2 ** (ref - r)), 1)
            spacing = 2 ** ((levels - 1) - r)
            errors.append(max(l2_error(state, ref_states[n * spacing], grid) for n, state in enumerate(states)))
        per_path.append(errors)
    return tuple(float(e) for e in np.array(per_path).mean(axis=0))


class TestMassTable:
    def test_small_run_conserves_and_is_reproducible(self, monkeypatch):
        draws = []

        def counted(*args):
            draws.append(args)
            return sample_wiener_path(*args)

        monkeypatch.setattr(experiments, "sample_wiener_path", counted)
        config = parse_config(
            """
grid.N = 64
model.epsilon = 0.01
horizon.T = 0.2
mass.alphas = 0.6, 0.9
mass.sample_dt = 0.1
noise.K = 10
"""
        )
        rows = run_mass_table(config)
        assert len(draws) == 1  # one path serves every alpha
        assert len(rows) == 2 * 3  # two alphas, t in {0, 0.1, 0.2}
        by_alpha = {}
        for time, alpha, value in rows:
            by_alpha.setdefault(alpha, []).append(value)
        for alpha, values in by_alpha.items():
            assert max(values) - min(values) < 1e-10
        again = run_mass_table(config)
        assert rows == again

    def test_epsilon_zero_control(self):
        config = parse_config(
            """
grid.N = 64
model.epsilon = 0
horizon.T = 0.2
mass.alphas = 0.75
mass.sample_dt = 0.1
noise.K = 4
"""
        )
        rows = run_mass_table(config)
        values = [v for _, _, v in rows]
        assert max(values) - min(values) < 1e-10


class TestConvergence:
    def test_coupled_paths_give_decreasing_errors_order_one(self):
        report = run_convergence_study(tiny_convergence_config())
        assert len(report.errors) == 3
        assert all(e > 0 for e in report.errors)
        assert report.errors[0] > report.errors[1] > report.errors[2]
        mean_order = float(np.mean(report.orders))
        assert 0.7 <= mean_order <= 1.6  # loose band at tiny path count
        assert len(report.ci_halfwidths) == 3

    def test_noise_off_splitting_is_exact_at_every_level(self):
        report = run_convergence_study(tiny_convergence_config(epsilon=0.0))
        assert all(e < 1e-11 for e in report.errors)

    def test_reference_level_validation(self):
        with pytest.raises(ValidationError) as info:
            run_convergence_study(tiny_convergence_config(converge_ref_level=2))
        assert info.value.key == "converge.ref_level"

    def test_cubic_nonlinearity_order_one(self):
        # the splitting step is exact for every sigma >= 0, so the study takes sigma = 1 too
        report = run_convergence_study(tiny_convergence_config(sigma=1.0))
        assert report.errors[0] > report.errors[1] > report.errors[2]
        mean_order = float(np.mean(report.orders))
        assert 0.85 <= mean_order <= 1.45, f"mean order {mean_order}"

    def test_parallel_matches_serial_bit_for_bit(self):
        serial = run_convergence_study(tiny_convergence_config(workers=1))
        parallel = run_convergence_study(tiny_convergence_config(workers=2))
        assert serial.errors == parallel.errors
        assert serial.orders == parallel.orders
        assert serial.ci_halfwidths == parallel.ci_halfwidths

    def test_pool_capped_at_paths_and_cpus(self, monkeypatch):
        # under fork a pool starts all max_workers processes at the first submit,
        # so the size is recorded on a stand-in that starts none
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        # the affinity mask, not the machine's CPU count, bounds the pool
        cases = (  # (cpu count, usable CPUs, workers, paths, pool size or None for a serial run)
            (8, 4, 1000, 2, 2),
            (8, 4, 1000, 10, 4),
            (8, 4, 3, 10, 3),
            (8, 4, 1000, 1, None),
            (8, 1, 8, 10, None),
            (None, 2, 8, 10, 2),
            (4, None, 1000, 10, 4),  # usable None: no sched_getaffinity (macOS, Windows)
            (4, None, 3, 10, 3),
            (None, None, 8, 10, None),
        )
        for cpus, usable, workers, n, size in cases:
            monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
            if usable is None:
                monkeypatch.delattr(experiments.os, "sched_getaffinity", raising=False)
            else:
                monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: set(range(usable)), raising=False)
            sizes.clear()
            assert experiments._map_paths(lambda i: i * i, n, workers) == [i * i for i in range(n)]
            assert sizes == ([] if size is None else [size])

    @pytest.mark.parametrize("levels, ref_level", [(3, 5), (3, 3)])  # reference strides 4 and 1
    def test_streamed_errors_match_stored_trajectories_bit_for_bit(self, levels, ref_level):
        config = tiny_convergence_config(converge_levels=levels, converge_ref_level=ref_level)
        report = run_convergence_study(config)
        assert report.errors == stored_trajectory_errors(config)

    def test_report_reproducible(self):
        a = run_convergence_study(tiny_convergence_config())
        b = run_convergence_study(tiny_convergence_config())
        assert a == b


class TestEnergyEnsemble:
    def _config(self, epsilon, sigma=0.0, n_paths=3):
        from dataclasses import replace

        config = parse_config(
            f"""
grid.N = 64
model.alpha = 0.6
model.lambda = -1
model.sigma = {sigma}
model.epsilon = {epsilon}
horizon.T = 0.5
energy.n_paths = {n_paths}
energy.stride = 10
noise.K = 10
"""
        )
        return config

    def test_noise_off_energy_constant(self):
        report = run_energy_ensemble(self._config(epsilon=0.0))
        for row in report.per_path_energy:
            assert (max(row) - min(row)) <= 1e-8 * abs(row[0])

    def test_noise_on_energy_moves_and_mean_matches(self):
        report = run_energy_ensemble(self._config(epsilon=0.1))
        assert np.all(np.isfinite(report.per_path_energy))
        spread = report.per_path_energy.max(axis=1) - report.per_path_energy.min(axis=1)
        assert np.all(spread > 0.0)
        recomputed = report.per_path_energy.mean(axis=0)
        assert np.max(np.abs(recomputed - np.array(report.mean_energy))) < 1e-12
        assert len(report.times) == report.per_path_energy.shape[1]

    def test_paths_differ_from_each_other(self):
        report = run_energy_ensemble(self._config(epsilon=0.1))
        assert not np.allclose(report.per_path_energy[0], report.per_path_energy[1])


EVOLVE_CONFIG = """
grid.N = 64
model.epsilon = 0.01
horizon.T = 0.1
output.snapshot_stride = {stride}
noise.K = 10
"""


class TestFieldEvolution:
    def _cli_snapshots(self, tmp_path, stride, out):
        config = tmp_path / f"evolve_{stride}.cfg"
        config.write_text(EVOLVE_CONFIG.format(stride=stride))
        assert main(["evolve", "--quiet", "--config", str(config), "--out", str(out)]) == 0
        return sorted(p.name for p in out.glob("*.sfns"))

    def test_snapshots_finite_bounded_and_written(self, tmp_path):
        grid, final, _ = run_evolution(parse_config(EVOLVE_CONFIG.format(stride=5)), lambda *args: None)
        names = self._cli_snapshots(tmp_path, 5, tmp_path / "snaps")
        assert names == ["snapshot_000000.sfns", "snapshot_000005.sfns", "snapshot_000010.sfns"]
        snapshots = [read_snapshot(tmp_path / "snaps" / name) for name in names]
        assert np.array_equal(snapshots[-1][1].values, final.values)
        peak0 = np.max(np.abs(sech_carrier_initial(grid).values))
        for written_grid, state in snapshots:
            assert written_grid == grid
            assert np.all(np.isfinite(state.values))
            assert np.max(np.abs(state.values)) <= 2.0 * peak0

    def test_snapshot_callable_fires_as_the_run_steps(self):
        config = parse_config(EVOLVE_CONFIG.format(stride=5))
        # a callable that returns what it is given keeps the states; the CLI's writer keeps none
        grid, final, records = run_evolution(config, lambda step, field, g: (step, field, g))
        assert [n for n, _, _ in records["snap"]] == [0, 5, 10]
        for n, t, (step, field, g) in records["snap"]:
            assert (step, field.time, g) == (n, t, grid)
        assert np.array_equal(records["snap"][-1][2][1].values, final.values)

    def test_zero_stride_empty_series(self, tmp_path):
        _, _, records = run_evolution(parse_config(EVOLVE_CONFIG.format(stride=0)), lambda *args: args)
        assert "snap" not in records
        assert self._cli_snapshots(tmp_path, 0, tmp_path / "out") == []
        assert (tmp_path / "out" / "evolve_diagnostics.csv").exists()

    def test_snapshot_files_bit_identical_across_reruns(self, tmp_path):
        names = self._cli_snapshots(tmp_path, 5, tmp_path / "a")
        assert names == self._cli_snapshots(tmp_path, 5, tmp_path / "b")
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_table_guard_admits_every_shipped_config():
    root = Path(__file__).resolve().parents[1]
    shipped = sorted([*root.glob("configs/*.cfg"), *root.glob("perfbench/workloads/*.cfg")])
    assert len(shipped) >= 6
    for path in shipped:
        config = parse_config(path.read_text(encoding="utf-8"))
        experiments._grid_and_noise(config)  # raises ValidationError past the K x N guard
        fine_dt = config.converge_base_dt / 2**config.converge_ref_level
        for dt in (config.dt, fine_dt):
            _path_steps(config, dt)  # raises ValidationError past the guard


def test_path_seed_is_stable_and_distinct():
    seeds = [path_seed(123456789, i) for i in range(8)]
    assert len(set(seeds)) == 8
    assert seeds == [path_seed(123456789, i) for i in range(8)]
    assert path_seed(1, 0) != path_seed(2, 0)


def test_wide_domain_initial_state_is_quiet_and_exactly_zero_far_out():
    # cosh overflows to inf past |x| = 710; the envelope there is 1/inf = 0, with no warning
    grid = build_grid(-1000.0, 1000.0, 4000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = sech_carrier_initial(grid).values
    far = np.abs(grid.nodes()) >= 711
    assert far.any() and np.all(np.isfinite(values))
    assert np.all(values[far] == 0)
