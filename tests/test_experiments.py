import concurrent.futures
from pathlib import Path

import numpy as np
import pytest

from sfnse import experiments
from sfnse.cli import main
from sfnse.config import parse_config
from sfnse.errors import ValidationError
from sfnse.experiments import (
    _path_steps,
    path_seed,
    run_convergence_study,
    run_energy_ensemble,
    run_evolution,
    run_mass_table,
    sech_carrier_initial,
)
from sfnse.noise import sample_wiener_path
from sfnse.output import read_snapshot


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
        cases = (  # (cpu count, workers, paths, pool size or None for a serial run)
            (4, 1000, 2, 2),
            (4, 1000, 10, 4),
            (4, 3, 10, 3),
            (4, 1000, 1, None),
            (None, 8, 10, None),
        )
        for cpus, workers, n, size in cases:
            monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
            sizes.clear()
            assert experiments._map_paths(lambda i: i * i, n, workers) == [i * i for i in range(n)]
            assert sizes == ([] if size is None else [size])

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
        grid, final, records = run_evolution(parse_config(EVOLVE_CONFIG.format(stride=5)))
        snapshots = records["snap"]
        assert [step for step, _, _ in snapshots] == [0, 5, 10]
        assert np.array_equal(snapshots[-1][2], final.values)
        peak0 = np.max(np.abs(sech_carrier_initial(grid).values))
        for _, _, state in snapshots:
            assert np.all(np.isfinite(state))
            assert np.max(np.abs(state)) <= 2.0 * peak0
        names = self._cli_snapshots(tmp_path, 5, tmp_path / "snaps")
        assert names == ["snapshot_000000.sfns", "snapshot_000005.sfns", "snapshot_000010.sfns"]
        _, written = read_snapshot(tmp_path / "snaps" / names[-1])
        assert np.array_equal(written.values, final.values)

    def test_zero_stride_empty_series(self, tmp_path):
        _, _, records = run_evolution(parse_config(EVOLVE_CONFIG.format(stride=0)))
        assert "snap" not in records
        assert self._cli_snapshots(tmp_path, 0, tmp_path / "out") == []
        assert (tmp_path / "out" / "evolve_diagnostics.csv").exists()

    def test_snapshot_files_bit_identical_across_reruns(self, tmp_path):
        config = parse_config(EVOLVE_CONFIG.format(stride=5))
        _, _, a = run_evolution(config)
        _, _, b = run_evolution(config)
        for (st_a, _, f_a), (st_b, _, f_b) in zip(a["snap"], b["snap"], strict=True):
            assert st_a == st_b
            assert np.array_equal(f_a, f_b)
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
