import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from sfnse import dynamics, experiments
from sfnse.cli import main
from sfnse.config import parse_config
from sfnse.diagnostics import l2_error
from sfnse.dynamics import ModelParams, Observer, SchemeParams, evolve
from sfnse.errors import NonConvergence, ValidationError
from sfnse.experiments import (
    _run_steps,
    path_seed,
    run_convergence_study,
    run_energy_ensemble,
    run_evolution,
    run_mass_table,
    sech_carrier_initial,
)
from sfnse.noise import build_noise_model, coarsen_path, sample_wiener_path
from sfnse.output import read_snapshot
from sfnse.spectral import build_grid


TINY_CONVERGENCE = """
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


def tiny_convergence_config(**overrides):
    config = parse_config(TINY_CONVERGENCE)
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
        grid = build_grid(config.grid_a, config.grid_b, config.grid_n)
        noise = build_noise_model(config.noise_k, grid, epsilon=config.epsilon, profile=config.noise_profile)
        model = ModelParams(config.alpha, config.lam, config.sigma)
        fine = sample_wiener_path(noise, _run_steps(config, fine_dt), fine_dt, path_seed(config.noise_seed, index))
        initial = sech_carrier_initial(grid)

        def trajectory(path, stride):
            scheme = SchemeParams(path.dt, config.fp_tol, config.fp_max_iter)
            observer = Observer(stride, lambda n, t, v: v.copy())
            _, (states,) = evolve(initial, "splitting", model, scheme, grid, path, noise, [observer])
            return states

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
        rows = run_convergence_study(tiny_convergence_config())
        errors = [row[1] for row in rows]
        assert len(errors) == 3
        assert all(e > 0 for e in errors)
        assert errors[0] > errors[1] > errors[2]
        mean_order = float(np.mean([row[3] for row in rows[:-1]]))
        assert 0.7 <= mean_order <= 1.6  # loose band at tiny path count
        assert [len(row) for row in rows] == [4, 4, 4]
        assert rows[-1][3] == ""

    def test_noise_off_splitting_is_exact_at_every_level(self):
        rows = run_convergence_study(tiny_convergence_config(epsilon=0.0))
        assert all(row[1] < 1e-11 for row in rows)

    def test_reference_level_validation(self):
        with pytest.raises(ValidationError) as info:
            run_convergence_study(tiny_convergence_config(converge_ref_level=2))
        assert info.value.key == "converge.ref_level"

    def test_cubic_nonlinearity_order_one(self):
        # the splitting step is exact for every sigma >= 0, so the study takes sigma = 1 too
        rows = run_convergence_study(tiny_convergence_config(sigma=1.0))
        assert rows[0][1] > rows[1][1] > rows[2][1]
        mean_order = float(np.mean([row[3] for row in rows[:-1]]))
        assert 0.85 <= mean_order <= 1.45, f"mean order {mean_order}"

    @pytest.mark.parametrize(
        "levels, ref_level, horizon",
        [
            (3, 5, 0.1),  # reference stride 4, one window of 10 coarsest steps
            (3, 3, 0.1),  # reference stride 1
            # windows of 16 + 16 + 8 and 16 + 16 + 1 coarsest steps; the last
            # level-0 window of 0.33 is 1 row, whose field is the row with itself
            (3, 5, 0.4),
            (3, 5, 0.33),
            (5, 5, 0.4),
            (5, 5, 0.33),
        ],
        ids=["3-5", "3-3", "3-5-T0.4", "3-5-T0.33", "5-5-T0.4", "5-5-T0.33"],
    )
    def test_streamed_errors_match_stored_trajectories_bit_for_bit(self, levels, ref_level, horizon):
        config = tiny_convergence_config(converge_levels=levels, converge_ref_level=ref_level, horizon_t=horizon)
        rows = run_convergence_study(config)
        assert tuple(row[1] for row in rows) == stored_trajectory_errors(config)

    def test_failure_in_a_later_window_names_the_trajectory_step(self, tmp_path, capsys, monkeypatch):
        # at T = 0.4 the reference runs in windows of 512 steps of 0.01 / 2^5:
        # its 601st step is step 600 of the path, in its second window
        fine_dt = 0.01 / 2**5
        splitting = dynamics._STEPPERS["splitting"]
        calls = []

        def failing(v, dW, model, scheme, grid):
            if scheme.dt == fine_dt:  # the reference alone steps at fine_dt
                calls.append(None)
                if len(calls) == 601:
                    raise NonConvergence("injected", iterations=1, residual=1.0)
            return splitting(v, dW, model, scheme, grid)

        monkeypatch.setitem(dynamics._STEPPERS, "splitting", failing)
        with pytest.raises(NonConvergence) as info:
            run_convergence_study(tiny_convergence_config(horizon_t=0.4))
        assert info.value.step == 600
        calls.clear()
        config = tmp_path / "converge.cfg"
        config.write_text(TINY_CONVERGENCE.replace("horizon.T = 0.1", "horizon.T = 0.4"))
        assert main(["converge", "--quiet", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert "numerical failure at step 600: injected" in capsys.readouterr().err

    def test_report_reproducible(self):
        a = run_convergence_study(tiny_convergence_config())
        b = run_convergence_study(tiny_convergence_config())
        assert a == b


def energy_columns(rows):
    """(times, per-path energies as a (paths, samples) array, means) of ``run_energy_ensemble`` rows."""
    return [row[0] for row in rows], np.array([row[1:-1] for row in rows]).T, [row[-1] for row in rows]


class TestEnergyEnsemble:
    def _config(self, epsilon, sigma=0.0, n_paths=3):
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
        _, per_path, _ = energy_columns(run_energy_ensemble(self._config(epsilon=0.0)))
        for row in per_path:
            assert (max(row) - min(row)) <= 1e-8 * abs(row[0])

    def test_noise_on_energy_moves_and_mean_matches(self):
        times, per_path, mean = energy_columns(run_energy_ensemble(self._config(epsilon=0.1)))
        assert np.all(np.isfinite(per_path))
        spread = per_path.max(axis=1) - per_path.min(axis=1)
        assert np.all(spread > 0.0)
        recomputed = per_path.mean(axis=0)
        assert np.max(np.abs(recomputed - np.array(mean))) < 1e-12
        assert per_path.shape == (3, len(times))

    def test_paths_differ_from_each_other(self):
        _, per_path, _ = energy_columns(run_energy_ensemble(self._config(epsilon=0.1)))
        assert not np.allclose(per_path[0], per_path[1])


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
        # a callable that keeps what it is given keeps the states; the CLI's writer keeps none
        calls = []
        grid, final, rows = run_evolution(config, lambda step, field, g: calls.append((step, field, g)))
        assert [step for step, _, _ in calls] == [0, 5, 10]
        times = [0.0]  # the time evolve reaches by adding dt once per step
        for _ in range(10):
            times.append(times[-1] + config.dt)
        for step, field, g in calls:
            assert (field.time, g) == (times[step], grid)
        # diagnostics rows every 10 steps, stamped with the same times
        assert [row[0] for row in rows] == [times[0], times[10]]
        assert np.array_equal(calls[-1][1].values, final.values)

    def test_zero_stride_empty_series(self, tmp_path):
        calls = []
        run_evolution(parse_config(EVOLVE_CONFIG.format(stride=0)), lambda *args: calls.append(args))
        assert calls == []
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
        config = parse_config(path.read_text(encoding="utf-8"))  # raises ValidationError past the K x N guard
        fine_dt = config.converge_base_dt / 2**config.converge_ref_level
        for dt in (config.dt, fine_dt):
            _run_steps(config, dt)  # raises ValidationError past the increment-table guard


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
