"""Orchestrated reproductions of the desk-scale numerical studies.

Four drivers, one per CLI study: the single-trajectory evolve run, the
per-exponent mass-conservation table, the coupled-path strong-convergence
study for the splitting scheme, and the energy ensemble under noise.  Every
config becomes a trajectory here; the CLI only writes and prints.  Monte Carlo
paths are keyed by (master seed, path index), run one after another in path
order, and aggregated in that order, so the same config and seed give the
same numbers bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .config import MAX_TABLE_ENTRIES, RunConfig
from .diagnostics import energy, l2_error, mass, record_diagnostics
from .dynamics import ModelParams, Observer, SchemeParams, evolve
from .errors import ValidationError
from .noise import NoiseModel, WienerPath, build_noise_model, coarsen_path, sample_wiener_path
from .spectral import ComplexField, GridSpec, build_grid


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-level strong errors of the splitting scheme and fitted orders.

    ``errors[r]`` is the Monte Carlo mean over paths of the max-in-time
    discrete l2 distance to the shared-path reference; ``orders[r]`` is
    log2(errors[r] / errors[r+1]); ``ci_halfwidths`` are 95% normal
    confidence half-widths on each error.
    """

    dts: tuple[float, ...]
    errors: tuple[float, ...]
    orders: tuple[float, ...]
    ci_halfwidths: tuple[float, ...]


@dataclass(frozen=True)
class EnsembleReport:
    """Energy time series per path plus their columnwise mean."""

    times: tuple[float, ...]
    per_path_energy: np.ndarray
    mean_energy: tuple[float, ...]


def sech_carrier_initial(grid: GridSpec) -> ComplexField:
    """Reference initial profile: sech envelope with carrier wavenumber 2.

    The envelope is centered at the domain midpoint so its periodic extension
    is smooth; on domains symmetric about zero this is exactly sech(x) e^(2ix).
    """
    x = grid.nodes()
    centre = 0.5 * (grid.a + grid.b)
    with np.errstate(over="ignore"):  # cosh overflows past |x - centre| = 710, where 1/inf is the exact 0
        return ComplexField(np.exp(2j * x) / np.cosh(x - centre), time=0.0)


def path_seed(master_seed: int, index: int) -> int:
    """Stable per-path seed derived from the master seed and path index."""
    return int(np.random.SeedSequence(entropy=[int(master_seed), int(index)]).generate_state(1, np.uint64)[0])


def steps_for_horizon(T: float, dt: float, key: str) -> int:
    if not math.isfinite(T / dt):
        raise ValidationError(key, f"horizon T={T} over dt={dt} is more steps than a float can count")
    steps = round(T / dt)
    if steps < 1 or abs(steps * dt - T) > 1e-9 * max(1.0, abs(T)):
        raise ValidationError(key, f"horizon T={T} is not an integral number of steps of dt={dt}")
    return steps


def model_from_config(config: RunConfig, alpha: float | None = None) -> ModelParams:
    return ModelParams(
        alpha=config.alpha if alpha is None else alpha,
        lam=config.lam,
        sigma=config.sigma,
    )


def scheme_from_config(config: RunConfig, dt: float | None = None) -> SchemeParams:
    return SchemeParams(
        dt=config.dt if dt is None else dt,
        fp_tol=config.fp_tol,
        fp_max_iter=config.fp_max_iter,
    )


def _grid_and_noise(config: RunConfig) -> tuple[GridSpec, NoiseModel]:
    grid = build_grid(config.grid_a, config.grid_b, config.grid_n)
    noise = build_noise_model(config.noise_k, grid, epsilon=config.epsilon, profile=config.noise_profile)
    return grid, noise


def _run_steps(config: RunConfig, dt: float, *strides: tuple[str, int]) -> int:
    """Steps of dt over horizon.T, checked at a study's entry before any table is built.

    Refuses an increment table above MAX_TABLE_ENTRIES, and each (key, stride)
    longer than the run: a sample every stride steps would fire at t = 0 alone.
    """
    if config.horizon_t / dt * config.noise_k > MAX_TABLE_ENTRIES:
        raise ValidationError(
            "horizon.T",
            f"T={config.horizon_t} at dt={dt} with K={config.noise_k} modes "
            f"needs an increment table above {MAX_TABLE_ENTRIES} entries"
        )
    steps = steps_for_horizon(config.horizon_t, dt, "horizon.T")
    for key, stride in strides:
        if stride > steps:
            raise ValidationError(key, f"a sample every {stride} steps never fires in the run's {steps} steps")
    return steps


def run_evolution(
    config: RunConfig, snapshot: Callable[[int, ComplexField, GridSpec], Any]
) -> tuple[GridSpec, ComplexField, dict[str, list[tuple[int, float, Any]]]]:
    """Single trajectory of ``config.integrator`` on the path of the master seed.

    Records come back as from ``evolve``: "diag" holds a DiagnosticsRecord
    every ``diagnostics_stride`` steps.  Unless ``snapshot_stride`` is 0,
    ``snapshot(step, field, grid)`` is called on the state every
    ``snapshot_stride`` steps as the run reaches it (the CLI writes the file
    there), and "snap" holds its return values, so no state is kept unless
    ``snapshot`` returns it.  Returns the grid, the final state and the
    records.
    """
    diag, snap = config.diagnostics_stride, config.snapshot_stride
    steps = _run_steps(config, config.dt, ("output.diagnostics_stride", diag), ("output.snapshot_stride", snap))
    grid, noise = _grid_and_noise(config)
    model = model_from_config(config)
    observers = [Observer("diag", diag, lambda n, t, v: record_diagnostics(v, grid, model))]
    if snap > 0:
        observers.append(Observer("snap", snap, lambda n, t, v: snapshot(n, ComplexField(v, time=t), grid)))
    path = sample_wiener_path(noise, steps, config.dt, config.noise_seed)
    scheme = scheme_from_config(config)
    final, records = evolve(sech_carrier_initial(grid), config.integrator, model, scheme, grid, path, noise, observers)
    return grid, final, records


def run_mass_table(config: RunConfig) -> list[tuple[float, float, float]]:
    """Midpoint mass-conservation table: one (time, alpha, mass) row per sample.

    Each exponent in ``config.mass_alphas`` is evolved over [0, T] on a single
    noise path (the same path for every alpha), with the norm-form mass
    sampled every ``config.mass_sample_dt`` of model time.
    """
    stride = steps_for_horizon(config.mass_sample_dt, config.dt, "mass.sample_dt")
    steps = _run_steps(config, config.dt, ("mass.sample_dt", stride))
    grid, noise = _grid_and_noise(config)
    path = sample_wiener_path(noise, steps, config.dt, config.noise_seed)
    scheme = scheme_from_config(config)
    rows: list[tuple[float, float, float]] = []
    for alpha in config.mass_alphas:
        observer = Observer("mass", stride, lambda n, t, v: mass(v, grid, "norm"))
        model = model_from_config(config, alpha)
        _, records = evolve(sech_carrier_initial(grid), "midpoint", model, scheme, grid, path, noise, [observer])
        rows.extend((time, alpha, value) for _, time, value in records["mass"])
    return rows


def _convergence_path_errors(index: int, config: RunConfig, fine_dt: float, fine_steps: int) -> np.ndarray:
    """Max-in-time errors of every test level against the reference, one path.

    Each level steps at fine_dt times its coarsening factor; only the reference trajectory is kept.
    """
    grid, noise = _grid_and_noise(config)
    model = model_from_config(config)
    levels = config.converge_levels
    ref = config.converge_ref_level
    fine = sample_wiener_path(noise, fine_steps, fine_dt, path_seed(config.noise_seed, index))
    initial = sech_carrier_initial(grid)

    def run(path: WienerPath, observer: Observer) -> list:
        scheme = scheme_from_config(config, path.dt)
        _, records = evolve(initial, "splitting", model, scheme, grid, path, noise, [observer])
        return [value for _, _, value in records[observer.name]]

    # reference states stored on the finest test level's time grid, which
    # contains every coarser level's grid
    ref_states = run(fine, Observer("ref", 2 ** (ref - (levels - 1)), lambda n, t, v: v))

    errors = np.empty(levels)
    for r in range(levels):
        refs = iter(ref_states[:: 2 ** ((levels - 1) - r)])  # level-r times on the stored reference grid
        error = Observer("error", 1, lambda n, t, v, refs=refs: l2_error(v, next(refs), grid))
        errors[r] = max(run(coarsen_path(fine, 2 ** (ref - r)), error))
    return errors


def run_convergence_study(config: RunConfig) -> ConvergenceReport:
    """Strong-convergence study of the splitting scheme on coupled noise paths.

    For each path, the finest-level increments are sampled once and every
    coarser level is an exact block sum of them, so all levels and the
    reference see the same Brownian path.  The per-level error is the Monte
    Carlo mean over paths of the max-in-time l2 distance to the reference
    run, sampled at the coarse level's own step times; orders are log2 ratios
    of successive errors.
    """
    levels = config.converge_levels
    # a whole number of base_dt steps makes the finer levels whole too, so a bad base_dt is named here
    steps_for_horizon(config.horizon_t, config.converge_base_dt, "converge.base_dt")
    fine_dt = math.ldexp(config.converge_base_dt, -config.converge_ref_level)
    # the finest table is the largest: refuse it here, before any path runs
    fine_steps = _run_steps(config, fine_dt)
    n_paths = config.converge_n_paths
    per_path = np.array([_convergence_path_errors(i, config, fine_dt, fine_steps) for i in range(n_paths)])

    errors = per_path.mean(axis=0)
    if n_paths > 1:
        ci = 1.96 * per_path.std(axis=0, ddof=1) / np.sqrt(n_paths)
    else:
        ci = np.zeros(levels)
    orders = np.log2(errors[:-1] / errors[1:])
    dts = tuple(config.converge_base_dt / 2**r for r in range(levels))
    return ConvergenceReport(
        dts=dts,
        errors=tuple(float(e) for e in errors),
        orders=tuple(float(o) for o in orders),
        ci_halfwidths=tuple(float(c) for c in ci),
    )


def _energy_path_series(index: int, config: RunConfig, steps: int) -> tuple[tuple[float, ...], np.ndarray]:
    grid, noise = _grid_and_noise(config)
    model = model_from_config(config)
    observer = Observer("energy", config.energy_stride, lambda n, t, v: energy(v, grid, model))
    path = sample_wiener_path(noise, steps, config.dt, path_seed(config.noise_seed, index))
    scheme = scheme_from_config(config)
    _, records = evolve(sech_carrier_initial(grid), "midpoint", model, scheme, grid, path, noise, [observer])
    times = tuple(time for _, time, _ in records["energy"])
    values = np.array([value for _, _, value in records["energy"]])
    return times, values


def run_energy_ensemble(config: RunConfig) -> EnsembleReport:
    """Midpoint energy series over an ensemble of independent noise paths."""
    steps = _run_steps(config, config.dt, ("energy.stride", config.energy_stride))
    results = [_energy_path_series(i, config, steps) for i in range(config.energy_n_paths)]
    times = results[0][0]
    per_path = np.vstack([values for _, values in results])
    per_path.setflags(write=False)
    mean = per_path.mean(axis=0)
    return EnsembleReport(times=times, per_path_energy=per_path, mean_energy=tuple(float(m) for m in mean))
