"""Orchestrated reproductions of the desk-scale numerical studies.

Four drivers, one per CLI study: the single-trajectory evolve run, the
per-exponent mass-conservation table, the coupled-path strong-convergence
study for the splitting scheme, and the energy ensemble under noise.  Every
config becomes a trajectory here (``_path``, then ``ModelParams``,
``SchemeParams`` and ``evolve``), whose observer returns what a row of the
study's table needs.  Every study returns the rows of its CSV; the CLI
writes them.
Monte Carlo paths are keyed by (master seed, path index), run one after
another in path order, one function call each so that a path's tables go
before the next is drawn, and aggregated in that order, so the same config
and seed give the same numbers bit for bit.  A convergence path runs in
windows of 16 coarsest-level steps, so what it holds does not grow with the
horizon.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .config import RunConfig
from .diagnostics import energy, l2_error, mass
from .dynamics import ModelParams, Observer, SchemeParams, evolve
from .errors import DomainError, NonConvergence, ValidationError
from .noise import _FIELD_ROWS, MAX_TABLE_ENTRIES, NoiseModel, WienerPath, _check_increment_table
from .noise import _check_philox_seed, build_noise_model, coarsen_path, sample_wiener_path
from .spectral import ComplexField, GridSpec, _check_at_least, build_grid


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
    """Stable per-path seed of the master seed (a 64-bit Philox key) and path index (>= 0), neither truncated."""
    entropy = [_check_philox_seed(master_seed), _check_at_least(index, 0, "path index")]
    return int(np.random.SeedSequence(entropy=entropy).generate_state(1, np.uint64)[0])


def steps_for_horizon(span: float, dt: float, key: str) -> int:
    if not math.isfinite(span / dt):
        raise ValidationError(key, f"{span} over dt={dt} is more steps than a float can count")
    steps = round(span / dt)
    if steps < 1 or abs(steps * dt - span) > 1e-9 * max(1.0, abs(span)):
        raise ValidationError(key, f"{span} is not an integral number of steps of dt={dt}")
    return steps


def _path(config: RunConfig, steps: int, dt: float, seed: int) -> tuple[GridSpec, NoiseModel, WienerPath]:
    """The config's grid and noise model, and a path of steps increments of dt drawn with seed."""
    grid = build_grid(config.grid_a, config.grid_b, config.grid_n)
    noise = build_noise_model(config.noise_k, grid, epsilon=config.epsilon, profile=config.noise_profile)
    return grid, noise, sample_wiener_path(noise, steps, dt, seed)


def _run_steps(config: RunConfig, dt: float, *strides: tuple[str, int]) -> int:
    """Steps of dt over horizon.T, checked at a study's entry before any table is built.

    Refuses an increment table above MAX_TABLE_ENTRIES, and each (key, stride)
    longer than the run: a sample every stride steps would fire at t = 0 alone.
    """
    try:
        _check_increment_table(config.horizon_t / dt, config.noise_k, f"T={config.horizon_t} at dt={dt}")
    except DomainError as exc:
        raise ValidationError("horizon.T", str(exc)) from None
    steps = steps_for_horizon(config.horizon_t, dt, "horizon.T")
    for key, stride in strides:
        if stride > steps:
            raise ValidationError(key, f"a sample every {stride} steps never fires in the run's {steps} steps")
    return steps


def run_evolution(
    config: RunConfig, snapshot: Callable[[int, ComplexField, GridSpec], None]
) -> tuple[GridSpec, ComplexField, list[tuple[float, float, float, float]]]:
    """Single trajectory of ``config.integrator`` on the path of the master seed.

    Returns the grid, the final state and one row (t, mass, energy, max |u|)
    every ``diagnostics_stride`` steps.  Unless ``snapshot_stride`` is 0,
    ``snapshot(step, field, grid)`` is called on the state every
    ``snapshot_stride`` steps as the run reaches it (the CLI writes the file
    there); what it returns is dropped, so no state is kept.
    """
    diag, snap = config.diagnostics_stride, config.snapshot_stride
    steps = _run_steps(config, config.dt, ("output.diagnostics_stride", diag), ("output.snapshot_stride", snap))
    grid, noise, path = _path(config, steps, config.dt, config.noise_seed)
    model = ModelParams(config.alpha, config.lam, config.sigma)
    observers = [Observer(diag, lambda n, t, v: (t, mass(v, grid), energy(v, grid, model), np.abs(v).max()))]
    if snap > 0:
        observers.append(Observer(snap, lambda n, t, v: snapshot(n, ComplexField(v, time=t), grid)))
    scheme = SchemeParams(path.dt, config.fp_tol, config.fp_max_iter)
    final, records = evolve(sech_carrier_initial(grid), config.integrator, model, scheme, grid, path, noise, observers)
    return grid, final, records[0]


def run_mass_table(config: RunConfig) -> list[tuple[float, float, float]]:
    """Midpoint mass-conservation table: one (time, alpha, mass) row per sample.

    Each exponent in ``config.mass_alphas`` is evolved over [0, T] on a single
    noise path (the same path for every alpha), with the norm-form mass
    sampled every ``config.mass_sample_dt`` of model time.
    """
    stride = steps_for_horizon(config.mass_sample_dt, config.dt, "mass.sample_dt")
    steps = _run_steps(config, config.dt, ("mass.sample_dt", stride))
    grid, noise, path = _path(config, steps, config.dt, config.noise_seed)
    scheme = SchemeParams(path.dt, config.fp_tol, config.fp_max_iter)
    rows: list[tuple[float, float, float]] = []
    for alpha in config.mass_alphas:
        observer = Observer(stride, lambda n, t, v: (t, alpha, mass(v, grid)))
        model = ModelParams(alpha, config.lam, config.sigma)
        _, (series,) = evolve(sech_carrier_initial(grid), "midpoint", model, scheme, grid, path, noise, [observer])
        rows.extend(series)
    return rows


def _convergence_path_errors(index: int, config: RunConfig, fine_dt: float, fine_steps: int) -> np.ndarray:
    """Max-in-time errors of every test level against the reference, one path.

    The reference and every level run in windows of ``_FIELD_ROWS``
    coarsest-level steps, each trajectory carrying its final state into the
    next window, so only one window's reference states are kept whatever the
    horizon.  In a window, each level halves the next finer one, from the
    reference rows down, and each test level takes every second of the
    reference states the next finer one took.
    """
    grid, noise, fine = _path(config, fine_steps, fine_dt, path_seed(config.noise_seed, index))
    model = ModelParams(config.alpha, config.lam, config.sigma)
    levels = config.converge_levels
    ref = config.converge_ref_level

    def run(field: ComplexField, path: WienerPath, offset: int, observer: Observer) -> tuple[ComplexField, list]:
        scheme = SchemeParams(path.dt, config.fp_tol, config.fp_max_iter)
        try:
            final, (series,) = evolve(field, "splitting", model, scheme, grid, path, noise, [observer])
        except NonConvergence as exc:
            exc.step += offset  # the trajectory's own step, not the window's
            raise
        return final, series

    def window_errors(fields: list[ComplexField], start: int, stop: int) -> np.ndarray:
        # fine steps start..stop-1, a whole number of every level's 16-row field
        # blocks; fields holds each level's state at start, the reference's last,
        # and is moved on to stop
        path, offset = WienerPath(fine.dt, fine.increments[start:stop]), start
        # reference states stored on the finest test level's time grid, which
        # contains every coarser level's grid
        fields[-1], ref_states = run(fields[-1], path, offset, Observer(2 ** (ref - (levels - 1)), lambda n, t, v: v))
        errors = np.empty(levels)
        for r in reversed(range(ref)):  # level r halves level r + 1, the reference being level ref
            path, offset = coarsen_path(path), offset // 2
            if r < levels:  # a test level: ref_states holds its times
                error = Observer(1, lambda n, t, v, refs=iter(ref_states): l2_error(v, next(refs), grid))
                fields[r], series = run(fields[r], path, offset, error)
                errors[r] = max(series)
                ref_states = ref_states[::2]
        return errors

    fields = [sech_carrier_initial(grid)] * (levels + 1)
    window = _FIELD_ROWS * 2**ref
    return np.max([window_errors(fields, start, start + window) for start in range(0, fine_steps, window)], axis=0)


def run_convergence_study(config: RunConfig) -> list[tuple]:
    """Strong-convergence study of the splitting scheme on coupled noise paths.

    For each path, the finest-level increments are sampled once and every
    coarser level halves the next finer one, so all levels and the
    reference see the same Brownian path.  A path runs in windows of
    ``_FIELD_ROWS`` coarsest-level steps and keeps one window's reference
    states; a window store above 256 MiB is refused, naming
    ``converge.levels``, before any table is drawn.  Returns one (dt, error,
    ci_halfwidth, order) row per level, coarsest first: the error is the
    Monte Carlo mean over paths of the max-in-time discrete l2 distance to
    the reference run, sampled at the level's own step times; the
    ci_halfwidth is the 95% normal confidence half-width on it (0 on one
    path); the order is log2(error / next level's error), and "" on the
    finest level.
    """
    levels = config.converge_levels
    # a whole number of base_dt steps makes the finer levels whole too, so a bad base_dt is named here
    steps_for_horizon(config.horizon_t, config.converge_base_dt, "converge.base_dt")
    fine_dt = math.ldexp(config.converge_base_dt, -config.converge_ref_level)
    # the finest table is the largest: refuse it here, before any path runs
    fine_steps = _run_steps(config, fine_dt)
    # a window keeps one complex state per finest-level step of its _FIELD_ROWS
    # coarsest steps: at most a float table's 256 MiB, at twice the bytes an entry
    stored = min(_FIELD_ROWS, fine_steps >> config.converge_ref_level) * 2 ** (levels - 1) + 1
    if stored * config.grid_n > MAX_TABLE_ENTRIES // 2:
        message = f"{levels} levels keep {stored} reference states of N={config.grid_n} a window, above 256 MiB"
        raise ValidationError("converge.levels", message)
    n_paths = config.converge_n_paths
    per_path = np.array([_convergence_path_errors(i, config, fine_dt, fine_steps) for i in range(n_paths)])

    errors = per_path.mean(axis=0)
    if n_paths > 1:
        ci = 1.96 * per_path.std(axis=0, ddof=1) / np.sqrt(n_paths)
    else:
        ci = np.zeros(levels)
    orders = [*np.log2(errors[:-1] / errors[1:]), ""]
    return [(config.converge_base_dt / 2**r, errors[r], ci[r], orders[r]) for r in range(levels)]


def _energy_path_series(index: int, config: RunConfig, steps: int) -> list[tuple[float, float]]:
    grid, noise, path = _path(config, steps, config.dt, path_seed(config.noise_seed, index))
    model = ModelParams(config.alpha, config.lam, config.sigma)
    observer = Observer(config.energy_stride, lambda n, t, v: (t, energy(v, grid, model)))
    scheme = SchemeParams(path.dt, config.fp_tol, config.fp_max_iter)
    _, (series,) = evolve(sech_carrier_initial(grid), "midpoint", model, scheme, grid, path, noise, [observer])
    return series


def run_energy_ensemble(config: RunConfig) -> list[tuple]:
    """Midpoint energy series over an ensemble of independent noise paths.

    Returns one (t, energy of path 0, ..., energy of path P-1, mean) row
    every ``energy_stride`` steps, with P = ``energy_n_paths``.
    """
    steps = _run_steps(config, config.dt, ("energy.stride", config.energy_stride))
    series = [_energy_path_series(i, config, steps) for i in range(config.energy_n_paths)]
    per_path = np.array([[e for _, e in path_series] for path_series in series])
    mean = per_path.mean(axis=0)
    return [(t, *energies, m) for (t, _), energies, m in zip(series[0], per_path.T, mean)]
