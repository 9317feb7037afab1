"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The optional paper-scale convergence run (500 paths, a few minutes)
is enabled by setting SFNSE_FULL_ACCEPTANCE=1.
"""

import functools
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sfnse.config import parse_config
from sfnse.diagnostics import energy, mass
from sfnse.dynamics import (
    ModelParams,
    Observer,
    SchemeParams,
    evolve,
    midpoint_step,
    splitting_step,
)
from sfnse.experiments import (
    run_convergence_study,
    run_energy_ensemble,
    run_mass_table,
    sech_carrier_initial,
)
from sfnse.noise import build_noise_model, coarsen_path, increment_field, sample_wiener_path
from sfnse.output import write_csv
from sfnse.spectral import ComplexField, _frac_multiplier, build_grid

from operator_oracle import (
    apply_frac_laplacian,
    apply_g,
    dense_operator,
    dense_symplectic_defect,
    ground_state,
    h_alpha_norm,
    halved,
    symplectic_defect,
)

TABLE1_T0 = 1.414211518677561
TABLE2_ERRORS = (2.681e-2, 1.345e-2, 6.448e-3, 2.861e-3, 1.087e-3)

# the shipped config, so that criteria 4 and 4.5 test what users run
TABLE2_CONFIG = (Path(__file__).resolve().parents[1] / "configs" / "table2_convergence.cfg").read_text()


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({name}): PASS")

        return wrapper

    return decorate


@criterion(1, "operator correctness")
def test_criterion_1_operators():
    grid = build_grid(0.0, 2.0 * np.pi, 16)
    x = grid.nodes()
    for alpha in (0.5, 0.6, 0.75, 0.9, 1.0):
        for k in (1, 2, 3, 5, 7):
            f = np.exp(1j * k * grid.mu * x)
            out = apply_frac_laplacian(f, grid, alpha)
            scale = abs(k * grid.mu) ** (2 * alpha)
            assert np.max(np.abs(out - scale * f)) <= 1e-12 * scale

    for n in (8, 16, 32):
        g = build_grid(0.0, 2.0 * np.pi, n)
        for alpha in (0.6, 0.75, 0.9):
            d1 = dense_operator(g, alpha, "D1")
            d2 = dense_operator(g, alpha, "D2")
            assert np.max(np.abs(d1 + d1.T)) <= 1e-13
            assert np.max(np.abs(d2 - d2.T)) <= 1e-13

    rng = np.random.default_rng(1)
    g = build_grid(-4.0, 4.0, 32)
    for alpha in (0.5, 0.6, 0.75, 0.9, 1.0):
        v = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        vh = np.fft.fft(v)
        vh[16] = 0.0
        f = np.fft.ifft(vh)
        twice = apply_g(apply_g(f, g, alpha), g, alpha)
        neg = apply_frac_laplacian(f, g, alpha)
        scale = np.max(np.abs(neg))
        assert np.max(np.abs(twice + neg)) <= 1e-12 * scale


@criterion(2, "midpoint mass conservation, reference table")
def test_criterion_2_mass_table_midpoint():
    config = parse_config("mass.alphas = 0.6, 0.75, 0.9\n")  # defaults are the reference setup
    rows = run_mass_table(config)
    by_alpha = {}
    for time, alpha, value in rows:
        by_alpha.setdefault(alpha, []).append((time, value))
    assert set(by_alpha) == {0.6, 0.75, 0.9}
    for alpha, series in by_alpha.items():
        times = [t for t, _ in series]
        assert times[0] == 0.0 and len(times) == 6
        m0 = series[0][1]
        assert abs(m0 - TABLE1_T0) <= 5e-6
        for _, value in series[1:]:
            assert abs(value - m0) <= 1e-10


@criterion(3, "splitting mass conservation over 1e4 steps")
def test_criterion_3_splitting_mass():
    # accumulation run on the power-of-two reference grid; on N = 400 the
    # FFT library carries a measurable ~1.5e-16/step rounding bias that is a
    # platform property, not a scheme property (see the per-step check below)
    grid = build_grid(0.0, 40.0, 512)
    model = ModelParams(alpha=0.75, lam=-1.0, sigma=0.0)
    scheme = SchemeParams(dt=0.01)
    noise = build_noise_model(100, grid, epsilon=0.01)
    path = sample_wiener_path(noise, 10**4, scheme.dt, seed=321)
    initial = sech_carrier_initial(grid)
    obs = Observer(500, lambda n, t, v: mass(v, grid) ** 2)
    _, (values,) = evolve(initial, "splitting", grid=grid, model=model, scheme=scheme, path=path, noise=noise, observers=[obs])
    assert (max(values) - min(values)) <= 1e-12 * values[0]

    # per-step exactness on the reference N = 400 grid
    grid4 = build_grid(-20.0, 20.0, 400)
    noise4 = build_noise_model(100, grid4, epsilon=0.01)
    path4 = sample_wiener_path(noise4, 200, scheme.dt, seed=654)
    state = sech_carrier_initial(grid4).values
    for n in range(200):
        nxt = splitting_step(state, increment_field(path4, n, noise4), model, scheme, grid4)
        drift = abs(mass(nxt, grid4) ** 2 - mass(state, grid4) ** 2)
        assert drift <= 1e-13 * mass(state, grid4) ** 2
        state = nxt


@criterion(4, "strong order ~1 for the splitting scheme")
def test_criterion_4_strong_order():
    rows = run_convergence_study(parse_config(TABLE2_CONFIG))
    for coarse, fine in zip(rows, rows[1:]):
        assert coarse[1] > fine[1]
    mean_order = float(np.mean([row[3] for row in rows[:-1]]))
    assert 0.85 <= mean_order <= 1.45, f"mean order {mean_order}"


@pytest.mark.skipif(
    os.environ.get("SFNSE_FULL_ACCEPTANCE") != "1",
    reason="paper-scale run (M=500, minutes); set SFNSE_FULL_ACCEPTANCE=1",
)
@criterion(4.5, "paper-scale per-level errors (optional)")
def test_criterion_4_optional_full_scale():
    config = replace(parse_config(TABLE2_CONFIG), converge_n_paths=500)
    rows = run_convergence_study(config)
    for ours, published in zip([row[1] for row in rows], TABLE2_ERRORS):
        assert published / 2 <= ours <= published * 2, (
            f"error {ours:.4g} outside factor-2 band of published {published:.4g}"
        )


def explicit_euler_step(v, dW, model, scheme, grid):
    """Negative control: one explicit Euler step, which is not symplectic."""
    force = apply_frac_laplacian(v, grid, model.alpha) + model.lam * np.abs(v) ** (2.0 * model.sigma) * v
    return v - 1j * (scheme.dt * force + dW * v)


@criterion(5, "symplecticity defect of the one-step and path flow maps")
def test_criterion_5_symplectic_defect():
    # bounds: 1e-5 for the nonlinear midpoint map, 1e-9 for the linear and
    # splitting maps; explicit Euler must read above 1e-3 on every check
    grid = build_grid(-20.0, 20.0, 400)
    noise = build_noise_model(100, grid, epsilon=1.0)
    path = sample_wiener_path(noise, 10, 0.01, seed=99)
    initial = sech_carrier_initial(grid)
    steppers = ((midpoint_step, 1e-5), (splitting_step, 1e-9))
    checks = 0
    for alpha in (0.6, 0.9):
        for sigma in (0.0, 1.0):
            model = ModelParams(alpha=alpha, lam=-1.0, sigma=sigma)
            scheme = SchemeParams(dt=0.01)
            for stepper, bound in steppers:
                # the one-step map at each of the first 5 states of a trajectory
                state = initial.values
                for n in range(5):
                    dW = increment_field(path, n, noise)
                    defect = symplectic_defect(stepper, state, dW, model, scheme, grid)
                    where = f"alpha={alpha}, sigma={sigma}, n={n}"
                    assert defect <= bound, f"{stepper.__name__} defect {defect:.3e} ({where})"
                    state = stepper(state, dW, model, scheme, grid)
                    checks += 1
            dW = increment_field(path, 0, noise)
            control = symplectic_defect(explicit_euler_step, initial.values, dW, model, scheme, grid)
            assert control > 1e-3, f"explicit Euler defect {control:.3e} (alpha={alpha}, sigma={sigma})"
    assert checks == 40

    model = ModelParams(alpha=0.75, lam=-1.0, sigma=1.0)
    scheme = SchemeParams(dt=0.01)
    linear = symplectic_defect(
        midpoint_step, initial.values, np.zeros(grid.N), ModelParams(alpha=0.75, lam=0.0, sigma=0.0), scheme, grid
    )
    assert linear <= 1e-9, f"linear defect {linear:.3e}"

    # the 10-step flow map of the whole frozen path, through evolve
    def evolve_flow(integrator):
        return lambda v, dW, model, scheme, grid: evolve(
            ComplexField(v), integrator, model, scheme, grid, path, noise
        )[0].values

    def euler_flow(v, dW, model, scheme, grid):
        for n in range(path.steps):
            v = explicit_euler_step(v, increment_field(path, n, noise), model, scheme, grid)
        return v

    for integrator, bound in (("midpoint", 1e-5), ("splitting", 1e-9)):
        defect = symplectic_defect(evolve_flow(integrator), initial.values, np.zeros(grid.N), model, scheme, grid)
        assert defect <= bound, f"{integrator} flow defect {defect:.3e}"
    control = symplectic_defect(euler_flow, initial.values, np.zeros(grid.N), model, scheme, grid)
    assert control > 1e-3, f"explicit Euler flow defect {control:.3e}"

    # the dense Jacobian agrees at N = 8
    small = build_grid(0.0, 2.0 * np.pi, 8)
    rng = np.random.default_rng(99)
    state = 0.5 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
    dW = 0.1 * rng.standard_normal(8)
    scheme = SchemeParams(dt=0.02, fp_tol=1e-14)
    for stepper, bound in steppers:
        for check in (symplectic_defect, dense_symplectic_defect):
            defect = check(stepper, state, dW, model, scheme, small)
            assert defect <= bound, f"{check.__name__} of {stepper.__name__}: {defect:.3e}"
    for check in (symplectic_defect, dense_symplectic_defect):
        control = check(explicit_euler_step, state, dW, model, scheme, small)
        assert control > 1e-3, f"{check.__name__} of explicit Euler: {control:.3e}"


@criterion(6, "Cayley unitarity of the linear midpoint factor")
def test_criterion_6_cayley_unitarity():
    grid = build_grid(-20.0, 20.0, 400)
    for alpha in (0.6, 0.9):
        lap = _frac_multiplier(grid.N, grid.mu, alpha)
        factor = (2.0 - 1j * 0.01 * lap) / (2.0 + 1j * 0.01 * lap)
        assert np.max(np.abs(np.abs(factor) - 1.0)) <= 1e-14


@criterion(7, "energy: conserved control, stochastic drift under noise")
def test_criterion_7_energy_behavior():
    # noise-off control: sigma = 0, where the midpoint map is unitary per
    # mode and conserves the (quadratic) energy to solver tolerance
    control_cfg = parse_config(
        """
model.alpha = 0.6
model.lambda = -1
model.sigma = 0
model.epsilon = 0
energy.n_paths = 1
energy.stride = 10
"""
    )
    series = np.array([row[1] for row in run_energy_ensemble(control_cfg)])  # the one path's column
    control_drift = float(series.max() - series.min())
    assert control_drift <= 1e-8 * abs(series[0])

    noisy_cfg = parse_config(
        """
model.alpha = 0.6
model.lambda = -1
model.sigma = 1
model.epsilon = 0.01
energy.n_paths = 10
energy.stride = 10
"""
    )
    noisy = np.array([row[1:-1] for row in run_energy_ensemble(noisy_cfg)]).T  # (paths, samples)
    assert np.all(np.isfinite(noisy))
    floor = 10.0 * max(control_drift, 1e-12)
    for row in noisy:
        assert (row.max() - row.min()) >= floor


@criterion(8, "bit-exact determinism")
def test_criterion_8_determinism(tmp_path):
    config_text = """
grid.N = 64
model.epsilon = 0.01
horizon.T = 0.2
mass.alphas = 0.6, 0.9
mass.sample_dt = 0.1
noise.K = 10
output.snapshot_stride = 10
"""
    config = parse_config(config_text)
    rows_a = run_mass_table(config)
    rows_b = run_mass_table(config)
    file_a, file_b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(file_a, ["time", "alpha", "mass"], rows_a)
    write_csv(file_b, ["time", "alpha", "mass"], rows_b)
    assert file_a.read_bytes() == file_b.read_bytes()

    from sfnse.cli import main

    config_file = tmp_path / "run.cfg"
    config_file.write_text(config_text)
    for out in ("snap_a", "snap_b"):
        assert main(["evolve", "--quiet", "--config", str(config_file), "--out", str(tmp_path / out)]) == 0
    names_a = sorted(p.name for p in (tmp_path / "snap_a").glob("*.sfns"))
    names_b = sorted(p.name for p in (tmp_path / "snap_b").glob("*.sfns"))
    assert names_a == names_b and names_a
    for name in names_a:
        assert (tmp_path / "snap_a" / name).read_bytes() == (tmp_path / "snap_b" / name).read_bytes()

    converge_text = """
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
converge.ref_level = 4
converge.n_paths = 6
noise.K = 10
"""
    rows_a = run_convergence_study(parse_config(converge_text))
    rows_b = run_convergence_study(parse_config(converge_text))
    assert rows_a == rows_b


@criterion(9, "noise refinement exactness and increment statistics")
def test_criterion_9_noise_refinement():
    grid = build_grid(0.0, 40.0, 64)
    model = build_noise_model(8, grid, epsilon=0.01)
    path = sample_wiener_path(model, 64, 0.005, seed=2718)
    inc = path.increments
    assert np.array_equal(coarsen_path(path).increments, inc[0::2] + inc[1::2])
    assert np.array_equal(halved(path, 2).increments, (inc[0::4] + inc[1::4]) + (inc[2::4] + inc[3::4]))

    dt = 0.01
    big = sample_wiener_path(build_noise_model(1, grid), 10**5, dt, seed=1)
    column = big.increments[:, 0]
    n = column.size
    assert abs(column.mean()) <= 4.0 * math.sqrt(dt / n)
    assert abs(column.var(ddof=1) - dt) <= 4.0 * dt * math.sqrt(2.0 / (n - 1))


@criterion(10, "qualitative field-evolution smoke bound")
def test_criterion_10_field_smoke():
    for alpha, lam in ((0.6, 1.0), (0.95, -1.0)):
        grid = build_grid(-20.0, 20.0, 400)
        model = ModelParams(alpha=alpha, lam=lam, sigma=1.0)
        scheme = SchemeParams(dt=0.01)
        noise = build_noise_model(100, grid, epsilon=0.01)
        path = sample_wiener_path(noise, 1000, scheme.dt, seed=1618)
        initial = sech_carrier_initial(grid)
        peak0 = float(np.max(np.abs(initial.values)))
        obs = Observer(1, lambda n, t, v: float(np.max(np.abs(v))))
        final, (amps,) = evolve(initial, "midpoint", model, scheme, grid, path, noise, [obs])
        assert np.all(np.isfinite(final.values))
        assert max(amps) <= 2.0 * peak0


def _max_h_alpha_norms(alpha, sigma, epsilon, T, initial):
    # max over t in [0, T], sampled every 0.01, of ||u||_{H^alpha}^2 on the
    # splitting scheme from initial(grid): lam -1, K 100 sin profiles at
    # amplitude epsilon, path seed 0; on the grid pair N = 1024, dt 1e-3 and
    # N = 2048, dt 5e-4, whose increment tables share their Philox stream
    norms = []
    for N, dt in ((1024, 1e-3), (2048, 5e-4)):
        grid = build_grid(-20.0, 20.0, N)
        noise = build_noise_model(100, grid, epsilon=epsilon)
        path = sample_wiener_path(noise, round(T / dt), dt, seed=0)
        model = ModelParams(alpha=alpha, lam=-1.0, sigma=sigma)
        observer = Observer(round(0.01 / dt), lambda n, t, v: h_alpha_norm(v, grid, alpha))
        initial_field = ComplexField(initial(grid) + 0j)
        _, (series,) = evolve(initial_field, "splitting", model, SchemeParams(dt), grid, path, noise, [observer])
        norms.append(max(series))
    return norms


def _sech_15(grid):
    return 1.5 / np.cosh(grid.nodes())


@criterion(11, "global existence: the H^alpha norm is grid-converged for sigma < 2 alpha")
def test_criterion_11_global_existence():
    # the paper's first claim, from 1.5 sech(x) with eps 0.01 up to T = 2.
    # Measured: alpha 0.6 (sigma < 2 alpha) 49.24 -> 49.05 (-0.4 %), alpha
    # 0.45 (sigma > 2 alpha, where ModelParams warns) 131.1 -> 241.0 (+84 %):
    # the supercritical state concentrates further as the grid refines
    subcritical = _max_h_alpha_norms(0.6, 1.0, 0.01, 2.0, _sech_15)
    assert abs(subcritical[1] / subcritical[0] - 1.0) < 0.02
    with pytest.warns(UserWarning, match="focusing run"):
        supercritical = _max_h_alpha_norms(0.45, 1.0, 0.01, 2.0, _sech_15)
    assert supercritical[1] / supercritical[0] - 1.0 > 0.15


@criterion(12, "critical mass: below the ground state's mass the H^alpha norm is grid-converged, above it grows")
@pytest.mark.parametrize("alpha", [0.75, 0.6])
def test_criterion_12_critical_mass_threshold(alpha):
    # at the L2-critical power sigma = 2 alpha a solution with less mass than
    # the ground state Q is global (sharp Gagliardo-Nirenberg), one with more
    # may concentrate.  From c Q with eps 0.05 up to T = 4, measured: alpha
    # 0.75 at c = 0.95 3.931 -> 3.930 (-0.03 %), at c = 1.05 431 -> 1304
    # (+202 %); alpha 0.6 at c = 0.95 4.180 -> 4.179 (-0.01 %), at c = 1.05
    # 165 -> 375 (+127 %)
    def scaled(c):
        return lambda grid: c * ground_state(grid, alpha, 2 * alpha)

    with pytest.warns(UserWarning, match="focusing run"):
        below = _max_h_alpha_norms(alpha, 2 * alpha, 0.05, 4.0, scaled(0.95))
    assert abs(below[1] / below[0] - 1.0) < 0.01
    with pytest.warns(UserWarning, match="focusing run"):
        above = _max_h_alpha_norms(alpha, 2 * alpha, 0.05, 4.0, scaled(1.05))
    assert above[1] / above[0] - 1.0 > 0.5
