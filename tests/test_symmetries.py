"""Symmetry oracles of the two step kernels and of ``evolve``.

Both schemes act on the periodic grid through a Fourier multiplier that is
even in k, a pointwise phase and a pointwise noise increment, so one step
commutes with three actions on (state, increment):

- gauge, v -> e^(i theta) v, with the increment unchanged;
- translation by whole nodes, v -> roll(v, s), with the increment rolled too;
- reflection j -> -j mod N, with the increment reflected too.

The stochastic midpoint rule is also time-reversible: with the same
increment, Phi(conj Phi(v)) = conj v.  The Lie splitting (nonlinear phase,
then linear flow) is not: its reversal defect is the commutator of dt L
with the phase, of size dt * sqrt(dt), so it falls with order 1.5 per step.

Every check is a callable returning a relative defect.  It takes any step
with the signature of ``midpoint_step``, so a batched kernel's rows or
another splitting can be run through the same checks.
"""

import math

import numpy as np
import pytest

from sfnse.dynamics import ModelParams, SchemeParams, evolve, midpoint_step, splitting_step
from sfnse.noise import NoiseModel, build_noise_model, increment_field, sample_wiener_path
from sfnse.spectral import ComplexField, build_grid

SHIFT = 37  # translation in nodes, coprime to both grid sizes
THETA = 0.7  # gauge angle


def gauge(v):
    return np.exp(1j * THETA) * v


def translate(a):
    # along the last axis, so it acts on a (K, N) profile table too
    return np.roll(a, SHIFT, axis=-1)


def reflect(a):
    # j -> -j mod N: node 0 stays, node j takes node N - j
    return np.roll(a[..., ::-1], 1, axis=-1)


def _unchanged(a):
    return a


# name -> (action on the state, action on the noise increment and the mode profiles)
SYMMETRIES = {
    "gauge": (gauge, _unchanged),
    "translation": (translate, translate),
    "reflection": (reflect, reflect),
}


def _relative(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def equivariance_defect(step, symmetry, v, dW, model, scheme, grid):
    """Relative distance of step(g v, g dW) from g step(v, dW) for one symmetry g."""
    on_state, on_noise = SYMMETRIES[symmetry]
    moved = step(on_state(v), on_noise(dW), model, scheme, grid)
    return _relative(moved, on_state(step(v, dW, model, scheme, grid)))


def reversal_defect(step, v, dW, model, scheme, grid):
    """Relative distance of step(conj step(v, dW), dW) from conj v."""
    back = step(np.conj(step(v, dW, model, scheme, grid)), dW, model, scheme, grid)
    return _relative(back, np.conj(v))


def evolve_equivariance_defect(integrator, symmetry, initial, model, scheme, grid, path, noise):
    """Relative distance of a run from the moved state and profiles to the moved final state."""
    on_state, on_noise = SYMMETRIES[symmetry]
    final, _ = evolve(initial, integrator, model, scheme, grid, path, noise)
    moved_noise = NoiseModel(noise.epsilon, on_noise(noise.mode_profiles))
    moved, _ = evolve(ComplexField(on_state(initial.values)), integrator, model, scheme, grid, path, moved_noise)
    return _relative(moved.values, on_state(final.values))


def _setting(N, sigma, dt=0.01, steps=1):
    # [-20, 20), alpha 0.6, focusing, eps 0.05 on K = 100 sin profiles, state 1.5 sech(x) e^(0.7ix)
    grid = build_grid(-20.0, 20.0, N)
    model = ModelParams(alpha=0.6, lam=-1.0, sigma=sigma)
    scheme = SchemeParams(dt=dt)
    noise = build_noise_model(100, grid, epsilon=0.05)
    path = sample_wiener_path(noise, steps, dt, seed=2024)
    x = grid.nodes()
    initial = ComplexField(1.5 / np.cosh(x) * np.exp(0.7j * x))
    return grid, model, scheme, noise, path, initial


KERNELS = {"midpoint": midpoint_step, "splitting": splitting_step}


@pytest.mark.parametrize("symmetry", sorted(SYMMETRIES))
@pytest.mark.parametrize("sigma", [0.0, 1.0])
@pytest.mark.parametrize("N", [64, 400])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_one_step_equivariance(kernel, N, sigma, symmetry):
    grid, model, scheme, noise, path, initial = _setting(N, sigma)
    dW = increment_field(path, 0, noise)
    assert equivariance_defect(KERNELS[kernel], symmetry, initial.values, dW, model, scheme, grid) < 1e-13


@pytest.mark.parametrize("sigma", [0.0, 1.0])
@pytest.mark.parametrize("N", [64, 400])
def test_midpoint_is_time_reversible(N, sigma):
    grid, model, scheme, noise, path, initial = _setting(N, sigma)
    dW = increment_field(path, 0, noise)
    assert reversal_defect(midpoint_step, initial.values, dW, model, scheme, grid) < 1e-13


def test_lie_splitting_reversal_defect_has_order_one_and_a_half():
    # the same seed scales the same normal deviates by sqrt(dt), so dW ~ sqrt(dt) exactly;
    # a Lie kernel that turned symmetric by accident would lose the defect and fail here
    dts = (0.01, 0.005, 0.0025)
    defects = []
    for dt in dts:
        grid, model, scheme, noise, path, initial = _setting(400, 1.0, dt=dt)
        dW = increment_field(path, 0, noise)
        defects.append(reversal_defect(splitting_step, initial.values, dW, model, scheme, grid))
    slope = np.polyfit(np.log(dts), np.log(defects), 1)[0]
    assert all(math.isfinite(d) and d > 1e-6 for d in defects)
    assert abs(slope - 1.5) <= 0.15


@pytest.mark.parametrize("symmetry", sorted(SYMMETRIES))
@pytest.mark.parametrize("integrator", sorted(KERNELS))
def test_evolve_equivariance(integrator, symmetry):
    # 100 steps, every increment built from the moved profiles by the block products of increment_field
    grid, model, scheme, noise, path, initial = _setting(400, 1.0, steps=100)
    assert evolve_equivariance_defect(integrator, symmetry, initial, model, scheme, grid, path, noise) < 1e-12
