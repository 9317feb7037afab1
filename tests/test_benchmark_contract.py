"""The program keeps what the benchmark's traced run relies on.

``perfbench/tracing.py`` wraps every public sfnse function by name, counts
one ``splitting_step``/``midpoint_step`` and one ``increment_field`` call per
path-step, counts ``ComplexField`` constructions, re-runs sampled midpoint
steps with their positional arguments, and takes each ``build_grid`` call as
the start of one Monte Carlo path.  These tests run tiny
studies under that tracer, unchanged.
"""

import importlib.util
from pathlib import Path

import pytest

from sfnse.cli import main

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


EVOLVE = """
grid.N = 64
horizon.T = 0.1
noise.K = 10
output.snapshot_stride = 5
output.diagnostics_stride = 5
"""

CONVERGE = """
grid.N = 64
model.sigma = 0
horizon.T = 0.1
converge.base_dt = 0.01
converge.levels = 3
converge.ref_level = 4
noise.K = 10
"""


def traced_metrics(argv):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(argv) == 0
    finally:
        tracer.uninstall()
    fp_evals = tracing.count_fp_evals(tracer.midpoint_samples)
    spans = tracer.arrays()
    layers = tracing.layer_metrics(spans, tracer.entries, tracer.nonconv, fp_evals)
    grid_builds = int((spans["kind"] == list(spans["names"]).index("spectral.build_grid")).sum())
    return layers, fp_evals, grid_builds


@pytest.mark.parametrize(
    "command, text, steps, fields, paths",
    [
        # horizon.T = 0.1 at scheme.dt = 0.01; fields: the initial state, the
        # final state and the snapshots of steps 0, 5 and 10
        ("evolve", EVOLVE + "scheme.integrator = splitting\n", 10, 1 + 1 + 3, 1),
        ("evolve", EVOLVE, 10, 1 + 1 + 3, 1),
        # 2 paths x (reference 0.1 / (0.01 / 2^4) + levels 10 + 20 + 40);
        # fields per path: the initial state and the final states of 4 runs
        ("converge", CONVERGE, 2 * (160 + 10 + 20 + 40), 2 * (1 + 4), 2),
    ],
)
def test_traced_run_counts_one_step_and_one_field_per_path_step(tmp_path, command, text, steps, fields, paths):
    config = tmp_path / "run.cfg"
    config.write_text(text)
    argv = [command, "--quiet", "--config", str(config), "--out", str(tmp_path / "out")]
    if command != "evolve":  # evolve runs one trajectory and takes no --paths, as in perfbench
        argv += ["--paths", "2"]
    layers, fp_evals, grid_builds = traced_metrics(argv)  # a traced name that no longer exists raises LookupError
    assert layers["dynamics.split_calls"] + layers["dynamics.mid_calls"] == steps
    assert layers["noise.field_calls"] == steps
    assert layers["spectral.field_calls"] == fields
    assert layers["dynamics.nonconv"] == 0
    # experiments.path_s.* starts a path at each build_grid: a grid built while
    # the config is parsed or checked would skew them
    assert grid_builds == paths
    if layers["dynamics.mid_calls"]:
        assert fp_evals and min(fp_evals) >= 1
