"""Peak memory tracks a run's state and noise table, not its output.

Peaks are read with the standard library's ``tracemalloc``, which numpy
reports its array buffers to; each bound sits between the bounded-memory
build and the whole-array build it replaced.
"""

import tracemalloc

import numpy as np
import pytest

from sfnse.cli import main
from sfnse.config import parse_config
from sfnse.errors import DomainError
from sfnse.experiments import run_convergence_study
from sfnse.noise import _FIELD_ROWS, MAX_TABLE_ENTRIES, _check_increment_table, _check_profile_table
from sfnse.noise import build_noise_model, coarsen_path, increment_field, sample_wiener_path
from sfnse.output import read_snapshot
from sfnse.spectral import build_grid

MB = 2**20


def traced_peak(fn):
    """Bytes allocated at the peak of ``fn()`` above what was live before it."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return tracemalloc.get_traced_memory()[1] - before, result
    finally:
        tracemalloc.stop()


def test_sampling_peaks_at_the_table_plus_one_block():
    # 10^6 entries: one pass held raw words, uniforms, deviates and the scaled
    # copy at once (about 3.3 tables); block by block it is the table plus
    # one block's temporaries
    model = build_noise_model(10, build_grid(0.0, 40.0, 64))
    peak, path = traced_peak(lambda: sample_wiener_path(model, 10**5, 0.01, seed=3))
    table = path.increments.nbytes
    assert table >= 8 * 10**6
    assert peak < table + 3 * MB


def test_profiles_peak_at_the_table():
    # sin(pi l x) / l as one expression held two (K, N) arrays at once
    grid = build_grid(0.0, 40.0, 2048)
    for profile in ("sin", "unit"):
        peak, model = traced_peak(lambda: build_noise_model(500, grid, profile=profile))
        table = model.mode_profiles.nbytes
        assert peak < table + 1 * MB


def test_tables_past_the_cap_are_refused_before_they_are_built():
    # a table at the cap is admitted (checked without building it, 256 MiB); one
    # entry past it is refused with under 1 MB allocated.  On an even grid the
    # smallest profile table past the cap is 2^25 + 2 entries: 65281 modes on 514 nodes
    _check_increment_table(MAX_TABLE_ENTRIES, 1, "a path")
    _check_profile_table(MAX_TABLE_ENTRIES // 512, 512)
    one_mode = build_noise_model(1, build_grid(0.0, 40.0, 64))
    wide = build_grid(0.0, 40.0, 514)
    assert 65281 * wide.N == MAX_TABLE_ENTRIES + 2
    for build, message in (
        (lambda: sample_wiener_path(one_mode, MAX_TABLE_ENTRIES + 1, 0.01, seed=1), "increment table above"),
        (lambda: build_noise_model(65281, wide), "K=65281 modes on N=514 nodes need over"),
    ):
        peak, refusal = traced_peak(lambda: pytest.raises(DomainError, build))
        assert refusal.match(message)
        assert peak < 1 * MB


def test_coarsening_peaks_at_the_coarse_table_plus_one_block():
    # a 13 MB table: halving the whole table at once held 9.5 MB of
    # intermediate tables whatever the factor; block by block the peak is
    # the coarse table plus one block's cascade
    model = build_noise_model(100, build_grid(0.0, 40.0, 64))
    path = sample_wiener_path(model, 2**14, 0.01, seed=4)
    for factor in (4, 32):
        peak, coarse = traced_peak(lambda: coarsen_path(path, factor))
        assert peak < coarse.increments.nbytes + 3 * MB


def test_field_blocks_peak_at_one_block():
    # stepping through a 1000-step path at N = 4096 keeps one block of fields,
    # never the path's whole (1000, N) field table
    grid = build_grid(0.0, 40.0, 4096)
    model = build_noise_model(10, grid, epsilon=0.01)
    path = sample_wiener_path(model, 1000, 0.01, seed=5)

    def fields():
        for n in range(path.steps):
            increment_field(path, n, model, grid)

    peak, _ = traced_peak(fields)
    assert peak < _FIELD_ROWS * grid.N * 8 + 1 * MB


def test_evolve_peak_does_not_grow_with_its_snapshots(tmp_path):
    # 201 snapshots of N = 1024 are 3.2 MB of states; written as they fire,
    # none of them is held, so the run peaks below half of that
    n, snapshots = 1024, 201
    config = tmp_path / "evolve.cfg"
    config.write_text(
        f"grid.N = {n}\nnoise.K = 10\nhorizon.T = 2\nscheme.integrator = splitting\n"
        "output.snapshot_stride = 1\noutput.diagnostics_stride = 10\n"
    )
    out = tmp_path / "out"
    peak, code = traced_peak(lambda: main(["evolve", "--quiet", "--config", str(config), "--out", str(out)]))
    assert code == 0
    written = sorted(out.glob("snapshot_*.sfns"))
    assert len(written) == snapshots
    assert peak < 0.5 * snapshots * n * np.dtype(np.complex128).itemsize
    _, last = read_snapshot(written[-1])
    assert np.all(np.isfinite(last.values))


def test_converge_reference_store_does_not_grow_with_the_horizon():
    # a path keeps one window of 16 coarsest steps of reference states: 257 of
    # N = 512 at levels 5, at T = 0.16 (one window) and T = 0.64 (four) alike.
    # Storing the whole trajectory held 768 more of them (6.3 MB) at T = 0.64
    def path_peak(horizon):
        text = f"grid.N = 512\nnoise.K = 10\nhorizon.T = {horizon}\nconverge.levels = 5\nconverge.n_paths = 1\n"
        config = parse_config(text)
        peak, _ = traced_peak(lambda: run_convergence_study(config))
        fine_steps = round(horizon / config.converge_base_dt) * 2**config.converge_ref_level
        return peak, fine_steps * config.noise_k * np.dtype(np.float64).itemsize

    path_peak(0.16)  # a first run also fills the caches that later runs share
    (short, short_table), (long, long_table) = path_peak(0.16), path_peak(0.64)
    assert long - short < (long_table - short_table) + 1 * MB
