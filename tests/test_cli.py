import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sfnse import cli, errors, experiments
from sfnse.cli import main
from sfnse.config import parse_config
from sfnse.diagnostics import energy, mass
from sfnse.dynamics import ModelParams
from sfnse.output import read_snapshot

FAST_EVOLVE = """
grid.N = 64
model.epsilon = 0.01
horizon.T = 0.1
noise.K = 10
output.snapshot_stride = 5
output.diagnostics_stride = 5
"""

FAST_MASS = """
grid.N = 64
model.epsilon = 0.01
horizon.T = 0.2
mass.alphas = 0.6, 0.9
mass.sample_dt = 0.1
noise.K = 10
"""

FAST_CONVERGE = """
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
converge.n_paths = 4
noise.K = 10
"""

FAST_ENERGY = """
grid.N = 64
model.alpha = 0.6
model.lambda = -1
model.sigma = 0
model.epsilon = 0.05
horizon.T = 0.2
energy.n_paths = 2
energy.stride = 5
noise.K = 10
"""


def run_cli(argv, tmp_path, config_text=None, env_seed=None):
    args = list(argv)
    if config_text is not None:
        config = tmp_path / "run.cfg"
        config.write_text(config_text)
        args += ["--config", str(config)]
    if "--out" not in args:
        args += ["--out", str(tmp_path / "out")]
    old = os.environ.pop("SFNSE_SEED", None)
    if env_seed is not None:
        os.environ["SFNSE_SEED"] = env_seed
    try:
        return main(args)
    finally:
        os.environ.pop("SFNSE_SEED", None)
        if old is not None:
            os.environ["SFNSE_SEED"] = old


class TestSubcommands:
    def test_evolve_writes_diagnostics_and_snapshots(self, tmp_path, capsys):
        code = run_cli(["evolve", "--quiet"], tmp_path, FAST_EVOLVE)
        assert code == 0
        out = tmp_path / "out"
        diag = (out / "evolve_diagnostics.csv").read_text()
        assert diag.splitlines()[0] == "time,mass,energy,max_amplitude"
        assert len(diag.splitlines()) == 1 + 3  # t = 0, 0.05, 0.1
        snaps = sorted(out.glob("snapshot_*.sfns"))
        assert [s.name for s in snaps] == ["snapshot_000000.sfns", "snapshot_000005.sfns", "snapshot_000010.sfns"]
        grid, field = read_snapshot(snaps[-1])
        assert np.all(np.isfinite(field.values))
        # the last row is (t, mass, energy, max |u|) of the last snapshot's state, to the bit
        config = parse_config(FAST_EVOLVE)
        model = ModelParams(config.alpha, config.lam, config.sigma)
        v = field.values
        expected = (field.time, mass(v, grid), energy(v, grid, model), np.max(np.abs(v)))
        assert tuple(float(x) for x in diag.splitlines()[-1].split(",")) == expected
        assert capsys.readouterr().out == ""

    def test_mass_table(self, tmp_path):
        assert run_cli(["mass-table", "--quiet"], tmp_path, FAST_MASS) == 0
        text = (tmp_path / "out" / "mass_table.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == "time,alpha,mass"
        assert len(lines) == 1 + 6

    def test_converge(self, tmp_path):
        assert run_cli(["converge", "--quiet"], tmp_path, FAST_CONVERGE) == 0
        lines = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
        assert lines[0] == "dt,error,ci_halfwidth,order"
        assert len(lines) == 1 + 3
        assert lines[-1].endswith(",")  # finest level has no order entry

    def test_energy(self, tmp_path):
        assert run_cli(["energy", "--quiet"], tmp_path, FAST_ENERGY) == 0
        lines = (tmp_path / "out" / "energy_ensemble.csv").read_text().splitlines()
        assert lines[0] == "time,path_0,path_1,mean"

    def test_converge_stdout_reads_the_csv_columns(self, tmp_path, capsys):
        assert run_cli(["converge"], tmp_path, FAST_CONVERGE) == 0
        out = tmp_path / "out" / "convergence.csv"
        table = [line.split(",") for line in out.read_text().splitlines()[1:]]
        errors = ["%.4g" % float(row[1]) for row in table]
        orders = ["%.3f" % float(row[3]) for row in table[:-1]]
        assert capsys.readouterr().out.splitlines() == [f"errors: {errors}", f"orders: {orders}", f"wrote {out}"]

    def test_energy_stdout_counts_rows_and_paths(self, tmp_path, capsys):
        assert run_cli(["energy"], tmp_path, FAST_ENERGY) == 0
        out = tmp_path / "out" / "energy_ensemble.csv"
        rows = len(out.read_text().splitlines()) - 1
        assert rows == 5  # t = 0, 0.05, ..., 0.2
        assert capsys.readouterr().out.splitlines() == [f"wrote {out} ({rows} rows x 2 paths)"]

    def test_only_the_four_studies(self, capsys):
        # the removed selftest battery is refused like any unknown subcommand
        assert main(["selftest"]) == 1
        assert "invalid choice: 'selftest'" in capsys.readouterr().err
        for command in ("evolve", "mass-table", "converge", "energy"):
            with pytest.raises(SystemExit) as exit_info:
                main([command, "--help"])
            assert exit_info.value.code == 0


class TestExitCodes:
    def test_bad_config_value(self, tmp_path, capsys):
        # a sample interval whose step count overflows a float
        overflow = FAST_MASS.replace("mass.sample_dt = 0.1", "mass.sample_dt = 1e300\nscheme.dt = 1e-10")
        # reference steps base_dt / 2^ref_level: 2^1100 is no float, and 1e-300 / 2^100 rounds to 0
        deep = FAST_CONVERGE.replace("converge.levels = 3", "converge.levels = 2")
        beyond = deep.replace("converge.ref_level = 4", "converge.ref_level = 1100")
        tiny = deep.replace("converge.ref_level = 4", "converge.ref_level = 100").replace(
            "converge.base_dt = 0.01", "converge.base_dt = 1e-300"
        )
        one_level = FAST_CONVERGE.replace("converge.levels = 3", "converge.levels = 1")
        coarse_ref = FAST_CONVERGE.replace("converge.ref_level = 4", "converge.ref_level = 2")
        # a sampling interval longer than the run (T = 0.2 is 20 steps) would sample t = 0 alone
        long_sample = FAST_MASS.replace("mass.sample_dt = 0.1", "mass.sample_dt = 20")
        long_stride = FAST_ENERGY.replace("energy.stride = 5", "energy.stride = 21")
        long_diag = FAST_EVOLVE.replace("output.diagnostics_stride = 5", "output.diagnostics_stride = 50")
        long_snap = FAST_EVOLVE.replace("output.snapshot_stride = 5", "output.snapshot_stride = 50")
        # T = 0.1 is no whole number of 0.03 steps; the fine dt 0.03 / 16 is named through base_dt
        uneven = FAST_CONVERGE.replace("converge.base_dt = 0.01", "converge.base_dt = 0.03")
        # mu = 2 pi / 1e-320 overflows, and with it every Fourier multiplier
        short = FAST_EVOLVE.replace("grid.N = 64", "grid.a = 0\ngrid.b = 1e-320\ngrid.N = 8")
        for command, text, key in (
            ("mass-table", "model.alpha = 1.5", "model.alpha"),
            ("mass-table", overflow, "mass.sample_dt"),
            ("mass-table", long_sample, "mass.sample_dt"),
            ("energy", long_stride, "energy.stride"),
            ("evolve", long_diag, "output.diagnostics_stride"),
            ("evolve", long_snap, "output.snapshot_stride"),
            ("converge", uneven, "converge.base_dt"),
            ("converge", beyond, "converge.ref_level"),
            ("converge", tiny, "converge.ref_level"),
            ("converge", one_level, "converge.levels"),
            ("converge", coarse_ref, "converge.ref_level"),
            ("evolve", short, "grid.b"),
        ):
            assert run_cli([command, "--quiet"], tmp_path, text) == 1
            assert capsys.readouterr().err.startswith(f"error: {key}: ")

    def test_uneven_sample_interval_names_its_own_value(self, tmp_path, capsys):
        uneven = FAST_MASS.replace("mass.sample_dt = 0.1", "mass.sample_dt = 0.015")
        assert run_cli(["mass-table", "--quiet"], tmp_path, uneven) == 1
        err = capsys.readouterr().err
        assert err == "error: mass.sample_dt: 0.015 is not an integral number of steps of dt=0.01\n"

    def test_every_error_class_has_one_exit_code(self, monkeypatch, capsys):
        # the exception types of main's except clauses, read from its source
        source = ast.parse(inspect.getsource(main))
        handlers = [
            eval(ast.unparse(node.type), vars(cli)) for node in ast.walk(source) if isinstance(node, ast.ExceptHandler)
        ]
        samples = {
            errors.DomainError: (errors.DomainError("bad"), 1, "error: "),
            errors.ValidationError: (errors.ValidationError("model.alpha", "bad"), 1, "error: "),
            errors.ParseError: (errors.ParseError(1, 1, "bad"), 1, "error: "),
            errors.NonConvergence: (errors.NonConvergence("bad", 3, 1.0, step=2), 2, "numerical failure at step 2: "),
            errors.IoError: (errors.IoError("out", "bad"), 3, "i/o error: "),
        }
        defined = {cls for cls in vars(errors).values() if inspect.isclass(cls) and cls.__module__ == errors.__name__}
        assert defined == set(samples)
        for cls, (exc, code, prefix) in samples.items():
            assert sum(issubclass(cls, handler) for handler in handlers) == 1, cls

            def fail(args, exc=exc):
                raise exc

            monkeypatch.setitem(cli._COMMANDS, "evolve", (fail, "", ()))
            assert main(["evolve"]) == code
            assert capsys.readouterr().err.startswith(prefix)

    def test_unknown_key(self, tmp_path, capsys):
        # a removed key (experiments.workers) is refused like any unknown key, not ignored
        for key, value in (("model.alhpa", "0.5"), ("experiments.workers", "2")):
            assert run_cli(["mass-table"], tmp_path, f"{key} = {value}") == 1
            assert f"unknown config key {key!r}" in capsys.readouterr().err

    def test_parse_error_names_the_config_file(self, tmp_path, monkeypatch, capsys):
        # SFNSE_SEED and the flags are inputs too, so a bad line says which file it is in
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.cfg").write_text("model.alhpa = 1\n")
        assert main(["evolve", "--config", "bad.cfg"]) == 1
        assert capsys.readouterr().err == "error: bad.cfg: line 1, column 1: unknown config key 'model.alhpa'\n"

    def test_config_not_utf8(self, tmp_path, monkeypatch, capsys):
        # a byte that is no UTF-8 is a malformed config, named by its file like a bad line
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.cfg").write_bytes(b"grid.N = 64\n\xff\n")
        assert main(["evolve", "--config", "bad.cfg", "--quiet"]) == 1
        assert capsys.readouterr().err.startswith("error: bad.cfg: 'utf-8' codec can't decode byte 0xff")
        assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]

    def test_empty_config_path_refused(self, tmp_path, monkeypatch, capsys):
        # Path("") is the working directory: reading it would be an i/o error, not a usage error
        monkeypatch.chdir(tmp_path)
        assert main(["evolve", "--config", "", "--quiet"]) == 1
        assert capsys.readouterr().err == "error: --config: empty value\n"
        assert not list(tmp_path.iterdir())

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["mass-table", "--config", str(tmp_path / "absent.cfg")])
        assert code == 3

    def test_usage_error(self, capsys):
        # --paths belongs to converge and energy only; a flag without its value or an unknown flag is refused
        for argv in (
            ["mass-table", "--paths"],
            ["energy", "--paths"],
            ["converge", "--bogus"],
            ["mass-table", "--config"],
            ["evolve", "--paths", "2"],
            ["mass-table", "--paths", "2"],
        ):
            assert main(argv) == 1
            assert capsys.readouterr().err.startswith("error: ")

    def test_non_finite_config_value(self, tmp_path, capsys):
        assert run_cli(["evolve", "--quiet"], tmp_path, FAST_EVOLVE + "model.lambda = nan\n") == 1
        err = capsys.readouterr().err
        assert "model.lambda" in err
        assert "numerical failure" not in err

    def test_huge_horizon_refused_before_any_table(self, tmp_path, capsys, monkeypatch):
        def no_table(*args, **kwargs):
            raise AssertionError("increment table allocated")

        monkeypatch.setattr(experiments, "sample_wiener_path", no_table)
        # K = 10 and dt = 0.01: one step past the guard, then a horizon whose step count has 303 digits
        just_over = 0.01 * (experiments.MAX_TABLE_ENTRIES // 10 + 1)
        for command, text in (
            ("evolve", FAST_EVOLVE),
            ("mass-table", FAST_MASS),
            ("converge", FAST_CONVERGE),
            ("energy", FAST_ENERGY),
        ):
            for horizon in (just_over, 1e300):
                huge = re.sub(r"horizon\.T = \S+", f"horizon.T = {horizon!r}", text)
                assert run_cli([command, "--quiet"], tmp_path, huge) == 1
                assert "horizon.T" in capsys.readouterr().err
        # one step of K = 2^25 modes passes the increment-table guard; its K x N profile table does not
        monkeypatch.setattr(experiments, "build_noise_model", no_table)
        for command, text in (("evolve", FAST_EVOLVE), ("mass-table", FAST_MASS), ("energy", FAST_ENERGY)):
            wide = re.sub(r"horizon\.T = \S+", "horizon.T = 0.01", text)
            wide = wide.replace("grid.N = 64", "grid.N = 4096")
            wide = wide.replace("noise.K = 10", f"noise.K = {experiments.MAX_TABLE_ENTRIES}")
            assert run_cli([command, "--quiet"], tmp_path, wide) == 1
            assert "noise.K" in capsys.readouterr().err

    def test_converge_long_horizon_admitted(self, tmp_path, monkeypatch):
        # a path keeps one window of reference states, 16 * 2^(levels - 1) + 1 = 65 here,
        # so N = 4096 at T = 10.24 (4097 states of the whole horizon, past 2^24 entries) runs
        monkeypatch.setattr(experiments, "_convergence_path_errors", lambda *args: np.ones(3))
        wide = FAST_CONVERGE.replace("grid.N = 64", "grid.N = 4096")
        assert run_cli(["converge", "--quiet"], tmp_path, wide.replace("horizon.T = 0.1", "horizon.T = 10.24")) == 0

    def test_converge_window_store_guard(self, tmp_path, capsys, monkeypatch):
        # at levels 9 a window of 16 coarsest steps keeps 16 * 2^8 + 1 = 4097 states of N = 4096,
        # past 2^24 complex entries: refused before any table, naming the key; levels 8 keep 2049
        def no_table(*args, **kwargs):
            raise AssertionError("increment table allocated")

        monkeypatch.setattr(experiments, "sample_wiener_path", no_table)
        wide = FAST_CONVERGE.replace("grid.N = 64", "grid.N = 4096").replace("horizon.T = 0.1", "horizon.T = 0.16")
        deep = wide.replace("converge.ref_level = 4", "converge.ref_level = 9")
        assert run_cli(["converge", "--quiet"], tmp_path, deep.replace("converge.levels = 3", "converge.levels = 9")) == 1
        assert capsys.readouterr().err.startswith("error: converge.levels: 9 levels keep 4097 reference states")
        monkeypatch.setattr(experiments, "_convergence_path_errors", lambda *args: np.ones(8))
        assert run_cli(["converge", "--quiet"], tmp_path, deep.replace("converge.levels = 3", "converge.levels = 8")) == 0

    def test_refused_config_builds_nothing(self, tmp_path, capsys, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("grid or increment table built")

        monkeypatch.setattr(experiments, "build_grid", no_build)
        monkeypatch.setattr(experiments, "sample_wiener_path", no_build)
        long_diag = FAST_EVOLVE.replace("output.diagnostics_stride = 5", "output.diagnostics_stride = 50")
        for command, text, key in (
            ("mass-table", FAST_MASS.replace("mass.sample_dt = 0.1", "mass.sample_dt = 20"), "mass.sample_dt"),
            ("energy", FAST_ENERGY.replace("energy.stride = 5", "energy.stride = 21"), "energy.stride"),
            ("evolve", long_diag, "output.diagnostics_stride"),
            ("converge", FAST_CONVERGE.replace("base_dt = 0.01", "base_dt = 0.03"), "converge.base_dt"),
        ):
            assert run_cli([command, "--quiet"], tmp_path, text) == 1
            assert capsys.readouterr().err.startswith(f"error: {key}: ")

    def test_nonconvergence_exit(self, tmp_path, capsys):
        config = """
grid.N = 64
model.sigma = 2
model.epsilon = 0
horizon.T = 2
scheme.dt = 1
scheme.fp_max_iter = 5
noise.K = 4
output.snapshot_stride = 0
output.diagnostics_stride = 1
"""
        code = run_cli(["evolve", "--quiet"], tmp_path, config)
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_failed_evolve_leaves_the_snapshots_it_reached(self, tmp_path, capsys):
        # six fixed-point evaluations certify steps 0..3 of this noisy run, not step 4
        config = """
grid.N = 64
noise.K = 10
model.epsilon = 1
horizon.T = 0.2
scheme.fp_tol = 3e-5
scheme.fp_max_iter = 6
output.snapshot_stride = 2
output.diagnostics_stride = 2
"""
        code = run_cli(["evolve", "--quiet"], tmp_path, config)
        assert code == 2
        assert capsys.readouterr().err.startswith("numerical failure at step 4: ")
        # snapshots are written as they fire: those of steps 0, 2 and 4 are on
        # disk, the diagnostics table (written after the run) is not
        out = tmp_path / "out"
        assert sorted(p.name for p in out.iterdir()) == [
            "snapshot_000000.sfns",
            "snapshot_000002.sfns",
            "snapshot_000004.sfns",
        ]
        _, field = read_snapshot(out / "snapshot_000004.sfns")
        assert field.time == 0.01 + 0.01 + 0.01 + 0.01
        assert np.all(np.isfinite(field.values))


class TestEnsembleFailure:
    def test_nonconvergence_reported_alike_across_runs(self, tmp_path, capsys):
        # a path's NonConvergence reaches the CLI with its step intact
        config = """
grid.N = 64
noise.K = 10
scheme.dt = 5
horizon.T = 10
scheme.fp_max_iter = 3
energy.n_paths = 2
energy.stride = 1
"""
        results = []
        for _ in range(2):
            code = run_cli(["energy", "--quiet"], tmp_path, config)
            results.append((code, capsys.readouterr().err))
        assert results[0] == results[1]
        assert results[0][0] == 2
        assert results[0][1].startswith("numerical failure at step 0: ")


class TestSeedPlumbing:
    def test_env_seed_changes_output(self, tmp_path):
        run_cli(["energy", "--quiet", "--out", str(tmp_path / "a")], tmp_path, FAST_ENERGY)
        run_cli(["energy", "--quiet", "--out", str(tmp_path / "b")], tmp_path, FAST_ENERGY, env_seed="999")
        run_cli(["energy", "--quiet", "--out", str(tmp_path / "c")], tmp_path, FAST_ENERGY, env_seed="999")
        a = (tmp_path / "a" / "energy_ensemble.csv").read_bytes()
        b = (tmp_path / "b" / "energy_ensemble.csv").read_bytes()
        c = (tmp_path / "c" / "energy_ensemble.csv").read_bytes()
        assert a != b
        assert b == c

    def test_seed_flag_beats_env(self, tmp_path):
        run_cli(["energy", "--quiet", "--seed", "7", "--out", str(tmp_path / "a")], tmp_path, FAST_ENERGY, env_seed="999")
        run_cli(["energy", "--quiet", "--seed", "7", "--out", str(tmp_path / "b")], tmp_path, FAST_ENERGY)
        a = (tmp_path / "a" / "energy_ensemble.csv").read_bytes()
        b = (tmp_path / "b" / "energy_ensemble.csv").read_bytes()
        assert a == b

    def test_seed_above_64_bits_rejected(self, tmp_path, capsys):
        too_big = str(2**64)
        cases = [
            ("noise.seed", [], FAST_EVOLVE + f"noise.seed = {too_big}\n", None),
            ("SFNSE_SEED", [], FAST_EVOLVE, too_big),
            ("--seed", ["--seed", too_big], FAST_EVOLVE, None),
        ]
        for key, flags, text, env_seed in cases:
            assert run_cli(["evolve", "--quiet", *flags], tmp_path, text, env_seed=env_seed) == 1
            assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_largest_seed_accepted_everywhere(self, tmp_path):
        top = str(2**64 - 1)
        cases = [
            ([], FAST_EVOLVE + f"noise.seed = {top}\n", None),
            ([], FAST_EVOLVE, top),
            (["--seed", top], FAST_EVOLVE, None),
        ]
        outputs = []
        for i, (flags, text, env_seed) in enumerate(cases):
            out = tmp_path / f"out{i}"
            assert run_cli(["evolve", "--quiet", "--out", str(out), *flags], tmp_path, text, env_seed=env_seed) == 0
            outputs.append((out / "evolve_diagnostics.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_bad_override_names_its_source(self, tmp_path, monkeypatch, capsys):
        # an empty --out would be the working directory; like output.dir = it is refused
        monkeypatch.chdir(tmp_path)
        for flags, env_seed, name in (
            (["--paths", "0"], None, "--paths"),
            (["--paths", "2.5"], None, "--paths"),
            (["--seed", "-1"], None, "--seed"),
            (["--seed", "12x"], None, "--seed"),
            (["--out", ""], None, "--out"),
            ([], "12x", "SFNSE_SEED"),
            ([], "-5", "SFNSE_SEED"),
        ):
            assert run_cli(["energy", "--quiet", *flags], tmp_path, FAST_ENERGY, env_seed=env_seed) == 1
            assert capsys.readouterr().err.startswith(f"error: {name}: ")
        assert not (tmp_path / "out").exists()
        assert not list(tmp_path.glob("*.csv"))

    def test_paths_flag_overrides(self, tmp_path):
        run_cli(["energy", "--quiet", "--paths", "3"], tmp_path, FAST_ENERGY)
        header = (tmp_path / "out" / "energy_ensemble.csv").read_text().splitlines()[0]
        assert header == "time,path_0,path_1,path_2,mean"


def _src_env():
    # child interpreters find the package from the source tree, installed or not
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_console_entry_point(tmp_path):
    (tmp_path / "run.cfg").write_text(FAST_EVOLVE)
    result = subprocess.run(
        [sys.executable, "-m", "sfnse.cli", "evolve", "--config", "run.cfg", "--out", "out"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=_src_env(),
    )
    assert result.returncode == 0, result.stderr
    csv = tmp_path / "out" / "evolve_diagnostics.csv"
    assert csv.read_text().splitlines()[0] == "time,mass,energy,max_amplitude"
    assert f"wrote {Path('out') / 'evolve_diagnostics.csv'}" in result.stdout


def test_package_imports_only_numpy_and_stdlib(tmp_path):
    # diffed against what the interpreter loaded before the import: site
    # hooks may already have pulled in third-party modules of their own.
    # _sysconfigdata_* is the stdlib's generated sysconfig table, which
    # stdlib_module_names does not list
    probe = (
        "import sys\n"
        "before = {m.split('.')[0] for m in sys.modules}\n"
        "import sfnse, sfnse.cli\n"
        "new = {m.split('.')[0] for m in sys.modules} - before\n"
        "new -= {'sfnse', 'numpy'} | set(sys.stdlib_module_names)\n"
        "print(sorted(m for m in new if not m.startswith('_sysconfigdata')))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=_src_env(),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


PUBLIC_NAMES = [
    "ComplexField",
    "GridSpec",
    "ModelParams",
    "NoiseModel",
    "Observer",
    "RunConfig",
    "SchemeParams",
    "WienerPath",
    "build_grid",
    "build_noise_model",
    "coarsen_path",
    "energy",
    "evolve",
    "increment_field",
    "l2_error",
    "mass",
    "midpoint_step",
    "parse_config",
    "read_snapshot",
    "run_convergence_study",
    "run_energy_ensemble",
    "run_evolution",
    "run_mass_table",
    "sample_wiener_path",
    "sech_carrier_initial",
    "splitting_step",
    "transform",
    "write_csv",
    "write_default_config",
    "write_snapshot",
]


def test_public_surface_is_pinned():
    # adding or dropping a public name takes a deliberate edit of this list
    import sfnse

    assert len(PUBLIC_NAMES) == 30 and PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert sfnse.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(sfnse, name) is not None


def test_cli_import_loads_no_process_pool(tmp_path):
    # paths run in one process, so start-up should not pay for multiprocessing
    probe = "import sys, sfnse.cli; print('concurrent.futures' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=_src_env(),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
