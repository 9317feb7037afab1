"""Command-line entry points.

Subcommands: ``evolve`` (single trajectory plus diagnostics), ``mass-table``,
``converge``, ``energy``, and ``selftest`` (quick operator/property battery).
Exit codes: 0 success, 1 usage or config error (``_USAGE_ERRORS``), 2
numerical failure (``NonConvergence``), 3 I/O error (``IoError``, ``OSError``).
SFNSE_SEED overrides the config seed and --seed overrides both; every
override is text, parsed like its config key (``config._override``), and a
--config line that does not parse is reported after the file's name.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import experiments
from .config import RunConfig, _override, parse_config, write_default_config
from .diagnostics import mass
from .dynamics import ModelParams, SchemeParams, evolve, midpoint_step
from .errors import DomainError, IoError, NonConvergence, ParseError, ValidationError
from .noise import build_noise_model, coarsen_path, sample_wiener_path
from .output import write_csv, write_snapshot
from .spectral import ComplexField, apply_frac_laplacian, build_grid


class _UsageError(Exception):
    pass


_USAGE_ERRORS = (_UsageError, ParseError, ValidationError, DomainError)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the CLI contract wants 1
    def error(self, message):
        raise _UsageError(message)


_FLAGS = {
    "--config": dict(help="config file path"),
    "--seed": dict(help="override the noise seed"),
    "--out": dict(help="output directory"),
    "--quiet": dict(action="store_true", help="suppress progress output"),
    "--paths": dict(help="override the Monte Carlo path count"),
}
_RUN_FLAGS = ("--config", "--seed", "--out", "--quiet")


def _build_parser() -> _Parser:
    parser = _Parser(prog="sfnse", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        for flag in flags:
            cmd.add_argument(flag, **_FLAGS[flag])
    return parser


def _load_config(args) -> RunConfig:
    config = RunConfig()
    if args.config is not None:
        if not args.config:  # Path("") is the working directory
            raise ValidationError("--config", "empty value")
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise IoError(args.config, str(exc)) from exc
        try:
            config = parse_config(text)
        except ParseError as exc:
            raise _UsageError(f"{args.config}: {exc}") from None
    env_seed = os.environ.get("SFNSE_SEED")
    if env_seed is not None:
        config = _override(config, "SFNSE_SEED", env_seed, "noise_seed")
    if args.seed is not None:
        config = _override(config, "--seed", args.seed, "noise_seed")
    if getattr(args, "paths", None) is not None:
        config = _override(config, "--paths", args.paths, "converge_n_paths", "energy_n_paths")
    if args.out is not None:
        config = _override(config, "--out", args.out, "out_dir")
    return config


def _out_dir(config: RunConfig) -> Path:
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(out, str(exc)) from exc
    return out


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _cmd_evolve(args) -> int:
    config = _load_config(args)
    out = _out_dir(config)
    # each snapshot is written as the run reaches it, so a failed run leaves the ones before it
    grid, final, records = experiments.run_evolution(
        config, lambda step, field, grid: write_snapshot(out / f"snapshot_{step:06d}.sfns", field, grid)
    )
    rows = [(t, rec.mass, rec.energy, rec.max_amplitude) for _, t, rec in records["diag"]]
    write_csv(out / "evolve_diagnostics.csv", ["time", "mass", "energy", "max_amplitude"], rows)
    _say(args, f"evolved to t={final.time:.6g}; mass={mass(final.values, grid):.12g}")
    _say(args, f"wrote {out / 'evolve_diagnostics.csv'}")
    return 0


def _cmd_mass_table(args) -> int:
    config = _load_config(args)
    out = _out_dir(config)
    rows = experiments.run_mass_table(config)
    write_csv(out / "mass_table.csv", ["time", "alpha", "mass"], rows)
    _say(args, f"wrote {out / 'mass_table.csv'} ({len(rows)} rows)")
    return 0


def _cmd_converge(args) -> int:
    config = _load_config(args)
    out = _out_dir(config)
    report = experiments.run_convergence_study(config)
    rows = []
    for r, dt in enumerate(report.dts):
        order = report.orders[r] if r < len(report.orders) else ""
        rows.append((dt, report.errors[r], report.ci_halfwidths[r], order))
    write_csv(out / "convergence.csv", ["dt", "error", "ci_halfwidth", "order"], rows)
    _say(args, f"errors: {['%.4g' % e for e in report.errors]}")
    _say(args, f"orders: {['%.3f' % o for o in report.orders]}")
    _say(args, f"wrote {out / 'convergence.csv'}")
    return 0


def _cmd_energy(args) -> int:
    config = _load_config(args)
    out = _out_dir(config)
    report = experiments.run_energy_ensemble(config)
    header = ["time"] + [f"path_{i}" for i in range(report.per_path_energy.shape[0])] + ["mean"]
    rows = [
        (t, *report.per_path_energy[:, j], report.mean_energy[j])
        for j, t in enumerate(report.times)
    ]
    write_csv(out / "energy_ensemble.csv", header, rows)
    _say(args, f"wrote {out / 'energy_ensemble.csv'} ({len(rows)} rows x {report.per_path_energy.shape[0]} paths)")
    return 0


def _selftest_checks():
    rng = np.random.default_rng(20240611)
    grid = build_grid(0.0, 2.0 * np.pi, 16)

    def check_eigenmode():
        x = grid.nodes()
        f = np.exp(1j * 3.0 * grid.mu * x)
        out = apply_frac_laplacian(f, grid, 0.75)
        expect = (3.0 * grid.mu) ** 1.5 * f
        assert np.max(np.abs(out - expect)) < 1e-12 * (3.0 * grid.mu) ** 1.5

    def check_cayley():
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        out = midpoint_step(v, np.zeros(16), ModelParams(0.9, 0.0, 0.0), SchemeParams(0.05), grid)
        lap = np.abs(grid.wavenumbers()) ** 1.8
        cayley = (2.0 - 1j * 0.05 * lap) / (2.0 + 1j * 0.05 * lap)
        assert np.max(np.abs(np.abs(cayley) - 1.0)) < 1e-14
        assert np.max(np.abs(np.fft.fft(out) - cayley * np.fft.fft(v))) < 1e-11

    def check_splitting_mass():
        model = ModelParams(0.75, -1.0, 0.0)
        noise = build_noise_model(8, grid, epsilon=0.01)
        path = sample_wiener_path(noise, 100, 0.01, seed=11)
        initial = ComplexField(1.0 / np.cosh(grid.nodes() - np.pi) + 0j)
        m0 = mass(initial.values, grid, "squared")
        final, _ = evolve(initial, "splitting", model, SchemeParams(0.01), grid, path, noise)
        assert abs(mass(final.values, grid, "squared") - m0) < 1e-12 * m0

    def check_coarsen():
        noise = build_noise_model(4, grid, epsilon=1.0)
        path = sample_wiener_path(noise, 16, 0.25, seed=5)
        c2 = coarsen_path(coarsen_path(path, 2), 2)
        c4 = coarsen_path(path, 4)
        assert np.array_equal(c2.increments, c4.increments)
        again = sample_wiener_path(noise, 16, 0.25, seed=5)
        assert np.array_equal(path.increments, again.increments)

    def check_config_roundtrip():
        assert parse_config(write_default_config()) == RunConfig()

    return [
        ("fractional eigenmode", check_eigenmode),
        ("midpoint Cayley unitarity", check_cayley),
        ("splitting mass conservation", check_splitting_mass),
        ("noise determinism and coarsening", check_coarsen),
        ("config default round-trip", check_config_roundtrip),
    ]


def _cmd_selftest(args) -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - report every failure
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    if failures:
        print(f"{failures} check(s) failed")
        return 2
    return 0


_COMMANDS = {
    "evolve": (_cmd_evolve, "run a single trajectory and write diagnostics", _RUN_FLAGS),
    "mass-table": (_cmd_mass_table, "midpoint mass-conservation table over several exponents", _RUN_FLAGS),
    "converge": (_cmd_converge, "strong-convergence study of the splitting scheme", _RUN_FLAGS + ("--paths",)),
    "energy": (_cmd_energy, "energy ensemble under noise", _RUN_FLAGS + ("--paths",)),
    "selftest": (_cmd_selftest, "run the quick operator/property battery", ()),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command][0](args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NonConvergence as exc:
        where = f" at step {exc.step}" if exc.step is not None else ""
        print(f"numerical failure{where}: {exc}", file=sys.stderr)
        return 2
    except (IoError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
