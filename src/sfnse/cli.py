"""Command-line entry points.

Subcommands: ``evolve`` (single trajectory plus diagnostics), ``mass-table``,
``converge``, ``energy``, and ``selftest`` (quick operator/property battery).
Exit codes: 0 success, 1 usage or config error, 2 numerical failure, 3 I/O
error.  The environment variable SFNSE_SEED overrides the config seed;
an explicit --seed flag overrides both.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import experiments
from .config import RunConfig, _check_seed, parse_config, write_default_config
from .diagnostics import mass
from .errors import (
    ConfigError,
    DomainError,
    DivisibilityError,
    IoError,
    NonConvergence,
    ParseError,
    ShapeError,
    SizeError,
    UnknownKeyError,
    UnsupportedNonlinearity,
    ValidationError,
)
from .noise import build_noise_model, coarsen_path, sample_wiener_path
from .output import write_csv, write_snapshot
from .spectral import ComplexField, apply_frac_laplacian, apply_g_operator, build_grid, materialize_operator, transform

_USAGE_ERRORS = (
    ParseError,
    ValidationError,
    UnknownKeyError,
    ConfigError,
    DomainError,
    ShapeError,
    SizeError,
    DivisibilityError,
    UnsupportedNonlinearity,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the CLI contract wants 1
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sfnse", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("evolve", "run a single trajectory and write diagnostics"),
        ("mass-table", "midpoint mass-conservation table over several exponents"),
        ("converge", "strong-convergence study of the splitting scheme"),
        ("energy", "energy ensemble under noise"),
        ("selftest", "run the quick operator/property battery"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", type=Path, default=None, help="config file path")
        cmd.add_argument("--seed", type=int, default=None, help="override the noise seed")
        cmd.add_argument("--out", type=Path, default=None, help="output directory")
        cmd.add_argument("--paths", type=int, default=None, help="override the Monte Carlo path count")
        cmd.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def _load_config(args) -> RunConfig:
    if args.config is not None:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise IoError(args.config, str(exc)) from exc
    else:
        text = ""
    config = parse_config(text)
    env_seed = os.environ.get("SFNSE_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed, 10)
        except ValueError:
            raise ValidationError("SFNSE_SEED", f"invalid seed {env_seed!r}") from None
        config = replace(config, noise_seed=_check_seed("SFNSE_SEED", seed))
    if args.seed is not None:
        config = replace(config, noise_seed=_check_seed("--seed", args.seed))
    if args.paths is not None:
        if args.paths < 1:
            raise ValidationError("--paths", f"path count must be >= 1, got {args.paths}")
        config = replace(config, converge_n_paths=args.paths, energy_n_paths=args.paths)
    if args.out is not None:
        config = replace(config, out_dir=str(args.out))
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
    grid, final, records = experiments.run_evolution(config)
    rows = [
        (rec.time, rec.mass, rec.energy, rec.max_amplitude)
        for _, _, rec in records["diag"]
    ]
    write_csv(out / "evolve_diagnostics.csv", ["time", "mass", "energy", "max_amplitude"], rows)
    for step, _, state in records.get("snap", []):
        write_snapshot(out / f"snapshot_{step:06d}.sfns", state, grid)
    _say(args, f"evolved to t={final.time:.6g}; mass={mass(final, grid):.12g}")
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
        order = format(report.orders[r], ".17g") if r < len(report.orders) else ""
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

    def check_roundtrip():
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        back = transform(transform(v, grid, "forward"), grid, "inverse")
        assert np.max(np.abs(back - v)) < 1e-13

    def check_eigenmode():
        x = grid.nodes()
        f = ComplexField(np.exp(1j * 3.0 * grid.mu * x))
        out = apply_frac_laplacian(f, grid, 0.75)
        expect = (3.0 * grid.mu) ** 1.5 * f.values
        assert np.max(np.abs(out.values - expect)) < 1e-12 * (3.0 * grid.mu) ** 1.5

    def check_dense_structure():
        d1 = materialize_operator(grid, 0.75, "D1")
        d2 = materialize_operator(grid, 0.75, "D2")
        assert np.max(np.abs(d1 + d1.T)) < 1e-13
        assert np.max(np.abs(d2 - d2.T)) < 1e-13

    def check_g_square():
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        vh = np.fft.fft(v)
        vh[8] = 0.0
        f = ComplexField(np.fft.ifft(vh))
        twice = apply_g_operator(apply_g_operator(f, grid, 0.6), grid, 0.6)
        neg = apply_frac_laplacian(f, grid, 0.6)
        assert np.max(np.abs(twice.values + neg.values)) < 1e-12

    def check_cayley():
        from .dynamics import ModelParams, SchemeParams, midpoint_step

        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        out = midpoint_step(
            ComplexField(v), np.zeros(16), ModelParams(0.9, 0.0, 0.0), SchemeParams(0.05), grid
        )
        lap = np.abs(grid.wavenumbers()) ** 1.8
        cayley = (2.0 - 1j * 0.05 * lap) / (2.0 + 1j * 0.05 * lap)
        assert np.max(np.abs(np.abs(cayley) - 1.0)) < 1e-14
        assert np.max(np.abs(np.fft.fft(out.values) - cayley * np.fft.fft(v))) < 1e-11

    def check_splitting_mass():
        from .dynamics import ModelParams, SchemeParams, splitting_step

        model = ModelParams(0.75, -1.0, 0.0, 0.01)
        noise = build_noise_model(8, grid, epsilon=0.01)
        path = sample_wiener_path(noise, 100, 0.01, seed=11)
        state = ComplexField(1.0 / np.cosh(grid.nodes() - np.pi) + 0j)
        m0 = mass(state, grid, "squared")
        from .noise import increment_field

        for n in range(100):
            state = splitting_step(
                state, increment_field(path, n, noise, grid), model, SchemeParams(0.01), grid
            )
        assert abs(mass(state, grid, "squared") - m0) < 1e-12 * m0

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
        ("fft round-trip", check_roundtrip),
        ("fractional eigenmode", check_eigenmode),
        ("dense operator structure", check_dense_structure),
        ("square-root composition", check_g_square),
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
    "evolve": _cmd_evolve,
    "mass-table": _cmd_mass_table,
    "converge": _cmd_converge,
    "energy": _cmd_energy,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
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
