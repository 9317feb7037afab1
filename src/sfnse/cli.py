"""Run the studies of the stochastic fractional nonlinear Schrodinger equation.

Subcommands: ``evolve`` (single trajectory plus diagnostics), ``mass-table``,
``converge`` and ``energy``.
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

from . import experiments
from .config import RunConfig, _override, parse_config
from .diagnostics import mass
from .errors import DomainError, IoError, NonConvergence, ParseError, ValidationError
from .output import write_csv, write_snapshot


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
        except UnicodeDecodeError as exc:  # unreadable as text: a malformed config, not an i/o failure
            raise _UsageError(f"{args.config}: {exc}") from None
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
    grid, final, rows = experiments.run_evolution(
        config, lambda step, field, grid: write_snapshot(out / f"snapshot_{step:06d}.sfns", field, grid)
    )
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
    rows = experiments.run_convergence_study(config)
    write_csv(out / "convergence.csv", ["dt", "error", "ci_halfwidth", "order"], rows)
    _say(args, f"errors: {['%.4g' % row[1] for row in rows]}")
    _say(args, f"orders: {['%.3f' % row[3] for row in rows[:-1]]}")
    _say(args, f"wrote {out / 'convergence.csv'}")
    return 0


def _cmd_energy(args) -> int:
    config = _load_config(args)
    out = _out_dir(config)
    rows = experiments.run_energy_ensemble(config)
    header = ["time"] + [f"path_{i}" for i in range(config.energy_n_paths)] + ["mean"]
    write_csv(out / "energy_ensemble.csv", header, rows)
    _say(args, f"wrote {out / 'energy_ensemble.csv'} ({len(rows)} rows x {config.energy_n_paths} paths)")
    return 0


_COMMANDS = {
    "evolve": (_cmd_evolve, "run a single trajectory and write diagnostics", _RUN_FLAGS),
    "mass-table": (_cmd_mass_table, "midpoint mass-conservation table over several exponents", _RUN_FLAGS),
    "converge": (_cmd_converge, "strong-convergence study of the splitting scheme", _RUN_FLAGS + ("--paths",)),
    "energy": (_cmd_energy, "energy ensemble under noise", _RUN_FLAGS + ("--paths",)),
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
