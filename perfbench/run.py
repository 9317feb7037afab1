"""Benchmark of the sfnse CLI studies, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload converge --seed 1 --seconds 40 --trace 0

Each CLI invocation runs in a fresh child process (perfbench/child.py) with one
BLAS thread and ``experiments.workers = 1``, so it loads one core.  A run
first starts one set-up-only child to fill the bytecode and file caches, then
SETUP_PROBES more to measure set-up, then invokes the CLI again and again
until the next invocation would end after ``--seconds`` (always at least
once).  With ``--trace 1`` it ends with one traced invocation and stops the
untraced ones early enough to leave room for it.  Every
invocation's outputs are checked (checks.py) and must be byte-identical
across the run; a failed invocation counts in ``failed`` and the run goes on.

The last stdout line is one JSON object: with ``--trace 0`` its metrics are
the end-to-end metrics of BENCHMARK.json (see ``end_to_end``); with
``--trace 1`` they are the per-layer metrics.  metrics.json says which
end-to-end metric each per-layer metric should move.  The environment, every
sample, every child command and the output digests go to
.bench_work/results/; the traced run's spans go next to them.  The exit code
is 2 when the benchmark cannot run at all, for example outside a checkout of
the repository.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
WORK_DIR = ".bench_work"
SETUP_PROBES = 5
TRACED_COST = 1.5  # a traced invocation, with its analysis, takes up to 1.5 untraced ones
RUN_LIMIT_S = 170.0  # hard cap on one run; a run must end within 180 s
DEFAULT_SEED = 1  # seed of the reference outputs in perfbench/reference/
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    command: str  # CLI subcommand
    csv: str  # main output, compared with perfbench/reference/<workload>.csv
    paths: int  # Monte Carlo paths at benchmark scale
    steps_per_path: int


WORKLOADS = {
    # per path: the level-5 reference (1280 steps) plus levels 0..4 (40 + 80 + 160 + 320 + 640)
    "converge": Workload("converge", "convergence.csv", 100, 2520),
    "energy": Workload("energy", "energy_ensemble.csv", 10, 1000),
    "evolve-fine": Workload("evolve", "evolve_diagnostics.csv", 1, 1000),
}


@dataclass
class Invocation:
    mode: str
    command: list[str]
    wall_s: float
    record: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    digest: str | None = None
    output_bytes: int = 0

    @property
    def setup_s(self) -> float | None:
        stamp = self.record.get("t_setup")
        return None if stamp is None else stamp - self.record["t_spawn"]

    @property
    def cli_s(self) -> float | None:
        stamp = self.record.get("t_done")
        return None if stamp is None else stamp - self.record["t_spawn"]

    def summary(self) -> dict:
        keys = ("exit_code", "peak_rss_kb", "import_s", "spans")
        return {
            "mode": self.mode,
            "command": shlex.join(self.command),
            "wall_s": self.wall_s,
            "setup_s": self.setup_s,
            "cli_s": self.cli_s,
            "problems": self.problems,
            "output_sha256": self.digest,
            "output_bytes": self.output_bytes,
            **{key: self.record[key] for key in keys if key in self.record},
        }


class Runner:
    """Starts the children of one run and checks what they write."""

    def __init__(self, root: Path, workload: str, seed: int, paths: int | None):
        self.root = root
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.seed = seed
        # evolve runs one trajectory and takes no --paths
        self.paths = self.workload.paths if paths is None or self.workload.command == "evolve" else paths
        self.work = root / WORK_DIR / "run"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, **CHILD_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        self.count = 0

    @property
    def steps(self) -> int:
        return self.paths * self.workload.steps_per_path

    def invoke(self, mode: str) -> Invocation:
        i = self.count
        self.count += 1
        out = self.work / f"out-{i}"
        result = self.work / f"child-{i}.json"
        config = HERE / "workloads" / f"{self.name}.cfg"
        cli = [self.workload.command, "--config", str(config), "--seed", str(self.seed), "--out", str(out), "--quiet"]
        if self.workload.command != "evolve":
            cli += ["--paths", str(self.paths)]
        spans = self.work / f"spans-{i}.npz"
        command = [sys.executable, str(HERE / "child.py"), mode, str(result), str(spans), "--", *cli]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return Invocation(mode, command, 0.0, problems=["not started: run time limit reached"])
        with open(self.work / f"child-{i}.err", "wb") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(command, cwd=self.root, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                code = proc.wait()
            finally:
                timer.cancel()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            wall = time.monotonic() - t_spawn
        inv = Invocation(mode, command, wall)
        if result.is_file():
            inv.record = json.loads(result.read_text(encoding="utf-8"))
        inv.record["t_spawn"] = t_spawn
        if code != 0:
            tail = (self.work / f"child-{i}.err").read_text(errors="replace").strip().splitlines()[-1:]
            reason = "timed out" if code == -9 else f"exit code {code}"
            inv.problems.append(f"{reason}: {' '.join(tail)}")
        elif mode != "setup":
            self._check_outputs(inv, out)
        if mode == "trace" and spans.is_file():
            spans.replace(self.root / WORK_DIR / "results" / f"{self.name}-spans.npz")  # latest traced run only
        shutil.rmtree(out, ignore_errors=True)
        return inv

    def _check_outputs(self, inv: Invocation, out: Path) -> None:
        try:
            inv.problems += checks.CHECKS[self.name](out)
            reference = HERE / "reference" / f"{self.name}.csv"
            if self.seed == DEFAULT_SEED and self.paths == self.workload.paths:
                inv.problems += checks.compare_reference(out / self.workload.csv, reference)
            inv.digest = checks.digest(out)
            inv.output_bytes = sum(p.stat().st_size for p in out.iterdir())
        except (OSError, ValueError, IndexError) as exc:
            inv.problems.append(f"outputs unreadable: {exc!r}")


def figure(value: float, samples: list[float]) -> dict:
    q = statistics.quantiles(samples, n=4, method="inclusive") if len(samples) > 1 else samples * 3
    return {"value": value, "median": q[1], "q1": q[0], "q3": q[2], "n": len(samples)}


def environment(root: Path, seed: int) -> dict:
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": CHILD_ENV,
        "git_commit": commit,
        "seed": seed,
        "command": shlex.join([sys.executable, *sys.argv]),
    }


def end_to_end(runner: Runner, runs: list[Invocation], probes: list[Invocation]) -> dict[str, dict]:
    """The run's end-to-end figures, with the quartiles of their samples.

    setup_s is the median of the set-up-only probes; the CLI invocations run
    the program alone.  peak_rss_mb is a median.  wall_s and steps_per_s are
    means over the run's invocations, that is total time over total work:
    where the CPU speed drifts during a run, as on small shared virtual
    machines, the mean of a run's invocations varies less from run to run than
    their median.  steps_per_s divides by wall_s less the median set-up time.
    """
    good = [r for r in runs if not r.problems] or [r for r in runs if r.cli_s is not None]
    setups = [p.setup_s for p in probes if p.setup_s is not None]
    setup = statistics.median(setups)
    walls = [r.wall_s for r in good]
    rss = [r.record["peak_rss_kb"] / 1024.0 for r in good]
    return {
        "setup_s": figure(setup, setups),
        "wall_s": figure(statistics.fmean(walls), walls),
        "steps_per_s": figure(runner.steps / (statistics.fmean(walls) - setup), [runner.steps / (w - setup) for w in walls]),
        "peak_rss_mb": figure(statistics.median(rss), rss),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--paths", type=int, default=None, help="Monte Carlo paths (smoke test); default: workload scale")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sfnse" / "cli.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("error: run from the root of an sfnse checkout (src/sfnse and BENCHMARK.json)", file=sys.stderr)
        return 2
    if args.seed < 0 or (args.paths is not None and args.paths < 2):
        parser.error("--seed must be >= 0 and --paths >= 2")
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    (root / WORK_DIR / "results").mkdir(parents=True, exist_ok=True)

    t_begin = time.monotonic()
    runner = Runner(root, args.workload, args.seed, args.paths)
    warmup = runner.invoke("setup")  # bytecode and file caches; not measured
    probes = [runner.invoke("setup") for _ in range(SETUP_PROBES)]
    runs = [runner.invoke("run")]
    reserve = TRACED_COST if args.trace else 0.0
    while time.monotonic() - t_begin + runs[-1].wall_s * (1.0 + reserve) <= args.seconds:
        runs.append(runner.invoke("run"))
    traced = runner.invoke("trace") if args.trace else None

    cli_runs = runs + ([traced] if traced else [])
    first = next((r.digest for r in cli_runs if r.digest), None)
    for r in cli_runs:
        if r.digest and r.digest != first:
            r.problems.append("outputs differ in bytes from the run's first invocation")
    if not any(r.cli_s is not None for r in runs) or not any(p.setup_s is not None for p in probes):
        for line in (warmup.problems + probes[0].problems + runs[0].problems)[:2]:
            print(f"error: the CLI never completed: {line}", file=sys.stderr)
        return 1
    if traced and "layers" not in traced.record:
        print(f"error: the traced invocation gave no per-layer metrics: {traced.problems[:1]}", file=sys.stderr)
        return 1

    stats = end_to_end(runner, runs, probes)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if traced:
        layers = dict(traced.record["layers"])
        untraced = statistics.median(r.cli_s for r in runs if r.cli_s is not None)
        layers["output.bytes"] = traced.output_bytes
        layers["trace.overhead_s"] = traced.cli_s - untraced
        if layers["dynamics.split_calls"] + layers["dynamics.mid_calls"] != runner.steps:
            traced.problems.append(f"traced steps: {layers['dynamics.split_calls']} split + {layers['dynamics.mid_calls']} midpoint, expected {runner.steps}")
        if layers["noise.field_calls"] != runner.steps:
            traced.problems.append(f"traced increment_field calls: {layers['noise.field_calls']}, expected {runner.steps}")
        if layers["dynamics.nonconv"]:
            traced.problems.append(f"traced NonConvergence: {layers['dynamics.nonconv']}")
        names = [m["name"] for m in spec["per_layer"]]
        metrics = {name: {"value": layers[name], "unit": units[name]} for name in names}
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        metrics = {name: {"value": stats[name]["value"], "unit": units[name]} for name in names}

    failed = sum(1 for r in cli_runs if r.problems)
    problems = [p for inv in [warmup, *probes, *cli_runs] for p in inv.problems]
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "paths": runner.paths,
        "steps_per_invocation": runner.steps,
        "environment": environment(root, args.seed),
        "fail_rate": failed / len(cli_runs),
        "end_to_end": stats,
        "per_layer": {k: v["value"] for k, v in metrics.items()} if traced else None,
        "invocations": [inv.summary() for inv in [warmup, *probes, *cli_runs]],
    }
    results = root / WORK_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.write_text(json.dumps(report, indent=1), encoding="utf-8")

    print(f"{args.workload} seed {args.seed}: {len(cli_runs)} invocation(s), {failed} failed; details in {results}")
    for name, s in stats.items():
        print(f"  {name:<12} {s['value']:.6g} {units[name]}  (samples: median {s['median']:.6g}, q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
    print(f"  {'fail_rate':<12} {report['fail_rate']:.6g} 1  ({failed}/{len(cli_runs)})")
    for p in problems:
        print(f"  problem: {p}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": len(cli_runs), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
