"""Output checks for the benchmark workloads.

For every seed each invocation's outputs must pass the science checks below;
for the reference seed at full scale the main CSV must also match the copy in
perfbench/reference/ to REL_TOL / ABS_TOL per cell.  The bands are the ones
the repository's acceptance tests use: mean fitted order of the splitting
scheme in [0.85, 1.45], midpoint mass drift at most 1e-10.
"""

from __future__ import annotations

import hashlib
import math
import struct
from pathlib import Path

import numpy as np

REL_TOL = 1e-8
ABS_TOL = 1e-14
ORDER_BAND = (0.85, 1.45)
MASS_DRIFT_MAX = 1e-10
SNAPSHOT_HEADER = struct.Struct("<4sIddId")  # magic, version, a, b, N, time


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def digest(out_dir: Path) -> str:
    """SHA-256 over every output file's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def compare_reference(path: Path, reference: Path) -> list[str]:
    header, rows = read_csv(path)
    ref_header, ref_rows = read_csv(reference)
    if header != ref_header or len(rows) != len(ref_rows):
        return [f"{path.name}: layout differs from {reference.name}"]
    for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        for col, (cell, ref_cell) in enumerate(zip(row, ref_row)):
            if cell == ref_cell:
                continue
            try:
                close = math.isclose(float(cell), float(ref_cell), rel_tol=REL_TOL, abs_tol=ABS_TOL)
            except ValueError:
                close = False
            if not close:
                return [f"{path.name}: row {i + 1} column {header[col]} is {cell}, reference {ref_cell}"]
    return []


def _floats(rows: list[list[str]]) -> np.ndarray:
    return np.array([[float(cell) for cell in row] for row in rows])


def check_converge(out_dir: Path) -> list[str]:
    header, rows = read_csv(out_dir / "convergence.csv")
    if header != ["dt", "error", "ci_halfwidth", "order"] or len(rows) != 5:
        return ["convergence.csv: expected 5 levels with dt,error,ci_halfwidth,order"]
    table = _floats([row[:3] for row in rows])
    dts, errors = table[:, 0], table[:, 1]
    orders = np.array([float(row[3]) for row in rows[:-1]])
    problems = []
    if not np.all(np.isfinite(table)) or not np.all(errors > 0):
        problems.append("convergence.csv: non-finite or non-positive errors")
    elif not np.all(np.diff(errors) < 0):
        problems.append("convergence.csv: errors do not decrease with dt")
    elif not np.allclose(orders, np.log2(errors[:-1] / errors[1:]), rtol=1e-12, atol=0):
        problems.append("convergence.csv: orders are not log2 ratios of the errors")
    elif not ORDER_BAND[0] <= orders.mean() <= ORDER_BAND[1]:
        problems.append(f"convergence.csv: mean order {orders.mean():.3f} outside {ORDER_BAND}")
    if not np.allclose(dts, 0.01 / 2.0 ** np.arange(5), rtol=1e-15, atol=0):
        problems.append("convergence.csv: unexpected dt column")
    return problems


def check_energy(out_dir: Path) -> list[str]:
    header, rows = read_csv(out_dir / "energy_ensemble.csv")
    table = _floats(rows)
    if header[0] != "time" or header[-1] != "mean" or table.shape != (101, len(header)):
        return ["energy_ensemble.csv: expected 101 rows of time, path_*, mean"]
    if not np.all(np.isfinite(table)):
        return ["energy_ensemble.csv: non-finite energies"]
    problems = []
    if not np.allclose(table[:, 0], 0.1 * np.arange(101), rtol=0, atol=1e-12):
        problems.append("energy_ensemble.csv: unexpected sample times")
    if not np.allclose(table[:, -1], table[:, 1:-1].mean(axis=1), rtol=1e-12, atol=0):
        problems.append("energy_ensemble.csv: mean column is not the path mean")
    return problems


def check_evolve(out_dir: Path) -> list[str]:
    header, rows = read_csv(out_dir / "evolve_diagnostics.csv")
    table = _floats(rows)
    if header != ["time", "mass", "energy", "max_amplitude"] or table.shape != (101, 4):
        return ["evolve_diagnostics.csv: expected 101 rows of time,mass,energy,max_amplitude"]
    if not np.all(np.isfinite(table)):
        return ["evolve_diagnostics.csv: non-finite diagnostics"]
    problems = []
    drift = float(np.max(np.abs(table[:, 1] - table[0, 1])))
    if drift > MASS_DRIFT_MAX:
        problems.append(f"evolve_diagnostics.csv: midpoint mass drift {drift:.3e} > {MASS_DRIFT_MAX}")
    snapshots = sorted(out_dir.glob("snapshot_*.sfns"))
    if [p.name for p in snapshots] != [f"snapshot_{10 * j:06d}.sfns" for j in range(101)]:
        return problems + ["expected 101 snapshots at steps 0, 10, ..., 1000"]
    for path, (time, mass, _, _) in zip(snapshots, table):
        blob = path.read_bytes()
        magic, version, a, b, n, t = SNAPSHOT_HEADER.unpack_from(blob)
        values = np.frombuffer(blob, dtype="<c16", offset=SNAPSHOT_HEADER.size)
        if magic != b"SFNS" or version != 1 or n != 4096 or values.size != n or t != time:
            return problems + [f"{path.name}: bad header or size"]
        snap_mass = math.sqrt((b - a) / n * float(np.sum(np.abs(values) ** 2)))
        if not math.isclose(snap_mass, mass, rel_tol=1e-12):
            return problems + [f"{path.name}: mass {snap_mass!r} differs from the diagnostics row {mass!r}"]
    return problems


CHECKS = {"converge": check_converge, "energy": check_energy, "evolve-fine": check_evolve}
