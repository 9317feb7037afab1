"""Bit-exact output formats: CSV tables and binary field snapshots.

CSV files carry a header row, '.'-decimal floats at 17 significant digits
(enough for exact float64 round trips), LF line endings, and caller-fixed
row order, so identical inputs produce byte-identical files.  Snapshots are
little-endian binary: magic "SFNS", version, grid parameters, time, then N
(Re, Im) float64 pairs.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import DomainError, IoError
from .spectral import ComplexField, GridSpec, _field_values

_SNAP_HEADER = struct.Struct("<4sIddId")  # magic, version, a, b, N, time
_SNAP_MAGIC = b"SFNS"
_SNAP_VERSION = 1


def format_value(value) -> str:
    """Render one CSV cell; floats at 17 significant digits."""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(destination, header, rows) -> None:
    """Write a CSV table with LF endings and deterministic formatting."""
    lines = [",".join(header)]
    lines.extend(",".join(format_value(cell) for cell in row) for row in rows)
    text = "\n".join(lines) + "\n"
    try:
        Path(destination).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise IoError(destination, str(exc)) from exc


def write_snapshot(destination, field: ComplexField, grid: GridSpec) -> None:
    """Write one field snapshot in the binary snapshot format."""
    values = _field_values(field.values, grid)
    header = _SNAP_HEADER.pack(_SNAP_MAGIC, _SNAP_VERSION, grid.a, grid.b, grid.N, field.time)
    payload = np.ascontiguousarray(values, dtype="<c16").tobytes()
    try:
        with open(destination, "wb") as fh:
            fh.write(header)
            fh.write(payload)
    except OSError as exc:
        raise IoError(destination, str(exc)) from exc


def read_snapshot(source) -> tuple[GridSpec, ComplexField]:
    """Read a snapshot written by ``write_snapshot``; exact inverse.

    Any unreadable or malformed file raises IoError naming ``source``.
    """
    try:
        blob = Path(source).read_bytes()
    except OSError as exc:
        raise IoError(source, str(exc)) from exc
    if len(blob) < _SNAP_HEADER.size:
        raise IoError(source, "truncated snapshot header")
    magic, version, a, b, n, time = _SNAP_HEADER.unpack_from(blob)
    if magic != _SNAP_MAGIC:
        raise IoError(source, f"bad magic {magic!r}")
    if version != _SNAP_VERSION:
        raise IoError(source, f"unsupported snapshot version {version}")
    expected = _SNAP_HEADER.size + 16 * n
    if len(blob) != expected:
        raise IoError(source, f"expected {expected} bytes, found {len(blob)}")
    values = np.frombuffer(blob, dtype="<c16", offset=_SNAP_HEADER.size).copy()
    try:
        return GridSpec(a, b, n), ComplexField(values, time=time)
    except DomainError as exc:  # a grid or payload no writer produces
        raise IoError(source, str(exc)) from exc
