"""Truncated Q-Wiener noise on the grid.

The driving noise is the truncated expansion W(t, x) = sum_l a_l phi_l(x) b_l(t)
with independent scalar Brownian motions b_l.  Increment tables are drawn from
a counter-based generator (Philox) so that entry (step, mode) is addressable
without generating predecessors, which lets coarse and fine paths of a
refinement study share their underlying randomness and lets independent paths
be sampled concurrently with no sequential generator state.

Each raw Philox word becomes a normal deviate through Wichura's algorithm AS241
(PPND16, Appl. Statist. 37(3), 1988), evaluated in plain numpy.  Over 2e6
Philox words plus the extreme words it differs from scipy.special.ndtri by a
relative 1.1e-15 at most.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DivisibilityError, DomainError, IoError, ShapeError
from .spectral import GridSpec

_MASK64 = (1 << 64) - 1
_PATH_HEADER = struct.Struct("<4sIQQQd")  # magic, version, seed, K, steps, dt
_PATH_MAGIC = b"SFNW"
_PATH_VERSION = 1


@dataclass(frozen=True)
class NoiseModel:
    """Spatial side of the noise: K mode profiles sampled at the grid nodes.

    ``mode_profiles`` has shape (K, N) and is read-only.  ``epsilon`` scales
    whole noise fields at evaluation time and is never baked into increment
    tables.  Both schemes consume Stratonovich increments directly, so no Ito
    correction field is kept.
    """

    K: int
    epsilon: float
    mode_profiles: np.ndarray


@dataclass(frozen=True)
class WienerPath:
    """Realized table of Brownian increments, steps rows by K modes.

    Each entry is Normal(0, dt).  Regenerating with the same seed reproduces
    the table bit for bit; a coarsened path keeps the seed of its fine path.
    """

    seed: int
    dt: float
    steps: int
    increments: np.ndarray


def build_noise_model(K: int, grid: GridSpec, epsilon: float = 0.0, profile="sin") -> NoiseModel:
    """Sample the noise mode profiles at the grid nodes.

    ``profile`` is either the string "sin" for the built-in family
    (1/l) * sin(pi * l * x), l = 1..K, sampled at the absolute coordinates of
    the grid nodes, or an array of K user-supplied rows of length N.
    """
    K = int(K)
    if K < 1:
        raise DomainError(f"noise needs K >= 1 modes, got {K}")
    epsilon = float(epsilon)
    if epsilon < 0.0:
        raise DomainError(f"noise amplitude epsilon must be >= 0, got {epsilon}")
    if isinstance(profile, str):
        if profile != "sin":
            raise DomainError(f"unknown built-in profile {profile!r}")
        x = grid.nodes()
        l = np.arange(1, K + 1, dtype=np.float64)[:, None]
        profiles = np.sin(np.pi * l * x[None, :]) / l
    else:
        profiles = np.array(profile, dtype=np.float64)
        if profiles.shape != (K, grid.N):
            raise DomainError(
                f"profile array must have shape ({K}, {grid.N}), got {profiles.shape}"
            )
    if not np.all(np.isfinite(profiles)):
        raise DomainError("noise profiles contain non-finite values")
    profiles.setflags(write=False)
    return NoiseModel(K, epsilon, profiles)


def _philox(seed: int, counter: int = 0) -> np.random.Philox:
    seed = int(seed)
    if not 0 <= seed <= _MASK64:
        raise DomainError(f"seed must be a non-negative 64-bit integer, got {seed}")
    key = np.array([seed, 0], dtype=np.uint64)
    return np.random.Philox(key=key, counter=[counter, 0, 0, 0])


# AS241 (PPND16) coefficients, highest power first for Horner evaluation:
# central region |u - 0.5| <= 0.425 in r = 0.180625 - q^2, then the two tail
# regions in r = sqrt(-log(min(u, 1 - u))), split at r = 5
_CENTRAL_NUM = (
    2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
    4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
    1.3314166789178437745e2, 3.3871328727963666080e0,
)
_CENTRAL_DEN = (
    5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
    2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
    4.2313330701600911252e1, 1.0,
)
_NEAR_NUM = (
    7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
    1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
    4.63033784615654529590e0, 1.42343711074968357734e0,
)
_NEAR_DEN = (
    1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
    1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
    2.05319162663775882187e0, 1.0,
)
_FAR_NUM = (
    2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
    2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
    5.46378491116411436990e0, 6.65790464350110377720e0,
)
_FAR_DEN = (
    2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
    7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
    5.99832206555887937690e-1, 1.0,
)


# entries per pass of _ndtri_block, so that its temporaries (4 x 256 KB) stay
# in L2 cache: on a Xeon with 2 MB L2 per core this made a 128,000-entry table
# about 1.4x faster than a single pass over the whole table
_BLOCK = 32768


def _horner(coefficients, r):
    acc = r * coefficients[0]
    acc += coefficients[1]
    for c in coefficients[2:]:
        acc *= r
        acc += c
    return acc


def _ndtri(u):
    """Inverse standard normal CDF of u in (0, 1) by AS241 (PPND16).

    Wichura states a relative accuracy of about 1e-16 (for the measured
    figure see the module docstring).  The central rational function is
    evaluated on every entry, the log/sqrt tail branch only on the entries
    with |u - 0.5| > 0.425 (about 15 % of uniform input).  Accepts 0-d input.
    """
    u = np.asarray(u, dtype=np.float64)
    flat = u.reshape(-1)
    z = np.empty_like(flat)
    for start in range(0, flat.size, _BLOCK):
        _ndtri_block(flat[start : start + _BLOCK], z[start : start + _BLOCK])
    return z.reshape(u.shape)


def _ndtri_block(u, out):
    # in-place arithmetic: each temporary costs as much as a pass over u
    q = u - 0.5
    r = q * q
    np.subtract(0.180625, r, out=r)
    z = _horner(_CENTRAL_NUM, r)
    den = _horner(_CENTRAL_DEN, r)
    z *= q
    z /= den
    tail = np.flatnonzero(np.abs(q, out=den) > 0.425)
    if tail.size:
        p, qt = u[tail], q[tail]
        r = np.sqrt(-np.log(np.minimum(p, 1.0 - p)))
        near = r <= 5.0
        far = ~near
        rn = r[near] - 1.6
        rf = r[far] - 5.0
        zt = np.empty_like(r)
        zt[near] = _horner(_NEAR_NUM, rn) / _horner(_NEAR_DEN, rn)
        zt[far] = _horner(_FAR_NUM, rf) / _horner(_FAR_DEN, rf)
        z[tail] = np.copysign(zt, qt)
    out[...] = z


def _normal_from_raw(raw):
    # one raw 64-bit word -> uniform in (0, 1) -> inverse normal CDF; fixed
    # consumption keeps the (step, mode) -> counter map invertible.  The top
    # word rounds to u = 1.0, so u is clamped to the largest double below 1.
    u = np.minimum((raw >> np.uint64(11)) * 2.0**-53 + 2.0**-54, 1.0 - 2.0**-53)
    return _ndtri(u)


def sample_wiener_path(model: NoiseModel, steps: int, dt: float, seed: int) -> WienerPath:
    """Draw the (steps x K) increment table, entries i.i.d. Normal(0, dt).

    Entry (n, l) is a pure function of (seed, n, l): it sits at position
    n*K + l of the keyed Philox raw stream, so any entry can be regenerated
    in isolation (see ``increment_entry``).
    """
    steps = int(steps)
    if steps < 1:
        raise DomainError(f"path needs steps >= 1, got {steps}")
    dt = float(dt)
    if dt <= 0.0:
        raise DomainError(f"path needs dt > 0, got {dt}")
    raw = _philox(seed).random_raw(steps * model.K)
    z = _normal_from_raw(np.asarray(raw, dtype=np.uint64))
    inc = (math.sqrt(dt) * z).reshape(steps, model.K)
    inc.setflags(write=False)
    return WienerPath(int(seed), dt, steps, inc)


def increment_entry(seed: int, step: int, mode: int, K: int, dt: float) -> float:
    """Entry (step, mode) of the increment table, without its predecessors.

    Philox emits 4 raw words per counter block, so position i = step*K + mode
    lives at word i % 4 of block i // 4.
    """
    i = int(step) * int(K) + int(mode)
    raw = _philox(seed, counter=i // 4).random_raw(i % 4 + 1)[-1]
    return math.sqrt(dt) * float(_normal_from_raw(np.uint64(raw)))


def coarsen_path(path: WienerPath, factor: int) -> WienerPath:
    """Merge consecutive increments: coarse row n = sum of fine rows n*factor..(n+1)*factor-1.

    Power-of-two factors are reduced by repeated pairwise halving so that
    coarsen(coarsen(p, 2), 2) and coarsen(p, 4) agree bit for bit; any odd
    remainder is folded left to right.  dt is multiplied by the factor.
    """
    factor = int(factor)
    if factor < 1:
        raise DomainError(f"coarsening factor must be >= 1, got {factor}")
    if factor == 1:
        return path
    if path.steps % factor != 0:
        raise DivisibilityError(f"factor {factor} does not divide steps {path.steps}")
    inc = path.increments
    remaining = factor
    while remaining % 2 == 0:
        inc = inc[0::2] + inc[1::2]
        remaining //= 2
    if remaining > 1:
        blocks = inc.reshape(inc.shape[0] // remaining, remaining, path.increments.shape[1])
        acc = blocks[:, 0].copy()
        for t in range(1, remaining):
            acc += blocks[:, t]
        inc = acc
    inc = np.ascontiguousarray(inc)
    inc.setflags(write=False)
    return WienerPath(path.seed, path.dt * factor, path.steps // factor, inc)


def increment_field(path: WienerPath, n: int, model: NoiseModel, grid: GridSpec) -> np.ndarray:
    """Spatial noise increment over step n: epsilon * sum_l profile_l(x) * db_l[n]."""
    if not 0 <= n < path.steps:
        raise IndexError(f"step index {n} outside 0..{path.steps - 1}")
    if path.increments.shape[1] != model.K:
        raise ShapeError(
            f"path carries {path.increments.shape[1]} modes, model has K={model.K}"
        )
    if model.mode_profiles.shape[1] != grid.N:
        raise ShapeError(
            f"noise model sampled at N={model.mode_profiles.shape[1]}, grid has N={grid.N}"
        )
    return model.epsilon * (path.increments[n] @ model.mode_profiles)


def dump_path(path: WienerPath, destination) -> None:
    """Write the path as a flat binary file; round-trips bit-exactly."""
    K = path.increments.shape[1]
    header = _PATH_HEADER.pack(
        _PATH_MAGIC, _PATH_VERSION, path.seed & _MASK64, K, path.steps, path.dt
    )
    try:
        with open(destination, "wb") as fh:
            fh.write(header)
            fh.write(np.ascontiguousarray(path.increments, dtype="<f8").tobytes())
    except OSError as exc:
        raise IoError(destination, str(exc)) from exc


def load_path(source) -> WienerPath:
    """Read a path written by ``dump_path``."""
    try:
        with open(source, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IoError(source, str(exc)) from exc
    if len(blob) < _PATH_HEADER.size:
        raise IoError(source, "truncated path file header")
    magic, version, seed, K, steps, dt = _PATH_HEADER.unpack_from(blob)
    if magic != _PATH_MAGIC:
        raise IoError(source, f"bad magic {magic!r}")
    if version != _PATH_VERSION:
        raise IoError(source, f"unsupported path file version {version}")
    expected = _PATH_HEADER.size + steps * K * 8
    if len(blob) != expected:
        raise IoError(source, f"expected {expected} bytes, found {len(blob)}")
    inc = np.frombuffer(blob, dtype="<f8", offset=_PATH_HEADER.size).reshape(steps, K).copy()
    inc.setflags(write=False)
    return WienerPath(int(seed), float(dt), int(steps), inc)
