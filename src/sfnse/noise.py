"""Truncated Q-Wiener noise on the grid.

The driving noise is the truncated expansion W(t, x) = sum_l a_l phi_l(x) b_l(t)
with independent scalar Brownian motions b_l.  An increment table is the raw
stream of a counter-based generator (Philox) keyed by the path seed: entry
(n, l) of a K-mode table is word n*K + l of that stream.  Paths are
independent because their keys differ, so they can be sampled concurrently
with no shared generator state, and the coarse paths of a refinement study
are exact block sums of their fine table over a power-of-two number of rows
(``coarsen_path``).

Each raw Philox word becomes a normal deviate through Wichura's algorithm AS241
(PPND16, Appl. Statist. 37(3), 1988), evaluated in plain numpy.  Over 2e6
Philox words plus the extreme words it differs from scipy.special.ndtri by a
relative 1.1e-15 at most.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .spectral import GridSpec, _check_above_zero, _check_at_least, _check_integer, _check_not_negative

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Spatial side of the noise: K mode profiles sampled at the grid nodes.

    ``mode_profiles`` has shape (K, N), which gives ``K``, and is read-only.
    ``epsilon`` scales whole noise fields at evaluation time and is never
    baked into increment tables.  Both schemes consume Stratonovich
    increments directly, so no Ito correction field is kept.  A model
    compares and hashes by identity.
    """

    epsilon: float
    mode_profiles: np.ndarray

    @property
    def K(self) -> int:
        return self.mode_profiles.shape[0]


@dataclass(frozen=True, eq=False)
class WienerPath:
    """Realized table of Brownian increments, ``steps`` rows by K modes.

    Each entry is Normal(0, dt).  Regenerating with the same seed reproduces
    the table bit for bit.  A path compares and hashes by identity.
    """

    dt: float
    increments: np.ndarray

    @property
    def steps(self) -> int:
        return self.increments.shape[0]


def _unit_profiles(l, x):
    # np.sin(np.pi * l * x), built in its one (K, N) array
    profiles = np.pi * l * x
    return np.sin(profiles, out=profiles)


def _sin_profiles(l, x):
    # np.sin(np.pi * l * x) / l, the unit profiles divided in place
    profiles = _unit_profiles(l, x)
    profiles /= l
    return profiles


# built-in mode families: name -> profiles of the modes l (a column) at the
# nodes x (a row), built in place so that the (K, N) table is the peak
_PROFILES = {"sin": _sin_profiles, "unit": _unit_profiles}


def _check_profile(profile: str) -> str:
    if profile not in _PROFILES:
        raise DomainError(f"unknown built-in profile {profile!r}, expected one of {tuple(_PROFILES)}")
    return profile


# cap on the steps x K increment table and on the K x N profile table: 256 MiB
# of float64 each.  Both are built in place, so building one peaks at its own
# size (sampling adds one _BLOCK of temporaries, under 1 MB)
MAX_TABLE_ENTRIES = 2**25


def _check_profile_table(K: int, N: int) -> None:
    if K * N > MAX_TABLE_ENTRIES:
        raise DomainError(f"K={K} modes on N={N} nodes need over {MAX_TABLE_ENTRIES} entries")


def _check_increment_table(steps: float, K: int, span: str) -> None:
    # ``steps`` may be a float ratio T / dt, checked before it is rounded to a count; ``span`` names it
    if steps * K > MAX_TABLE_ENTRIES:
        raise DomainError(f"{span} with K={K} modes needs an increment table above {MAX_TABLE_ENTRIES} entries")


def build_noise_model(K: int, grid: GridSpec, epsilon: float = 0.0, profile: str = "sin") -> NoiseModel:
    """Sample the noise mode profiles at the grid nodes.

    ``profile`` names the built-in family, l = 1..K, sampled at the absolute coordinates
    of the grid nodes: "sin" is (1/l) * sin(pi * l * x) and "unit" is sin(pi * l * x).
    A (K, N) table above ``MAX_TABLE_ENTRIES`` is refused before anything is built.
    """
    K = _check_at_least(K, 1, "noise K")
    epsilon = _check_not_negative(epsilon, "noise amplitude epsilon")
    family = _PROFILES[_check_profile(profile)]
    _check_profile_table(K, grid.N)
    x = grid.nodes()
    l = np.arange(1, K + 1, dtype=np.float64)[:, None]
    profiles = family(l, x[None, :])
    profiles.setflags(write=False)
    return NoiseModel(epsilon, profiles)


def _check_philox_seed(seed: int) -> int:
    # Philox keys are 64-bit: a wider seed would alias one below 2^64
    seed = _check_at_least(seed, 0, "seed")
    if seed > _MASK64:
        raise DomainError(f"seed must fit in 64 bits, got {seed}")
    return seed


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


# entries per pass of sample_wiener_path (raw words, uniforms, _ndtri_block),
# so that the temporaries (64 KB each) stay in cache and a table costs its own
# size plus one block.  On a 2-vCPU Xeon (2 MB L2 per core, one BLAS thread)
# a 128,000-entry table took 3.6 ms at 8192 with in-place uniforms against
# 4.1 ms at 32768 without (medians of 10 alternated runs); 32768 had been about
# 1.4x faster than one pass over the whole table.  tracemalloc put sampling a
# 10^6-entry table at 0.4 MB above the table, against 1.4 MB before
_BLOCK = 8192


def _horner(coefficients, r):
    acc = r * coefficients[0]
    acc += coefficients[1]
    for c in coefficients[2:]:
        acc *= r
        acc += c
    return acc


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


def _uniform_from_raw(raw):
    # one raw 64-bit word -> uniform in (0, 1); fixed consumption keeps the
    # (step, mode) -> counter map invertible.  The top word rounds to u = 1.0,
    # so u is clamped to the largest double below 1.  The bytes of
    # np.minimum((raw >> 11) * 2.0**-53 + 2.0**-54, 1.0 - 2.0**-53), with raw
    # shifted in place and the rest in one float array
    raw >>= np.uint64(11)
    u = np.multiply(raw, 2.0**-53)
    u += 2.0**-54
    return np.minimum(u, 1.0 - 2.0**-53, out=u)


def sample_wiener_path(model: NoiseModel, steps: int, dt: float, seed: int) -> WienerPath:
    """Draw the (steps x K) increment table, entries i.i.d. Normal(0, dt).

    Entry (n, l) is word n*K + l of the Philox raw stream keyed by ``seed``:
    the same seed gives the same table bit for bit, and paths with different
    seeds are independent.  A coarse path is the exact block sum of this
    table (``coarsen_path``), so coarse and fine paths share their randomness.
    A table above ``MAX_TABLE_ENTRIES`` is refused before anything is drawn.
    """
    steps = _check_at_least(steps, 1, "path steps")
    dt = _check_above_zero(dt, "path dt")
    _check_increment_table(steps, model.K, f"{steps} steps")
    inc = np.empty((steps, model.K))
    flat = inc.reshape(-1)
    words = np.random.Philox(key=np.array([_check_philox_seed(seed), 0], dtype=np.uint64))
    # the raw stream one block at a time, each block's deviates written in place
    for start in range(0, flat.size, _BLOCK):
        stop = min(start + _BLOCK, flat.size)
        _ndtri_block(_uniform_from_raw(words.random_raw(stop - start)), flat[start:stop])
    inc *= math.sqrt(dt)
    inc.setflags(write=False)
    return WienerPath(dt, inc)


def _merge_rows(inc: np.ndarray, factor: int) -> np.ndarray:
    # consecutive groups of ``factor`` (a power of two) rows summed by pairwise halving
    while factor > 1:
        inc = inc[0::2] + inc[1::2]
        factor //= 2
    return inc


def coarsen_path(path: WienerPath, factor: int) -> WienerPath:
    """Merge consecutive increments: coarse row n = sum of fine rows n*factor..(n+1)*factor-1.

    ``factor`` is a power of two, reduced by repeated pairwise halving so that
    coarsen(coarsen(p, 2), 2) and coarsen(p, 4) agree bit for bit.  The coarse
    table is filled about ``_BLOCK`` fine entries at a time, so building it
    costs its own size plus one block.  dt is multiplied by the factor.
    """
    factor = _check_at_least(factor, 1, "coarsening factor")
    if factor & (factor - 1):
        raise DomainError(f"coarsening factor must be a power of two, got {factor}")
    if factor == 1:
        return path
    if path.steps % factor != 0:
        raise DomainError(f"factor {factor} does not divide steps {path.steps}")
    fine = path.increments
    coarse = np.empty((path.steps // factor, fine.shape[1]))
    rows = max(1, _BLOCK // max(factor * fine.shape[1], 1))  # coarse rows per block
    for start in range(0, coarse.shape[0], rows):
        stop = start + rows
        coarse[start:stop] = _merge_rows(fine[start * factor : stop * factor], factor)
    coarse.setflags(write=False)
    return WienerPath(path.dt * factor, coarse)


# steps per noise block: the fields of steps s..s+15 (s a multiple of 16) are
# the rows of one matrix product.  With K = 100 and one BLAS thread on a
# 2-vCPU Xeon, a field taken in step order cost 2.6 us against 7.4 us for one
# matrix-vector product per step at N = 400, and 28 against 138 us at N = 4096
_FIELD_ROWS = 16


@lru_cache(maxsize=1)
def _field_block(path: WienerPath, model: NoiseModel, s: int) -> np.ndarray:
    # the fields of steps s.. up to s + _FIELD_ROWS - 1, dropped by
    # increment_field once its last row is served.  The key holds path and
    # model, so their ids are not reused while the entry lives.  A 1-row product
    # would take the GEMV kernel, whose last bits differ from a GEMM row's, so a
    # 1-row block is computed as the last 2 rows (the row twice on a 1-step path)
    inc = path.increments
    rows = inc[s : s + _FIELD_ROWS]
    lead = 0
    if rows.shape[0] == 1:
        rows, lead = inc[[max(s - 1, 0), s]], 1
    block = rows @ model.mode_profiles
    block *= model.epsilon
    return block[lead:]


def increment_field(path: WienerPath, n: int, model: NoiseModel, grid: GridSpec) -> np.ndarray:
    """Spatial noise increment over step n: epsilon * sum_l profile_l(x) * db_l[n].

    The field is row n - s of ``epsilon * (path.increments[s:e] @ model.mode_profiles)``,
    with s = n - n % 16 and e = min(s + 16, steps); a block of one row is
    widened to the path's last 2 rows (s = steps - 2), or to the row twice on a
    1-step path.  The product of one block is kept for the next call until
    its last row is asked for, so stepping through a path costs one matrix
    product per 16 steps and holds nothing after its last step.  On one
    numpy and BLAS build, row n of a product of 2 to 128 rows has the same
    bytes whatever the other rows, so the field does not depend on the order
    of the calls.  The returned array is the caller's own.
    """
    if type(n) is not int:  # the per-step int skips the check: it would cost a third of a field
        n = _check_integer(n, "step index")
    if not 0 <= n < path.steps:
        raise IndexError(f"step index {n} outside 0..{path.steps - 1}")
    if path.increments.shape[1] != model.K:
        raise DomainError(
            f"path carries {path.increments.shape[1]} modes, model has K={model.K}"
        )
    if model.mode_profiles.shape[1] != grid.N:
        raise DomainError(
            f"noise model sampled at N={model.mode_profiles.shape[1]}, grid has N={grid.N}"
        )
    s = n - n % _FIELD_ROWS
    block = _field_block(path, model, s)
    if n - s == block.shape[0] - 1:
        # the block's last row: drop the entry now, so that the next block is
        # not built beside it and no path or model outlives its last step
        _field_block.cache_clear()
    return block[n - s].copy()
