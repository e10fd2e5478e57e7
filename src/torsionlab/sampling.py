"""Deterministic low-discrepancy sampling with seeded digit scrambling.

Generalized Halton points: coordinate i uses the i-th prime base with a
seed-selected digit permutation (0 stays fixed so finite expansions stay
finite; seed 0 gives the plain Halton sequence).  Each coordinate is the
radical-inverse digit fold of the point's index, least significant digit
first; ``halton`` takes the low digits' part of that fold from a table and
adds the high digits' terms per run of indices, in the same order, so every
point is bit-for-bit the digit-by-digit fold.  Points are reproducible given
(dim, seed, offset), and ``qmc_mean`` sums its shards in shard order.

Layout: a batch is an (m, dim) array in Fortran (column-major) order, so each
coordinate is one contiguous vector.  Numpy keeps that order through
elementwise operations, so ``scale_to_box``, the evaluators and the box
indicators downstream each run one pass per coordinate instead of stepping
through the points one row at a time; the order changes no value.  Digit
permutations are drawn once per (base, seed) per process, cached read-only.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113,
]


@lru_cache(maxsize=1024)
def _digit_permutation(base: int, seed: int) -> np.ndarray:
    """The seeded digit permutation of one base, read-only: the cache hands
    the same array to every caller."""
    if seed == 0:
        perm = np.arange(base)
    else:
        rs = np.random.RandomState((seed * 1000003 + base) % (2**32))
        perm = np.arange(1, base)
        rs.shuffle(perm)
        perm = np.concatenate([[0], perm])
    perm.flags.writeable = False
    return perm


def _fold_digits(x: np.ndarray, n: np.ndarray, b: int, perm: np.ndarray,
                 denom: float = 1.0) -> float:
    """x += perm[d_j] / b^(j0 + j) over the base-b digits d_j of n, least
    significant first, with b^j0 = denom; returns the last denominator."""
    while n.max() > 0:
        n, digit = np.divmod(n, b)
        denom *= b
        x += perm[digit] / denom
    return denom


def halton(dim: int, count: int, seed: int = 0, offset: int = 0) -> np.ndarray:
    """(count, dim) scrambled-Halton points in [0, 1)^dim, in Fortran order:
    the points with indices offset + 1, ..., offset + count.

    Coordinate i of point n folds the base-b digits of n (b the i-th prime)
    least significant first: x += perm[d_j] / denom after denom *= b, in
    floats.  The first k steps of the fold depend only on n mod b^k, so they
    are done once, on a table over arange(b^k); the later steps are done on
    the run numbers n // b^k, continuing the same denom, and added to every
    index of each run by broadcasting.  Each point thus gets the digit
    loop's terms in the digit loop's order, bit for bit.  A zero digit adds
    +0.0 and leaves the non-negative sum unchanged, so the table's leading
    zeros and the runs' extra high levels change no bits.  b^k is the
    largest power of b not above isqrt(offset + count + 1), which keeps both
    the table and the run array short.
    """
    if dim > len(_PRIMES):
        raise ValueError(f"dimension {dim} beyond the prime table")
    if count < 0:
        raise ValueError(f"count must be at least 0, got {count}")
    out = np.empty((count, dim), order="F")
    if count == 0:
        return out
    first, stop = offset + 1, offset + count + 1
    root = math.isqrt(stop)
    for i in range(dim):
        b = _PRIMES[i]
        perm = _digit_permutation(b, seed)
        block = 1
        while block * b <= root:
            block *= b
        table = np.zeros(block)
        denom = _fold_digits(table, np.arange(block), b, perm)
        runs = np.arange(first // block, (stop - 1) // block + 1, dtype=np.int64)
        x = np.tile(table, (len(runs), 1))
        _fold_digits(x, runs[:, None], b, perm, denom)
        start = first - runs[0] * block
        out[:, i] = x.ravel()[start:start + count]
    return out


def scale_to_box(u: np.ndarray, lo, hi) -> np.ndarray:
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    return lo + u * (hi - lo)


def qmc_mean(
    f: Callable[[np.ndarray], np.ndarray | Iterable[np.ndarray]],
    dim: int,
    n_samples: int,
    seed: int = 0,
    shard_size: int = 65536,
) -> tuple[float, float, int] | list[tuple[float, float, int]]:
    """Mean of f over [0,1)^dim with a conservative MC-style standard error.

    f maps a (m, dim) batch of points to one row of m values, and then the
    result is (mean, stderr, n).  f may instead return an iterable of rows,
    for several integrands that share one set of evaluations; the result is
    then a list with one (mean, stderr, n) per row, each bit-for-bit what a
    one-row f returning that row alone gives.  Each row is reduced to its sum
    and its sum of squares before the next is drawn, so a generator f holds
    one row at a time.

    Sharded deterministically: shard k evaluates points [k*shard_size, ...)
    of the scrambled sequence and partial sums are combined in shard order.
    """
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    shards = [
        (k, min(shard_size, n_samples - k * shard_size))
        for k in range((n_samples + shard_size - 1) // shard_size)
    ]

    def run(shard):
        k, m = shard
        out = f(halton(dim, m, seed=seed, offset=k * shard_size))
        one_row = isinstance(out, np.ndarray)
        sums = []
        for row in (out,) if one_row else out:
            vals = np.asarray(row, dtype=float)
            sums.append((float(vals.sum()), float((vals * vals).sum())))
        return one_row, sums

    parts = [run(s) for s in shards]
    stats = []
    for row in zip(*(sums for _, sums in parts)):
        mean = sum(s1 for s1, _ in row) / n_samples
        var = max(sum(s2 for _, s2 in row) / n_samples - mean * mean, 0.0)
        stats.append((mean, (var / n_samples) ** 0.5, n_samples))
    return stats[0] if parts[0][0] else stats
