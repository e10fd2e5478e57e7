"""Low-discrepancy sampler: bits against the digit loop, determinism,
sharding invariance, uniformity."""

from fractions import Fraction

import numpy as np
import pytest

from torsionlab.sampling import (
    _PRIMES,
    _digit_permutation,
    halton,
    qmc_mean,
    scale_to_box,
)


def _reference_halton(dim, count, seed=0, offset=0):
    """The digit-by-digit fold: every digit of every index, least
    significant first, over the whole index array."""
    idx = np.arange(offset + 1, offset + count + 1, dtype=np.int64)
    out = np.empty((count, dim))
    for i in range(dim):
        b = _PRIMES[i]
        perm = _digit_permutation(b, seed)
        x = np.zeros(count)
        denom = 1.0
        n = idx.copy()
        while n.max() > 0:
            n, digit = np.divmod(n, b)
            denom *= b
            x += perm[digit] / denom
        out[:, i] = x
    return out


_BIT_CASES = [
    # the four shards of a 2^18-point run in dim 3
    *((3, 65536, seed, k * 65536) for seed in (0, 2) for k in range(4)),
    # unaligned offsets, up to past 10^7
    *((5, 1000, 3, off) for off in (1, 99, 12345, 999983, 10**7 + 17)),
    (2, 70000, 5, 123456),
    # the counts ccballs asks for
    *((n, count, seed, 0) for count in (1, 6, 16, 25)
      for n in (2, 3) for seed in (0, 7)),
    # every dimension of the prime table
    *((dim, 2000, dim % 3, 41) for dim in range(1, 31)),
]


class TestHalton:
    @pytest.mark.parametrize("dim, count, seed, offset", _BIT_CASES)
    def test_bits_match_digit_loop(self, dim, count, seed, offset):
        assert np.array_equal(halton(dim, count, seed=seed, offset=offset),
                              _reference_halton(dim, count, seed, offset))

    def test_batches_are_column_major(self):
        # each coordinate is one contiguous vector; the bits do not depend on it
        pts = halton(3, 100, seed=2, offset=7)
        assert pts.flags.f_contiguous and not pts.flags.c_contiguous

    @pytest.mark.parametrize("base, seed", [(2, 0), (7, 0), (7, 3), (113, 5), (29, 2**31)])
    def test_digit_permutation_is_a_read_only_fresh_shuffle(self, base, seed):
        perm = _digit_permutation(base, seed)
        expected = np.arange(base)
        if seed:
            rs = np.random.RandomState((seed * 1000003 + base) % (2**32))
            rs.shuffle(expected[1:])
        assert np.array_equal(perm, expected)
        assert not perm.flags.writeable
        with pytest.raises(ValueError):
            perm[0] = 1
        # drawn once per (base, seed)
        assert _digit_permutation(base, seed) is perm

    def test_unscrambled_points_are_radical_inverses(self):
        # points 1..4 in bases 2, 3, 5; base 2 alone cannot tell the order of
        # the float sums apart, because its sums are exact
        expected = [[Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)],
                    [Fraction(1, 4), Fraction(2, 3), Fraction(2, 5)],
                    [Fraction(3, 4), Fraction(1, 9), Fraction(3, 5)],
                    [Fraction(1, 8), Fraction(4, 9), Fraction(4, 5)]]
        assert halton(3, 4).tolist() == [[float(v) for v in row] for row in expected]

    def test_zero_count_gives_empty_batch(self):
        assert halton(3, 0, seed=2, offset=10).shape == (0, 3)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="count"):
            halton(3, -1)

    def test_deterministic(self):
        a = halton(3, 500, seed=7)
        b = halton(3, 500, seed=7)
        assert np.array_equal(a, b)

    def test_seed_changes_points(self):
        assert not np.array_equal(halton(2, 100, seed=1), halton(2, 100, seed=2))

    def test_offset_continues_sequence(self):
        whole = halton(2, 300, seed=3)
        parts = np.vstack([halton(2, 100, seed=3, offset=k * 100) for k in range(3)])
        assert np.array_equal(whole, parts)

    def test_range_and_uniformity(self):
        pts = halton(4, 8000, seed=5)
        assert pts.min() >= 0 and pts.max() < 1
        assert np.allclose(pts.mean(axis=0), 0.5, atol=0.01)

    def test_low_discrepancy_beats_noise(self):
        # mean of u over 10^4 scrambled-Halton points is far tighter than the
        # 1/sqrt(n) Monte Carlo deviation
        pts = halton(1, 10000, seed=9)
        assert abs(pts.mean() - 0.5) < 0.001


class TestQmcMean:
    def test_exact_constant(self):
        m, se, n = qmc_mean(lambda p: np.ones(len(p)), 3, 10000, seed=1)
        assert m == 1.0 and se == 0.0 and n == 10000

    def test_product_moment(self):
        m, _, _ = qmc_mean(lambda p: p[:, 0] * p[:, 1], 2, 60000, seed=2)
        assert abs(m - 0.25) < 1e-3

    def test_shard_size_only_reorders_rounding(self):
        # same point set either way; only float summation order differs
        f = lambda p: np.sin(p[:, 0]) + p[:, 1] ** 2
        a = qmc_mean(f, 2, 30000, seed=4, shard_size=1 << 16)
        b = qmc_mean(f, 2, 30000, seed=4, shard_size=999)
        assert a[0] == pytest.approx(b[0], rel=1e-12)

    def test_rows_match_one_row_calls(self):
        # each row of a multi-row f gives what f restricted to that row gives,
        # for any shard size
        rows = [lambda p: p[:, 0] ** 3, lambda p: np.sin(p[:, 0] + p[:, 1]),
                lambda p: (p[:, 1] > 0.4).astype(float)]

        def f(p):
            for g in rows:
                yield g(p)

        for shard_size in (1 << 16, 4096, 999):
            single = [qmc_mean(g, 2, 50000, seed=6, shard_size=shard_size)
                      for g in rows]
            multi = qmc_mean(f, 2, 50000, seed=6, shard_size=shard_size)
            assert multi == single, shard_size

    def test_no_rows_gives_empty_list(self):
        assert qmc_mean(lambda p: iter(()), 2, 100, seed=1) == []

    @pytest.mark.parametrize("n", [0, -5])
    def test_rejects_sample_count_below_one(self, n):
        with pytest.raises(ValueError, match="n_samples"):
            qmc_mean(lambda p: np.ones(len(p)), 2, n)

    def test_stderr_shrinks_with_budget(self):
        f = lambda p: (p[:, 0] > 0.371).astype(float)
        _, se1, _ = qmc_mean(f, 1, 10000, seed=8)
        _, se2, _ = qmc_mean(f, 1, 40000, seed=8)
        assert se2 < se1 / 1.8  # at least the MC sqrt-rate


def test_scale_to_box():
    u = np.array([[0.0, 0.5], [1.0, 0.25]])
    out = scale_to_box(u, [-1, 0], [1, 4])
    assert np.allclose(out, [[-1, 2], [1, 1]])


def test_scale_to_box_keeps_the_layout_and_the_bits():
    u = halton(3, 500, seed=4)
    lo, hi = [-1, 0.5, -3], [1, 2.25, 0.1]
    from_f = scale_to_box(u, lo, hi)
    from_c = scale_to_box(np.ascontiguousarray(u), lo, hi)
    assert from_f.flags.f_contiguous and not from_f.flags.c_contiguous
    assert from_f.tobytes() == from_c.tobytes()
