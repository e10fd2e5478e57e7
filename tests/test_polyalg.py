"""Appendix algorithms: exact decisions, stopping times, covers, scans."""

import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torsionlab
from torsionlab.polyalg import (
    HypothesisNotMet,
    IntervalSet,
    MonomialCover,
    MonomialPiece,
    check_refinement_bound,
    curve_monomialize,
    extract_two_terms,
    from_ratpoly,
    isolate_real_roots,
    monomialize,
    refine_interval,
    scale_count,
    sublevel_measure,
    sublevel_sweep,
    tangency_scan,
    ueval,
    umul,
)
from torsionlab.polyalg import (
    _center_test,
    _gap_points,
    _nonneg_on_positive_axis,
    _vector_taylor_sq,
)
from torsionlab.polycore import RatPoly


def F(n, d=1):
    return Fraction(n, d)


def _piece_exponents(sqs, lo, hi, b, eps):
    """Dominant exponent per group if domination holds on the open piece, else None.

    ``sqs`` holds each group's squared Taylor magnitudes around the center b,
    each list up to one positive factor (``_integer_taylor_sq``): one
    polynomial per group for scalar covers, all curve components in one group
    for curves.  A piece that contains its center is rejected; otherwise this
    is one call of the certifier that the sweep builds once per step and
    center (``_center_test``), so the comparisons on the piece's fixed side
    are made once per center and only those that depend on hi are redone.
    """
    if (lo is None or lo < b) and (hi is None or b < hi):
        return None
    return _center_test(sqs, lo, b, hi is not None and hi <= b, eps)(hi)


class TestRootIsolation:
    def test_quadratic(self):
        p = [F(-2), F(0), F(1)]
        ivs = isolate_real_roots(p)
        assert len(ivs) == 2
        for a, b in ivs:
            assert ueval(p, a) * ueval(p, b) <= 0

    def test_counts(self):
        p = [F(0), F(-1), F(0), F(1)]  # t^3 - t: roots -1, 0, 1
        assert len(isolate_real_roots(p, F(-2), F(2))) == 3
        assert len(isolate_real_roots(p, F(0), F(2))) == 1  # (0, 2] contains just 1

    @given(st.lists(st.integers(-4, 4), min_size=2, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_isolation_separates(self, coeffs):
        p = [Fraction(c) for c in coeffs]
        while p and p[-1] == 0:
            p.pop()
        if len(p) <= 1:
            return
        ivs = isolate_real_roots(p)
        for (a1, b1), (a2, b2) in zip(ivs, ivs[1:]):
            assert b1 <= a2


def from_roots(*roots):
    p = [F(1)]
    for r in roots:
        p = umul(p, [-F(r), F(1)])
    return p


class TestGapPoints:
    def test_roots_on_bisection_points(self):
        # the bisection of (0, 4] lands on every positive root, 0 is a root at
        # the left end, and the root at 1 is double
        p = from_roots(F(-1, 2), 0, F(1, 2), 1, 1, 2)
        assert all(ueval(p, b) == 0 for _, b in isolate_real_roots(p, lo=F(0)))
        pts = _gap_points(p, F(0))
        edges = [F(0), F(1, 2), F(1), F(2)]
        assert len(pts) == len(edges)
        for s, lo, hi in zip(pts, edges, edges[1:] + [None]):
            assert lo < s and (hi is None or s < hi)

    def test_triple_root_counterexample(self):
        # never reached through extract_two_terms: p(t) - t^k has at most two
        # sign changes, so by Descartes at most two positive roots
        q = from_roots(1, 1, 1, -2)
        holds, c = _nonneg_on_positive_axis(q)
        assert not holds and c > 0 and ueval(q, c) < 0


class TestExtractTwoTerms:
    def test_amgm_pair(self):
        r = extract_two_terms([1, 0, 1], 1)
        assert r.kind == "pair" and (r.n1, r.n2) == (0, 2)
        assert r.achieved == 1

    def test_single_term(self):
        r = extract_two_terms([0, 1], 1)
        assert r.kind == "single" and r.achieved == 1

    def test_fail_with_witness(self):
        r = extract_two_terms([0, F(1, 10)], 1)
        assert r.kind == "fail"
        t = r.counterexample
        assert t > 0 and F(1, 10) * t < t  # p(t) < t^k at the witness

    def test_touching_root_holds(self):
        # p(t) - t = (t - 1/2)^2 touches 0 at t = 1/2; the pair product is 1/4
        r = extract_two_terms([F(1, 4), 0, 1], 1)
        assert r.holds and (r.kind, r.n1, r.n2, r.achieved) == ("pair", 0, 2, F(1, 4))
        coeffs = [F(1, 4) - F(1, 10**6), 0, 1]
        r = extract_two_terms(coeffs, 1)
        t = r.counterexample
        assert r.kind == "fail" and t > 0 and ueval(coeffs, t) < t

    def test_nonnegative_required(self):
        with pytest.raises(HypothesisNotMet):
            extract_two_terms([-1, 2], 1)

    def test_decision_matches_grid_minimization(self):
        """Acceptance-style oracle: dense minimization of p(t) - t^k."""
        rng = random.Random(99)
        grid = np.exp(np.linspace(math.log(1e-6), math.log(1e6), 20001))
        for _ in range(100):
            deg = rng.randint(1, 6)
            coeffs = [Fraction(rng.randint(0, 8), rng.randint(1, 4))
                      for _ in range(deg + 1)]
            k = rng.randint(0, deg)
            r = extract_two_terms(coeffs, k)
            vals = np.zeros_like(grid)
            for i, c in enumerate(coeffs):
                vals += float(c) * grid ** i
            diff = vals - grid ** k
            grid_holds = diff.min() >= -1e-9 * np.abs(vals).max()
            if r.holds != grid_holds:
                # the exact decision wins on boundary cases; verify exactly
                # at the grid minimizer instead of trusting floats
                tmin = Fraction(float(grid[diff.argmin()])).limit_denominator(10**9)
                pv = sum(c * tmin ** i for i, c in enumerate(coeffs))
                assert (pv >= tmin ** k) == r.holds

    def test_witness_implies_domination(self):
        rng = random.Random(5)
        for _ in range(50):
            deg = rng.randint(1, 5)
            coeffs = [Fraction(rng.randint(0, 5), rng.randint(1, 3))
                      for _ in range(deg + 1)]
            k = rng.randint(0, deg)
            r = extract_two_terms(coeffs, k)
            if r.kind == "pair" and r.achieved >= 1:
                n1, n2 = r.n1, r.n2
                assert coeffs[n1] ** (n2 - k) * coeffs[n2] ** (k - n1) >= 1
                assert r.holds


class TestRefineInterval:
    def test_unit_interval(self):
        S = IntervalSet.from_pairs([[0, 1]])
        r = refine_interval(S)
        assert r["J"] == (F(0), F(1, 4))
        assert r["S_in_J"] == F(1, 4)
        assert r["iterations"] == 1

    def test_two_clusters(self):
        eps = F(1, 2 ** 10)
        S = IntervalSet.from_pairs([[0, eps], [1 - eps, 1]])
        r = refine_interval(S)
        # both clusters survive in the first split: J and K carry eps mass
        assert r["S_in_J"] == eps
        assert r["S_in_K"] == eps
        assert r["length_dist_ratio"] >= 1

    def test_single_far_interval(self):
        S = IntervalSet.from_pairs([[10, 11]])
        r = refine_interval(S)
        a, b = r["J"]
        assert F(10) <= a < b <= F(11)

    def test_corpus_product_bound(self):
        """|S n J| >= |S| / 4^(N+1) across a mixed corpus."""
        rng = random.Random(42)
        corpus = [
            IntervalSet.from_pairs([[0, 1]]),
            IntervalSet.from_pairs([[0, F(1, 1024)], [1 - F(1, 1024), 1]]),
            IntervalSet.from_pairs([[F(3), F(7, 2)]]),
            IntervalSet.from_pairs([[F(i, 10), F(i, 10) + F(1, 100)]
                                    for i in range(0, 10, 2)]),
        ]
        for _ in range(6):
            pairs = []
            lo = F(0)
            for _ in range(rng.randint(1, 6)):
                lo += F(rng.randint(1, 30), 100)
                hi = lo + F(rng.randint(1, 20), 1000)
                pairs.append([lo, hi])
                lo = hi
            corpus.append(IntervalSet.from_pairs(pairs))
        N = 3
        for S in corpus:
            r = refine_interval(S)
            assert r["S_in_J"] >= S.measure() / 4 ** (N + 1), S

    def test_zero_measure_rejected(self):
        with pytest.raises(HypothesisNotMet):
            refine_interval(IntervalSet.from_pairs([]))


class TestRefinementBound:
    def test_constant_polynomial(self):
        S = IntervalSet.from_pairs([[0, 1]])
        r = check_refinement_bound(S, RatPoly.const(1, 1), N=0)
        assert r["lhs"] == pytest.approx(1.0, rel=1e-6)
        assert r["ratio"] >= 1.0 - 1e-9

    def test_scale_invariance_of_ratio(self):
        # P = t^N on S = (0, delta): both sides scale as delta^(N+1)
        t = RatPoly.variable(1, 0)
        N = 3
        ratios = []
        for delta in (F(1), F(1, 2), F(1, 4)):
            S = IntervalSet.from_pairs([[0, delta]])
            r = check_refinement_bound(S, t ** N, N=N)
            ratios.append(r["ratio"])
        assert max(ratios) / min(ratios) == pytest.approx(1.0, rel=1e-4)

    def test_oscillating_polynomial_floor(self):
        # Chebyshev-like with zeros inside S still leaves a positive ratio
        t = RatPoly.variable(1, 0)
        p = (t * 2 - 1) * (t * 4 - 1) * (t * 4 - 3)
        S = IntervalSet.from_pairs([[0, 1]])
        r = check_refinement_bound(S, p, N=3)
        assert r["ratio"] > 1e-4
        # antiderivative 8t^4 - 16t^3 + 11t^2 - 3t takes 0, -9/32, -1/4,
        # -9/32, 0 at 0, 1/4, 1/2, 3/4, 1
        assert r["lhs"] == float(Fraction(9 + 1 + 1 + 9, 32))

    def test_irrational_root_lhs(self):
        # int_0^2 |t^2 - 2| dt = 8 sqrt(2)/3 - 4/3, cut at the root sqrt(2)
        S = IntervalSet.from_pairs([[0, 2]])
        r = check_refinement_bound(S, [-2, 0, 1], N=2)
        assert r["lhs"] == pytest.approx(8 * math.sqrt(2) / 3 - 4 / 3, rel=1e-13)

    def test_trailing_zero_coefficients(self):
        # a coefficient list is trimmed as a RatPoly is, so [1, 0] is the constant 1
        S = IntervalSet.from_pairs([[0, 1]])
        for padded, p in (([1, 0], [1]), ([-2, 0, 1, 0, 0], [-2, 0, 1])):
            got, want = check_refinement_bound(S, padded, N=2), check_refinement_bound(S, p, N=2)
            assert (got["lhs"], got["rhs"]) == (want["lhs"], want["rhs"])


class TestSublevel:
    def test_linear_exact(self):
        t = RatPoly.variable(1, 0)
        m = sublevel_measure(t, 0.25, n_samples=1 << 15)
        assert m["measure"] == pytest.approx(0.5, abs=2e-3)

    def test_power_scaling(self):
        for N in range(1, 6):
            t = RatPoly.variable(1, 0)
            sw = sublevel_sweep(t ** N, n_samples=1 << 14)
            assert sw["fitted_exponent"] >= 1.0 / N - 0.05
            assert sw["fitted_exponent"] == pytest.approx(1.0 / N, abs=0.03)

    def test_hyperbola_two_dimensional(self):
        x, y = RatPoly.variables(2)
        sw = sublevel_sweep(x * y, n_samples=1 << 14)
        # eps log(1/eps) scaling: fitted exponent below 1, above 1/2 floor
        assert sw["fitted_exponent"] >= 0.5

    def test_zero_rejected(self):
        with pytest.raises(HypothesisNotMet):
            sublevel_measure(RatPoly.zero(1), 0.1)


class TestMonomialize:
    def corpus(self):
        # ten families with rational real roots: fully certifiable covers
        t = RatPoly.variable(1, 0)
        return [
            [t],
            [t ** 2 - 1],
            [t, t - 1],
            [t ** 3 - t],
            [t ** 2 + 1],
            [(t * 2 - 1) * (t + 2)],
            [(t - 1) * (t - 2) * (t - 4)],
            [(t ** 2 - 1) * (t ** 2 - F(1, 4))],
            [t * 5 + 1, t ** 2 * 3],
            [t ** 3 + t ** 2 - 2 * t],
        ]

    def test_single_variable_identity(self):
        t = RatPoly.variable(1, 0)
        cover = monomialize([t], F(1, 10))
        assert len(cover.pieces) == 2
        assert all(p.exponents == (1,) for p in cover.pieces)
        assert all(p.center == 0 for p in cover.pieces)

    def test_domination_on_corpus(self):
        for polys in self.corpus():
            dense = [from_ratpoly(p) for p in polys]
            cover = monomialize(polys, F(1, 10))
            assert cover.diagnostics["uncertified_pieces"] == 0
            assert cover.verify(dense), polys

    @pytest.mark.parametrize("inv_eps", [10, 20, 40])
    def test_piece_count_grows_like_one_over_eps(self, inv_eps):
        # an exponent-0 piece centred at c certifies a length of about
        # eps * dist(c, root), so each of the 4 sides of the two simple roots
        # of t^2 - 1 takes about (1/eps) ln(1/eps^2) pieces to cross the
        # annulus [2 eps, 2/eps]: the 1/eps growth belongs to eps-domination
        t = RatPoly.variable(1, 0)
        pieces = len(monomialize([t ** 2 - 1], F(1, inv_eps)).pieces)
        predicted = 4 * inv_eps * math.log(inv_eps ** 2)
        assert 0.85 * predicted <= pieces <= 1.05 * predicted

    def test_pieces_cover_line(self):
        cover = monomialize([RatPoly.variable(1, 0) ** 2 - 1], F(1, 10))
        pieces = sorted(cover.pieces, key=lambda p: (p.lo is not None, p.lo or 0))
        assert pieces[0].lo is None
        assert pieces[-1].hi is None or any(p.hi is None for p in pieces)
        bounded = sorted([p for p in cover.pieces if p.lo is not None and p.hi is not None],
                         key=lambda p: p.lo)
        for a, b in zip(bounded, bounded[1:]):
            assert a.hi == b.lo  # closures tile with no gaps

    def test_eps_range_enforced(self):
        with pytest.raises(HypothesisNotMet):
            monomialize([RatPoly.variable(1, 0)], F(3, 2))

    def test_irrational_roots_leave_hairline_gutters(self):
        # sqrt(2) cannot be a rational endpoint: the cover brackets it with a
        # reported gutter of negligible measure and certifies everything else
        t = RatPoly.variable(1, 0)
        p = t ** 2 - 2
        cover = monomialize([p], F(1, 10))
        assert cover.diagnostics["uncertified_pieces"] == 0
        assert cover.diagnostics["root_gutters"] == 2
        assert cover.diagnostics["gutter_measure"] < 1e-10
        assert cover.verify([from_ratpoly(p)])


class TestCurveMonomialize:
    def test_parabola_transition(self):
        t = RatPoly.variable(1, 0)
        cover = curve_monomialize([t, t ** 2], F(1, 10))
        assert cover.diagnostics["uncertified_pieces"] == 0
        # near zero |gamma| ~ |t| (k=1); the unbounded tails run as t^2 (k=2)
        near = [p for p in cover.pieces
                if p.lo is not None and p.hi is not None and 0 <= p.lo < F(1, 100)]
        tails = [p for p in cover.pieces if p.lo is None or p.hi is None]
        assert near and all(p.exponents == (1,) for p in near)
        assert tails and all(p.exponents == (2,) for p in tails)

    def test_piece_containing_its_center_rejected(self):
        # near 0 the parabola runs as |t|, so (-inf, 20) around 0 is no t^2 piece;
        # the same check must hold for one scalar group and for the curve group
        comps = [[F(0), F(1)], [F(0), F(0), F(1)]]
        for groups in ([comps], [[c] for c in comps]):
            sqs = [_vector_taylor_sq(g, F(0)) for g in groups]
            assert _piece_exponents(sqs, None, F(20), F(0), F(1, 10)) is None
            assert _piece_exponents(sqs, F(-1), F(1), F(0), F(1, 10)) is None
        curve = [_vector_taylor_sq(comps, F(0))]
        assert _piece_exponents(curve, F(20), None, F(0), F(1, 10)) == (2,)
        assert _piece_exponents(curve, F(0), F(1, 10), F(0), F(1, 10)) == (1,)

    def test_monomial_two_pieces(self):
        t = RatPoly.variable(1, 0)
        cover = curve_monomialize([t ** 2], F(1, 10))
        assert len(cover.pieces) == 2

    def test_cubic_offset_curve(self):
        t = RatPoly.variable(1, 0)
        gamma = [t + 1, t ** 3]
        cover = curve_monomialize(gamma, F(1, 10))
        assert cover.diagnostics["uncertified_pieces"] == 0
        assert cover.verify([from_ratpoly(g) for g in gamma])

    def test_verify_checks_curve_covers(self):
        # one exponent for two polynomials marks a curve cover, which is
        # checked on |gamma|, not component by component
        gamma = [[F(0), F(1)], [F(0), F(0), F(1)]]
        cover = curve_monomialize(gamma, F(1, 10))
        assert len(cover.pieces) == 153
        assert cover.verify(gamma)
        i = next(i for i, p in enumerate(cover.pieces) if p.exponents == (1,))
        cover.pieces[i] = replace(cover.pieces[i], exponents=(2,))
        assert not cover.verify(gamma)


def _violated_at(groups, piece, eps, t):
    """Domination checked directly at the point t, in Fractions."""
    d2 = (t - piece.center) ** 2
    for group, k_star in zip(groups, piece.exponents):
        sq = _vector_taylor_sq(group, piece.center)
        lead = sq[k_star] * d2 ** k_star
        if any(k != k_star and s * d2 ** k > eps * eps * lead for k, s in enumerate(sq)):
            return True
    return False


class TestCoverVerify:
    """verify decides domination on whole closed pieces; each case can fail."""

    eps = F(1, 10)
    parabola = [[F(0), F(1)], [F(0), F(0), F(1)]]          # the curve (t, t^2)
    t_plus_t2 = [[F(0), F(1), F(1)]]                      # the scalar t + t^2

    def verify(self, piece, polys):
        return MonomialCover([piece], self.eps).verify(polys)

    def test_piece_grown_past_far_end_rejected(self):
        # the sweep ends each piece as far as the grid allows, so growing it by
        # 1% of its width past its far end often breaks domination: wherever a
        # point just inside the new end violates it, verify rejects, and
        # otherwise verify decides as the direct check at the new end itself
        rejected = 0
        for polys in TestMonomialize().corpus():
            dense = [from_ratpoly(p) for p in polys]
            groups = [[p] for p in dense]
            for piece in monomialize(polys, self.eps).pieces:
                if piece.lo is None or piece.hi is None:
                    continue
                step = (piece.hi - piece.lo) / 100
                if piece.hi - piece.center >= piece.center - piece.lo:
                    grown = replace(piece, hi=piece.hi + step)
                    end, inside = grown.hi, grown.hi - step / 10**4
                else:
                    grown = replace(piece, lo=piece.lo - step)
                    end, inside = grown.lo, grown.lo + step / 10**4
                ok = self.verify(grown, dense)
                assert ok == (not _violated_at(groups, grown, self.eps, end)), (polys, piece)
                if _violated_at(groups, grown, self.eps, inside):
                    rejected += 1
        assert rejected >= 200

    def test_near_end_pulled_toward_center_rejected(self):
        # |gamma| runs as t^2 from distance 10 on: 1 <= eps^2 * 10^2 holds with
        # equality at the near end, and fails once the near end is 9
        for polys, groups in ((self.parabola, [self.parabola]),
                              (self.t_plus_t2, [[p] for p in self.t_plus_t2])):
            for near, far in ((F(10), F(30)), (F(-10), F(-30))):
                piece = MonomialPiece(min(near, far), max(near, far), F(0), (2,))
                assert self.verify(piece, polys)
                pulled = near * F(9, 10)
                piece = MonomialPiece(min(pulled, far), max(pulled, far), F(0), (2,))
                assert not self.verify(piece, polys)
                assert _violated_at(groups, piece, self.eps, pulled * F(1001, 1000))

    def test_tail_below_top_exponent_rejected(self):
        # an unbounded side admits no nonzero term above the dominant one
        assert self.verify(MonomialPiece(F(20), None, F(0), (2,)), self.parabola)
        assert not self.verify(MonomialPiece(F(20), None, F(0), (1,)), self.parabola)
        lowered = 0
        for polys in TestMonomialize().corpus()[:4]:
            dense = [from_ratpoly(p) for p in polys]
            for piece in monomialize(polys, self.eps).pieces:
                if piece.lo is not None and piece.hi is not None:
                    continue
                for i, k in enumerate(piece.exponents):
                    if k:
                        exps = piece.exponents[:i] + (k - 1,) + piece.exponents[i + 1:]
                        assert not self.verify(replace(piece, exponents=exps), dense)
                        lowered += 1
        assert lowered == 10

    def test_closed_piece_holding_its_center(self):
        # around 0 the parabola runs as |t|: [-20, 30] is no t^2 piece, though
        # both its ends are at least 20 from the center; [-1/10, 1/10] is a t piece
        for polys, groups in ((self.parabola, [self.parabola]),
                              (self.t_plus_t2, [[p] for p in self.t_plus_t2])):
            piece = MonomialPiece(F(-20), F(30), F(0), (2,))
            assert not self.verify(piece, polys)
            assert _violated_at(groups, piece, self.eps, F(1, 100))
            assert self.verify(MonomialPiece(F(-1, 10), F(1, 10), F(0), (1,)), polys)
            assert not self.verify(MonomialPiece(F(-1, 10), F(1, 9), F(0), (1,)), polys)


def _fraction_piece_exponents(sqs, lo, hi, b, eps):
    """The domination test in Fraction arithmetic, the reference for the integer one."""
    if (lo is None or lo < b) and (hi is None or b < hi):
        return None
    if hi is not None and hi <= b:
        d_near, d_far = b - hi, None if lo is None else b - lo
    else:
        d_near, d_far = lo - b, None if hi is None else hi - b
    eps2 = eps * eps
    exps = []
    for sq in sqs:
        nz = [k for k, c in enumerate(sq) if c]
        k_star = next((j for j in nz if all(
            sq[k] <= eps2 * sq[j] * d_near ** (2 * (j - k)) if k < j
            else d_far is not None and sq[k] * d_far ** (2 * (k - j)) <= eps2 * sq[j]
            for k in nz if k != j)), None)
        if k_star is None:
            return None
        exps.append(k_star)
    return tuple(exps)


class TestIntegerPredicate:
    """The sweep's integer domination test against the Fraction reference."""

    @staticmethod
    def _poly(rng, max_deg):
        p = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(1, max_deg + 1))]
        if rng.random() < 0.3:
            p[0] = F(0)          # a root at 0, a center the cases use often
        while p and p[-1] == 0:
            p.pop()
        return p

    def _groups(self, rng):
        if rng.random() < 0.5:   # scalar cover: one polynomial per group
            polys = [self._poly(rng, 4) or [F(1)] for _ in range(rng.randint(1, 3))]
            return [[p] for p in polys]
        comps = [self._poly(rng, 4) for _ in range(rng.randint(2, 3))]
        return [comps if any(comps) else comps + [[F(0), F(1)]]]

    @staticmethod
    def _gutters():
        """Gutter centers beside the irrational roots of t^2 - 2 and t^3 - 3t + 1."""
        from torsionlab.polyalg import _anchors

        return [c for poly in ([F(-2), F(0), F(1)], [F(1), F(-3), F(0), F(1)])
                for a, b, c in _anchors(poly, F(1, 10)) if a != b]

    def _case(self, rng, gutters):
        """(groups, center b, eps) for one reference case."""
        groups = self._groups(rng)
        b = rng.choice([F(0), F(rng.randint(-20, 20), rng.randint(1, 8)), rng.choice(gutters)])
        return groups, b, rng.choice([F(1, 10), F(1, 3), F(2, 7), F(99, 100)])

    @staticmethod
    def _piece(rng, b):
        """(lo, hi) with b outside, at a distance d_near >= 0 that may be 0."""
        scale = F(2) ** rng.randint(-8, 4)
        d_near = rng.choice([F(0), scale, scale * F(rng.randint(1, 15), 8)])
        width = None if rng.random() < 0.2 else scale * F(rng.randint(1, 40), 8)
        if rng.random() < 0.5:
            return b + d_near, None if width is None else b + d_near + width
        return None if width is None else b - d_near - width, b - d_near

    def test_matches_fraction_reference(self):
        from torsionlab.polyalg import (
            _integer_group,
            _integer_taylor_sq,
            _vector_taylor_sq,
        )

        rng = random.Random(7)
        gutters = self._gutters()
        assert len(gutters) == 5 and all(c.denominator > 2 ** 40 for c in gutters)
        outcomes = {}
        for case in range(1500):
            groups, b, eps = self._case(rng, gutters)
            frac_sqs = [_vector_taylor_sq(g, b) for g in groups]
            int_sqs = []
            for g in groups:
                ints = _integer_taylor_sq(_integer_group(g), b)
                scale = math.lcm(*(c.denominator for p in g for c in p))
                scale *= b.denominator ** (max(len(p) for p in g) - 1)
                assert ints == [scale * scale * s for s in frac_sqs[len(int_sqs)]]
                int_sqs.append(ints)
            for _ in range(4):
                lo, hi = self._piece(rng, b)
                want = _fraction_piece_exponents(frac_sqs, lo, hi, b, eps)
                assert _piece_exponents(int_sqs, lo, hi, b, eps) == want, (groups, b, lo, hi, eps)
                kind = (len(groups[0]) > 1, lo is None or hi is None,
                        b in (lo, hi), b.denominator > 2 ** 40)
                outcomes.setdefault(kind, set()).add(want)
        # every kind of case occurs, and each decides both ways
        assert len(outcomes) == 16
        assert all(None in seen and len(seen) > 1 for seen in outcomes.values())


    def test_certifier_matches_fraction_reference(self):
        # the sweep builds one certifier per step and center and asks it about
        # several ends: the step's right end and grid points toward it
        from torsionlab.polyalg import _grid_point, _integer_group, _integer_taylor_sq

        rng = random.Random(11)
        gutters = self._gutters()
        outcomes = {}
        for case in range(300):
            groups, b, eps = self._case(rng, gutters)
            frac_sqs = [_vector_taylor_sq(g, b) for g in groups]
            int_sqs = [_integer_taylor_sq(_integer_group(g), b) for g in groups]
            scale = F(2) ** rng.randint(-8, 4)
            gap = rng.choice([F(0), scale, scale * F(rng.randint(1, 15), 8)])
            width = None if rng.random() < 0.25 else scale * F(rng.randint(1, 40), 8)
            right_side = rng.random() < 0.5
            if right_side:       # the right anchor, at or beyond the step's right end
                right = b - gap
                lo = None if width is None else right - width
            else:                # the left anchor, or the step's own center (gap 0)
                lo = b + gap
                right = None if width is None else lo + width
            test = _center_test(int_sqs, lo, b, right_side, eps)
            his = {right} | {_grid_point(lo, right, k) for k in range(-120, 60, 3)}
            assert len(his) >= 8
            for hi in his:
                want = _fraction_piece_exponents(frac_sqs, lo, hi, b, eps)
                assert test(hi) == want, (groups, b, lo, hi, right_side, eps)
                for kind, holds in (("right side", right_side), ("left side", not right_side),
                                    ("lo None", lo is None), ("hi None", hi is None),
                                    ("own center", lo == b), ("hi == b", hi == b),
                                    ("gutter", b.denominator > 2 ** 40)):
                    if holds:
                        outcomes.setdefault(kind, set()).add(want is None)
        # every kind of case occurs, and each decides both ways
        assert len(outcomes) == 7
        assert all(seen == {True, False} for seen in outcomes.values()), outcomes


class TestGridPoint:
    """Sweep ends built in integers against the Fraction formula."""

    @staticmethod
    def width(k):
        return (8 + k % 8) * F(2) ** (k // 8 - 3)

    def test_matches_fraction_formula(self):
        from torsionlab.polyalg import _MIN_GRID_INDEX, _grid_point

        ks = range(_MIN_GRID_INDEX, 201)
        for lo in (F(-5), F(7, 3), F(-123456789, 2 ** 40 + 15)):
            for right in (None, lo + F(1000, 7)):
                got = [_grid_point(lo, right, k) for k in ks]
                want = [min(lo + self.width(k), right or lo + self.width(k)) for k in ks]
                assert got == want
                capped = [g == right for g in got]
                cut = capped.index(True) if right is not None else len(got)
                assert 0 < cut < len(got) or right is None
                assert all(capped[cut:])
                assert all(a < b for a, b in zip(got[:cut], got[1:cut]))
                assert all(type(g) is Fraction and math.gcd(g.numerator, g.denominator) == 1
                           for g in got)
        for right in (F(0), F(-7, 3), F(123456789, 2 ** 40 + 15)):   # the left tail
            got = [_grid_point(None, right, k) for k in ks]
            assert got == [right - self.width(-k) for k in ks]
            assert all(a < b for a, b in zip(got, got[1:])) and got[-1] < right
            assert all(math.gcd(g.numerator, g.denominator) == 1 for g in got)


class TestTangencyScan:
    def test_parabola_geometric_times(self):
        t = RatPoly.variable(1, 0)
        r = tangency_scan([t, t ** 2], [4 ** i for i in range(1, 8)],
                          delta=0.9, eps=0.05)
        assert r["verdict"] == "TangencyFound"

    def test_fixed_direction(self):
        t = RatPoly.variable(1, 0)
        r = tangency_scan([t, t * 3], [2 ** i for i in range(1, 6)],
                          delta=0.9, eps=1e-9)
        assert r["verdict"] == "TangencyFound"
        assert r["index"] == 0          # parallel curve: ratio identically 0

    def test_hypothesis_gate(self):
        t = RatPoly.variable(1, 0)
        with pytest.raises(HypothesisNotMet):
            tangency_scan([t, t ** 2], [4, 4, 4], delta=0.5, eps=0.1)

    def test_tangency_decided_exactly(self):
        # at t = 2, (t, t^2 + 1) has |gamma ^ gamma'|^2 = 9 and |gamma|^2 |gamma'|^2
        # = 29 * 17; the float ratio rounds above 3/sqrt(493), so with eps set to
        # it the exact test finds the tangency and the float test r < eps does not
        gamma = [[F(0), F(1)], [F(1), F(0), F(1)]]
        r = tangency_scan(gamma, [2], delta=2.0, eps=1.0)["ratios"][0]
        assert Fraction(r) ** 2 * 493 > 9 and not r < r
        out = tangency_scan(gamma, [2], delta=2.0, eps=r)
        assert out["verdict"] == "TangencyFound" and out["ratio"] == r
        assert tangency_scan(gamma, [2], delta=2.0, eps=math.nextafter(r, 0))["verdict"] \
            == "ViolationWitness"

    def test_growth_chain_decided_exactly(self):
        # |gamma(1)|^2 = 5 < delta^2 |gamma(2)|^2 = 29 delta^2 holds exactly, while
        # the float norms give |gamma(1)| >= delta |gamma(2)|
        gamma = [[F(0), F(1)], [F(1), F(0), F(1)]]
        delta = 0.4152273992686999
        assert Fraction(delta) ** 2 * 29 > 5
        assert not np.linalg.norm([1.0, 2.0]) < delta * np.linalg.norm([2.0, 5.0])
        assert tangency_scan(gamma, [1, 2], delta=delta, eps=0.5)["verdict"] == "TangencyFound"
        with pytest.raises(HypothesisNotMet):
            tangency_scan(gamma, [1, 2], delta=math.nextafter(delta, 0), eps=0.5)


class TestScaleCount:
    def test_matching_linear(self):
        t = [F(0), F(1)]
        r = scale_count(t, t, 1, 1, range(-10, 11))
        assert r["count"] <= 3

    def test_constants(self):
        r = scale_count([F(1)], [F(1)], 1, 1, range(-10, 11))
        assert r["count"] <= 3
        assert 0 in r["feasible_k"]

    def test_shifted_quadratics_stable(self):
        t2 = [F(0), F(0), F(1)]
        shifted = [F(1), F(-2), F(1)]
        small = scale_count(t2, shifted, 1, 1, range(-10, 11))["count"]
        large = scale_count(t2, shifted, 1, 1, range(-25, 26))["count"]
        assert small <= large <= small + 2  # stabilizes as the window grows

    def test_constant_input_does_not_clip_the_other(self):
        # k = -2: |1/3| lies in [1/8, 1/2] and |3/2 - t| in [8, 32] at t = 10,
        # far outside the window the constant's own levels would give
        r = scale_count([F(1, 3)], [F(3, 2), F(-1)], 1, 2, range(-6, 7))
        assert r["feasible_k"] == [-2, -1]
        # k = 2: |5/2 - 2t/3| lies in [8, 32] at t = 30, |-1/3| in [1/8, 1/2]
        r = scale_count([F(5, 2), F(-2, 3)], [F(-1, 3)], 2, 1, range(-6, 7))
        assert r["feasible_k"] == [1, 2]


def test_exact_toolbox_runs_without_numpy():
    # numpy is imported only inside the four float functions
    code = "\n".join([
        "import sys; sys.modules['numpy'] = None",
        "from fractions import Fraction as F",
        "from torsionlab import polyalg as pa",
        "p = [F(-1), F(0), F(1)]",
        "assert pa.monomialize([p], F(1, 10)).verify([p])",
        "pa.refine_interval(pa.IntervalSet.from_pairs([[0, 1]]))",
        "assert pa.extract_two_terms([1, 0, 1], 1).holds",
        "assert pa.scale_count([F(1)], [F(1)], 1, 1, range(-2, 3))['count']",
    ])
    src = str(Path(torsionlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
