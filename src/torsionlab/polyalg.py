"""Constructive one-variable polynomial algorithms from the appendix toolbox.

Contents: exact two-term extraction for monomial-domination tests, the
quarter-splitting interval refinement stopping time, sublevel-measure scaling
probes, monomialization covers (each input polynomial comparable to a single
Taylor monomial on every piece), the curve variant, a curve-tangency scan,
and the two-polynomial scale-counting bound.

Univariate polynomials are handled both as RatPoly values (nvars == 1) and as
dense Fraction coefficient lists (index = degree); conversion helpers sit at
the top.  Interval endpoints and thresholds stay rational wherever a decision
is made.  The monomialization covers use no floats at all: their cuts are
Sturm-isolated roots, recovered exactly when rational and bracketed by hairline
rational gutters otherwise.  Floats appear only in diagnostics and in the
numeric probes (sublevel sampling, the tangency scan); numpy is imported
inside the four functions that use it, so the exact algorithms run without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .polycore import RatPoly


class HypothesisNotMet(ValueError):
    """Input fails the stated hypothesis of the algorithm."""


class RefinementDidNotTerminate(RuntimeError):
    """Stopping time exceeded its iteration cap (should be impossible)."""


# -- dense univariate helpers over Q ------------------------------------------

def utrim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def uadd(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    n = max(len(p), len(q))
    return utrim([
        (p[i] if i < len(p) else Fraction(0)) + (q[i] if i < len(q) else Fraction(0))
        for i in range(n)
    ])


def uscale(p: list[Fraction], c: Fraction) -> list[Fraction]:
    return utrim([x * c for x in p])


def umul(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return utrim(out)


def uderiv(p: list[Fraction]) -> list[Fraction]:
    return utrim([p[i] * i for i in range(1, len(p))])


def ueval(p: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(list(p)):
        acc = acc * x + c
    return acc


def udivmod(p: list[Fraction], q: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    if not q:
        raise ZeroDivisionError
    p = list(p)
    quo = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    while len(p) >= len(q) and p:
        c = p[-1] / q[-1]
        d = len(p) - len(q)
        quo[d] = c
        for i in range(len(q)):
            p[d + i] -= c * q[i]
        utrim(p)
    return utrim(quo), p


def ugcd(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    a, b = list(p), list(q)
    while b:
        a, b = b, udivmod(a, b)[1]
    if a:
        a = uscale(a, 1 / a[-1])
    return a


def usquarefree(p: list[Fraction]) -> list[Fraction]:
    if len(p) <= 1:
        return list(p)
    g = ugcd(p, uderiv(p))
    if len(g) <= 1:
        return list(p)
    return udivmod(p, g)[0]


def from_ratpoly(p: RatPoly) -> list[Fraction]:
    if p.nvars != 1:
        raise ValueError("expected a univariate polynomial")
    out = [Fraction(0)] * (p.total_degree() + 1 if not p.is_zero() else 0)
    for exp, c in p.terms.items():
        out[exp[0]] = c
    return utrim(out)


def _dense(p: RatPoly | Sequence) -> list[Fraction]:
    """Trimmed coefficient list of a univariate RatPoly or a coefficient sequence."""
    return from_ratpoly(p) if isinstance(p, RatPoly) else utrim([Fraction(c) for c in p])


# -- Sturm chains and exact real-root isolation --------------------------------

def _sturm_chain(p: list[Fraction]) -> list[list[Fraction]]:
    chain = [list(p), uderiv(p)]
    while chain[-1]:
        rem = udivmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(uscale(rem, Fraction(-1)))
    return [c for c in chain if c]


def _sign_changes(chain: list[list[Fraction]], x: Fraction) -> int:
    signs = []
    for c in chain:
        v = ueval(c, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def root_bound(p: list[Fraction]) -> Fraction:
    """Cauchy bound: all real roots lie in [-B, B]."""
    if len(p) <= 1:
        return Fraction(1)
    lead = abs(p[-1])
    b = max(abs(c) for c in p[:-1]) / lead
    return Fraction(1) + b


def isolate_real_roots(p: list[Fraction], lo: Fraction | None = None,
                       hi: Fraction | None = None) -> list[tuple[Fraction, Fraction]]:
    """Disjoint rational intervals (a, b], one distinct real root each."""
    sf = usquarefree(list(p))
    if len(sf) <= 1:
        return []
    B = root_bound(sf)
    lo = -B if lo is None else Fraction(lo)
    hi = B if hi is None else Fraction(hi)
    if lo >= hi:
        return []
    return _isolate(sf, _sturm_chain(sf), lo, hi)


def _isolate(sf: list[Fraction], chain: list[list[Fraction]], lo: Fraction,
             hi: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Bisect (lo, hi] into sorted intervals (a, b], one root of sf each."""
    out: list[tuple[Fraction, Fraction]] = []

    def rec(a: Fraction, b: Fraction, va: int, vb: int):
        k = va - vb
        if k == 0:
            return
        if k == 1:
            out.append((a, b))
            return
        m = (a + b) / 2
        vm = _sign_changes(chain, m)
        rec(a, m, va, vm)
        rec(m, b, vm, vb)

    rec(lo, hi, _sign_changes(chain, lo), _sign_changes(chain, hi))
    return out


def _gap_points(p: list[Fraction], lo: Fraction) -> list[Fraction]:
    """One rational point in each open gap between the distinct roots of p in (lo, inf).

    The first point lies in (lo, first root), the last one beyond the last
    root.  The gap ending at the root r isolated in (a, b] gets the first of
    (a + b)/2, (3a + b)/4, ... left of r; a is at or past the previous root.
    r is a simple root of the squarefree part, so m in (a, b) is left of r
    exactly when r = b or m has the sign opposite to b.
    """
    sf = usquarefree(list(p))
    hi = max(root_bound(sf), lo + 1)  # the Cauchy bound is strict
    points = []
    for a, b in _isolate(sf, _sturm_chain(sf), lo, hi):
        vb = ueval(sf, b)
        m = (a + b) / 2
        while vb and ueval(sf, m) * vb >= 0:
            m = (a + m) / 2
        points.append(m)
    return points + [hi]


def refine_root(p: list[Fraction], interval: tuple[Fraction, Fraction],
                width: Fraction) -> tuple[Fraction, Fraction]:
    """Bisect an isolating (a, b] until b - a <= width (or exact collapse).

    Bisection runs on the squarefree part, whose root is a simple crossing,
    so multiple roots refine correctly; the left endpoint is never evaluated
    because it may be a root belonging to the neighboring interval.
    """
    sf = usquarefree(list(p))
    a, b = interval
    vb = ueval(sf, b)
    if vb == 0:
        return (b, b)
    fb_pos = vb > 0
    while b - a > width:
        m = (a + b) / 2
        vm = ueval(sf, m)
        if vm == 0:
            return (m, m)
        if (vm > 0) == fb_pos:
            b, fb_pos = m, vm > 0
        else:
            a = m
    return (a, b)


# -- two-term extraction --------------------------------------------------------

@dataclass(frozen=True)
class ExtractResult:
    """Outcome of the monomial-domination test t^k <= p(t) on (0, inf).

    kind is 'single' (a_k alone suffices), 'pair' (two straddling terms carry
    the bound; ``achieved`` is the exact pair product a_n1^(n2-k) a_n2^(k-n1),
    at least 1 when a unit-constant witness exists), or 'fail' with an exact
    rational counterexample point.
    """

    kind: str
    holds: bool
    n1: int | None = None
    n2: int | None = None
    achieved: Fraction | None = None
    counterexample: Fraction | None = None


def _nonneg_on_positive_axis(q: list[Fraction]) -> tuple[bool, Fraction | None]:
    """Exactly decide q >= 0 on (0, inf); rational counterexample when false.

    q keeps one sign between consecutive roots, so one point per gap decides.
    """
    q = utrim([Fraction(c) for c in q])
    if not q:
        return True, None
    counter = next((s for s in _gap_points(q, Fraction(0)) if ueval(q, s) < 0), None)
    return counter is None, counter


def extract_two_terms(coeffs: Sequence, k: int) -> ExtractResult:
    """Two-term witness extraction for t^k <= p(t), p with nonnegative coefficients.

    The exact pair criterion a_n1^(n2-k) a_n2^(k-n1) >= 1 (n1 < k < n2) or
    a_k >= 1 is sufficient for domination; the domination predicate itself is
    decided exactly by root isolation, so near-critical inputs where the best
    pair product dips below 1 still report the true verdict.
    """
    cs = [Fraction(c) for c in coeffs]
    if any(c < 0 for c in cs):
        raise HypothesisNotMet("coefficients must be nonnegative")
    if k < 0:
        raise HypothesisNotMet("k must be nonnegative")
    q = cs + [Fraction(0)] * (k + 1 - len(cs))
    q[k] -= 1
    holds, counter = _nonneg_on_positive_axis(q)
    if not holds:
        return ExtractResult(kind="fail", holds=False, counterexample=counter)
    if k < len(cs) and cs[k] >= 1:
        return ExtractResult(kind="single", holds=True, n1=k, n2=k, achieved=cs[k])
    best: tuple[Fraction, int, int] | None = None
    for n1 in range(min(k, len(cs))):
        if cs[n1] == 0:
            continue
        for n2 in range(k + 1, len(cs)):
            if cs[n2] == 0:
                continue
            prod = cs[n1] ** (n2 - k) * cs[n2] ** (k - n1)
            # compare on a common footing: normalize exponent sum to n2 - n1
            if best is None or prod ** (best[2] - best[1]) > best[0] ** (n2 - n1):
                best = (prod, n1, n2)
    # domination with a_k < 1 forces nonzero terms below and above k
    # (t -> 0 and t -> inf), so a pair exists
    prod, n1, n2 = best
    return ExtractResult(kind="pair", holds=True, n1=n1, n2=n2, achieved=prod)


# -- interval refinement (stopping time) ----------------------------------------

@dataclass(frozen=True)
class IntervalSet:
    """Finite union of disjoint open rational intervals, sorted."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    @classmethod
    def from_pairs(cls, pairs: Sequence[Sequence]) -> "IntervalSet":
        ivs = sorted((Fraction(a), Fraction(b)) for a, b in pairs if Fraction(b) > Fraction(a))
        merged: list[tuple[Fraction, Fraction]] = []
        for a, b in ivs:
            if merged and a <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        return cls(tuple(merged))

    def measure(self) -> Fraction:
        return sum((b - a for a, b in self.intervals), Fraction(0))

    def clip(self, lo: Fraction, hi: Fraction) -> "IntervalSet":
        out = []
        for a, b in self.intervals:
            a2, b2 = max(a, lo), min(b, hi)
            if b2 > a2:
                out.append((a2, b2))
        return IntervalSet(tuple(out))

    def hull(self) -> tuple[Fraction, Fraction]:
        if not self.intervals:
            raise ValueError("empty interval set")
        return (self.intervals[0][0], self.intervals[-1][1])


def _passes_threshold(mass: Fraction, total: Fraction, cprime: Fraction,
                      c: Fraction, m: int) -> bool:
    """Exact test  mass > cprime * 2^(-c*m) * total  for rational c = u/v."""
    if total == 0:
        return False
    u, v = c.numerator, c.denominator
    lhs = mass ** v
    rhs = (cprime ** v) * (total ** v) * (Fraction(2) ** (-u * m))
    return lhs > rhs


def _ceil_log43(q: Fraction) -> int:
    """Smallest integer m with (4/3)^m >= q, for q > 0."""
    if q <= 1:
        # search downward
        m = 0
        while Fraction(4, 3) ** (m - 1) >= q:
            m -= 1
        return m
    m = max(0, math.ceil(math.log(float(q), 4 / 3)) - 2)
    while Fraction(4, 3) ** m < q:
        m += 1
    return m


def refine_interval(S: IntervalSet, c: Fraction | float = Fraction(1, 2),
                    cprime: Fraction | float = Fraction(1, 8),
                    max_iter: int = 100_000) -> dict:
    """Quarter-splitting stopping time: locate J and a separated partner K.

    All mass comparisons are exact.  Returns J, K, and achieved constants:
    |S n J| / |S|, |J| ~ |K| ~ dist(J, K) ratios, and the exponent
    performance of K, i.e. |S n K| / ((|S| / |K|)^c |S|).
    """
    c = Fraction(c)
    cprime = Fraction(cprime)
    total = S.measure()
    if total == 0:
        raise HypothesisNotMet("S must have positive measure")
    lo, hi = S.hull()
    cur_lo, cur_hi = lo, hi
    iterations = 0
    while True:
        iterations += 1
        if iterations > max_iter:
            raise RefinementDidNotTerminate(f"no stop after {max_iter} iterations")
        width = cur_hi - cur_lo
        m = _ceil_log43(width / total)
        quarter = width / 4
        cuts = [cur_lo + quarter * i for i in range(5)]
        masses = [S.clip(cuts[i], cuts[i + 1]).measure() for i in range(4)]
        cur_mass = sum(masses, Fraction(0))
        ok1 = _passes_threshold(masses[0], cur_mass, cprime, c, m)
        ok4 = _passes_threshold(masses[3], cur_mass, cprime, c, m)
        if ok1 and ok4:
            j = max(range(4), key=lambda i: (masses[i], -i))
            kk = 3 if j in (0, 1) else 0
            J = (cuts[j], cuts[j + 1])
            K = (cuts[kk], cuts[kk + 1])
            dist = max(J[0], K[0]) - min(J[1], K[1])
            SJ = S.clip(*J).measure()
            SK = S.clip(*K).measure()
            # conclusion iii reads |S n K| >= const (|S|/|K|)^c |S|
            k_target = float(total / quarter) ** (-float(c)) * float(total) \
                if quarter > 0 else float("nan")
            return {
                "J": J,
                "K": K,
                "S_in_J": SJ,
                "S_in_K": SK,
                "S_mass": total,
                "final_interval": (cur_lo, cur_hi),
                "final_mass": cur_mass,
                "iterations": iterations,
                "m_final": m,
                "achieved_J_fraction": SJ / total,
                "achieved_K_exponent_ratio": float(SK) / k_target
                if k_target > 0 else float("inf"),
                "length_dist_ratio": float(dist / quarter),
            }
        if not ok1:
            cur_lo = cuts[1]
        elif not ok4:
            cur_hi = cuts[3]


def check_refinement_bound(S: IntervalSet, P: RatPoly | Sequence, N: int,
                           eps: float = 0.1, c=Fraction(1, 2)) -> dict:
    """Ratio of int_S |P| against the derivative-ladder lower bound.

    LHS exactly: |P| keeps one sign between consecutive real roots, so int_S |P|
    is the sum of |Q(x1) - Q(x0)| over the exact antiderivative Q, cut at the
    roots refined to width 2^-64; it is rounded to a float once.
    RHS = sum_j sup_J |P^(j)| (|J|/|S|)^((1-eps) j) |S|^(j+1) with J from the
    stopping time.  The ratio is reported, not asserted; regression floors
    live in the test corpus.
    """
    import numpy as np

    coeffs = _dense(P)
    r = refine_interval(S, c=c)
    J = r["J"]
    total = float(S.measure())
    Q = [Fraction(0)] + [x / (i + 1) for i, x in enumerate(coeffs)]
    cuts = [sum(refine_root(coeffs, iv, Fraction(1, 2**64))) / 2
            for iv in isolate_real_roots(coeffs)]
    lhs = Fraction(0)
    for a, b in S.intervals:
        pts = [a, *[t for t in cuts if a < t < b], b]
        lhs += sum(abs(ueval(Q, x1) - ueval(Q, x0)) for x0, x1 in zip(pts, pts[1:]))
    lhs = float(lhs)
    rhs = 0.0
    d = list(coeffs)
    Jlen = float(J[1] - J[0])
    for j in range(N + 1):
        if d:
            grid = np.linspace(float(J[0]), float(J[1]), 257)
            sup = float(np.max(np.abs(np.polyval(
                np.array([float(x) for x in d])[::-1], grid))))
        else:
            sup = 0.0
        rhs += sup * (Jlen / total) ** ((1 - eps) * j) * total ** (j + 1)
        d = uderiv(d)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "ratio": lhs / rhs if rhs > 0 else float("inf"),
        "J": J,
        "refine": r,
    }


# -- sublevel measure ------------------------------------------------------------

def sublevel_measure(P: RatPoly, eps: float, n_samples: int = 1 << 15,
                     seed: int = 0) -> dict:
    """QMC estimate of |{x in [-1,1]^n : |P(x)| < eps * sup |P|}|."""
    import numpy as np

    from .numeric import MapEvaluator
    from .sampling import halton

    u = halton(P.nvars, n_samples, seed=seed)
    vals = np.abs(MapEvaluator((P,))(2.0 * u - 1.0)[:, 0])
    sup = float(vals.max())
    if sup == 0:
        raise HypothesisNotMet("P must not vanish identically")
    frac = float((vals < eps * sup).mean())
    return {"measure": frac * 2.0**P.nvars, "sup_norm": sup, "eps": eps,
            "n_samples": n_samples}


def sublevel_sweep(P: RatPoly, eps_list: Sequence[float] | None = None,
                   n_samples: int = 1 << 15, seed: int = 0) -> dict:
    """Dyadic eps sweep with a least-squares fit of the scaling exponent."""
    import numpy as np

    if eps_list is None:
        eps_list = [2.0 ** (-k) for k in range(2, 9)]
    rows = []
    for e in eps_list:
        m = sublevel_measure(P, e, n_samples=n_samples, seed=seed)
        rows.append((e, m["measure"]))
    xs = np.log([r[0] for r in rows])
    ys = np.log([max(r[1], 1e-300) for r in rows])
    slope, intercept = np.polyfit(xs, ys, 1)
    return {"rows": rows, "fitted_exponent": float(slope)}


# -- monomialization --------------------------------------------------------------

@dataclass(frozen=True)
class MonomialPiece:
    lo: Fraction | None          # None = -infinity
    hi: Fraction | None          # None = +infinity
    center: Fraction
    exponents: tuple[int, ...]   # k_{j,p} per input polynomial
    certified: bool = True       # False for root gutters and failed sweep steps


@dataclass
class MonomialCover:
    pieces: list[MonomialPiece]
    eps: Fraction
    diagnostics: dict = field(default_factory=dict)

    def verify(self, polys: Sequence[list[Fraction]]) -> bool:
        """Exactly decide the domination inequality on every certified closed piece.

        A piece with one exponent for several polynomials comes from a curve
        cover and is checked on |gamma|; both kinds compare squared Taylor
        magnitudes at the center, in Fractions, against eps^2 times the
        dominant one.  Each comparison is monotone in |t - center|: a lower
        term is tested at the piece's near distance (0 when the piece holds
        its center), a higher term at its far distance, and an unbounded side
        admits no nonzero higher term.  Gutter pieces (hairline brackets
        around irrational real roots, where no rational-data piece can satisfy
        the inequality) are skipped; their total measure is in the diagnostics.
        """
        eps2 = self.eps * self.eps
        for piece in self.pieces:
            if not piece.certified:
                continue
            lo, hi, c = piece.lo, piece.hi, piece.center
            dists = [None if x is None else abs(x - c) for x in (lo, hi)]
            holds_center = (lo is None or lo <= c) and (hi is None or c <= hi)
            near2 = 0 if holds_center else min(d for d in dists if d is not None) ** 2
            far2 = None if None in dists else max(dists) ** 2
            curve = len(piece.exponents) == 1 < len(polys)
            for group, k_star in zip([polys] if curve else [[p] for p in polys], piece.exponents):
                sq = _vector_taylor_sq(group, c)
                bound = eps2 * (sq[k_star] if k_star < len(sq) else 0)
                if any(s > bound * near2 ** (k_star - k) for k, s in enumerate(sq[:k_star])):
                    return False
                if any(s and (far2 is None or s * far2 ** m > bound)
                       for m, s in enumerate(sq[k_star + 1:], 1)):
                    return False
        return True

    def verify_samples(self, polys, count=None) -> bool:  # bench/checks.py's name; count is unused
        return self.verify(polys)


def _taylor_terms(p: list[Fraction], b: Fraction) -> list[Fraction]:
    """Coefficients of p around b: c_k = p^(k)(b)/k!."""
    out = []
    d = list(p)
    k = 0
    fact = 1
    while d:
        if k:
            fact *= k
        out.append(ueval(d, b) / fact)
        d = uderiv(d)
        k += 1
    return out


def _vector_taylor_sq(comps: list[list[Fraction]], b: Fraction) -> list[Fraction]:
    """Squared magnitudes |gamma^(k)(b)|^2 / (k!)^2."""
    per = [_taylor_terms(c, b) for c in comps]
    deg = max(len(t) for t in per)
    out = []
    for k in range(deg):
        s = Fraction(0)
        for t in per:
            if k < len(t):
                s += t[k] * t[k]
        out.append(s)
    return out


def _integer_group(comps: list[list[Fraction]]) -> list[list[int]]:
    """The group's components times the lcm L of all their denominators."""
    scale = math.lcm(*(c.denominator for p in comps for c in p))
    return [[(c * scale).numerator for c in p] for p in comps]


def _integer_taylor_sq(comps: list[list[int]], b: Fraction) -> list[int]:
    """Squared Taylor magnitudes around b = u/v, times (L v^d)^2, as integers.

    ``comps`` is an ``_integer_group`` and d its top degree.  Each Taylor
    coefficient times L v^d is sum_i C(i,k) P_i u^(i-k) v^(d-i+k).  The
    factor (L v^d)^2 is common to every k, and every domination comparison is
    homogeneous in the squared magnitudes, so it cancels.
    """
    u, v = b.numerator, b.denominator
    d = max(len(p) for p in comps) - 1
    upow, vpow = [1], [1]
    for _ in range(d):
        upow.append(upow[-1] * u)
        vpow.append(vpow[-1] * v)
    out = [0] * (d + 1)
    for p in comps:
        for k in range(len(p)):
            c = sum(math.comb(i, k) * p[i] * upow[i - k] * vpow[d - i + k]
                    for i in range(k, len(p)))
            out[k] += c * c
    return out


def _center_test(sqs: Sequence[list[int]], lo: Fraction | None, b: Fraction,
                 right_side: bool, eps: Fraction):
    """The domination test around b for pieces from lo, as a function of hi.

    The center lies left of the pieces (b <= lo) or, with ``right_side``,
    right of them (b >= hi; lo None is the unbounded left tail).  Each
    comparison against the dominant term is monotone in |t - b|, so testing
    the two distance extremes decides the whole piece exactly; an unbounded
    side forces the top exponent.  With eps = e_n/e_d, d_near = p_n/q_n,
    d_far = p_f/q_f and m = |j - k|, term k is dominated by term j when
    S[k] e_d^2 q_n^(2m) <= e_n^2 S[j] p_n^(2m) (k < j) or
    S[k] e_d^2 p_f^(2m) <= e_n^2 S[j] q_f^(2m) (k > j): the comparisons are
    cross-multiplied in integers.  A distance |t - b| enters as the unreduced
    quotient (t_n b_d - b_n t_d) / (t_d b_d): every comparison is homogeneous
    in it, so a common factor cancels.  The distance to lo (near on the left,
    far on the right) is fixed, so the candidates j that fail a comparison on
    that side are dropped here, once.  The returned function maps hi to the
    exponents, the least surviving j per group that passes the comparisons
    at hi's distance, or to None when a group has none.
    """
    en2, ed2 = eps.numerator ** 2, eps.denominator ** 2
    bn, bd = b.numerator, b.denominator

    def dist_sq(t: Fraction) -> tuple[int, int]:
        x, y = t.numerator * bd - bn * t.denominator, t.denominator * bd
        return x * x, y * y

    if lo is not None:
        p2, q2 = dist_sq(lo)
        u, v = (p2, q2) if right_side else (q2, p2)
    groups = []
    for sq in sqs:
        nz = [k for k, c in enumerate(sq) if c]
        cands = []
        for i, j in enumerate(nz):
            fixed, rest = (nz[i + 1:], nz[:i]) if right_side else (nz[:i], nz[i + 1:])
            if fixed and (lo is None or any(
                    sq[k] * ed2 * u ** abs(j - k) > en2 * sq[j] * v ** abs(j - k) for k in fixed)):
                continue
            cands.append((j, [(abs(j - k), ed2 * sq[k], en2 * sq[j]) for k in rest]))
        groups.append(cands)

    def exponents(hi: Fraction | None) -> tuple[int, ...] | None:
        if hi is not None:
            x2, y2 = dist_sq(hi)
            uu, vv = (y2, x2) if right_side else (x2, y2)
        out = []
        for cands in groups:
            # an unbounded far side (hi None) leaves no term above j
            j = next((j for j, rest in cands if (not rest if hi is None else all(
                a * uu ** m <= c * vv ** m for m, a, c in rest))), None)
            if j is None:
                return None
            out.append(j)
        return tuple(out)

    return exponents


def _anchors(anchor_poly: list[Fraction], eps: Fraction) -> list[tuple[Fraction, Fraction, Fraction]]:
    """(left, right, center) for each distinct real root of anchor_poly, in order.

    A rational root r is recovered exactly as (r, r, r): its denominator
    divides the integer leading coefficient L, so refining to width below
    1/L^2 leaves it the only candidate of denominator at most L.  An irrational
    root becomes a hairline gutter (left, right) whose center is refined so
    much closer to the root than to the gutter ends that the root's Taylor term
    dominates on both neighbors.
    """
    sf = usquarefree(anchor_poly)
    lead = abs((sf[-1] * math.lcm(*(c.denominator for c in sf))).numerator)
    out = []
    for a0, b0 in isolate_real_roots(sf):
        a, b = refine_root(sf, (a0, b0), Fraction(1, 2 * lead * lead))
        r = ((a + b) / 2).limit_denominator(lead)
        if a == b or (a < r <= b and ueval(sf, r) == 0):
            out.append((r, r, r))
            continue
        half = (b0 - a0) / 2 ** 48
        a, b = refine_root(sf, (a, b), half * eps / 2 ** len(anchor_poly))
        c = (a + b) / 2
        out.append((c - half, c + half, c))
    return out


# grid index below which a sweep step counts as uncertified (width 2^-200)
_MIN_GRID_INDEX = -8 * 200


def _grid_point(lo: Fraction | None, right: Fraction | None, k: int) -> Fraction:
    """Right end of candidate k for a sweep step, nondecreasing in k.

    Candidate widths run through the fixed dyadic grid of numbers with four
    significant bits, width(k) = (8 + k mod 8) * 2^(k div 8 - 3), which
    increases with k.  From a finite lo the step ends at lo + width(k),
    capped at ``right``; the unbounded left tail ends width(-k) before
    ``right``.  The end is summed over one integer denominator and reduced
    once.
    """
    q, m = divmod(-k if lo is None else k, 8)
    w, s = (8 + m) << max(q - 3, 0), max(3 - q, 0)      # width = w / 2^s
    n, d = (right if lo is None else lo).as_integer_ratio()
    num, den = (n << s) + (-w * d if lo is None else w * d), d << s
    if lo is not None and right is not None and num * right.denominator >= right.numerator * den:
        return right
    return Fraction(num, den)


def _last_true(ok, start: int) -> int | None:
    """Largest integer k with ok(k), for ok true below a threshold and false above.

    Doubling steps from the warm start bracket the threshold and halving
    closes it; None when ok still fails below _MIN_GRID_INDEX.
    """
    step = 1
    if ok(start):
        good, bad = start, start + 1
        while ok(bad):
            good, step = bad, 2 * step
            bad = good + step
    else:
        good, bad = start - 1, start
        while not ok(good):
            if good < _MIN_GRID_INDEX:
                return None
            bad, step = good, 2 * step
            good = bad - step
    while bad - good > 1:
        mid = (good + bad) // 2
        if ok(mid):
            good = mid
        else:
            bad = mid
    return good


def _sweep_cover(groups: list[list[list[Fraction]]], anchor_poly: list[Fraction],
                 eps) -> MonomialCover:
    """Left-to-right exact sweep shared by the scalar and the curve cover."""
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise HypothesisNotMet("eps must lie in (0,1)")
    anchors = _anchors(anchor_poly, eps)
    bounds = [(None, None, None)] + (anchors or [(Fraction(0),) * 3]) + [(None, None, None)]
    pieces: list[MonomialPiece] = []
    failures = 0
    warm = 0
    int_groups = [_integer_group(g) for g in groups]

    def taylor(b: Fraction | None):
        return None if b is None else (b, [_integer_taylor_sq(g, b) for g in int_groups])

    for (_, lo, c_left), (right, gutter_end, c_right) in zip(bounds, bounds[1:]):
        left_center, right_center = taylor(c_left), taylor(c_right)
        while lo != right:
            own = taylor(lo) if lo != c_left else None
            tests = [(c[0], _center_test(c[1], lo, c[0], side, eps))
                     for c, side in ((left_center, False), (own, False), (right_center, True))
                     if c is not None]

            def exponents(hi):
                return next(((b, x) for b, test in tests if (x := test(hi)) is not None), None)

            hi, hit = right, exponents(right)
            if hit is None:
                hits = {}

                def ok(k):
                    hits[k] = exponents(_grid_point(lo, right, k))
                    return hits[k] is not None

                k = _last_true(ok, warm)
                if k is None:
                    failures += 1
                    k = _MIN_GRID_INDEX
                warm, hi = k, _grid_point(lo, right, k)
                hit = hits[k] if k in hits else exponents(hi)
            pieces.append(MonomialPiece(lo, hi, *hit) if hit
                          else MonomialPiece(lo, hi, hi, (), certified=False))
            lo = hi
        if right is not None and right != gutter_end:
            pieces.append(MonomialPiece(right, gutter_end, c_right, (), certified=False))
    gutters = [(a, b) for a, b, _ in anchors if a != b]
    diag = {
        "real_roots": len(anchors),
        "pieces": len(pieces),
        "uncertified_pieces": failures,
        "root_gutters": len(gutters),
        "gutter_measure": float(sum((b - a for a, b in gutters), Fraction(0))),
    }
    return MonomialCover(pieces=pieces, eps=eps, diagnostics=diag)


def monomialize(polys: Sequence[RatPoly | Sequence], eps) -> MonomialCover:
    """Cover of R by intervals on which every input is monomial-comparable.

    One exact left-to-right sweep, with no floats.  The cut anchors are the
    distinct real roots of the inputs: a rational root is an exact endpoint,
    an irrational one sits in a hairline gutter (a piece left uncertified,
    of negligible measure) with a rational center next to the root.  Each
    unbounded tail takes the top exponent around the outermost anchor
    (around 0 when there is no real root).  Between anchors every piece runs
    from its left end to the farthest point of a dyadic grid that one of three
    centers certifies: the left anchor, the piece's own left end or the right
    anchor.  Certification checks the domination inequality on the whole
    piece exactly; a step where no center certifies any width counts in
    ``diagnostics["uncertified_pieces"]``.  The comparisons are
    cross-multiplied in integers: each center's squared Taylor magnitudes are
    built as integers over one common denominator, and the squared numerators
    and denominators of eps and of the piece's distances to the center
    scale them (``_center_test``).  A step holds its left end fixed while it
    tries grid ends, so each center's comparisons on the side of that fixed
    end are made once per step, and each candidate end redoes only the
    comparisons that depend on it.

    The predicate is eps-domination: on the whole piece, every Taylor term at
    the center is at most eps times one dominant term.  An exponent-0 piece
    centred at c then certifies a length of only about eps * dist(c, nearest
    root), so crossing from 2 eps to 2/eps on each side of a simple root takes
    about (1/eps) ln(1/eps^2) pieces.  That 1/eps growth is intrinsic to the
    predicate (tests pin the count for t^2 - 1).  This is not the
    decomposition into O(d^2) root-cluster intervals with constants depending
    only on the degree (Dendrinos-Wright, Amer. J. Math. 2010).
    """
    dense = [_dense(p) for p in polys]
    if any(not p for p in dense):
        raise HypothesisNotMet("polynomials must be nonzero")
    product = [Fraction(1)]
    for p in dense:
        product = umul(product, p)
    return _sweep_cover([[p] for p in dense], product, eps)


def curve_monomialize(gamma: Sequence[RatPoly | Sequence], eps) -> MonomialCover:
    """Vector version: |gamma^(k)(b)(t-b)^k / k!| <= eps * dominant term.

    Runs the scalar sweep with all components in one group, scored by squared
    Euclidean magnitudes, which keeps every comparison rational; the anchors
    are the real roots of |gamma|^2.
    """
    comps = [_dense(g) for g in gamma]
    if all(not c for c in comps):
        raise HypothesisNotMet("gamma must be nonzero")
    norm_sq: list[Fraction] = []
    for c in comps:
        norm_sq = uadd(norm_sq, umul(c, c))
    return _sweep_cover([comps], norm_sq, eps)


# -- tangency scan -----------------------------------------------------------------

def tangency_scan(gamma: Sequence[RatPoly | Sequence], times: Sequence,
                  delta: float, eps: float) -> dict:
    """Find a time where the curve is nearly parallel to its derivative.

    Requires the growth chain |gamma(t_i)| < delta |gamma(t_(i+1))|; returns
    the first index where |gamma ^ gamma'| < eps |gamma| |gamma'|, or a
    ViolationWitness verdict when none exists (flagged as suspicious: long
    enough growth chains always force a near-tangency).  Both inequalities
    are decided exactly, on squares in Fractions with Fraction(delta) and
    Fraction(eps); a time where gamma or gamma' vanishes counts as tangent.
    The reported ``ratios`` are floats, for display only.
    """
    import numpy as np

    comps = [_dense(g) for g in gamma]
    ders = [uderiv(c) for c in comps]
    ts = [Fraction(t) for t in times]
    exact = [[ueval(c, t) for c in comps] for t in ts]
    dexact = [[ueval(c, t) for c in ders] for t in ts]
    vals = [np.array([float(x) for x in v]) for v in exact]
    dvals = [np.array([float(x) for x in v]) for v in dexact]
    norms = [float(np.linalg.norm(v)) for v in vals]
    norms_sq = [sum(x * x for x in v) for v in exact]
    delta_sq = Fraction(delta) ** 2
    for i in range(len(ts) - 1):
        if not (delta > 0 and norms_sq[i] < delta_sq * norms_sq[i + 1]):
            raise HypothesisNotMet(
                f"|gamma(t_{i})| = {norms[i]} not < delta*|gamma(t_{i+1})|"
            )
    ratios = []
    for v, dv in zip(vals, dvals):
        wedge_sq = 0.0
        d = len(v)
        for i in range(d):
            for j in range(i + 1, d):
                wedge_sq += (v[i] * dv[j] - v[j] * dv[i]) ** 2
        denom = float(np.linalg.norm(v) * np.linalg.norm(dv))
        ratios.append(math.sqrt(wedge_sq) / denom if denom > 0 else 0.0)
    eps_sq = Fraction(eps) ** 2
    for i, (v, dv) in enumerate(zip(exact, dexact)):
        wedge_sq = sum((v[a] * dv[c] - v[c] * dv[a]) ** 2
                       for a in range(len(v)) for c in range(a + 1, len(v)))
        prod_sq = norms_sq[i] * sum(x * x for x in dv)
        if eps > 0 and (wedge_sq < eps_sq * prod_sq or not prod_sq):
            return {"verdict": "TangencyFound", "index": i, "ratio": ratios[i],
                    "ratios": ratios}
    return {"verdict": "ViolationWitness", "ratios": ratios,
            "note": "no near-tangent time; long chains should force one"}


# -- scale counting ----------------------------------------------------------------

def _abs_range_intervals(qlo: list[Fraction], qhi: list[Fraction],
                         bound: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Interval decomposition of {t in [-bound, bound] : qlo(t) >= 0 >= qhi(t)}, to within 1e-9.

    With qlo = p^2 - lo^2 and qhi = p^2 - hi^2 this is where lo <= |p| <= hi.
    The cuts are -bound, bound, which must lie beyond every real root of qlo
    and qhi, and the ends of their root brackets refined to width 1e-9.  A
    cell between cuts is kept or dropped whole by its midpoint, so each inner
    end of a returned interval can be off by up to 1e-9.
    """
    cuts = {-bound, bound}
    for q in (qlo, qhi):
        for iv in isolate_real_roots(q):
            cuts.update(refine_root(q, iv, Fraction(1, 10**9)))
    cuts = sorted(cuts)
    out = []
    for a, b in zip(cuts, cuts[1:]):
        mid = (a + b) / 2
        if ueval(qlo, mid) >= 0 >= ueval(qhi, mid):
            out.append((a, b))
    merged: list[tuple[Fraction, Fraction]] = []
    for a, b in out:
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], b)
        else:
            merged.append((a, b))
    return merged


def scale_count(p1: RatPoly | Sequence, p2: RatPoly | Sequence,
                a1: int, a2: int, k_range: Sequence[int]) -> dict:
    """Count integers k admitting t with |p1(t)| ~ 2^(a1 k), |p2(t)| ~ 2^(-a2 k).

    Feasibility per k intersects the interval decompositions of both
    two-sided conditions, |p_i| between 2^(e_i - 1) and 2^(e_i + 1).  Both
    are clipped to one window, twice the largest Cauchy bound of the four
    edge polynomials p_i^2 - 4^(e_i -+ 1): past it neither set changes, so
    two sets that both run on beyond it meet inside it.  Their inner ends are
    placed only to within 1e-9, so two sets closer than 1e-9 can be counted
    as overlapping.
    """
    c1, c2 = _dense(p1), _dense(p2)
    squares = [(umul(c1, c1), a1), (umul(c2, c2), -a2)]
    feasible = []
    for k in k_range:
        edges = [[uadd(sq, [-Fraction(4) ** (a * k + s)]) for s in (-1, 1)] for sq, a in squares]
        bound = 2 * max([root_bound(q) for pair in edges for q in pair if q] + [Fraction(2)])
        iv1, iv2 = (_abs_range_intervals(qlo, qhi, bound) for qlo, qhi in edges)
        if any(min(y1, y2) > max(x1, x2) for x1, y1 in iv1 for x2, y2 in iv2):
            feasible.append(int(k))
    return {"feasible_k": feasible, "count": len(feasible)}
