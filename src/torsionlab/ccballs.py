"""Carnot-Caratheodory ball sampling, doubling checks, and greedy covers.

A ball B^I(x; alpha) is the image of the anisotropic box

    Q^I_alpha = { |t_i| < alpha1^(d1_i) * alpha2^(d2_i) },  (d1,d2) = deg w_i,

under the composed flow Phi^I_x.  Everything here is a numeric probe: volumes
come from quasi-Monte-Carlo sampling, membership from a coefficient enclosure
and damped Newton preimage solves, and the outputs are reports with recorded
constants rather than assertions against constants nobody can compute.

All balls of one word tuple share one ``BallMap``: a single evaluator of
(x, t) -> Phi^I_x(t) and its t-Jacobian, with the center x as a per-row
parameter.  A membership question "is y in the ball at center x?" is answered
for many (center, point) pairs at once, in three steps:

1. Enclosure.  Each component splits as Phi_j(x, t) = P0_j(x) + D_j(x, t),
   where D_j holds the terms with some t.  Over the inflated box the inside
   test uses, |D_j| is at most R_j, D_j's terms with absolute coefficients at
   (|x|, box halfwidths).  A pair with |y_j - P0_j(x)| above R_j, the Newton
   tolerance and a float-rounding margin in some component has no preimage a
   start could land on inside the box: it is a decided non-member, and
   Newton never sees it.
2. The box-center start, for every pair still open.
3. The other starts, only for the pairs the center start did not land inside.

Steps 2 and 3 each solve their (pair, start) rows by one ``newton_preimage``
call per ``CHUNK_ROWS`` rows.  Newton rows never see each other (the
evaluators are row-independent, batched solves factor each matrix on its own,
and a singular Jacobian only affects its own row), so every membership mask
is the one a single-center solve from every start would give, whatever the
batch or the chunking.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .geometry import Word, WordTable, word_degree
from .numeric import JacobianEvaluator, MapEvaluator, newton_preimage
from .polycore import RatPoly
from .polytope import LambdaEntry
from .sampling import halton
from .torsion import iter_flow

# rows per newton_preimage call, and pairs per enclosure block, in
# BallMap.members; the qmc_mean shard size
CHUNK_ROWS = 65536
# most candidate centers vitali_cover lays out: grid ** dim points of dim floats
MAX_GRID_POINTS = 1 << 20


@dataclass(frozen=True)
class BallSpec:
    """Center, word tuple, and anisotropic radius pair of one ball."""

    center: tuple[Fraction, ...]
    words: tuple[Word, ...]
    alpha: tuple[Fraction, Fraction]

    def __post_init__(self):
        if self.alpha[0] <= 0 or self.alpha[1] <= 0:
            raise ValueError("alpha components must be positive")

    def box_halfwidths(self) -> list[float]:
        a1, a2 = float(self.alpha[0]), float(self.alpha[1])
        out = []
        for w in self.words:
            d1, d2 = word_degree(w)
            out.append(a1**d1 * a2**d2)
        return out

    def to_json_dict(self) -> dict:
        return {
            "center": [str(c) for c in self.center],
            "words": [list(w) for w in self.words],
            "alpha": [str(a) for a in self.alpha],
        }


@dataclass
class BallSample:
    spec: BallSpec
    volume_estimate: float
    volume_stderr: float | None  # None for occupancy counts, which carry no error bar
    jac_range: tuple[float, float]
    method: str  # change_of_variables, occupancy, or degenerate (jac_det == 0)
    n_samples: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "volume_estimate": self.volume_estimate,
            "volume_stderr": self.volume_stderr,
            "jac_range": list(self.jac_range),
            "method": self.method,
            "n_samples": self.n_samples,
            "seed": self.seed,
        }


def _float_center(center: Sequence) -> np.ndarray:
    return np.array([float(Fraction(c)) for c in center])


def _newton_starts(halfwidths: np.ndarray) -> np.ndarray:
    """Up to 8 starts in the box: its center, then +-half the halfwidth per axis."""
    n = len(halfwidths)
    starts = [np.zeros(n)]
    for k in range(n):
        e = np.zeros(n)
        e[k] = 0.5 * halfwidths[k]
        starts.extend([e, -e])
    return np.array(starts[:8])


class BallMap:
    """Float side of every ball of one word tuple: (x, t) -> Phi^I_x(t)."""

    def __init__(self, table: WordTable, words: Sequence[Word]):
        n = self.n = table.dim
        flow = iter_flow(table, tuple(words))
        self.degenerate = flow.jac_det.is_zero()  # exact: the image has measure zero
        self._map = MapEvaluator(flow.map)
        self._jac = JacobianEvaluator(flow.map, wrt=list(range(n, 2 * n)))
        self._jac_det = MapEvaluator((flow.jac_det,))
        # the enclosure: P0 at x, then (sum of |P0 terms|, R) at (|x|, box)
        free = [{e: c for e, c in p.terms.items() if not any(e[n:])} for p in flow.map]
        moving = [{e: c for e, c in p.terms.items() if any(e[n:])} for p in flow.map]
        self._free = MapEvaluator([RatPoly(2 * n, d) for d in free])
        self._bound = MapEvaluator([RatPoly(2 * n, {e: abs(c) for e, c in d.items()})
                                    for d in free + moving])

    def push(self, center: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Phi^I_center(t) for the rows of t."""
        return self._map(np.hstack([np.broadcast_to(center, t.shape), t]))

    def jac_at(self, center: np.ndarray, t: np.ndarray) -> np.ndarray:
        """det D_t Phi^I_center(t) for the rows of t."""
        return self._jac_det(np.hstack([np.broadcast_to(center, t.shape), t]))[:, 0]

    def members(self, centers: np.ndarray, ys: np.ndarray,
                halfwidths: Sequence[float],
                tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
        """(membership, inconclusive) masks of shape (len(centers), len(ys)).

        Entry (c, p) asks whether ys[p] lies in the ball at centers[c] with
        these box halfwidths.  Pairs the enclosure rules out are non-members.
        For the rest, Phi(t) = y is solved from the box center, and from up to
        7 more deterministic starts inside the box where that one did not
        land inside; the point is a member when some start converges inside
        the box.  It is inconclusive when the enclosure did not rule it out
        and no start converged at all.  Rows are batch-independent, so entry
        (c, p) does not depend on the other centers, points or the chunking.
        """
        centers = np.asarray(centers, dtype=float).reshape(-1, self.n)
        ys = np.asarray(ys, dtype=float)
        hw = np.asarray(halfwidths, dtype=float)
        box = hw * (1 + 1e-9) + tol  # the inside test's box, and the enclosure's
        starts = _newton_starts(hw)
        free = self._free(np.hstack([centers, np.zeros_like(centers)]))
        size, reach = np.split(
            self._bound(np.hstack([np.abs(centers), np.broadcast_to(box, centers.shape)])),
            2, axis=1)
        shape = (len(centers), len(ys))
        total = len(centers) * len(ys)
        pairs = [np.empty(0, dtype=int)]  # the flat (center, point) indices left open
        for lo in range(0, total, CHUNK_ROWS):
            pair = np.arange(lo, min(lo + CHUNK_ROWS, total))
            c, p = np.divmod(pair, len(ys))
            # the 1e-9 term covers the float rounding of Phi, P0 and R, a small
            # multiple of 1e-16 times the same magnitudes
            slack = reach[c] + tol + 1e-9 * (size[c] + reach[c] + np.abs(ys[p]))
            pairs.append(pair[~np.any(np.abs(ys[p] - free[c]) > slack, axis=1)])
        pairs = np.concatenate(pairs)
        member = np.zeros(total, dtype=bool)
        inconclusive = np.zeros(total, dtype=bool)
        # the box-center start for every open pair, the others where it missed
        conv0, in0 = (a[:, 0] for a in self._solve(centers, ys, starts[:1], pairs, box, tol))
        member[pairs[in0]] = True
        rest = pairs[~in0]
        conv, inside = self._solve(centers, ys, starts[1:], rest, box, tol)
        member[rest] = inside.any(axis=1)
        inconclusive[rest] = ~(conv0[~in0] | conv.any(axis=1))
        return member.reshape(shape), inconclusive.reshape(shape)

    def _solve(self, centers: np.ndarray, ys: np.ndarray, starts: np.ndarray,
               pairs: np.ndarray, box: np.ndarray,
               tol: float) -> tuple[np.ndarray, np.ndarray]:
        """(converged, inside) of shape (len(pairs), len(starts)).

        ``pairs`` are flat (center, point) indices; their (pair, start) rows
        go to ``newton_preimage`` ``CHUNK_ROWS`` at a time.
        """
        shape = (len(pairs), len(starts))
        total = len(pairs) * len(starts)
        converged = np.empty(total, dtype=bool)
        inside = np.empty(total, dtype=bool)
        for lo in range(0, total, CHUNK_ROWS):
            rows = np.arange(lo, min(lo + CHUNK_ROWS, total))
            k, s = np.divmod(rows, len(starts))
            c, p = np.divmod(pairs[k], len(ys))
            sol, ok = newton_preimage(self._map, self._jac, ys[p], starts[s],
                                      tol=tol, fixed=centers[c])
            converged[rows] = ok
            inside[rows] = ok & np.all(np.abs(sol) < box, axis=1)
        return converged.reshape(shape), inside.reshape(shape)


def ball_sample(table: WordTable, spec: BallSpec, n_samples: int,
                seed: int = 0) -> BallSample:
    """QMC image sample of a ball with a volume estimate.

    An exactly vanishing Jacobian determinant means an image of measure zero,
    reported as volume 0 with error 0.  When the Jacobian keeps one sign
    across the sampled box, the volume is the change-of-variables integral of
    |det|; a sign change falls back to occupancy counting over a bounding-box
    grid.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    ball = BallMap(table, spec.words)
    center = _float_center(spec.center)
    n = ball.n
    hw = np.array(spec.box_halfwidths())
    t = halton(n, n_samples, seed=seed)  # (2u - 1) * hw, in place
    t *= 2.0
    t -= 1.0
    t *= hw
    jac = ball.jac_at(center, t)
    box_vol = float(np.prod(2.0 * hw))
    if ball.degenerate:
        vol, stderr, method = 0.0, 0.0, "degenerate"
    elif np.all(jac > 0) or np.all(jac < 0):
        vals = np.abs(jac) * box_vol
        vol = float(vals.mean())
        stderr = float(vals.std() / np.sqrt(n_samples))
        method = "change_of_variables"
    else:
        pts = ball.push(center, t)
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        span = np.maximum(hi - lo, 1e-300)
        g = max(2, int(round(n_samples ** (1.0 / n) / 2)))
        scaled = np.clip(((pts - lo) / span * g).astype(int), 0, g - 1)
        vol = len(np.unique(scaled, axis=0)) * float(np.prod(span / g))
        stderr = None
        method = "occupancy"
    return BallSample(
        spec=spec,
        volume_estimate=vol,
        volume_stderr=stderr,
        jac_range=(float(np.abs(jac).min()), float(np.abs(jac).max())),
        method=method,
        n_samples=int(n_samples),
        seed=int(seed),
    )


def _lambda_nondegeneracy(entries: Sequence[LambdaEntry], words: tuple[Word, ...],
                          x: Sequence) -> tuple[float, float]:
    """(|lambda_I(x)|, max over classes |lambda_J(x)|) for the precondition."""
    target = None
    biggest = 0.0
    key = tuple(sorted(words))
    for e in entries:
        v = abs(float(e.poly.eval(x)))
        biggest = max(biggest, v)
        if tuple(sorted(e.words)) == key:
            target = v
    if target is None:
        target = 0.0
    return target, biggest


def _check_ball_params(rho: float, delta: float, c: float) -> None:
    for name, value in (("rho", rho), ("c", c)):
        if not (value > 0 and np.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    # delta > 1 is legal: it selects nothing, since |lambda_I| <= |Lambda|
    if not (delta >= 0 and np.isfinite(delta)):
        raise ValueError(f"delta must be nonnegative and finite, got {delta}")


def doubling_check(table: WordTable, entries: Sequence[LambdaEntry],
                   x1: Sequence, x2: Sequence,
                   I1: Sequence[Word], I2: Sequence[Word],
                   rho: float, delta: float,
                   n_samples: int = 400, seed: int = 0,
                   c: float = 0.125, tol: float = 1e-9) -> dict:
    """Numeric probe of the ball-doubling containment.

    Samples the radius-(c*delta*rho) ball around x1; if it meets the matching
    ball around x2, every sample must land inside the radius-rho ball around
    x2.  Membership failures and Newton non-convergence are reported, never
    papered over; >1% non-convergence marks the whole check inconclusive.
    """
    _check_ball_params(rho, delta, c)
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    I1 = tuple(tuple(w) for w in I1)
    I2 = tuple(tuple(w) for w in I2)
    report: dict = {"c": c, "delta": delta, "rho": rho, "seed": seed}
    lam1, big1 = _lambda_nondegeneracy(entries, I1, x1)
    lam2, big2 = _lambda_nondegeneracy(entries, I2, x2)
    report["lambda_ratio_x1"] = lam1 / big1 if big1 else 0.0
    report["lambda_ratio_x2"] = lam2 / big2 if big2 else 0.0
    if lam1 < delta * big1 or lam2 < delta * big2:
        report["verdict"] = "HypothesisNotMet"
        return report
    small = c * delta * rho
    ball1 = BallMap(table, I1)
    ball2 = BallMap(table, I2)
    x2f = _float_center(x2)[None]
    n = ball1.n
    u = halton(n, n_samples, seed=seed)
    t_small = (2.0 * u - 1.0) * small
    cloud1 = ball1.push(_float_center(x1), t_small)
    (inter_member,), _ = ball2.members(x2f, cloud1, [small] * n, tol=tol)
    if not inter_member.any():
        report["verdict"] = "NotApplicable"
        report["reason"] = "sampled small balls do not intersect"
        return report
    (member,), (inconclusive,) = ball2.members(x2f, cloud1, [rho] * n, tol=tol)
    n_inc = int(inconclusive.sum())
    pass_fraction = float(member[~inconclusive].mean()) if (~inconclusive).any() else 0.0
    report.update(
        {
            "n_samples": int(n_samples),
            "intersecting_fraction": float(inter_member.mean()),
            "pass_fraction": pass_fraction,
            "newton_failures": n_inc,
            "newton_failure_fraction": n_inc / n_samples,
        }
    )
    if n_inc > 0.01 * n_samples:
        report["verdict"] = "Inconclusive"
    else:
        report["verdict"] = "Pass" if pass_fraction >= 0.99 else "Fail"
    return report


def vitali_cover(table: WordTable, entries: Sequence[LambdaEntry],
                 region_lo: Sequence[float], region_hi: Sequence[float],
                 rho: float, delta: float = 0.5, grid: int = 4,
                 c: float = 0.125, seed: int = 0) -> dict:
    """Greedy maximal-disjoint ball selection plus a coverage report.

    The word tuple is the one maximizing |lambda_I| at the region center.
    Grid points where its |lambda_I| clears delta * |Lambda| are eligible
    centers.  Selection uses balls of radius c^2 * rho, each tested against
    the selected centers at 16 Halton points; coverage is then checked at the
    inflated radius c * rho.
    """
    _check_ball_params(rho, delta, c)
    n = table.dim
    if grid < 1:
        raise ValueError(f"grid must be at least 1, got {grid}")
    if grid ** n > MAX_GRID_POINTS:
        raise ValueError(f"grid ** {n} must be at most {MAX_GRID_POINTS} candidate "
                         f"points, got grid {grid}")
    lo = np.asarray(region_lo, dtype=float)
    hi = np.asarray(region_hi, dtype=float)
    mid = [Fraction(a + b).limit_denominator(10**6) / 2 for a, b in zip(region_lo, region_hi)]
    if not entries:
        return {"centers": [], "count": 0, "covered_fraction": None,
                "reason": "no nonzero lambda classes"}
    best = max(range(len(entries)), key=lambda i: abs(float(entries[i].poly.eval(mid))))
    words = entries[best].words
    axes = [np.linspace(lo[i], hi[i], grid) for i in range(n)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    lam_eval = MapEvaluator(tuple(e.poly for e in entries))
    vals = np.abs(lam_eval(mesh))
    big = vals.max(axis=1)
    eligible = mesh[(vals[:, best] >= delta * big) & (big > 0)]
    if len(eligible) == 0:
        return {"centers": [], "count": 0, "covered_fraction": None,
                "reason": "no eligible grid points", "words": [list(w) for w in words]}
    r_small = (c ** 2) * rho
    r_big = c * rho
    ball = BallMap(table, words)
    t_cloud = (2.0 * halton(n, 16, seed=seed) - 1.0) * r_small
    selected: list[np.ndarray] = []
    centers = np.empty((0, n))  # the selected x, rounded as the balls see them
    for x in eligible:
        center = _float_center([Fraction(v).limit_denominator(10**9) for v in x])
        hit, _ = ball.members(centers, ball.push(center, t_cloud), [r_small] * n)
        if not hit.any():
            selected.append(x)
            centers = np.vstack([centers, center])
    covered = ball.members(centers, eligible, [r_big] * n)[0].any(axis=0)
    return {
        "centers": [list(map(float, x)) for x in selected],
        "count": len(selected),
        "covered_fraction": float(covered.mean()),
        "eligible_points": int(len(eligible)),
        "radius_small": r_small,
        "radius_inflated": r_big,
        "words": [list(w) for w in words],
    }
