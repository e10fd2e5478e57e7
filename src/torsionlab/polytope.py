"""Bracket determinants, Newton polytopes of bidegrees, and arclength weights.

A lambda entry is the determinant det(X_{w_1}, ..., X_{w_n}) of n bracket
fields, tagged with the componentwise bidegree of its word tuple.  Entries are
grouped up to sign: tuples whose determinants agree after sign normalization
describe the same geometric class and are stored once.

The determinants are computed through Lie-algebra coordinates.  Every word
field is a rational combination X_w = sum_j C[w, j] E_j of the basis fields
E_1..E_N of the nilpotent algebra, so by Cauchy-Binet

    det(X_{w_1}, ..., X_{w_n}) = sum_{|S| = n} det(C[W, S]) * det(E_S).

Only the C(N, n) polynomial determinants det(E_S) are formed.  Words whose
coordinate rows C[w] are proportional form a group: their fields are rational
multiples of one field, so a tuple that takes two words of one group has
det 0.  The sum is therefore formed once per n-subset of groups, over the rows
normalised by their first nonzero entry, and each choice of one word per group
scales it by the product of those entries.  moment5 has 32 words in 6 groups:
one group subset and 1024 word choices instead of C(32, 6) = 906192 tuples.
The identity is exact, so the classes are the ones a polynomial determinant
of every tuple gives.

The polytopes here live in Z^2 >= 0 and are always of the form

    ch(generators) + [0, infinity)^2,

which this module represents by the lower-left convex chain (a "staircase"):
extreme points sorted by first coordinate with strictly decreasing second.
Intersections of such regions can have non-integer rational vertices, so the
chain is kept in exact Fractions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .geometry import Word, WordTable, word_degree
from .nilpotent import basis_frame
from .polycore import PolyMatrix, RatPoly
from .torsion import (
    all_jacobian_derivatives,
    b_of_beta,
    b_tilde_of_beta,
    exponents_for_b,
    psi_flow,
    psi_tilde_flow,
)

Point = tuple[Fraction, Fraction]


class TupleBudgetExceeded(RuntimeError):
    """Word-tuple enumeration would exceed the configured combinatorial budget."""


class EmptyPolytope(ValueError):
    """Operation requires a nonempty polytope."""


def _pt(p) -> Point:
    return (Fraction(p[0]), Fraction(p[1]))


def _cross(o: Point, a: Point, b: Point) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _staircase_chain(points: Iterable[Point]) -> tuple[Point, ...]:
    """Extreme points of ch(points) + Q, Q the closed positive quadrant."""
    pts = sorted(set(points))
    if not pts:
        return ()
    # Pareto-minimal filter: one survivor per x (least y), then strictly
    # decreasing y as x grows.
    by_x: dict[Fraction, Fraction] = {}
    for x, y in pts:
        if x not in by_x or y < by_x[x]:
            by_x[x] = y
    stair: list[Point] = []
    for x in sorted(by_x):
        y = by_x[x]
        if stair and stair[-1][1] <= y:
            continue  # dominated by an earlier point
        stair.append((x, y))
    # lower convex chain: slopes must strictly increase
    chain: list[Point] = []
    for p in stair:
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
            chain.pop()
        chain.append(p)
    return tuple(chain)


@dataclass(frozen=True)
class Polytope2D:
    """Upper-right closed convex region ch(generators) + quadrant."""

    flavor: str
    generators: tuple[Point, ...]
    chain: tuple[Point, ...]

    @classmethod
    def from_generators(cls, gens: Iterable, flavor: str = "union") -> "Polytope2D":
        gens = tuple(sorted({_pt(g) for g in gens}))
        return cls(flavor=flavor, generators=gens, chain=_staircase_chain(gens))

    @classmethod
    def empty(cls, flavor: str = "union") -> "Polytope2D":
        return cls(flavor=flavor, generators=(), chain=())

    def is_empty(self) -> bool:
        return not self.chain

    def extreme_points(self) -> tuple[Point, ...]:
        return self.chain

    def contains(self, point) -> bool:
        if not self.chain:
            return False
        z = _pt(point)
        c = self.chain
        if z[0] < c[0][0] or z[1] < c[-1][1]:
            return False
        for a, b in zip(c, c[1:]):
            # inward normal of a descending edge has positive components
            nx, ny = a[1] - b[1], b[0] - a[0]
            if (z[0] - a[0]) * nx + (z[1] - a[1]) * ny < 0:
                return False
        return True

    def subset_of(self, other: "Polytope2D") -> bool:
        """Exact containment; recession cones agree, so vertices decide."""
        return all(other.contains(v) for v in self.chain)

    def equals(self, other: "Polytope2D") -> bool:
        return self.chain == other.chain

    def minimal_lattice_points(self) -> tuple[tuple[int, int], ...]:
        """Lattice points on the lower-left boundary chain.

        Every such point is minimal for the coordinatewise order, and the
        minimal lattice set contains all integral extreme points.
        """
        if not self.chain:
            raise EmptyPolytope("empty polytope has no minimal elements")
        found: set[tuple[int, int]] = set()
        for x, y in self.chain:
            if x.denominator == 1 and y.denominator == 1:
                found.add((int(x), int(y)))
        for a, b in zip(self.chain, self.chain[1:]):
            x0 = int(a[0]) if a[0].denominator == 1 else int(a[0]) + 1
            while x0 <= b[0]:
                x = Fraction(x0)
                if a[0] <= x <= b[0]:
                    y = a[1] + (x - a[0]) * (b[1] - a[1]) / (b[0] - a[0])
                    if y.denominator == 1:
                        found.add((x0, int(y)))
                x0 += 1
        return tuple(sorted(found))

    def to_json_dict(self) -> dict:
        def enc(pts):
            return [[str(p[0]), str(p[1])] for p in pts]

        return {
            "flavor": self.flavor,
            "generators": enc(self.generators),
            "extreme": enc(self.chain),
        }


def _boundary_value(poly: Polytope2D, x: Fraction) -> Fraction | None:
    """Least y with (x, y) in the region; None when x is left of the region."""
    c = poly.chain
    if not c or x < c[0][0]:
        return None
    if x >= c[-1][0]:
        return c[-1][1]
    for a, b in zip(c, c[1:]):
        if a[0] <= x <= b[0]:
            return a[1] + (x - a[0]) * (b[1] - a[1]) / (b[0] - a[0])
    return c[-1][1]


def intersect_polytopes(polys: Sequence[Polytope2D]) -> Polytope2D:
    """Exact intersection of staircase regions (may have rational vertices)."""
    polys = list(polys)
    if not polys:
        raise ValueError("need at least one polytope")
    if any(p.is_empty() for p in polys):
        return Polytope2D.empty(flavor="intersection")
    x_low = max(p.chain[0][0] for p in polys)
    xs: set[Fraction] = {x_low}
    for p in polys:
        xs.update(x for x, _ in p.chain if x >= x_low)
    # pairwise crossings contribute breakpoints too; each boundary includes
    # its horizontal tail ray (capped far to the right) so that corners where
    # an edge meets another region's flat part are found
    x_cap = max(xs) + max((p.chain[-1][0] - p.chain[0][0] for p in polys),
                          default=Fraction(0)) + 1
    segs = []
    for p in polys:
        segs.extend(list(zip(p.chain, p.chain[1:])))
        tail = p.chain[-1]
        segs.append((tail, (x_cap, tail[1])))
    for (a1, b1), (a2, b2) in itertools.combinations(segs, 2):
        d1 = (b1[0] - a1[0], b1[1] - a1[1])
        d2 = (b2[0] - a2[0], b2[1] - a2[1])
        denom = d1[0] * d2[1] - d1[1] * d2[0]
        if denom == 0:
            continue
        t = ((a2[0] - a1[0]) * d2[1] - (a2[1] - a1[1]) * d2[0]) / denom
        x = a1[0] + t * d1[0]
        if max(a1[0], a2[0], x_low) <= x <= min(b1[0], b2[0]):
            xs.add(x)
    pts: list[Point] = []
    for x in sorted(xs):
        ys = [_boundary_value(p, x) for p in polys]
        if any(y is None for y in ys):
            continue
        pts.append((x, max(ys)))
    chain: list[Point] = []
    for p in pts:
        if chain and p[1] >= chain[-1][1]:
            # the boundary is convex and non-increasing: once flat, flat for
            # good, so the minimal corner is already recorded
            break
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
            chain.pop()
        chain.append(p)
    return Polytope2D(flavor="intersection", generators=(), chain=tuple(chain))


@dataclass(frozen=True)
class LambdaEntry:
    """One sign-normalized class lambda_I = det(X_{w_1},...,X_{w_n})."""

    words: tuple[Word, ...]
    deg: tuple[int, int]
    poly: RatPoly


def _coordinate_groups(words: Sequence[Word], coords: dict) -> dict[tuple, list]:
    """Words grouped by their coordinate row up to a nonzero scale.

    Maps each row normalised by its first nonzero entry to the
    (index in ``words``, scale) pairs of its words, the scale being that
    entry.  Groups come in order of their first word; a word whose row is zero
    (a vanishing field) joins no group.
    """
    groups: dict[tuple, list[tuple[int, Fraction]]] = {}
    for i, w in enumerate(words):
        row = coords[w]
        lead = next((c for c in row if c), None)
        if lead is not None:
            groups.setdefault(tuple(c / lead for c in row), []).append((i, lead))
    return groups


def lambda_table(table: WordTable, tuple_budget: int = 200_000) -> list[LambdaEntry]:
    """All nonzero determinant classes over unordered word tuples.

    Tuples with a repeated word vanish identically and are skipped; classes
    whose determinants agree up to sign are merged, and the first tuple found
    in ``itertools.combinations(table.words(), n)`` order names the class.

    The words are grouped by their coordinate rows in ``basis_frame``, up to
    scale (``_coordinate_groups``).  The fields of one group are rational
    multiples of one field, so a tuple that takes two words of a group has
    det 0.  For each n-subset G of groups, one Cauchy-Binet sum over the
    normalised rows R is formed,

        D_G = sum over n-subsets S of the N basis fields of det(R[G, S]) * det(E_S),

    with the nonzero det(E_S) read from the frame, which the torsion
    Jacobian shares.  A subset with D_G = 0 (rank below n, or cancellation)
    is skipped.  Otherwise the tuple that takes one word of each group has
    det +-(product of the word scales) * D_G, whose sign-normalised form is
    |product| times that of D_G.  The sums are exact, so the classes, their
    names and their polynomials (term order included) are those of a
    per-tuple determinant.  A class is named by its least sorted index tuple,
    which is the first tuple ``itertools.combinations`` would find.

    The budget counts the work done: the C(#groups, n) group subsets,
    checked before any sum is formed, plus the word choices of every nonzero
    subset, checked before they are enumerated.
    """
    words = table.words()
    n = table.dim
    frame = basis_frame(table)
    groups = list(_coordinate_groups(words, frame.basis.coords).items())
    work = 0

    def spend(count: int) -> None:
        nonlocal work
        work += count
        if work > tuple_budget:
            raise TupleBudgetExceeded(
                f"{work} group subsets and word choices exceed budget {tuple_budget}"
            )

    spend(math.comb(len(groups), n))
    degs = [word_degree(w) for w in words]
    named: dict[tuple, tuple[tuple[int, ...], RatPoly]] = {}
    for subset in itertools.combinations(groups, n):
        acc: dict = {}
        for cols, d in frame.minors:
            minor = PolyMatrix.from_rows(
                [[RatPoly.const(0, row[j]) for j in cols] for row, _ in subset]
            ).det().constant_value()
            if minor != 0:
                for exp, c in d.terms.items():
                    acc[exp] = acc.get(exp, 0) + minor * c
        base = RatPoly(n, acc)
        if base.is_zero():
            continue
        members = [m for _, m in subset]
        spend(math.prod(map(len, members)))
        if base.leading()[1] < 0:
            base = -base
        # choices of equal degree and |scale| fall in one class: keep the
        # least index tuple of each
        first: dict[tuple, tuple[int, ...]] = {}
        for choice in itertools.product(*members):
            idx = tuple(sorted(i for i, _ in choice))
            deg = (sum(degs[i][0] for i in idx), sum(degs[i][1] for i in idx))
            part = (deg, abs(math.prod(s for _, s in choice)))
            if part not in first or idx < first[part]:
                first[part] = idx
        for (deg, scale), idx in first.items():
            det = base * scale
            key = (deg, tuple(sorted(det.sorted_terms())))
            if key not in named or idx < named[key][0]:
                named[key] = (idx, det)
    entries = [
        LambdaEntry(words=tuple(words[i] for i in idx), deg=key[0], poly=det)
        for key, (idx, det) in named.items()
    ]
    return sorted(entries, key=lambda e: (e.deg, [(len(w), w) for w in e.words]))


def newton_polytope(entries: Sequence[LambdaEntry], flavor: str = "union",
                    samples: Sequence[Sequence] | None = None) -> Polytope2D:
    """Polytope of bracket bidegrees in one of the three flavors.

    union:        generators from every nonzero class;
    point:        classes nonvanishing at the single supplied sample;
    intersection: exact intersection of the point polytopes over all samples.
    """
    if flavor == "union":
        return Polytope2D.from_generators([e.deg for e in entries], flavor="union")
    if samples is None:
        raise ValueError(f"flavor {flavor!r} needs rational sample points")
    if flavor == "point":
        (x0,) = samples
        gens = [e.deg for e in entries if e.poly.eval(x0) != 0]
        return Polytope2D.from_generators(gens, flavor="point")
    if flavor == "intersection":
        parts = [newton_polytope(entries, "point", [x0]) for x0 in samples]
        return intersect_polytopes(parts)
    raise ValueError(f"unknown flavor {flavor!r}")


def extreme_and_minimal(polytope: Polytope2D) -> dict:
    """Extreme points plus minimal lattice elements of the staircase."""
    if polytope.is_empty():
        raise EmptyPolytope("empty polytope")
    return {
        "extreme": polytope.extreme_points(),
        "minimal": polytope.minimal_lattice_points(),
    }


@dataclass(frozen=True)
class WeightSpec:
    """Symbolic weight w_b = sum over classes of |lambda_I|^(1/(b1+b2-1))."""

    b: tuple[int, int]
    exponent: Fraction
    summands: tuple[RatPoly, ...]
    p: tuple[Fraction, Fraction]

    def eval_at(self, point: Sequence) -> float:
        return sum(
            float(abs(s.eval(point))) ** float(self.exponent) for s in self.summands
        )

    def to_json_dict(self) -> dict:
        return {
            "b": list(self.b),
            "p": [str(self.p[0]), str(self.p[1])],
            "exponent": str(self.exponent),
            "summands": [s.to_json_dict() for s in self.summands],
        }


def weight_spec(entries: Sequence[LambdaEntry], b: tuple[int, int]) -> WeightSpec:
    """Weight at lattice point b; an empty summand list gives the zero weight."""
    b = (int(b[0]), int(b[1]))
    summands = tuple(e.poly for e in entries if e.deg == b)
    return WeightSpec(
        b=b,
        exponent=Fraction(1, b[0] + b[1] - 1),
        summands=summands,
        p=exponents_for_b(b),
    )


def polytope_via_J(table: WordTable, x0: Sequence) -> Polytope2D:
    """Point polytope reconstructed from Jacobian derivatives alone.

    Hull of {b(beta) : J^beta(x0) != 0} together with the tilde-map analogue;
    must coincide with the point-flavor polytope from the lambda table.
    """
    gens: set[tuple[int, int]] = set()
    for beta, J in all_jacobian_derivatives(psi_flow(table)).items():
        if J.eval(x0) != 0:
            gens.add(b_of_beta(beta))
    for beta, J in all_jacobian_derivatives(psi_tilde_flow(table)).items():
        if J.eval(x0) != 0:
            gens.add(b_tilde_of_beta(beta))
    return Polytope2D.from_generators(gens, flavor="point")
