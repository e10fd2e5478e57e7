"""Fiber vector fields, bracket words, and exact polynomial flows.

Given a polynomial map pi: R^n -> R^(n-1), the associated fiber field is the
Euclidean dual of d(pi^1) ^ ... ^ d(pi^(n-1)): componentwise,

    X^i = (-1)^(i+1) * det(Jacobian of pi with column i deleted).

The sign convention is fixed once here; every weight downstream takes absolute
values, so only the global sign is at stake.  Fields built this way are
divergence-free and annihilate the components of pi, and both facts are exact
polynomial identities (tested, not assumed).

Bracket words over the alphabet {1, 2} index iterated Lie brackets:
X_(i,w) = [X_i, X_w].  A WordTable holds every nonzero X_w up to a length cap,
which is also how nilpotency gets certified: once every word of some length
vanishes, all longer words vanish with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .polycore import PolyMatrix, RatPoly

Word = tuple[int, ...]


class NonTerminatingSeries(ArithmeticError):
    """Lie series of a flow failed to terminate within the term budget."""


class NotNilpotentWithinCap(ValueError):
    """Word table still has nonzero entries at the cap length."""


def word_degree(w: Word) -> tuple[int, int]:
    """Bidegree (#1s, #2s) of a bracket word."""
    return (sum(1 for a in w if a == 1), sum(1 for a in w if a == 2))


@dataclass(frozen=True)
class PolyMap:
    """Polynomial map R^n -> R^(n-1), stored as its component polynomials."""

    components: tuple[RatPoly, ...]

    def __post_init__(self):
        n = self.source_dim
        if len(self.components) != n - 1:
            raise ValueError("a PolyMap needs exactly n-1 components in n variables")

    @property
    def source_dim(self) -> int:
        return self.components[0].nvars

    def eval(self, point: Sequence) -> list[Fraction]:
        return [c.eval(point) for c in self.components]

    def to_json_dict(self) -> dict:
        return {
            "nvars": self.source_dim,
            "components": [c.to_json_dict() for c in self.components],
        }

    @classmethod
    def from_json_dict(cls, data) -> "PolyMap":
        return cls(tuple(RatPoly.from_json_dict(c) for c in data["components"]))


@dataclass(frozen=True)
class PolyVectorField:
    """Polynomial vector field on R^n: one component polynomial per coordinate."""

    components: tuple[RatPoly, ...]

    def __post_init__(self):
        n = len(self.components)
        if any(c.nvars != n for c in self.components):
            raise ValueError("field components must be polynomials in dim-many variables")

    @property
    def dim(self) -> int:
        return len(self.components)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def eval(self, point: Sequence) -> list[Fraction]:
        return [c.eval(point) for c in self.components]

    def apply_to(self, f: RatPoly) -> RatPoly:
        """Directional derivative X(f) = sum_j X^j d_j f."""
        out = RatPoly.zero(self.dim)
        for j, comp in enumerate(self.components):
            if not comp.is_zero():
                df = f.partial(j)
                if not df.is_zero():
                    out = out + comp * df
        return out

    def divergence(self) -> RatPoly:
        out = RatPoly.zero(self.dim)
        for j, comp in enumerate(self.components):
            out = out + comp.partial(j)
        return out

    def __add__(self, other: "PolyVectorField") -> "PolyVectorField":
        return PolyVectorField(tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "PolyVectorField") -> "PolyVectorField":
        return PolyVectorField(tuple(a - b for a, b in zip(self.components, other.components)))

    def scale(self, c) -> "PolyVectorField":
        return PolyVectorField(tuple(comp * c for comp in self.components))

    def to_json_dict(self) -> dict:
        return {
            "nvars": self.dim,
            "components": [c.to_json_dict() for c in self.components],
        }

    @classmethod
    def from_json_dict(cls, data) -> "PolyVectorField":
        return cls(tuple(RatPoly.from_json_dict(c) for c in data["components"]))

    @classmethod
    def zero(cls, dim: int) -> "PolyVectorField":
        return cls(tuple(RatPoly.zero(dim) for _ in range(dim)))


def hodge_star_field(pi: PolyMap) -> PolyVectorField:
    """Fiber field of pi: signed maximal minors of the Jacobian.

    Equivalently, X(f) = det of the matrix whose first row is grad f stacked
    over Dpi, so dpi(X) = 0 and div X = 0 hold identically.
    """
    n = pi.source_dim
    jac = PolyMatrix.jacobian(pi.components, range(n))
    comps = []
    for i in range(n):
        cols = [j for j in range(n) if j != i]
        sub = PolyMatrix.from_rows(
            [[jac[r, c] for c in cols] for r in range(n - 1)]
        )
        minor = sub.det() if n > 1 else RatPoly.const(n, 1)
        comps.append(minor if i % 2 == 0 else -minor)
    return PolyVectorField(tuple(comps))


def lie_bracket(x: PolyVectorField, y: PolyVectorField) -> PolyVectorField:
    """[X, Y]^i = X(Y^i) - Y(X^i), exactly."""
    if x.dim != y.dim:
        raise ValueError("bracket of fields with different dimensions")
    return PolyVectorField(tuple(x.apply_to(yi) - y.apply_to(xi)
                                 for xi, yi in zip(x.components, y.components)))


@dataclass
class WordTable:
    """Cache of all nonzero bracket fields X_w with |w| <= cap."""

    cap: int
    entries: dict[Word, PolyVectorField]
    dim: int
    _flow_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _frame: object = field(default=None, repr=False, compare=False)  # nilpotent.basis_frame

    def words(self) -> list[Word]:
        return sorted(self.entries, key=lambda w: (len(w), w))

    def field_for(self, w: Word) -> PolyVectorField:
        """Field of a word; zero field if the word vanished."""
        if w in self.entries:
            return self.entries[w]
        return PolyVectorField.zero(self.dim)

    def max_nonzero_length(self) -> int:
        return max((len(w) for w in self.entries), default=0)

    def summary(self) -> dict:
        return {
            "cap": self.cap,
            "dim": self.dim,
            "nonzero_words": [list(w) for w in self.words()],
            "degrees": {
                "".join(map(str, w)): list(word_degree(w)) for w in self.words()
            },
        }

    def to_json_dict(self) -> dict:
        return {
            "cap": self.cap,
            "dim": self.dim,
            "entries": [
                {"word": list(w), "field": self.entries[w].to_json_dict()}
                for w in self.words()
            ],
        }


def build_word_table(x1: PolyVectorField, x2: PolyVectorField, cap: int) -> WordTable:
    """All nonzero X_w for |w| <= cap, enumerated length-then-lex.

    X_(i,w) = [X_i, X_w]; once every word of a given length vanishes, no longer
    word can be nonzero, so generation stops early.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if x1.dim != x2.dim:
        raise ValueError("generator dimension mismatch")
    letters = {(1,): x1, (2,): x2}
    entries: dict[Word, PolyVectorField] = {
        w: f for w, f in letters.items() if not f.is_zero()
    }
    prev_level: dict[Word, PolyVectorField] = dict(entries)
    for length in range(2, cap + 1):
        level: dict[Word, PolyVectorField] = {}
        for head in (1, 2):
            gen = letters[(head,)]
            for tail, tail_field in prev_level.items():
                w = (head,) + tail
                f = lie_bracket(gen, tail_field)
                if not f.is_zero():
                    level[w] = f
        if not level:
            break
        entries.update(level)
        prev_level = level
    return WordTable(cap=cap, entries=entries, dim=x1.dim)


def nilpotency_step(table: WordTable) -> int:
    """Certified nilpotency step.

    Returns s when every word of length s+1 (hence every longer word) vanishes
    below the cap.  Raises NotNilpotentWithinCap when nonzero words survive at
    the cap itself, since nothing can then be certified.
    """
    longest = table.max_nonzero_length()
    if longest >= table.cap:
        raise NotNilpotentWithinCap(
            f"nonzero bracket words of length {longest} at cap {table.cap}"
        )
    return max(1, longest)


@dataclass(frozen=True)
class FlowMap:
    """Exact polynomial flow (t, x) -> e^(tX)(x).

    The map polynomials live in dim+1 variables: state first, time last.
    """

    vector_field: PolyVectorField
    map: tuple[RatPoly, ...]
    terms_used: int

    @property
    def dim(self) -> int:
        return self.vector_field.dim

    def eval(self, time, point: Sequence) -> list[Fraction]:
        pt = list(point) + [time]
        return [m.eval(pt) for m in self.map]


def lie_series(x: PolyVectorField, max_terms: int = 40) -> list[list[RatPoly]]:
    """Levels X^k(coords) of the terminating Lie series of a polynomial field.

    Level k holds X^k applied to each coordinate, up to the last nonzero
    level; raises NonTerminatingSeries when the derivation tower is still
    nonzero after max_terms steps (the flow is then not polynomial within
    budget).
    """
    current = RatPoly.variables(x.dim)
    series: list[list[RatPoly]] = [current]
    while True:
        current = [x.apply_to(p) for p in current]
        if all(p.is_zero() for p in current):
            return series
        if len(series) >= max_terms:
            raise NonTerminatingSeries(
                f"X^{max_terms}(coords) is nonzero; flow not polynomial within budget"
            )
        series.append(current)


def lie_series_flow(x: PolyVectorField, max_terms: int = 40) -> FlowMap:
    """Terminating Lie series for the flow of a polynomial field.

    map_i = sum_k t^k/k! X^k(coord_i), from the levels of ``lie_series``.
    """
    n = x.dim
    series = lie_series(x, max_terms)
    t = RatPoly.variable(n + 1, n)
    weights = [t ** j * Fraction(1, math.factorial(j)) for j in range(len(series))]
    out = []
    for i in range(n):
        acc = RatPoly.zero(n + 1)
        for level, weight in zip(series, weights):
            acc = acc + level[i].extend(n + 1) * weight
        out.append(acc)
    return FlowMap(vector_field=x, map=tuple(out), terms_used=len(series))


def compose_flow(flow: FlowMap, time: RatPoly,
                 state: Sequence[RatPoly]) -> list[RatPoly]:
    """e^(time X) composed after ``state``, for ``flow`` the flow of X: the
    flow from the point ``state`` for ``time``, all polynomials in the
    variable space of ``time``."""
    subs = list(state) + [time]
    return [m.compose(subs) for m in flow.map]
