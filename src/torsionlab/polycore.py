"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial in ``n`` variables is a mapping from exponent vectors (length-n
tuples of nonnegative ints) to nonzero ``Fraction`` coefficients.  The zero
polynomial is the empty mapping.  All arithmetic is exact; nothing in this
module touches floating point.

Scalars are ``fractions.Fraction`` throughout: the stdlib type already
maintains the reduced-form and positive-denominator invariants we need.

Serialization uses a canonical graded-lexicographic term order so that equal
polynomials always produce byte-identical JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence

Exponent = tuple[int, ...]

RatLike = int | Fraction


class ExactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


def _grlex_key(exp: Exponent) -> tuple[int, Exponent]:
    return (sum(exp), exp)


class RatPoly:
    """Sparse multivariate polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponent, RatLike] | None = None):
        self.nvars = int(nvars)
        clean: dict[Exponent, Fraction] = {}
        if terms:
            for exp, c in terms.items():
                c = Fraction(c)
                if c == 0:
                    continue
                exp = tuple(int(e) for e in exp)
                if len(exp) != self.nvars or any(e < 0 for e in exp):
                    raise ValueError(f"bad exponent vector {exp} for nvars={self.nvars}")
                clean[exp] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, nvars: int, terms: dict[Exponent, Fraction]) -> "RatPoly":
        """Wrap a dict of valid exponents and nonzero Fractions, unchecked."""
        res = object.__new__(cls)
        res.nvars = nvars
        res.terms = terms
        return res

    @classmethod
    def zero(cls, nvars: int) -> "RatPoly":
        return cls._of(int(nvars), {})

    @classmethod
    def const(cls, nvars: int, value: RatLike) -> "RatPoly":
        value = Fraction(value)
        if value == 0:
            return cls.zero(nvars)
        return cls._of(int(nvars), {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "RatPoly":
        if not 0 <= index < nvars:
            raise IndexError(f"variable index {index} out of range for nvars={nvars}")
        exp = [0] * nvars
        exp[index] = 1
        return cls(nvars, {tuple(exp): Fraction(1)})

    @classmethod
    def variables(cls, nvars: int) -> list["RatPoly"]:
        return [cls.variable(nvars, i) for i in range(nvars)]

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        """Value of a constant polynomial (raises if nonconstant)."""
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, var: int) -> int:
        if not self.terms:
            return -1
        return max(e[var] for e in self.terms)

    def leading(self) -> tuple[Exponent, Fraction]:
        """Leading term under graded-lexicographic order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=_grlex_key)
        return exp, self.terms[exp]

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]))

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other) -> "RatPoly | None":
        if isinstance(other, RatPoly):
            if other.nvars != self.nvars:
                raise ValueError("nvars mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return RatPoly.const(self.nvars, other)
        return None

    def __add__(self, other) -> "RatPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.terms:
            # common: sums start at 0, and many bracket and det products are 0
            return RatPoly._of(self.nvars, dict(other.terms))
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp)
            if s is None:
                out[exp] = c
            else:
                s += c
                if s:
                    out[exp] = s
                else:
                    del out[exp]
        return RatPoly._of(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "RatPoly":
        return RatPoly._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "RatPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RatPoly":
        return (-self) + other

    def __mul__(self, other) -> "RatPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.terms:
            return RatPoly.zero(self.nvars)
        # a cancelled term is deleted, so a later product re-inserts it at
        # the end: the term order is part of the result (floats sum in it)
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = out.get(e)
                if s is None:
                    out[e] = c1 * c2
                else:
                    s += c1 * c2
                    if s:
                        out[e] = s
                    else:
                        del out[e]
        return RatPoly._of(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "RatPoly":
        if k < 0:
            raise ValueError("negative power")
        result = RatPoly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        other = self._coerce(other) if not isinstance(other, RatPoly) else other
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None  # mutable mapping inside

    # -- calculus -----------------------------------------------------------

    def eval(self, point: Sequence[RatLike]) -> Fraction:
        """Exact value at a rational point."""
        if len(point) != self.nvars:
            raise ValueError(f"point has length {len(point)}, expected {self.nvars}")
        pt = [Fraction(v) for v in point]
        powers: list[dict[int, Fraction]] = [{0: Fraction(1)} for _ in range(self.nvars)]

        def pw(i: int, e: int) -> Fraction:
            cache = powers[i]
            if e not in cache:
                cache[e] = pt[i] ** e
            return cache[e]

        total = Fraction(0)
        for exp, c in self.terms.items():
            v = c
            for i, e in enumerate(exp):
                if e:
                    v *= pw(i, e)
            total += v
        return total

    def partial(self, var: int) -> "RatPoly":
        """Exact partial derivative with respect to variable ``var``."""
        if not 0 <= var < self.nvars:
            raise IndexError(f"variable index {var} out of range")
        out: dict[Exponent, Fraction] = {}
        for exp, c in self.terms.items():
            e = exp[var]
            if e == 0:
                continue
            new = list(exp)
            new[var] = e - 1
            out[tuple(new)] = c * e
        return RatPoly._of(self.nvars, out)

    def compose(self, maps: Sequence["RatPoly"]) -> "RatPoly":
        """Substitute ``maps[i]`` for variable i.  All maps share one nvars."""
        if len(maps) != self.nvars:
            raise ValueError(f"expected {self.nvars} maps, got {len(maps)}")
        if not maps:
            raise ValueError("cannot compose a 0-variable polynomial")
        k = maps[0].nvars
        if any(m.nvars != k for m in maps):
            raise ValueError("substitution maps disagree on nvars")
        power_cache: list[dict[int, RatPoly]] = [
            {0: RatPoly.const(k, 1), 1: m} for m in maps
        ]

        def pw(i: int, e: int) -> RatPoly:
            cache = power_cache[i]
            if e not in cache:
                half = pw(i, e // 2)
                val = half * half
                if e % 2:
                    val = val * maps[i]
                cache[e] = val
            return cache[e]

        total = RatPoly.zero(k)
        for exp, c in self.terms.items():
            term = RatPoly.const(k, c)
            for i, e in enumerate(exp):
                if e:
                    term = term * pw(i, e)
            total = total + term
        return total

    def extend(self, nvars_new: int) -> "RatPoly":
        """Reinterpret in a larger variable space, old variables first."""
        if nvars_new < self.nvars:
            raise ValueError("cannot extend to fewer variables")
        pad = (0,) * (nvars_new - self.nvars)
        return RatPoly._of(nvars_new, {exp + pad: c for exp, c in self.terms.items()})

    def coefficients_in(self, time_vars: Sequence[int]) -> dict[Exponent, "RatPoly"]:
        """Split off a variable group: map t-exponent -> coefficient polynomial.

        The coefficient polynomials keep the full variable space with the
        ``time_vars`` slots zeroed out.
        """
        tset = list(time_vars)
        out: dict[Exponent, RatPoly] = {}
        for exp, c in self.terms.items():
            texp = tuple(exp[i] for i in tset)
            rest = list(exp)
            for i in tset:
                rest[i] = 0
            coeff = out.get(texp)
            if coeff is None:
                coeff = out[texp] = RatPoly(self.nvars)
            # (texp, rest) determines exp, so no two terms meet here
            coeff.terms[tuple(rest)] = c
        return out

    def divexact(self, divisor: "RatPoly") -> "RatPoly":
        """Exact division; raises ExactDivisionError on a nonzero remainder."""
        if divisor.nvars != self.nvars:
            raise ValueError("nvars mismatch")
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        d_exp, d_c = divisor.leading()
        if len(divisor.terms) == 1:
            # a monomial divides term by term; almost every Bareiss
            # division in det is by one, mostly the constant 1
            out = {}
            for exp, c in self.terms.items():
                q_exp = tuple(a - b for a, b in zip(exp, d_exp))
                if any(e < 0 for e in q_exp):
                    raise ExactDivisionError("leading term not divisible")
                out[q_exp] = c / d_c
            return RatPoly._of(self.nvars, out)
        rem = self
        quo = RatPoly.zero(self.nvars)
        while not rem.is_zero():
            r_exp, r_c = rem.leading()
            q_exp = tuple(a - b for a, b in zip(r_exp, d_exp))
            if any(e < 0 for e in q_exp):
                raise ExactDivisionError("leading term not divisible")
            t = RatPoly(self.nvars, {q_exp: r_c / d_c})
            quo = quo + t
            rem = rem - t * divisor
        return quo

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "nvars": self.nvars,
            "terms": [
                {
                    "exp": list(exp),
                    "num": str(c.numerator),
                    "den": str(c.denominator),
                }
                for exp, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "RatPoly":
        nvars = int(data["nvars"])
        terms: dict[Exponent, Fraction] = {}
        for t in data.get("terms", []):
            exp = tuple(int(e) for e in t["exp"])
            c = Fraction(int(t["num"]), int(t["den"]))
            if c != 0:
                terms[exp] = terms.get(exp, Fraction(0)) + c
        return cls(nvars, terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exp, c in self.sorted_terms():
            mono = "*".join(
                f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exp) if e
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


@dataclass(frozen=True)
class PolyMatrix:
    """Rectangular grid of RatPoly entries sharing one variable space."""

    rows: int
    cols: int
    entries: tuple[tuple[RatPoly, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entry grid shape mismatch")
        nv = {e.nvars for row in self.entries for e in row}
        if len(nv) > 1:
            raise ValueError("entries disagree on nvars")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[RatPoly]]) -> "PolyMatrix":
        grid = tuple(tuple(r) for r in rows)
        return cls(len(grid), len(grid[0]) if grid else 0, grid)

    @classmethod
    def jacobian(cls, components: Sequence[RatPoly], wrt: Iterable[int]) -> "PolyMatrix":
        """Matrix of partials: entry (i, j) is d components[i] / d x_(wrt[j])."""
        wrt = list(wrt)
        return cls.from_rows([[c.partial(j) for j in wrt] for c in components])

    @property
    def nvars(self) -> int:
        return self.entries[0][0].nvars

    def __getitem__(self, ij: tuple[int, int]) -> RatPoly:
        return self.entries[ij[0]][ij[1]]

    def det(self) -> RatPoly:
        """Determinant via fraction-free (Bareiss) elimination.

        Intermediate entries stay polynomial: every division in the recurrence
        is exact over the base ring.
        """
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return RatPoly.const(0, 1)
        nv = self.nvars
        m = [[self.entries[i][j] for j in range(n)] for i in range(n)]
        sign = 1
        prev = RatPoly.const(nv, 1)
        for k in range(n - 1):
            if m[k][k].is_zero():
                swap = next((i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
                if swap is None:
                    return RatPoly.zero(nv)
                m[k], m[swap] = m[swap], m[k]
                sign = -sign
            pivot = m[k][k]
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    num = m[i][j] * pivot - m[i][k] * m[k][j]
                    m[i][j] = num.divexact(prev)
                m[i][k] = RatPoly.zero(nv)
            prev = pivot
        result = m[n - 1][n - 1]
        return result if sign == 1 else -result
