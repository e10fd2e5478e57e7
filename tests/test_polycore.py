"""Exact polynomial core: examples with independent oracles plus ring laws."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionlab.polycore import ExactDivisionError, PolyMatrix, RatPoly


def minor(matrix: PolyMatrix, drop_row: int, drop_col: int) -> PolyMatrix:
    grid = tuple(
        tuple(e for j, e in enumerate(row) if j != drop_col)
        for i, row in enumerate(matrix.entries)
        if i != drop_row
    )
    return PolyMatrix(matrix.rows - 1, matrix.cols - 1, grid)


def det_cofactor(matrix: PolyMatrix) -> RatPoly:
    """Cofactor-expansion determinant; quadratic-time partner used as an
    independent cross-check against the Bareiss path."""
    if matrix.rows != matrix.cols:
        raise ValueError("determinant of a non-square matrix")
    n = matrix.rows
    if n == 0:
        return RatPoly.const(0, 1)
    if n == 1:
        return matrix.entries[0][0]
    total = RatPoly.zero(matrix.nvars)
    for j in range(n):
        entry = matrix.entries[0][j]
        if entry.is_zero():
            continue
        term = entry * det_cofactor(minor(matrix, 0, j))
        total = total + (term if j % 2 == 0 else -term)
    return total


def frac(n, d=1):
    return Fraction(n, d)


@st.composite
def rat_polys(draw, nvars=None, max_terms=4, max_deg=3):
    nv = nvars if nvars is not None else draw(st.integers(1, 3))
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        exp = tuple(draw(st.integers(0, max_deg)) for _ in range(nv))
        num = draw(st.integers(-9, 9))
        den = draw(st.integers(1, 5))
        terms[exp] = terms.get(exp, Fraction(0)) + Fraction(num, den)
    return RatPoly(nv, terms)


class TestEval:
    def test_product_plus_constant(self):
        x1, x2 = RatPoly.variables(2)
        p = x1 * x2 + 3
        assert p.eval([2, 5]) == 13

    def test_zero_polynomial(self):
        assert RatPoly.zero(3).eval([1, 2, 7]) == 0

    def test_curve_jacobian_determinant(self):
        # det [[1, 2t], [0, 2]] expanded by hand: 1*2 - 2t*0 = 2
        t = RatPoly.variable(1, 0)
        m = PolyMatrix.from_rows([
            [RatPoly.const(1, 1), t * 2],
            [RatPoly.zero(1), RatPoly.const(1, 2)],
        ])
        assert m.det().eval([7]) == 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            RatPoly.variable(2, 0).eval([1])


class TestPartial:
    def test_mixed_power(self):
        x1, x2 = RatPoly.variables(2)
        p = x1 * x2 * x2
        assert p.partial(1) == x1 * x2 * 2

    def test_constant(self):
        assert RatPoly.const(2, 5).partial(0).is_zero()

    def test_linear_time_slot(self):
        t2 = RatPoly.variable(3, 1)
        assert (t2 * (-2)).partial(1) == RatPoly.const(3, -2)

    @given(rat_polys(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_partials_commute(self, p, data):
        i = data.draw(st.integers(0, p.nvars - 1))
        j = data.draw(st.integers(0, p.nvars - 1))
        assert p.partial(i).partial(j) == p.partial(j).partial(i)


class TestCompose:
    def test_shift(self):
        x = RatPoly.variable(1, 0)
        p = x ** 2
        assert p.compose([x + 1]) == x ** 2 + x * 2 + 1

    def test_identity(self):
        x1, x2 = RatPoly.variables(2)
        p = x1 ** 2 * x2 + x2 * 3
        assert p.compose([x1, x2]) == p

    def test_flow_substitution(self):
        # x2 coordinate of the quadratic-curve flow: x2 + 2ts + s^2
        # in variables (x1, x2, t, s)
        x1, x2, t, s = RatPoly.variables(4)
        target = RatPoly.variable(3, 1)  # x2 in 3 state vars
        flow = [x1, x2 + t * s * 2 + s ** 2, t + s]
        assert target.compose(flow[:3]) == x2 + t * s * 2 + s ** 2

    @given(rat_polys(nvars=2), rat_polys(nvars=1, max_deg=2), rat_polys(nvars=1, max_deg=2))
    @settings(max_examples=40, deadline=None)
    def test_eval_compose_commutes(self, p, m1, m2):
        pt = [Fraction(1, 3)]
        composed = p.compose([m1, m2])
        assert composed.eval(pt) == p.eval([m1.eval(pt), m2.eval(pt)])


@st.composite
def poly_matrices(draw, n, nvars=2, max_deg=1):
    rows = []
    for _ in range(n):
        rows.append([draw(rat_polys(nvars=nvars, max_terms=2, max_deg=max_deg))
                     for _ in range(n)])
    return PolyMatrix.from_rows(rows)


class TestDet:
    def test_identity(self):
        n = 3
        rows = [[RatPoly.const(2, 1 if i == j else 0) for j in range(n)]
                for i in range(n)]
        assert PolyMatrix.from_rows(rows).det() == RatPoly.const(2, 1)

    def test_curve_jacobian(self):
        t = RatPoly.variable(1, 0)
        m = PolyMatrix.from_rows([
            [RatPoly.const(1, 1), t * 2],
            [RatPoly.zero(1), RatPoly.const(1, 2)],
        ])
        assert m.det() == RatPoly.const(1, 2)

    def test_moment_curve_frame(self, moment2):
        # det(X1, X2, X12) for the quadratic curve is the constant +-2
        table = moment2["table"]
        cols = [table.entries[w] for w in [(1,), (2,), (1, 2)]]
        m = PolyMatrix.from_rows(
            [[cols[j].components[i] for j in range(3)] for i in range(3)]
        )
        d = m.det()
        assert d == RatPoly.const(3, 2) or d == RatPoly.const(3, -2)
        assert d == det_cofactor(m)

    @given(poly_matrices(2), poly_matrices(2))
    @settings(max_examples=25, deadline=None)
    def test_multiplicative(self, a, b):
        product = PolyMatrix.from_rows(
            [[sum((a[i, k] * b[k, j] for k in range(2)), RatPoly.zero(2))
              for j in range(2)] for i in range(2)])
        assert product.det() == a.det() * b.det()

    @given(poly_matrices(3, max_deg=1))
    @settings(max_examples=15, deadline=None)
    def test_bareiss_matches_cofactor(self, m):
        assert m.det() == det_cofactor(m)

    def test_non_square(self):
        m = PolyMatrix.from_rows([[RatPoly.const(1, 1), RatPoly.const(1, 2)]])
        with pytest.raises(ValueError):
            m.det()


class TestRingAxioms:
    @given(rat_polys(nvars=2), rat_polys(nvars=2), rat_polys(nvars=2))
    @settings(max_examples=50, deadline=None)
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)

    @given(rat_polys(nvars=2), rat_polys(nvars=2))
    @settings(max_examples=50, deadline=None)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(rat_polys())
    @settings(max_examples=30, deadline=None)
    def test_additive_inverse(self, a):
        assert (a - a).is_zero()


def former_add(p, q):
    """The former __add__ loop, kept as the reference for value and term order."""
    out = dict(p.terms)
    for exp, c in q.terms.items():
        s = out.get(exp, Fraction(0)) + c
        if s == 0:
            out.pop(exp, None)
        else:
            out[exp] = s
    return out


def former_mul(p, q):
    """The former __mul__ loop, kept as the reference for value and term order."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, Fraction(0)) + c1 * c2
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
    return out


class TestTermOrder:
    def test_cancelled_term_goes_to_the_end(self):
        # the x^2 partials sum -1 + 1 = 0 and are deleted; the last one
        # re-inserts x^2 after x^3
        p = RatPoly(1, {(0,): -1, (1,): -1, (2,): 1})
        sq = p * p
        assert list(sq.terms.items()) == [
            ((0,), 1), ((1,), 2), ((3,), -2), ((2,), -1), ((4,), 1)]

    def test_matches_former_loops(self):
        # small exponents and coefficients +-1, +-2 make many cancellations;
        # a draw of no terms gives the zero polynomial
        rng = random.Random(11)
        cancelled = 0
        for _ in range(300):
            nv = rng.randint(1, 2)
            p, q = (RatPoly(nv, {
                tuple(rng.randint(0, 2) for _ in range(nv)):
                    Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 1, 2]))
                for _ in range(rng.randint(0, 5))}) for _ in range(2))
            for got, want in ((p * q, former_mul(p, q)), (p + q, former_add(p, q)),
                              (p - q, former_add(p, -q))):
                assert list(got.terms.items()) == list(want.items())
            cancelled += len(p.terms) * len(q.terms) > len((p * q).terms)
        assert cancelled > 50


class TestDivexact:
    @given(rat_polys(nvars=2, max_terms=3), rat_polys(nvars=2, max_terms=3))
    @settings(max_examples=40, deadline=None)
    def test_product_division_roundtrip(self, a, b):
        if b.is_zero():
            return
        assert (a * b).divexact(b) == a

    def test_inexact_division_raises(self):
        x, y = RatPoly.variables(2)
        with pytest.raises(ExactDivisionError):
            (x * x + y).divexact(x + 1)
        with pytest.raises(ExactDivisionError):  # a monomial divisor
            (x * x + y).divexact(x * 3)

    def test_monomial_divisor(self):
        x, y = RatPoly.variables(2)
        assert (x * x * y * 6 + x * y * 4).divexact(x * y * 2) == x * 3 + 2
        assert (x + y).divexact(RatPoly.const(2, Fraction(1, 2))) == x * 2 + y * 2


class TestSerialization:
    @given(rat_polys())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, p):
        assert RatPoly.from_json_dict(p.to_json_dict()) == p

    def test_canonical_term_order(self):
        x, y = RatPoly.variables(2)
        p = y * 2 + x ** 3 + 1
        exps = [t["exp"] for t in p.to_json_dict()["terms"]]
        assert exps == [[0, 0], [0, 1], [3, 0]]  # graded lex, total degree first

    def test_bigint_coefficients(self):
        huge = 10 ** 40 + 7
        p = RatPoly(1, {(2,): Fraction(huge, 3)})
        d = p.to_json_dict()
        assert d["terms"][0]["num"] == str(huge)
        assert RatPoly.from_json_dict(d) == p
