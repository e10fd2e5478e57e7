"""Fiber fields, bracket words, nilpotency certificates, exact flows."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionlab.geometry import (
    NonTerminatingSeries,
    NotNilpotentWithinCap,
    PolyMap,
    PolyVectorField,
    build_word_table,
    hodge_star_field,
    lie_bracket,
    lie_series,
    lie_series_flow,
    nilpotency_step,
    word_degree,
)
from torsionlab.polycore import PolyMatrix, RatPoly
from torsionlab.scenes import curve_maps


def const_field(dim, vec):
    return PolyVectorField(tuple(RatPoly.const(dim, v) for v in vec))


@st.composite
def small_polys(draw, nvars, max_deg=2):
    n_terms = draw(st.integers(0, 3))
    terms = {}
    for _ in range(n_terms):
        exp = tuple(draw(st.integers(0, max_deg)) for _ in range(nvars))
        terms[exp] = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
    return RatPoly(nvars, terms)


@st.composite
def poly_maps(draw, n=3):
    comps = tuple(draw(small_polys(n)) for _ in range(n - 1))
    return PolyMap(comps)


def sympy_field(field):
    xs = sympy.symbols(f"x0:{field.dim}")
    comps = []
    for c in field.components:
        expr = 0
        for exp, coeff in c.terms.items():
            term = sympy.Rational(coeff.numerator, coeff.denominator)
            for i, e in enumerate(exp):
                term *= xs[i] ** e
            expr += term
    # note: keep per-component expressions
        comps.append(sympy.expand(expr))
    return xs, comps


class TestHodgeStar:
    def test_moment_first_projection(self):
        # pi1(x1,x2,t) = (x1,x2): the field is exactly d/dt
        xs = RatPoly.variables(3)
        X = hodge_star_field(PolyMap((xs[0], xs[1])))
        assert X.components == (RatPoly.zero(3), RatPoly.zero(3), RatPoly.const(3, 1))

    def test_moment_second_projection(self):
        xs = RatPoly.variables(3)
        t = xs[2]
        X = hodge_star_field(PolyMap((xs[0] - t, xs[1] - t ** 2)))
        assert X.components == (RatPoly.const(3, 1), t * 2, RatPoly.const(3, 1))

    def test_power_map_in_dimension_two(self):
        xs = RatPoly.variables(2)
        X1 = hodge_star_field(PolyMap((xs[0],)))
        X2 = hodge_star_field(PolyMap((xs[1] ** 3,)))
        # sign convention fixes these up to one global flip
        assert [abs(c.eval([2, 5])) for c in X1.components] == [0, 1]
        assert X2.components[0] == xs[1] ** 2 * 3
        assert X2.components[1].is_zero()

    @given(poly_maps())
    @settings(max_examples=30, deadline=None)
    def test_divergence_free(self, pi):
        X = hodge_star_field(pi)
        assert X.divergence().is_zero()

    @given(poly_maps())
    @settings(max_examples=30, deadline=None)
    def test_annihilates_fibers(self, pi):
        X = hodge_star_field(pi)
        for comp in pi.components:
            assert X.apply_to(comp).is_zero()


class TestLieBracket:
    def test_self_bracket_vanishes(self):
        xs = RatPoly.variables(2)
        X = PolyVectorField((xs[0] * xs[1], xs[1] ** 2))
        assert lie_bracket(X, X).is_zero()

    def test_moment_generators(self):
        xs = RatPoly.variables(3)
        X1 = const_field(3, [0, 0, 1])
        X2 = PolyVectorField((RatPoly.const(3, 1), xs[2] * 2, RatPoly.const(3, 1)))
        br = lie_bracket(X1, X2)
        assert br.components == (RatPoly.zero(3), RatPoly.const(3, 2), RatPoly.zero(3))

    def test_constant_fields_commute(self):
        assert lie_bracket(const_field(2, [1, 2]), const_field(2, [3, 4])).is_zero()

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_jacobi_identity(self, data):
        n = 2
        fields = []
        for _ in range(3):
            comps = tuple(data.draw(small_polys(n, max_deg=2)) for _ in range(n))
            fields.append(PolyVectorField(comps))
        x, y, z = fields
        total = (
            lie_bracket(x, lie_bracket(y, z))
            + lie_bracket(y, lie_bracket(z, x))
            + lie_bracket(z, lie_bracket(x, y))
        )
        assert total.is_zero()

    @given(st.data())
    @settings(max_examples=10, deadline=None)
    def test_against_sympy(self, data):
        n = 2
        f = PolyVectorField(tuple(data.draw(small_polys(n)) for _ in range(n)))
        g = PolyVectorField(tuple(data.draw(small_polys(n)) for _ in range(n)))
        xs, fc = sympy_field(f)
        _, gc = sympy_field(g)
        ours = lie_bracket(f, g)
        for i in range(n):
            expected = sympy.expand(
                sum(fc[j] * sympy.diff(gc[i], xs[j]) - gc[j] * sympy.diff(fc[i], xs[j])
                    for j in range(n))
            )
            _, oc = sympy_field(ours)
            assert sympy.simplify(oc[i] - expected) == 0


class TestWordTable:
    def test_moment_curve_words(self, moment2):
        assert moment2["table"].words() == [(1,), (2,), (1, 2), (2, 1)]

    def test_equal_generators(self):
        xs = RatPoly.variables(2)
        X = PolyVectorField((xs[1], RatPoly.const(2, 1)))
        table = build_word_table(X, X, 4)
        assert table.words() == [(1,), (2,)]

    def test_power_map_word_ladder(self):
        k = 4
        xs = RatPoly.variables(2)
        X1 = hodge_star_field(PolyMap((xs[0],)))
        X2 = hodge_star_field(PolyMap((xs[1] ** k,)))
        table = build_word_table(X1, X2, k + 2)
        # word (1,...,1,2) with j ones: k!/(k-1-j)! x2^(k-1-j) d/dx1 up to sign
        fact = k
        for j in range(1, k):
            w = (1,) * j + (2,)
            fact *= k - j
            field = table.entries[w]
            assert abs(field.components[0].terms[(0, k - 1 - j)]) == fact
            assert field.components[1].is_zero()

    def test_degrees(self):
        assert word_degree((1, 2, 1)) == (2, 1)
        assert word_degree((2,)) == (0, 1)


class TestNilpotency:
    def test_moment2_step(self, moment2):
        assert nilpotency_step(moment2["table"]) == 2

    def test_moment3_step(self, moment3):
        assert nilpotency_step(moment3["table"]) == 3

    def test_growing_tower_not_certified(self):
        x = RatPoly.variable(1, 0)
        X1 = PolyVectorField((RatPoly.const(1, 1),))
        X2 = PolyVectorField((x ** 2,))
        for cap in (3, 5, 8):
            table = build_word_table(X1, X2, cap)
            with pytest.raises(NotNilpotentWithinCap):
                nilpotency_step(table)


class TestLieSeriesFlow:
    def test_constant_field(self):
        X = const_field(2, [0, 1])
        fm = lie_series_flow(X)
        x0, x1, t = RatPoly.variables(3)
        assert fm.map == (x0, x1 + t)

    def test_moment_flow(self):
        xs = RatPoly.variables(3)
        X2 = PolyVectorField((RatPoly.const(3, 1), xs[2] * 2, RatPoly.const(3, 1)))
        fm = lie_series_flow(X2)
        x0, x1, x2, s = RatPoly.variables(4)
        assert fm.map == (x0 + s, x1 + x2 * s * 2 + s ** 2, x2 + s)

    def test_series_levels_and_budget(self):
        # X = (1, 2 x2, 1): levels coords, X(coords), X^2(coords), then zero
        xs = RatPoly.variables(3)
        X2 = PolyVectorField((RatPoly.const(3, 1), xs[2] * 2, RatPoly.const(3, 1)))
        one, zero = RatPoly.const(3, 1), RatPoly.zero(3)
        assert lie_series(X2, max_terms=3) == [xs, [one, xs[2] * 2, one],
                                               [zero, RatPoly.const(3, 2), zero]]
        with pytest.raises(NonTerminatingSeries):
            lie_series(X2, max_terms=2)
        assert lie_series_flow(X2, max_terms=3).terms_used == 3

    def test_non_polynomial_flow_rejected(self):
        x = RatPoly.variable(1, 0)
        X = PolyVectorField((x ** 2,))
        with pytest.raises(NonTerminatingSeries):
            lie_series_flow(X, max_terms=10)

    def test_flow_derivative_identity(self, moment2):
        # d/dt flow = field o flow, exactly, for every stored word field
        table = moment2["table"]
        for w, field in table.entries.items():
            fm = lie_series_flow(field)
            n = field.dim
            tvar = n
            for i in range(n):
                lhs = fm.map[i].partial(tvar)
                rhs = field.components[i].extend(n + 1).compose(list(fm.map) + [RatPoly.variable(n + 1, tvar)])
                assert lhs == rhs

    def test_group_law_in_time(self, moment2):
        # flow(s) then flow(t) equals flow(s+t) as polynomials in (x, s, t)
        table = moment2["table"]
        field = table.entries[(2,)]
        n = field.dim
        fm = lie_series_flow(field)
        nv = n + 2
        xs = [RatPoly.variable(nv, i) for i in range(n)]
        s = RatPoly.variable(nv, n)
        t = RatPoly.variable(nv, n + 1)
        at_s = [m.compose(xs + [s]) for m in fm.map]
        then_t = [m.compose(at_s + [t]) for m in fm.map]
        direct = [m.compose(xs + [s + t]) for m in fm.map]
        assert then_t == direct

    def test_state_jacobian_is_one(self, moment3):
        for w, field in moment3["table"].entries.items():
            fm = lie_series_flow(field)
            n = field.dim
            jac = PolyMatrix.from_rows(
                [[fm.map[i].partial(j) for j in range(n)] for i in range(n)]
            )
            assert jac.det() == RatPoly.const(n + 1, 1)

    @given(st.data())
    @settings(max_examples=10, deadline=None)
    def test_flow_against_sympy_on_curves(self, data):
        # translation-invariant family: dsolve-free check via Taylor series
        deg = data.draw(st.integers(1, 3))
        coeffs = [[0] + [data.draw(st.integers(-2, 2)) for _ in range(deg)]]
        pi1, pi2 = curve_maps(coeffs)
        X2 = hodge_star_field(pi2)
        fm = lie_series_flow(X2)
        # evaluate flow at rational point/time and compare against sympy's
        # series integration of the ODE
        pt = [Fraction(1, 2), Fraction(1, 3)]
        tval = Fraction(1, 5)
        ours = fm.eval(tval, pt)
        # the field is +-(gamma'(t) d/dx + d/dt); read the sign off the flow
        sign = 1 if ours[1] - Fraction(1, 3) == Fraction(1, 5) else -1
        assert ours[1] == Fraction(1, 3) + sign * Fraction(1, 5)
        s = sympy.symbols("s")
        gamma = sum(sympy.Rational(c) * s ** k for k, c in enumerate(coeffs[0]))
        t0 = sympy.Rational(1, 3)
        x0 = sympy.Rational(1, 2)
        expect_x = x0 + gamma.subs(s, t0 + sign * sympy.Rational(1, 5)) - gamma.subs(s, t0)
        assert sympy.Rational(ours[0].numerator, ours[0].denominator) == sympy.nsimplify(expect_x)
