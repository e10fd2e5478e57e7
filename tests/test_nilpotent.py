"""Abstract algebra layer: ad matrices, Malcev bases, group law.

The Dynkin series for log(e^u e^v) lives here, not in the package, as an
independent reference that the group law is checked against.
"""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from torsionlab import nilpotent
from torsionlab.geometry import (
    NonTerminatingSeries,
    NotNilpotentWithinCap,
    PolyMap,
    PolyVectorField,
    build_word_table,
    compose_flow,
    hodge_star_field,
    lie_bracket,
    lie_series,
    lie_series_flow,
)
from torsionlab.nilpotent import (
    AbstractNilpotent,
    NotASubalgebra,
    SingularAtOrigin,
    Span,
    _echelon,
    _field_vector,
    _malcev_struct,
    _nullspace,
    abstract_algebra,
    covering_map,
    exp_neg_ad,
    exp_neg_ad_chain,
    group_law,
    isotropy_subalgebra,
    weak_malcev,
    word_basis,
)
from torsionlab.polycore import PolyMatrix, RatPoly
from torsionlab.scenes import Scene, builtin_scene, curve_maps, moment_curve_scene, power2d_scene


def rational_vec(rng, dim, scale=3):
    return [Fraction(rng.randint(-scale, scale), rng.randint(1, scale))
            for _ in range(dim)]


def combine(coeffs, vectors, dim):
    out = [Fraction(0)] * dim
    for c, v in zip(coeffs, vectors):
        out = [a + c * b for a, b in zip(out, v)]
    return out


def spanning_set(rng, dim):
    """Random vectors of rank below dim, with dependent and zero members."""
    indep = [rational_vec(rng, dim) for _ in range(rng.randint(1, dim - 1))]
    vs = indep + [combine(rational_vec(rng, len(indep)), indep, dim)
                  for _ in range(rng.randint(0, 3))] + [[Fraction(0)] * dim]
    rng.shuffle(vs)
    return vs


@functools.lru_cache(maxsize=None)
def dynkin_terms(step):
    """Dynkin expansion of log(e^x e^y) through total degree ``step``.

    Terms are (letter word, rational coefficient) with 0 for x and 1 for y;
    the word encodes the right-nested bracket [w1,[w2,[...,wm]]].  Words whose
    two innermost letters agree are dropped (the bracket vanishes).
    """
    collected = {}

    def pair_blocks(k, remaining, prefix):
        if k == 0:
            if prefix:
                denom = sum(p + q for p, q in prefix)
                for p, q in prefix:
                    denom *= math.factorial(p) * math.factorial(q)
                kk = len(prefix)
                coeff = Fraction((-1) ** (kk - 1), kk) * Fraction(1, denom)
                w = tuple(a for p, q in prefix for a in [0] * p + [1] * q)
                if len(w) >= 2 and w[-1] == w[-2]:
                    return  # innermost bracket [a,a] = 0
                collected[w] = collected.get(w, Fraction(0)) + coeff
            return
        for p in range(remaining + 1):
            for q in range(remaining - p + 1):
                if p or q:
                    pair_blocks(k - 1, remaining - p - q, prefix + [(p, q)])

    for k in range(1, step + 1):
        pair_blocks(k, step, [])
    return tuple((w, c) for w, c in collected.items() if c != 0)


def bch(alg, u, v):
    """log(e^u e^v) for rational coefficient vectors: the Dynkin series
    truncated at the algebra's nilpotency step."""
    out = [Fraction(0)] * alg.dim
    for word, coeff in dynkin_terms(alg.step):
        val = list(u) if word[-1] == 0 else list(v)
        for letter in reversed(word[:-1]):
            val = alg.bracket_vec(u if letter == 0 else v, val)
        out = [a + coeff * b for a, b in zip(out, val)]
    return out


def malcev_at(table, x0):
    """Weak Malcev basis through the isotropy subalgebra at x0."""
    alg = abstract_algebra(table)
    return weak_malcev(alg, isotropy_subalgebra(alg, x0))


@functools.lru_cache(maxsize=None)
def malcev_law(name, x0):
    """Malcev basis through the isotropy at (x0, ..., x0) and its group law."""
    scene = {"moment2": moment_curve_scene(2), "moment3": moment_curve_scene(3),
             "power2d_k3": power2d_scene(3)}[name]
    table = scene.word_table()
    basis = malcev_at(table, [x0] * table.dim)
    return basis, group_law(basis)


# -- references: elimination in Fractions, entry by entry -------------------

def echelon_reference(rows):
    """Row-reduce a copy; returns (rref rows, pivot column list)."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def rational_det_reference(rows):
    """Determinant of a square rational matrix by Gaussian elimination in Q."""
    m = [list(r) for r in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k] != 0), None)
        if p is None:
            return Fraction(0)
        if p != k:
            m[k], m[p] = m[p], m[k]
            det = -det
        pivot = m[k][k]
        det *= pivot
        for i in range(k + 1, n):
            f = m[i][k] / pivot
            if f != 0:
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


def exp_neg_ad_reference(ad, col, var, limit):
    """exp(-s ad A) on a polynomial column, one Fraction product per entry."""
    ad = [[(m, a) for m, a in enumerate(row) if a] for row in ad]
    out = {}
    for e, v in col.items():
        k = 0
        while any(v):
            if k == limit:
                return None
            c = Fraction((-1) ** k, math.factorial(k))
            ek = e[:var] + (e[var] + k,) + e[var + 1:]
            acc = out.setdefault(ek, [Fraction(0)] * len(v))
            for r, x in enumerate(v):
                if x:
                    acc[r] += c * x
            v = [sum((a * v[m] for m, a in row), Fraction(0)) for row in ad]
            k += 1
    return out


def basis_coordinates(basis, f):
    """Coordinates of f in a word basis, solved by one Span of the basis
    fields' coefficient vectors; None when f leaves their span."""
    index = {}
    for g in basis.fields:
        for i, comp in enumerate(g.components):
            for exp in comp.terms:
                index.setdefault((i, exp), len(index))
    if any((i, exp) not in index for i, comp in enumerate(f.components) for exp in comp.terms):
        return None
    span = Span([_field_vector(g, index) for g in basis.fields], len(index))
    assert span.rank == len(basis.fields)
    return span.coords(_field_vector(f, index))


def random_matrix(rng, nrows, ncols, rank=None):
    """Rational matrix of the given rank (random by default) with zero rows
    and columns, entries of both signs and, now and then, large denominators."""
    big = rng.random() < 0.3

    def entry():
        if rng.random() < 0.3:
            return Fraction(0)
        den = rng.randint(1, 10 ** 15) if big else rng.randint(1, 9)
        return Fraction(rng.randint(-9 * den, 9 * den), den)

    rank = rng.randint(0, min(nrows, ncols)) if rank is None else rank
    base = [[entry() for _ in range(ncols)] for _ in range(rank)]
    rows = base + [combine([entry() for _ in base], base, ncols)
                   for _ in range(nrows - rank)]
    for c in rng.sample(range(ncols), rng.randint(0, ncols // 3)):
        for row in rows:
            row[c] = Fraction(0)
    rng.shuffle(rows)
    return rows


def nilpotent_matrix(rng, dim):
    """P L P^-1 for a strictly lower triangular L and a permutation P."""
    perm = rng.sample(range(dim), dim)
    low = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if j < i else Fraction(0)
            for j in range(dim)] for i in range(dim)]
    out = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            out[perm[i]][perm[j]] = low[i][j]
    return out


class TestIntegerElimination:
    """The integer-row elimination against the Fraction references above."""

    def test_echelon_span_nullspace(self, monkeypatch):
        cases = []
        for seed in range(200):
            rng = random.Random(seed)
            nrows, ncols = rng.randint(1, 7), rng.randint(1, 8)
            cases.append((random_matrix(rng, nrows, ncols), ncols))
        cases += [([[Fraction(0)] * 3] * 2, 3), ([[Fraction(-5, 7)]], 1),
                  ([[Fraction(0), Fraction(-2, 3)], [Fraction(-4), Fraction(1)]], 2)]

        def objects(rows, ncols):
            span = Span([list(c) for c in zip(*rows)], len(rows))
            return (_echelon(rows), _nullspace(rows, ncols),
                    (span.basis, span.rank, span.gen_coords, span._coord_rows,
                     span._defect_rows))

        got = [objects(rows, ncols) for rows, ncols in cases]
        monkeypatch.setattr(nilpotent, "_echelon", echelon_reference)
        want = [objects(rows, ncols) for rows, ncols in cases]
        assert got == want
        assert any(len(e[0][1]) < min(len(r), n) for e, (r, n) in zip(got, cases))

    def test_rational_det(self):
        # PolyMatrix.det on 0-variable constants, as the lambda and frame minors
        def det(rows):
            return PolyMatrix.from_rows(
                [[RatPoly.const(0, x) for x in row] for row in rows]).det().constant_value()

        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randint(0, 6)
            rows = random_matrix(rng, n, n, rank=n if seed % 3 else None)
            assert det(rows) == rational_det_reference(rows)
        # a row swap, and a negative pivot left after it
        rows = [[Fraction(0), Fraction(1, 2)], [Fraction(-3), Fraction(5)]]
        assert det(rows) == Fraction(3, 2) == rational_det_reference(rows)

    def test_exp_neg_ad(self):
        declined = 0
        for seed in range(100):
            rng = random.Random(seed)
            dim, nv = rng.randint(1, 5), rng.randint(1, 3)
            ad = nilpotent_matrix(rng, dim)
            if seed % 4 == 0:  # not nilpotent: the series never stops
                ad[0][0] = Fraction(rng.choice([-1, 1]), rng.randint(1, 5))
            col = {tuple(rng.randint(0, 2) for _ in range(nv)): rational_vec(rng, dim)
                   for _ in range(rng.randint(1, 4))}
            var, limit = rng.randrange(nv), rng.randint(1, dim + 1)
            got = exp_neg_ad(ad, col, var, limit)
            want = exp_neg_ad_reference(ad, col, var, limit)
            assert got == want
            if want is None:
                declined += 1
            else:
                assert list(got) == list(want)
        assert 0 < declined < 100
        assert exp_neg_ad([[Fraction(1)]], {(0,): [Fraction(1)]}, 0, 3) is None

    def test_exp_neg_ad_chain(self):
        for seed in range(100):
            rng = random.Random(seed)
            dim, nv = rng.randint(1, 5), rng.randint(1, 4)
            ads = [nilpotent_matrix(rng, dim) for _ in range(nv)]
            slots = rng.sample(range(nv), rng.randint(1, nv))
            if seed % 4 == 0:  # c I + nilpotent is invertible: no series stops
                bad = rng.choice(slots)
                c = Fraction(rng.choice([-1, 1]), rng.randint(1, 5))
                ads[bad] = [[a + c * (i == j) for j, a in enumerate(row)]
                            for i, row in enumerate(ads[bad])]
            col = {tuple(rng.randint(0, 2) for _ in range(nv)): rational_vec(rng, dim)
                   for _ in range(rng.randint(1, 4))}
            next(iter(col.values()))[0] = Fraction(1)  # a nonzero column
            got = exp_neg_ad_chain(ads, col, slots)
            # the reference: exp_neg_ad one slot at a time, first slot first
            want = col
            for s in slots:
                want = exp_neg_ad(ads[s], want, s, dim)
                if want is None:
                    break
            if seed % 4 == 0:
                assert want is None and got is None
                continue
            assert [list(p.terms.items()) for p in got] == \
                [list(RatPoly(nv, {e: v[r] for e, v in want.items()}).terms.items())
                 for r in range(dim)]
            assert all(p.nvars == nv for p in got)


class TestSpan:
    def test_generator_coordinates_rebuild_each_vector(self):
        for seed in range(30):
            rng = random.Random(seed)
            dim = rng.randint(2, 6)
            vs = spanning_set(rng, dim)
            span = Span(vs, dim)
            assert span.rank == len(_echelon(vs)[0])
            basis = [vs[b] for b in span.basis]
            for v, c in zip(vs, span.gen_coords):
                assert combine(c, basis, dim) == v
                assert span.coords(v) == c

    def test_coords_and_defect_decide_membership(self):
        for seed in range(30):
            rng = random.Random(seed)
            dim = rng.randint(2, 6)
            vs = spanning_set(rng, dim)
            span = Span(vs, dim)
            basis = [vs[b] for b in span.basis]
            # the defect functionals are independent and vanish on the span,
            # so their common kernel is exactly the span
            units = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
            functionals = list(zip(*(span.defect(e) for e in units)))
            assert len(_echelon([list(f) for f in functionals])[0]) == dim - span.rank
            for _ in range(4):
                inside = combine(rational_vec(rng, span.rank), basis, dim)
                assert not any(span.defect(inside))
                assert combine(span.coords(inside), basis, dim) == inside
                outside = rational_vec(rng, dim)
                if len(_echelon(vs + [outside])[0]) > span.rank:
                    assert any(span.defect(outside))
                    assert span.coords(outside) is None

    @pytest.mark.parametrize("name", ["moment3", "power2d_k3"])
    def test_malcev_struct_matches_direct_solve(self, name, moment3):
        table = moment3["table"] if name == "moment3" else power2d_scene(3).word_table()
        alg = abstract_algebra(table)
        basis = weak_malcev(alg, isotropy_subalgebra(alg, [0] * table.dim))
        mats = [list(e) for e in basis.elements]
        N = alg.dim
        ads = _malcev_struct(basis)
        assert len(ads) == N
        for i, j in itertools.product(range(N), repeat=2):
            br = alg.bracket_vec(mats[i], mats[j])
            rref, pivots = _echelon([[m[r] for m in mats] + [br[r]] for r in range(N)])
            assert pivots == list(range(N))
            assert [row[j] for row in ads[i]] == [row[N] for row in rref]


@pytest.fixture(scope="module")
def heis(moment2):
    table = moment2["table"]
    return abstract_algebra(table)


def seeded_curve_table(seed):
    """gamma(t) = (t + a t^2, b t^2 + c t^3) with small nonzero rationals."""
    rng = random.Random(seed)

    def coef():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))

    pi1, pi2 = curve_maps([[0, 1, coef()], [0, 0, coef(), coef()]])
    return Scene(pi1=pi1, pi2=pi2, beta=(0, 1, 0), cap=6).word_table()


class TestAbstractAlgebra:
    def test_moment2_presentation(self, heis):
        assert heis.dim == 3
        assert heis.basis_words == ((1,), (2,), (1, 2))
        assert heis.step == 2
        # column k of ad[i] is [e_i, e_k]: [X1, X2] = X12 and X12 is central
        zero = [[0, 0, 0]] * 3
        assert heis.ad == [[[0, 0, 0], [0, 0, 0], [0, 1, 0]],
                           [[0, 0, 0], [0, 0, 0], [-1, 0, 0]],
                           zero]

    @pytest.mark.parametrize("name", ["moment2", "moment3", "moment4", "moment5",
                                      "power2d_k2", "power2d_k3", "curve"])
    def test_ad_matches_field_brackets(self, name):
        # the reference: every bracket of basis fields, solved in the word basis
        table = seeded_curve_table(1007) if name == "curve" else \
            builtin_scene(name).word_table()
        alg = abstract_algebra(table)
        basis = word_basis(table)
        assert alg.basis_words == basis.words
        for i, k in itertools.product(range(alg.dim), repeat=2):
            ref = basis_coordinates(basis, lie_bracket(basis.fields[i], basis.fields[k]))
            assert tuple(row[k] for row in alg.ad[i]) == ref, (i, k)

    def test_uncertified_table_rejected(self):
        # moment3 has nonzero words of length 3, so cap 3 certifies nothing
        table = build_word_table(*moment_curve_scene(3).fields(), 3)
        with pytest.raises(NotNilpotentWithinCap):
            abstract_algebra(table)

    def test_abelian_pair(self):
        xs = RatPoly.variables(2)
        X1 = hodge_star_field(PolyMap((xs[0],)))
        X2 = hodge_star_field(PolyMap((xs[1],)))
        table = build_word_table(X1, X2, 3)
        alg = abstract_algebra(table)
        assert alg.step == 1
        assert alg.ad == [[[0, 0], [0, 0]]] * 2

    def test_moment3_dimension(self, moment3):
        # X112 = X212 exactly for the cubic moment curve, so four independent
        # fields survive: X1, X2, X12, X112
        table = moment3["table"]
        alg = abstract_algebra(table)
        assert alg.dim == 4
        assert alg.step == 3
        assert alg.basis_words == ((1,), (2,), (1, 2), (1, 1, 2))

    def test_word_basis_coordinates(self, moment3):
        table = moment3["table"]
        basis = word_basis(table)
        assert basis.words == ((1,), (2,), (1, 2), (1, 1, 2))
        for w in table.words():
            acc = PolyVectorField.zero(table.dim)
            for c, f in zip(basis.coords[w], basis.fields):
                acc = acc + f.scale(c)
            assert acc == table.entries[w], w
        assert basis.coords[(2, 1, 2)] == (0, 0, 0, 1)
        assert basis_coordinates(basis, table.entries[(2, 2, 1)]) == (0, 0, 0, -1)
        # outside the span: a constant first component alone uses only known
        # monomials, x0 in the last component is a monomial no word field has
        one, zero = RatPoly.const(4, 1), RatPoly.zero(4)
        assert basis_coordinates(basis, PolyVectorField((one, zero, zero, zero))) is None
        x0 = RatPoly.variable(4, 0)
        assert basis_coordinates(basis, PolyVectorField((zero, zero, zero, x0))) is None

    def test_jacobi_exact(self, moment3):
        table = moment3["table"]
        alg = abstract_algebra(table)
        e = [[Fraction(int(t == i)) for t in range(alg.dim)] for i in range(alg.dim)]
        for i, j, k in itertools.combinations(range(alg.dim), 3):
            terms = [alg.bracket_vec(e[a], alg.bracket_vec(e[b], e[c]))
                     for a, b, c in ((i, j, k), (j, k, i), (k, i, j))]
            assert all(sum(cs) == 0 for cs in zip(*terms))


class TestBCH:
    def test_step1_is_addition(self):
        xs = RatPoly.variables(2)
        X1 = hodge_star_field(PolyMap((xs[0],)))
        X2 = hodge_star_field(PolyMap((xs[1],)))
        table = build_word_table(X1, X2, 3)
        alg = abstract_algebra(table)
        u = [Fraction(2), Fraction(1, 3)]
        v = [Fraction(-1), Fraction(5)]
        assert bch(alg, u, v) == [u[0] + v[0], u[1] + v[1]]

    def test_step2_half_bracket(self, heis):
        u = [Fraction(1), Fraction(0), Fraction(0)]
        v = [Fraction(0), Fraction(1), Fraction(0)]
        assert alg_bch_tuple(heis, u, v) == (1, 1, Fraction(1, 2))

    def test_associativity_step3(self, moment3):
        table = moment3["table"]
        alg = abstract_algebra(table)
        rng = random.Random(31)
        for _ in range(8):
            x = rational_vec(rng, alg.dim)
            y = rational_vec(rng, alg.dim)
            z = rational_vec(rng, alg.dim)
            left = bch(alg, bch(alg, x, y), z)
            right = bch(alg, x, bch(alg, y, z))
            assert left == right

    def test_inverse(self, heis):
        rng = random.Random(4)
        u = rational_vec(rng, heis.dim)
        assert alg_is_zero(bch(heis, u, [-c for c in u]))

    def test_concrete_flow_consistency(self, moment3):
        """flow(bch(U, V)) at time 1 equals flow(V) after flow(U), exactly."""
        table = moment3["table"]
        alg = abstract_algebra(table)
        n = table.dim
        rng = random.Random(12)
        xs = RatPoly.variables(n)
        one = [RatPoly.const(n, 1)]
        for _ in range(4):
            u = rational_vec(rng, alg.dim, scale=2)
            v = rational_vec(rng, alg.dim, scale=2)
            U = alg.element_field(u)
            V = alg.element_field(v)
            W = alg.element_field(bch(alg, u, v))
            fU = lie_series_flow(U)
            fV = lie_series_flow(V)
            fW = lie_series_flow(W)
            after_u = [m.compose(list(xs) + one) for m in fU.map]
            after_uv = [m.compose(after_u + one) for m in fV.map]
            direct = [m.compose(list(xs) + one) for m in fW.map]
            assert after_uv == direct


def alg_bch_tuple(alg, u, v):
    return tuple(bch(alg, u, v))


def alg_is_zero(vec):
    return all(c == 0 for c in vec)


class TestWeakMalcev:
    def test_through_center(self, heis):
        z = [[Fraction(0), Fraction(0), Fraction(1)]]
        basis = weak_malcev(heis, z)
        assert basis.split == 2
        assert basis.elements[-1] == (0, 0, 1)
        for k in range(heis.dim + 1):
            assert basis.tail_is_subalgebra(k)

    def test_whole_algebra(self, heis):
        full = [[Fraction(1 if i == j else 0) for j in range(3)] for i in range(3)]
        basis = weak_malcev(heis, full)
        assert basis.split == 0

    def test_trivial_subalgebra(self, heis):
        basis = weak_malcev(heis, [])
        assert basis.split == 3
        for k in range(4):
            assert basis.tail_is_subalgebra(k)

    def test_not_a_subalgebra_rejected(self, heis):
        # span(X1, X2) is not closed: [X1, X2] = X12 escapes
        bad = [[Fraction(1), Fraction(0), Fraction(0)],
               [Fraction(0), Fraction(1), Fraction(0)]]
        with pytest.raises(NotASubalgebra):
            weak_malcev(heis, bad)

    def test_moment3_chain(self, moment3):
        table = moment3["table"]
        alg = abstract_algebra(table)
        z = isotropy_subalgebra(alg, [0, 0, 0, 0])
        basis = weak_malcev(alg, z)
        for k in range(alg.dim + 1):
            assert basis.tail_is_subalgebra(k)


class TestGroupLaw:
    def test_abelian_translation(self):
        xs = RatPoly.variables(2)
        X1 = hodge_star_field(PolyMap((xs[0],)))
        X2 = hodge_star_field(PolyMap((xs[1],)))
        table = build_word_table(X1, X2, 3)
        alg = abstract_algebra(table)
        basis = weak_malcev(alg, [])
        gl = group_law(basis)
        nv = 2 * alg.dim
        v = [RatPoly.variable(nv, i) for i in range(nv)]
        assert list(gl.q) == [v[0] + v[2], v[1] + v[3]]
        assert list(gl.r) == [v[0] + v[2], v[1] + v[3]]

    def test_heisenberg_correction(self, heis):
        z = [[Fraction(0), Fraction(0), Fraction(1)]]
        basis = weak_malcev(heis, z)
        gl = group_law(basis)
        # the central slot carries a bilinear correction; the first slots add
        nv = 6
        assert gl.q[0].total_degree() == 1
        assert any(q.total_degree() == 2 for q in gl.q)

    def test_identity_at_zero(self, moment3):
        table = moment3["table"]
        alg = abstract_algebra(table)
        basis = weak_malcev(alg, [])
        gl = group_law(basis)
        N = alg.dim
        zero = [RatPoly.const(N, 0)] * N
        coords = RatPoly.variables(N)
        for i, q in enumerate(gl.q):
            assert q.compose(list(coords) + zero) == coords[i]

    def test_triangularity_and_volume(self, moment3):
        # group_law itself asserts det == 1 and triangularity; make sure the
        # exercise covers a step-3 algebra and check q1 depends on x1_1, x2
        table = moment3["table"]
        alg = abstract_algebra(table)
        basis = weak_malcev(alg, [])
        gl = group_law(basis)
        N = alg.dim
        for j in range(1, N):
            assert gl.q[0].degree_in(j) <= 0

    def test_right_translation_inverse(self, heis):
        # r(., x2) composed with r(., -x2) is the identity on rational points
        basis = weak_malcev(heis, [[Fraction(0), Fraction(0), Fraction(1)]])
        gl = group_law(basis)
        N = 3
        rng = random.Random(3)
        for _ in range(10):
            av = rational_vec(rng, N, 2)
            bv = rational_vec(rng, N, 2)
            fwd = [q.eval(av + bv) for q in gl.r]
            back = [q.eval(fwd + [-x for x in bv]) for q in gl.r]
            assert back == av

    @pytest.mark.parametrize("name", ["moment2", "moment3", "power2d_k3"])
    @pytest.mark.parametrize("x0", [0, Fraction(1, 3)])
    def test_matches_concrete_flows(self, name, x0, group_law_flows):
        basis, gl = malcev_law(name, x0)
        rng = random.Random(17)
        for _ in range(3):
            group_law_flows(basis, gl, rational_vec(rng, basis.algebra.dim, 2),
                            rational_vec(rng, basis.algebra.dim, 2))

    @pytest.mark.parametrize("name", ["moment2", "moment3", "power2d_k3"])
    @pytest.mark.parametrize("x0", [0, Fraction(1, 3)])
    def test_matches_dynkin_series(self, name, x0):
        # psi(r) = psi(x1) e^x2 and psi(q) = e^x2 psi(x1), with psi(x) =
        # e^(x_0 e_0) ... e^(x_(N-1) e_(N-1)) in the Malcev basis
        basis, gl = malcev_law(name, x0)
        N = basis.algebra.dim
        # no concrete fields: this algebra is only ever bracketed
        alg = AbstractNilpotent(dim=N, basis_words=(), basis_fields=(),
                                ad=_malcev_struct(basis), step=basis.algebra.step)

        def log_psi(x):
            acc = [Fraction(0)] * N
            for i, c in enumerate(x):
                acc = bch(alg, acc, [c if k == i else Fraction(0) for k in range(N)])
            return acc

        rng = random.Random(29)
        for _ in range(4):
            x1, x2 = rational_vec(rng, N, 2), rational_vec(rng, N, 2)
            L1 = log_psi(x1)
            assert log_psi([p.eval(x1 + x2) for p in gl.r]) == bch(alg, L1, x2)
            assert log_psi([p.eval(x1 + x2) for p in gl.q]) == bch(alg, x2, L1)


class TestTimeOneFlow:
    """group_law sums X^k(x_i)/k! from the Lie series levels; the reference is
    the full flow composed with t = 1."""

    @pytest.mark.parametrize("name", ["moment3", "moment4", "power2d_k3", "seeded"])
    def test_matches_composed_flow(self, name, monkeypatch):
        if name == "seeded":
            table = seeded_curve_table(7)
        else:
            scene = moment_curve_scene(4) if name == "moment4" else builtin_scene(name)
            table = scene.word_table()
        basis = malcev_at(table, [Fraction(1, 3)] * table.dim)
        fields = []

        def spy(field, *args):
            fields.append(field)
            return lie_series(field, *args)

        monkeypatch.setattr(nilpotent, "lie_series", spy)
        gl = group_law(basis)
        N = gl.dim
        assert len(fields) == 2  # r, then q
        one = RatPoly.const(2 * N, 1)
        for law, field in zip((gl.r, gl.q), fields):
            assert any(not c.is_constant() for c in field.components[:N])
            want = compose_flow(lie_series_flow(field), one, RatPoly.variables(2 * N))[:N]
            for got, ref in zip(law, want):
                assert list(got.terms.items()) == list(ref.terms.items())

    def test_series_beyond_the_budget_raises(self, monkeypatch):
        basis = malcev_at(moment_curve_scene(3).word_table(), [0] * 4)
        monkeypatch.setattr(nilpotent, "lie_series", functools.partial(lie_series, max_terms=2))
        with pytest.raises(NonTerminatingSeries):
            group_law(basis)


class TestCoveringMap:
    def test_moment2_chart(self, moment2):
        cm = covering_map(malcev_at(moment2["table"], [0, 0, 0]), [0, 0, 0])
        assert cm.jacobian_det_at_origin != 0
        assert cm.diagnostics["det_matches_frame_up_to_sign"]
        assert cm.diagnostics["pullback_fd_check"]["worst_first_order_defect"] < 1e-3
        # chart at y = 0 lands on the base point
        assert [m.eval([0, 0, 0]) for m in cm.map] == [0, 0, 0]

    def test_abelian_affine_chart(self):
        xs = RatPoly.variables(2)
        X1 = hodge_star_field(PolyMap((xs[0],)))
        X2 = hodge_star_field(PolyMap((xs[1],)))
        table = build_word_table(X1, X2, 3)
        x0 = [Fraction(1, 2), Fraction(1, 3)]
        cm = covering_map(malcev_at(table, x0), x0)
        assert all(m.total_degree() <= 1 for m in cm.map)

    def test_deficient_span_rejected(self):
        xs = RatPoly.variables(3)
        pi1 = PolyMap((xs[0], xs[1]))
        pi2 = PolyMap((xs[0] - xs[2] ** 2, xs[1]))
        table = build_word_table(hodge_star_field(pi1), hodge_star_field(pi2), 5)
        basis = malcev_at(table, [0, 0, 0])
        with pytest.raises(SingularAtOrigin):
            covering_map(basis, [0, 0, 0])

    def test_isotropy_at_generic_point(self, moment2):
        table = moment2["table"]
        alg = abstract_algebra(table)
        z = isotropy_subalgebra(alg, [0, 0, 0])
        assert z == []  # all three basis fields are independent at the origin
