"""Newton polytopes: staircase geometry, lambda classes, weights."""

import itertools
import random
import runpy
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionlab.geometry import build_word_table, hodge_star_field, word_degree
from torsionlab.nilpotent import basis_frame, word_basis
from torsionlab.polycore import PolyMatrix, RatPoly
from torsionlab.polytope import (
    EmptyPolytope,
    LambdaEntry,
    Polytope2D,
    extreme_and_minimal,
    intersect_polytopes,
    lambda_table,
    newton_polytope,
    polytope_via_J,
    weight_spec,
)
from torsionlab.scenes import curve_maps, moment_curve_scene, power2d_scene

from test_nilpotent import rational_det_reference


def tuple_degree(words) -> tuple[int, int]:
    d1 = d2 = 0
    for w in words:
        a, b = word_degree(w)
        d1 += a
        d2 += b
    return (d1, d2)


def brute_force_member(generators, z):
    """z in ch(generators)+Q iff some convex combination sits below z.

    In the plane it is enough to scan generator pairs: the set of segment
    parameters t with both coordinates below z is an exact rational interval
    intersection, so membership is decided with no mesh error.
    """
    gens = [(Fraction(a), Fraction(b)) for a, b in generators]
    zx, zy = Fraction(z[0]), Fraction(z[1])
    for g in gens:
        if g[0] <= zx and g[1] <= zy:
            return True

    def t_interval(a0, d, bound):
        # { t : a0 + t d <= bound }
        if d == 0:
            return (Fraction(0), Fraction(1)) if a0 <= bound else None
        t = (bound - a0) / d
        return (Fraction(0), min(t, 1)) if d > 0 else (max(t, 0), Fraction(1))

    for a, b in itertools.combinations(gens, 2):
        ix = t_interval(a[0], b[0] - a[0], zx)
        iy = t_interval(a[1], b[1] - a[1], zy)
        if ix is None or iy is None:
            continue
        lo = max(ix[0], iy[0])
        hi = min(ix[1], iy[1])
        if lo <= hi:
            return True
    return False


def sheared_scene():
    """pi1 = (x2, x3), pi2 = (x1, x3 - G): some word fields are sums of two
    basis fields, unlike the builtin scenes whose word coordinates are all
    unit vectors up to sign."""
    from torsionlab.geometry import PolyMap
    from torsionlab.scenes import Scene

    x1, x2, x3 = RatPoly.variables(3)
    G = (x1 * x2**3 * Fraction(1, 6) + x1**2 * x2**2 * Fraction(1, 4)
         + x1 * x2**2 * Fraction(1, 2) + x1**3 * x2 * Fraction(1, 6))
    return Scene(pi1=PolyMap((x2, x3)), pi2=PolyMap((x1, x3 - G)), cap=5,
                 name="sheared")


def seeded_curve_scene(v):
    """The benchmark's seeded curve of variant v, (t + a t^2, b t^2 + c t^3)."""
    from torsionlab.scenes import Scene

    workloads = runpy.run_path(
        str(Path(__file__).resolve().parent.parent / "bench" / "workloads.py"))
    pi1, pi2 = curve_maps(workloads["seeded_curve"](v))
    return Scene(pi1=pi1, pi2=pi2, cap=6, name=f"curve-v{v}")


def per_tuple_lambda_table(table):
    """Reference: one Cauchy-Binet sum per word tuple in combinations order,
    the first nonzero tuple of each sign-normalised class naming it."""
    n = table.dim
    frame = basis_frame(table)
    classes = {}
    for combo in itertools.combinations(table.words(), n):
        coords = [frame.basis.coords[w] for w in combo]
        acc = {}
        for cols, d in frame.minors:
            minor = rational_det_reference([[row[j] for j in cols] for row in coords])
            if minor != 0:
                for exp, c in d.terms.items():
                    acc[exp] = acc.get(exp, 0) + minor * c
        det = RatPoly(n, acc)
        if det.is_zero():
            continue
        if det.leading()[1] < 0:
            det = -det
        key = (tuple_degree(combo), tuple(sorted(det.sorted_terms())))
        if key not in classes:
            classes[key] = LambdaEntry(words=combo, deg=tuple_degree(combo), poly=det)
    return sorted(classes.values(),
                  key=lambda e: (e.deg, [(len(w), w) for w in e.words]))


def entry_signature(entries):
    # the term order too: float evaluators of a class sum its terms in it
    return [(e.words, e.deg, list(e.poly.terms.items())) for e in entries]


class TestStaircase:
    def test_single_generator(self):
        p = Polytope2D.from_generators([(2, 2)])
        assert p.extreme_points() == ((Fraction(2), Fraction(2)),)
        assert p.minimal_lattice_points() == ((2, 2),)

    def test_segment_without_interior_lattice(self):
        p = Polytope2D.from_generators([(3, 4), (4, 3)])
        assert [tuple(map(int, v)) for v in p.extreme_points()] == [(3, 4), (4, 3)]
        assert p.minimal_lattice_points() == ((3, 4), (4, 3))

    def test_hand_hull(self):
        p = Polytope2D.from_generators([(2, 5), (5, 2), (3, 3)])
        assert [tuple(map(int, v)) for v in p.extreme_points()] == \
            [(2, 5), (3, 3), (5, 2)]

    def test_dominated_generator_dropped(self):
        p = Polytope2D.from_generators([(1, 1), (2, 3), (3, 2)])
        assert [tuple(map(int, v)) for v in p.extreme_points()] == [(1, 1)]

    def test_collinear_point_is_minimal_not_extreme(self):
        p = Polytope2D.from_generators([(2, 4), (4, 2)])
        assert [tuple(map(int, v)) for v in p.extreme_points()] == [(2, 4), (4, 2)]
        assert (3, 3) in p.minimal_lattice_points()

    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                    min_size=1, max_size=7))
    @settings(max_examples=60, deadline=None)
    def test_membership_against_brute_force(self, gens):
        p = Polytope2D.from_generators(gens)
        for z in itertools.product(range(0, 10), repeat=2):
            assert p.contains(z) == brute_force_member(gens, z), (gens, z)

    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                    min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_staircase_invariant(self, gens):
        chain = Polytope2D.from_generators(gens).extreme_points()
        xs = [v[0] for v in chain]
        ys = [v[1] for v in chain]
        assert xs == sorted(xs)
        assert all(a > b for a, b in zip(ys, ys[1:])) or len(ys) == 1

    def test_minimal_contains_extreme(self):
        p = Polytope2D.from_generators([(0, 6), (2, 3), (6, 0)])
        mins = set(p.minimal_lattice_points())
        for v in p.extreme_points():
            assert (int(v[0]), int(v[1])) in mins

    def test_empty(self):
        p = Polytope2D.empty()
        assert p.is_empty()
        with pytest.raises(EmptyPolytope):
            extreme_and_minimal(p)


class TestIntersection:
    def test_self_intersection(self):
        p = Polytope2D.from_generators([(1, 3), (3, 1)])
        assert intersect_polytopes([p, p]).equals(p)

    def test_nested(self):
        small = Polytope2D.from_generators([(2, 2)])
        big = Polytope2D.from_generators([(1, 1)])
        got = intersect_polytopes([small, big])
        assert got.equals(small)
        assert small.subset_of(big)
        assert not big.subset_of(small)

    def test_crossing_edges_make_rational_vertex(self):
        a = Polytope2D.from_generators([(0, 4), (4, 0)])
        b = Polytope2D.from_generators([(0, 3), (6, 1)])
        got = intersect_polytopes([a, b])
        # brute check a sample of lattice points
        for z in itertools.product(range(0, 8), repeat=2):
            assert got.contains(z) == (a.contains(z) and b.contains(z)), z

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1,
                    max_size=4),
           st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1,
                    max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_intersection_membership(self, g1, g2):
        a = Polytope2D.from_generators(g1)
        b = Polytope2D.from_generators(g2)
        got = intersect_polytopes([a, b])
        for z in itertools.product(range(0, 9), repeat=2):
            zq = (Fraction(z[0]), Fraction(z[1]))
            assert got.contains(zq) == (a.contains(zq) and b.contains(zq)), z


class TestLambdaTable:
    def test_moment2_unique_class(self, moment2):
        entries = moment2["entries"]
        assert len(entries) == 1
        e = entries[0]
        assert e.deg == (2, 2)
        assert e.poly == RatPoly.const(3, 2)

    def test_moment3_extreme_classes(self, moment3):
        degs = {e.deg for e in moment3["entries"]}
        assert (3, 4) in degs and (4, 3) in degs
        for e in moment3["entries"]:
            if e.deg in ((3, 4), (4, 3)):
                assert e.poly == RatPoly.const(4, 12)

    def test_moment4_classes(self):
        entries = lambda_table(moment_curve_scene(4).word_table())
        assert [(e.deg, e.words) for e in entries] == [
            ((4, 7), ((1,), (2,), (1, 2), (2, 1, 2), (2, 2, 1, 2))),
            ((5, 6), ((1,), (2,), (1, 2), (1, 1, 2), (2, 2, 1, 2))),
            ((6, 5), ((1,), (2,), (1, 2), (1, 1, 2), (1, 2, 1, 2))),
            ((7, 4), ((1,), (2,), (1, 2), (1, 1, 2), (1, 1, 1, 2))),
        ]
        assert all(e.poly == RatPoly.const(5, 288) for e in entries)

    @pytest.mark.parametrize("name", ["moment3", "power2d_k3", "sheared"])
    def test_matches_direct_determinants(self, name):
        # reference: one Bareiss determinant per word tuple, no Lie coordinates
        table = {"moment3": lambda: moment_curve_scene(3),
                 "power2d_k3": lambda: power2d_scene(3),
                 "sheared": sheared_scene}[name]().word_table()
        n = table.dim
        basis = word_basis(table)
        if name == "power2d_k3":
            # four basis fields and n = 2: the Cauchy-Binet sum has 6 terms
            assert (len(basis.fields), n) == (4, 2)
        if name == "sheared":
            # X_{1112} = -(E_{112} + E_{212}), so tuples with it sum two minors
            assert basis.coords[(1, 1, 1, 2)] == (0, 0, 0, -1, -1)
        classes = {(e.deg, tuple(e.poly.sorted_terms())): e for e in lambda_table(table)}
        first: dict = {}
        for combo in itertools.combinations(table.words(), n):
            det = PolyMatrix.from_rows(
                [[table.entries[w].components[i] for w in combo] for i in range(n)]
            ).det()
            if det.is_zero():
                continue
            norm = -det if det.leading()[1] < 0 else det
            key = (tuple_degree(combo), tuple(norm.sorted_terms()))
            assert key in classes, combo
            assert classes[key].poly in (det, -det)
            first.setdefault(key, combo)
        # every class comes from a nonzero tuple and is named by the first one
        assert first == {key: e.words for key, e in classes.items()}

    @pytest.mark.parametrize("make", [
        lambda: moment_curve_scene(2), lambda: moment_curve_scene(3),
        lambda: power2d_scene(2), lambda: power2d_scene(3),
        lambda: moment_curve_scene(4), sheared_scene,
        *(lambda v=v: seeded_curve_scene(v) for v in (0, 3, 7, 12)),
    ], ids=["moment2", "moment3", "power2d_k2", "power2d_k3", "moment4",
            "sheared", "curve-v0", "curve-v3", "curve-v7", "curve-v12"])
    def test_matches_per_tuple_enumeration(self, make):
        table = make().word_table()
        assert entry_signature(lambda_table(table)) == \
            entry_signature(per_tuple_lambda_table(table))

    def test_group_scales_reach_the_classes(self):
        # builtin groups only have scales +-1; give two words scale 2 in their
        # group, so the word choices of degree (3, 4) have |scale| 1, 2 or 4
        table = moment_curve_scene(3).word_table()
        coords = basis_frame(table).basis.coords
        for word, twice in (((2, 1), (1, 2)), ((2, 1, 2), (1, 1, 2))):
            coords[word] = tuple(2 * c for c in coords[twice])
        entries = lambda_table(table)
        assert entry_signature(entries) == \
            entry_signature(per_tuple_lambda_table(table))
        assert [(e.words, e.poly.constant_value()) for e in entries
                if e.deg == (3, 4)] == [
            (((1,), (2,), (1, 2), (2, 1, 2)), 24),
            (((1,), (2,), (1, 2), (2, 2, 1)), 12),
            (((1,), (2,), (2, 1), (2, 1, 2)), 48),
        ]

    def test_equal_generators_empty(self):
        xs = RatPoly.variables(2)
        from torsionlab.geometry import PolyVectorField

        X = PolyVectorField((xs[1], RatPoly.const(2, 1)))
        table = build_word_table(X, X, 3)
        assert lambda_table(table) == []

    def test_tuple_budget_guard(self, moment3):
        from torsionlab.polytope import TupleBudgetExceeded

        with pytest.raises(TupleBudgetExceeded):
            lambda_table(moment3["table"], tuple_budget=3)


class TestNewtonPolytope:
    def test_moment2_union(self, moment2):
        p = newton_polytope(moment2["entries"], "union")
        assert [tuple(map(int, v)) for v in p.extreme_points()] == [(2, 2)]

    def test_moment3_union(self, moment3):
        p = newton_polytope(moment3["entries"], "union")
        assert [tuple(map(int, v)) for v in p.extreme_points()] == [(3, 4), (4, 3)]

    def test_all_vanishing_point_gives_empty(self):
        # reducible pair: lambda identically zero, so every flavor is empty
        from torsionlab.geometry import PolyMap

        xs = RatPoly.variables(3)
        pi1 = PolyMap((xs[0], xs[1]))
        pi2 = PolyMap((xs[0] - xs[2] ** 2, xs[1]))
        table = build_word_table(hodge_star_field(pi1), hodge_star_field(pi2), 5)
        entries = lambda_table(table)
        assert entries == []
        p = newton_polytope(entries, "point", [[0, 0, 0]])
        assert p.is_empty()

    def test_monotonicity_chain(self, moment3):
        rng = random.Random(5)
        entries = moment3["entries"]
        samples = [
            [Fraction(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(4)]
            for _ in range(5)
        ]
        inter = newton_polytope(entries, "intersection", samples)
        union = newton_polytope(entries, "union")
        for x0 in samples:
            point = newton_polytope(entries, "point", [x0])
            assert inter.subset_of(point)
            assert point.subset_of(union)


class TestWeights:
    def test_moment2_weight(self, moment2):
        ws = weight_spec(moment2["entries"], (2, 2))
        assert ws.exponent == Fraction(1, 3)
        assert ws.p == (Fraction(3, 2), Fraction(3, 2))
        assert [s.constant_value() for s in ws.summands] == [2]
        assert ws.eval_at([0, 0, 0]) == pytest.approx(2 ** (1 / 3))

    def test_moment3_weight(self, moment3):
        ws = weight_spec(moment3["entries"], (3, 4))
        assert ws.exponent == Fraction(1, 6)
        assert ws.p == (Fraction(2), Fraction(3, 2))
        assert ws.eval_at([0, 0, 0, 0]) == pytest.approx(12 ** (1 / 6))

    def test_outside_generator_set(self, moment2):
        ws = weight_spec(moment2["entries"], (9, 9))
        assert ws.summands == ()
        assert ws.eval_at([0, 0, 0]) == 0.0


class TestCrossRepresentation:
    def examples(self):
        out = [moment_curve_scene(2), moment_curve_scene(3), power2d_scene(2),
               power2d_scene(3)]
        pi1, pi2 = curve_maps([[0, 1], [0, 0, 0, 1]])
        from torsionlab.scenes import Scene

        out.append(Scene(pi1=pi1, pi2=pi2, cap=6))
        return out

    def test_point_polytope_from_J_matches_lambda(self):
        rng = random.Random(17)
        for scene in self.examples():
            table = scene.word_table()
            entries = lambda_table(table)
            n = table.dim
            for _ in range(20):
                x0 = [Fraction(rng.randint(-10, 10), rng.randint(1, 10))
                      for _ in range(n)]
                via_j = polytope_via_J(table, x0)
                via_lambda = newton_polytope(entries, "point", [x0])
                assert via_j.equals(via_lambda), (scene.name, x0)

    def test_degenerate_point(self):
        # at a point where the second field vanishes the polytope shrinks:
        # power map with x2 = 0 kills every class containing the bare (2)
        scene = power2d_scene(3)
        table = scene.word_table()
        entries = lambda_table(table)
        x0 = [Fraction(1), Fraction(0)]
        via_j = polytope_via_J(table, x0)
        via_lambda = newton_polytope(entries, "point", [x0])
        assert via_j.equals(via_lambda)
        union = newton_polytope(entries, "union")
        assert via_lambda.subset_of(union)
        assert not union.subset_of(via_lambda)


class TestExtremeVanishingEquivalence:
    def test_lambda_sum_vanishes_iff_matching_J_do(self):
        """At extreme b: sum over deg I = b of |lambda_I(x)| = 0 iff every
        J^beta with b(beta) = b and tilde-J^beta with b~(beta) = b vanish."""
        from torsionlab.torsion import (
            all_jacobian_derivatives,
            b_of_beta,
            b_tilde_of_beta,
            psi_flow,
            psi_tilde_flow,
        )

        rng = random.Random(23)
        for scene in [moment_curve_scene(2), moment_curve_scene(3),
                      power2d_scene(2), power2d_scene(3)]:
            table = scene.word_table()
            entries = lambda_table(table)
            union = newton_polytope(entries, "union")
            J = all_jacobian_derivatives(psi_flow(table))
            Jt = all_jacobian_derivatives(psi_tilde_flow(table))
            n = table.dim
            for v in union.extreme_points():
                b = (int(v[0]), int(v[1]))
                lams = [e.poly for e in entries if e.deg == b]
                Js = [p for beta, p in J.items() if b_of_beta(beta) == b]
                Js += [p for beta, p in Jt.items() if b_tilde_of_beta(beta) == b]
                for _ in range(20):
                    x = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                         for _ in range(n)]
                    lam_zero = all(p.eval(x) == 0 for p in lams)
                    j_zero = all(p.eval(x) == 0 for p in Js)
                    assert lam_zero == j_zero, (scene.name, b, x)
