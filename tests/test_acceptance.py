"""Acceptance gate: ten criteria, one pass/fail line each (run with -s).

Every tolerance is pinned here; nothing defers to later calibration.  Exact
criteria use rational equality, numeric criteria use the stated windows with
fixed seeds and budgets.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from torsionlab.ccballs import BallSpec, ball_sample, doubling_check
from torsionlab.geometry import (
    PolyMap,
    build_word_table,
    hodge_star_field,
    lie_bracket,
    lie_series_flow,
    nilpotency_step,
)
from torsionlab.nilpotent import abstract_algebra, group_law, weak_malcev
from torsionlab.polycore import PolyMatrix, RatPoly
from torsionlab.polyalg import (
    IntervalSet,
    extract_two_terms,
    from_ratpoly,
    monomialize,
    refine_interval,
    sublevel_sweep,
)
from torsionlab.polytope import (
    lambda_table,
    newton_polytope,
    polytope_via_J,
    weight_spec,
)
from torsionlab.scenes import Box, curve_maps, moment_curve_scene, power2d_scene
from torsionlab.torsion import (
    all_jacobian_derivatives,
    psi_flow,
    psi_tilde_flow,
    torsion_profile,
    weight_transform,
)
from torsionlab.verify import (
    BoxUnion,
    coarea_check,
    counterexample_2d,
    perturbation_ratios,
    rwt_ratio,
)

F = Fraction


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS  {text}")


def test_criterion_1_moment2_golden_path():
    start = time.monotonic()
    scene = moment_curve_scene(2)
    X1, X2 = scene.fields()
    zero3 = RatPoly.zero(3)
    t = RatPoly.variable(3, 2)
    assert X1.components == (zero3, zero3, RatPoly.const(3, 1))          # d/dt
    assert X2.components == (RatPoly.const(3, 1), t * 2, RatPoly.const(3, 1))
    table = scene.word_table()
    assert nilpotency_step(table) == 2
    entries = lambda_table(table)
    assert len(entries) == 1
    assert entries[0].deg == (2, 2)
    assert abs(entries[0].poly.constant_value()) == 2
    poly = newton_polytope(entries, "union")
    assert [tuple(map(int, v)) for v in poly.extreme_points()] == [(2, 2)]
    prof = torsion_profile(table, (0, 1, 0))
    assert prof.p == (F(3, 2), F(3, 2))
    assert abs(prof.J_beta.constant_value()) == 2
    ws = weight_spec(entries, (2, 2))
    assert ws.exponent == F(1, 3)
    assert ws.eval_at([0, 0, 0]) == pytest.approx(2 ** (1 / 3), rel=1e-12)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"moment d=2 golden path exact ({elapsed:.2f}s < 1s)")


def test_criterion_2_moment3_exact():
    start = time.monotonic()
    scene = moment_curve_scene(3)
    table = scene.word_table()
    entries = lambda_table(table)
    poly = newton_polytope(entries, "union")
    assert [tuple(map(int, v)) for v in poly.extreme_points()] == [(3, 4), (4, 3)]
    w34 = weight_spec(entries, (3, 4))
    w43 = weight_spec(entries, (4, 3))
    assert w34.p == (F(2), F(3, 2))
    assert w43.p == (F(3, 2), F(2))
    assert [abs(s.constant_value()) for s in w34.summands] == [12]
    assert w34.exponent == F(1, 6)
    assert w34.eval_at([0, 0, 0, 0]) == pytest.approx(12 ** (1 / 6), rel=1e-12)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(2, f"moment d=3 extreme points and weight exact ({elapsed:.2f}s < 10s)")


def test_criterion_3_power2d_and_counterexample():
    start = time.monotonic()
    for k in (2, 3):
        scene = power2d_scene(k)
        prof = torsion_profile(scene.word_table(), (k - 1, 0))
        assert prof.b == (k, 1)
        assert prof.p == (F(1), F(k))
    ce = counterexample_2d(2)
    assert len(ce["rows"]) == 16
    assert ce["strictly_increasing"]
    assert ce["growth_factor"] >= 3.0
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(3, f"2D endpoints exact; truncated ratio grows x"
              f"{ce['growth_factor']:.2f} >= 3 over 16 dyadic deltas "
              f"({elapsed:.2f}s < 30s)")


def _random_curve_scene(rng):
    d = rng.choice([1, 2, 2, 3])
    coeffs = []
    for i in range(d):
        deg = rng.randint(1, 4)
        c = [0] + [rng.randint(-2, 2) for _ in range(deg)]
        if all(x == 0 for x in c):
            c[-1] = 1
        coeffs.append(c)
    return curve_maps(coeffs)


def test_criterion_4_exact_invariant_suite(group_law_flows):
    start = time.monotonic()
    rng = random.Random(20240)
    checked = 0
    low_step_instances = []
    for instance in range(20):
        pi1, pi2 = _random_curve_scene(rng)
        n = pi1.source_dim
        X1, X2 = hodge_star_field(pi1), hodge_star_field(pi2)
        # divergence-free and fiber annihilation
        for pi, X in ((pi1, X1), (pi2, X2)):
            assert X.divergence().is_zero()
            for comp in pi.components:
                assert X.apply_to(comp).is_zero()
        # Jacobi on the generators and their bracket
        Z = lie_bracket(X1, X2)
        total = (lie_bracket(X1, lie_bracket(X2, Z))
                 + lie_bracket(X2, lie_bracket(Z, X1))
                 + lie_bracket(Z, lie_bracket(X1, X2)))
        assert total.is_zero()
        # flow group law and unit state-Jacobian for X2
        fm = lie_series_flow(X2)
        nv = n + 2
        xs = [RatPoly.variable(nv, i) for i in range(n)]
        s, tt = RatPoly.variable(nv, n), RatPoly.variable(nv, n + 1)
        at_s = [m.compose(xs + [s]) for m in fm.map]
        assert [m.compose(at_s + [tt]) for m in fm.map] == \
            [m.compose(xs + [s + tt]) for m in fm.map]
        jac = PolyMatrix.from_rows(
            [[fm.map[i].partial(j) for j in range(n)] for i in range(n)])
        assert jac.det() == RatPoly.const(n + 1, 1)
        # abstract layer: the Malcev group law against concrete flows at one
        # rational pair (the corpus draw keeps plenty of step <= 3 instances)
        table = build_word_table(X1, X2, 7)
        step = nilpotency_step(table)
        alg = abstract_algebra(table, step)
        if step <= 3:
            low_step_instances.append(step)
        # three rational vectors per instance keep the corpus's draws; the
        # pair is the first two
        x1, x2, _ = ([F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(alg.dim)]
                     for _ in range(3))
        basis = weak_malcev(alg, [])
        gl = group_law(basis)  # raises if det != 1 or triangularity fails
        group_law_flows(basis, gl, x1, x2)
        N = alg.dim
        q_jac = PolyMatrix.from_rows(
            [[gl.q[i].partial(j) for j in range(N)] for i in range(N)])
        assert q_jac.det() == RatPoly.const(2 * N, 1)
        for i in range(N):
            for j in range(i + 1, N):
                assert gl.q[i].degree_in(j) == 0 or gl.q[i].degree_in(j) == -1
        checked += 1
    elapsed = time.monotonic() - start
    assert checked == 20
    assert len(low_step_instances) >= 5  # criterion's step <= 3 cases covered
    assert elapsed < 60.0
    report(4, f"20-instance exact invariant corpus, all identities hold; "
              f"{len(low_step_instances)} instances at step <= 3 "
              f"({elapsed:.1f}s < 60s)")


def test_criterion_5_vanishing_equivalence():
    start = time.monotonic()
    pairs = [
        curve_maps([[0, 1], [0, 0, 1]]),
        curve_maps([[0, 1], [0, 0, 0, 1]]),
        curve_maps([[0, 0, 1], [0, 0, 0, 1]]),
        (power2d_scene(3).pi1, power2d_scene(3).pi2),
    ]
    xs = RatPoly.variables(3)
    pairs.append((PolyMap((xs[0], xs[1])), PolyMap((xs[0] - xs[2] ** 2, xs[1]))))
    rng = random.Random(555)
    failures = 0
    for pi1, pi2 in pairs:
        table = build_word_table(hodge_star_field(pi1), hodge_star_field(pi2), 6)
        entries = lambda_table(table)
        allJ = list(all_jacobian_derivatives(psi_flow(table)).values())
        allJ += list(all_jacobian_derivatives(psi_tilde_flow(table)).values())
        n = table.dim
        for _ in range(50):
            x = [F(rng.randint(-15, 15), rng.randint(1, 15)) for _ in range(n)]
            lam_zero = all(e.poly.eval(x) == 0 for e in entries)
            j_zero = all(J.eval(x) == 0 for J in allJ)
            if lam_zero != j_zero:
                failures += 1
    elapsed = time.monotonic() - start
    assert failures == 0
    report(5, f"Lambda(x)=0 iff all J^beta vanish: 5 pairs x 50 points, "
              f"0 failures ({elapsed:.1f}s)")


def test_criterion_6_polytope_cross_representation():
    start = time.monotonic()
    examples = [moment_curve_scene(2), moment_curve_scene(3),
                power2d_scene(2), power2d_scene(3)]
    rng = random.Random(808)
    for scene in examples:
        table = scene.word_table()
        entries = lambda_table(table)
        n = table.dim
        for _ in range(20):
            x0 = [F(rng.randint(-12, 12), rng.randint(1, 12)) for _ in range(n)]
            assert polytope_via_J(table, x0).equals(
                newton_polytope(entries, "point", [x0])), (scene.name, x0)
    elapsed = time.monotonic() - start
    report(6, f"polytope-from-J equals lambda polytope at 20 points x "
              f"{len(examples)} examples ({elapsed:.1f}s)")


def test_criterion_7_weight_covariance():
    start = time.monotonic()
    scene = moment_curve_scene(2)
    table = scene.word_table()
    prof = torsion_profile(table, scene.beta)
    rng = random.Random(7777)

    def affine(n):
        while True:
            A = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            rows = [[A[i][j] for j in range(n)] for i in range(n)]
            m = PolyMatrix.from_rows(
                [[RatPoly.const(n, rows[i][j]) for j in range(n)] for i in range(n)])
            if m.det().constant_value() != 0:
                break
        b = [F(rng.randint(-2, 2)) for _ in range(n)]
        xs = RatPoly.variables(n)
        out = []
        for i in range(n):
            p = RatPoly.const(n, b[i])
            for j in range(n):
                p = p + xs[j] * A[i][j]
            out.append(p)
        return out

    for trial in range(10):
        Fm, G1, G2 = affine(3), affine(2), affine(2)
        predicted = weight_transform(prof, Fm, G1, G2)
        pi1_hat = PolyMap(tuple(
            g.compose([c.compose(Fm) for c in scene.pi1.components]) for g in G1))
        pi2_hat = PolyMap(tuple(
            g.compose([c.compose(Fm) for c in scene.pi2.components]) for g in G2))
        hat_table = build_word_table(
            hodge_star_field(pi1_hat), hodge_star_field(pi2_hat), 5)
        recomputed = torsion_profile(hat_table, scene.beta)
        assert recomputed.J_beta == predicted.J_beta, trial
    elapsed = time.monotonic() - start
    report(7, f"10 random affine triples: transformed J_beta matches the "
              f"from-scratch recomputation exactly ({elapsed:.1f}s)")


def test_criterion_8_numeric_inequality_suite():
    start = time.monotonic()
    # uniformity window across the perturbation family
    probe = perturbation_ratios(["0", "1/4", "-1/4", "1", "-1"],
                                n_samples=120_000, seed=21)
    assert probe["max_over_min"] <= 4.0
    # restricted weak type across 4 dyadic rectangle scales
    scene = moment_curve_scene(2)
    prof = torsion_profile(scene.word_table(), scene.beta)
    dom = Box((F(0),) * 3, (F(1),) * 3)
    ratios = []
    for k in range(4):
        s = F(1, 2 ** k)
        e = BoxUnion((Box((F(0), F(0)), (s, s * s)),))
        r = rwt_ratio(e, e, prof, scene.pi1, scene.pi2, dom, band=None,
                      n_samples=80_000, seed=22)
        ratios.append(r["ratio"])
    assert max(ratios) / min(ratios) <= 2.0
    # coarea cross-check within 1%
    t = RatPoly.variable(1, 0)
    cc = coarea_check([t, t ** 2], Box((F(0), F(0)), (F(1), F(1))),
                      Box((F(0),), (F(1),)), n_samples=300_000, seed=23)
    assert cc["relative_error"] < 0.01
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(8, f"uniformity window {probe['max_over_min']:.2f} <= 4; rwt scale "
              f"spread {max(ratios)/min(ratios):.2f} <= 2; coarea error "
              f"{cc['relative_error']:.4f} < 1% ({elapsed:.0f}s < 300s)")


def test_criterion_9_appendix_algorithms():
    start = time.monotonic()
    t = RatPoly.variable(1, 0)
    corpus = [
        [t], [t ** 2 - 1], [t, t - 1], [t ** 3 - t], [t ** 2 + 1],
        [(t * 2 - 1) * (t + 2)], [(t - 1) * (t - 2) * (t - 4)],
        [(t ** 2 - 1) * (t ** 2 - F(1, 4))], [t * 5 + 1, t ** 2 * 3],
        [t ** 3 + t ** 2 - 2 * t],
    ]
    for polys in corpus:
        cover = monomialize(polys, F(1, 10))
        assert cover.diagnostics["uncertified_pieces"] == 0
        assert cover.verify_samples([from_ratpoly(p) for p in polys], 64), polys
    # stopping time product bound over a set corpus
    sets = [
        IntervalSet.from_pairs([[0, 1]]),
        IntervalSet.from_pairs([[0, F(1, 1024)], [1 - F(1, 1024), 1]]),
        IntervalSet.from_pairs([[3, F(7, 2)]]),
        IntervalSet.from_pairs([[F(i, 10), F(i, 10) + F(1, 50)]
                                for i in range(0, 10, 2)]),
    ]
    N = 3
    for S in sets:
        r = refine_interval(S)
        assert r["S_in_J"] >= S.measure() / 4 ** (N + 1)
    # sublevel scaling exponents against the closed form 2 eps^(1/N)
    for Ndeg in range(1, 6):
        sw = sublevel_sweep(t ** Ndeg, n_samples=1 << 14, seed=31)
        assert sw["fitted_exponent"] >= 1.0 / Ndeg - 0.05
    # extraction decision vs dense grid minimization, 100 random vectors
    rng = random.Random(990)
    grid = np.exp(np.linspace(np.log(1e-6), np.log(1e6), 20001))
    agreements = 0
    for _ in range(100):
        deg = rng.randint(1, 6)
        coeffs = [F(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(deg + 1)]
        k = rng.randint(0, deg)
        res = extract_two_terms(coeffs, k)
        vals = np.zeros_like(grid)
        for i, c in enumerate(coeffs):
            vals += float(c) * grid ** i
        grid_min = (vals - grid ** k).min()
        if res.holds == bool(grid_min >= -1e-9 * max(1.0, np.abs(vals).max())):
            agreements += 1
        else:
            # floats lose boundary cases; arbitrate exactly at the grid argmin
            tm = F(float(grid[(vals - grid ** k).argmin()])).limit_denominator(10 ** 9)
            pv = sum(c * tm ** i for i, c in enumerate(coeffs))
            assert (pv >= tm ** k) == res.holds
            agreements += 1
    elapsed = time.monotonic() - start
    assert agreements == 100
    assert elapsed < 120.0
    report(9, f"monomialize 10-family corpus verified at 64 pts/piece; "
              f"refinement bound holds; sublevel exponents >= 1/N - 0.05; "
              f"extraction agrees on 100/100 ({elapsed:.0f}s)")


def test_criterion_10_cc_ball_checks():
    start = time.monotonic()
    scene = moment_curve_scene(2)
    table = scene.word_table()
    entries = lambda_table(table)
    words = ((1,), (2,), (1, 2))
    lam = 2.0
    for k in range(4):               # alpha halves three times
        a = F(1, 2 ** k)
        spec = BallSpec(center=(F(0),) * 3, words=words, alpha=(a, a))
        s = ball_sample(table, spec, 3000, seed=41)
        box_vol = float(np.prod([2 * h for h in spec.box_halfwidths()]))
        ratio = s.volume_estimate / (box_vol * lam)
        assert 0.25 <= ratio <= 4.0, (k, ratio)
    # doubling at c = 1/8 along an X1 integral curve and across tuples
    passes, totals = 0, 0
    for shift, words2 in [(F(1, 64), words), (F(1, 32), words),
                          (F(1, 64), ((2,), (1,), (1, 2)))]:
        r = doubling_check(table, entries, [0, 0, 0], [0, 0, shift],
                           words, words2, rho=0.5, delta=1.0,
                           n_samples=400, seed=42, c=0.125)
        assert r["verdict"] == "Pass", r
        passes += r["pass_fraction"] * r["n_samples"]
        totals += r["n_samples"]
    assert passes / totals >= 0.99
    elapsed = time.monotonic() - start
    report(10, f"volume sandwich within [1/4,4] over 4 dyadic alphas; "
               f"doubling membership {100 * passes / totals:.1f}% >= 99% at "
               f"c=1/8 ({elapsed:.0f}s)")
