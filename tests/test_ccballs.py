"""Ball sampling, doubling containment, and greedy covering probes."""

from fractions import Fraction

import numpy as np
import pytest

from torsionlab import ccballs
from torsionlab.ccballs import BallMap, BallSpec, ball_sample, doubling_check, vitali_cover
from torsionlab.numeric import JacobianEvaluator, MapEvaluator, newton_preimage
from torsionlab.sampling import halton
from torsionlab.scenes import moment_curve_scene
from torsionlab.torsion import iter_flow


def spec_for(words, alpha, center=(0, 0, 0)):
    return BallSpec(
        center=tuple(Fraction(c) for c in center),
        words=tuple(tuple(w) for w in words),
        alpha=(Fraction(alpha), Fraction(alpha)),
    )


class TestBallSample:
    def test_constant_jacobian_tuple(self, moment2):
        spec = spec_for([(1,), (2,), (1, 2)], 1)
        s = ball_sample(moment2["table"], spec, 2000, seed=1)
        assert s.jac_range == (2.0, 2.0)
        assert s.method == "change_of_variables"
        # |B| = |Q| * |lambda| = (2*2*2) * 2 exactly for a constant Jacobian
        assert s.volume_estimate == pytest.approx(16.0, rel=1e-12)

    def test_small_alpha_scaling(self, moment2):
        # volume / (vol(Q) |lambda|) must hold near 1 as alpha shrinks
        for k in range(4):
            a = Fraction(1, 2 ** k)
            spec = spec_for([(1,), (2,), (1, 2)], a)
            s = ball_sample(moment2["table"], spec, 1500, seed=2)
            hw = spec.box_halfwidths()
            box_vol = 8.0 * float(np.prod(hw))
            assert s.volume_estimate / (box_vol * 2.0) == pytest.approx(1.0, rel=1e-9)

    def test_alpha_anisotropy(self, moment2):
        spec = BallSpec(
            center=(Fraction(0),) * 3,
            words=((1,), (2,), (1, 2)),
            alpha=(Fraction(1, 2), Fraction(1, 4)),
        )
        # deg((1))=(1,0), deg((2))=(0,1), deg((1,2))=(1,1)
        assert spec.box_halfwidths() == [0.5, 0.25, 0.125]

    def test_degenerate_tuple_small_volume(self, moment2):
        # X1 three times gives a segment and X1 twice then X2 a surface: the
        # Jacobian is exactly 0, so the volume is exactly 0, with error 0
        for words in ([(1,), (1,), (1,)], [(1,), (1,), (2,)]):
            s = ball_sample(moment2["table"], spec_for(words, Fraction(1, 4)), 800, seed=3)
            assert (s.method, s.volume_estimate, s.volume_stderr) == ("degenerate", 0.0, 0.0)
            assert s.jac_range == (0.0, 0.0)

    def test_sign_changing_jacobian_counts_cells(self, moment2):
        # Psi = (X1, X2, X1) has Jacobian -2 t_2, which changes sign on the box
        spec = spec_for([(1,), (2,), (1,)], Fraction(1, 4))
        s = ball_sample(moment2["table"], spec, 800, seed=3)
        assert s.method == "occupancy" and s.volume_stderr is None
        assert s.jac_range[0] < 1e-2 < s.jac_range[1]
        # distinct occupied cells of the 5^3 grid over the bounding box of
        # the image of the same Halton box points, times the cell volume;
        # counting distinct coordinates would give at most 5
        t = (2.0 * halton(3, 800, seed=3) - 1.0) * np.array(spec.box_halfwidths())
        pts = BallMap(moment2["table"], spec.words).push(np.zeros(3), t)
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        span = np.maximum(hi - lo, 1e-300)
        scaled = np.clip(((pts - lo) / span * 5).astype(int), 0, 4)
        cells = {tuple(row) for row in scaled.tolist()}
        assert len(cells) > 5
        assert s.volume_estimate == len(cells) * float(np.prod(span / 5))

    def test_flows_composed_only_for_occupancy(self):
        # the volume of a one-signed or vanishing Jacobian needs only jac_det,
        # which moment curves build without composing the flows
        for words, method in (([(1,), (2,), (1, 2)], "change_of_variables"),
                              ([(1,), (1,), (1,)], "degenerate")):
            table = moment_curve_scene(2).word_table()
            spec = spec_for(words, Fraction(1, 4))
            assert ball_sample(table, spec, 200, seed=1).method == method
            assert "map" not in iter_flow(table, spec.words).__dict__

    def test_positive_samples_required(self, moment2):
        with pytest.raises(ValueError):
            ball_sample(moment2["table"], spec_for([(1,), (2,), (1, 2)], 1), 0)

    def test_bad_alpha_rejected(self):
        with pytest.raises(ValueError):
            BallSpec(center=(Fraction(0),) * 3, words=((1,), (2,), (1, 2)),
                     alpha=(Fraction(0), Fraction(1)))

    def test_permuted_tuple_mutual_containment(self, moment2):
        # B^(I_sigma)(x; alpha) sits inside the inflated ball of the other
        # ordering; probed via Newton membership of the sample clouds
        table = moment2["table"]
        base = ((1,), (2,), (1, 2))
        perm = ((1, 2), (2,), (1,))
        ball_b = BallMap(table, base)
        ball_p = BallMap(table, perm)
        x = np.zeros(3)
        spec_b = spec_for(base, Fraction(1, 4))
        spec_p = spec_for(perm, Fraction(1, 4))
        u = 2.0 * halton(3, 300, seed=5) - 1.0
        cloud_b = ball_b.push(x, u * np.array(spec_b.box_halfwidths()))
        cloud_p = ball_p.push(x, u * np.array(spec_p.box_halfwidths()))
        inflate = [h * 8 for h in spec_p.box_halfwidths()]
        m1, bad1 = ball_p.members([x], cloud_b, inflate)
        m2, bad2 = ball_b.members([x], cloud_p, [h * 8 for h in spec_b.box_halfwidths()])
        assert m1.mean() >= 0.99 and m2.mean() >= 0.99
        assert bad1.mean() <= 0.01 and bad2.mean() <= 0.01


class TestDoubling:
    def test_same_center_trivial(self, moment2):
        words = ((1,), (2,), (1, 2))
        r = doubling_check(moment2["table"], moment2["entries"],
                           [0, 0, 0], [0, 0, 0], words, words,
                           rho=0.5, delta=1.0, n_samples=150, seed=1)
        assert r["verdict"] == "Pass"
        assert r["pass_fraction"] == 1.0

    def test_nearby_centers_on_integral_curve(self, moment2):
        words = ((1,), (2,), (1, 2))
        r = doubling_check(moment2["table"], moment2["entries"],
                           [0, 0, 0], [0, 0, Fraction(1, 64)], words, words,
                           rho=0.5, delta=1.0, n_samples=200, seed=2, c=0.125)
        assert r["verdict"] == "Pass"
        assert r["newton_failure_fraction"] <= 0.01

    def test_three_dyadic_radii(self, moment2):
        words = ((1,), (2,), (1, 2))
        for rho in (1.0, 0.5, 0.25):
            r = doubling_check(moment2["table"], moment2["entries"],
                               [0, 0, 0], [0, 0, Fraction(1, 128)], words, words,
                               rho=rho, delta=1.0, n_samples=200, seed=6, c=0.125)
            assert r["verdict"] == "Pass", (rho, r)
            assert r["pass_fraction"] >= 0.99

    def test_far_apart_not_applicable(self, moment2):
        words = ((1,), (2,), (1, 2))
        r = doubling_check(moment2["table"], moment2["entries"],
                           [0, 0, 0], [50, 50, 50], words, words,
                           rho=0.01, delta=1.0, n_samples=100, seed=3)
        assert r["verdict"] == "NotApplicable"

    def test_hypothesis_gate(self, moment2):
        words = ((1,), (2,), (1, 2))
        r = doubling_check(moment2["table"], moment2["entries"],
                           [0, 0, 0], [0, 0, 0], words, words,
                           rho=0.5, delta=2.0, n_samples=50, seed=4)
        # delta = 2 cannot be met: |lambda_I| = |Lambda| here, ratio 1 < 2
        assert r["verdict"] == "HypothesisNotMet"

    # (members, Newton failures) of 100 samples: Pass needs a pass fraction of
    # 0.99, and more than 1% failures make the check Inconclusive
    @pytest.mark.parametrize("n_member, n_failed, verdict", [
        (98, 0, "Fail"), (99, 0, "Pass"), (100, 2, "Inconclusive"), (100, 1, "Pass")])
    def test_verdict_thresholds(self, moment2, monkeypatch, n_member, n_failed, verdict):
        def chosen(self, centers, ys, halfwidths, tol=1e-9, pairs=None):
            member = np.zeros((1, len(ys)), dtype=bool)
            member[0, :n_member] = True
            failed = np.zeros_like(member)
            failed[0, len(ys) - n_failed:] = True
            return member, failed

        monkeypatch.setattr(BallMap, "members", chosen)
        words = ((1,), (2,), (1, 2))
        r = doubling_check(moment2["table"], moment2["entries"],
                           [0, 0, 0], [0, 0, 0], words, words,
                           rho=0.5, delta=1.0, n_samples=100, seed=1)
        assert (r["newton_failures"], r["verdict"]) == (n_failed, verdict)


class TestVitali:
    def test_single_ball_covers(self, moment2):
        r = vitali_cover(moment2["table"], moment2["entries"],
                         [-0.05, -0.05, -0.05], [0.05, 0.05, 0.05],
                         rho=8.0, delta=0.5, grid=2, seed=1)
        assert r["count"] == 1
        assert r["covered_fraction"] == 1.0

    def test_empty_region(self, moment2):
        # delta above 1 can never pass the eligibility filter
        r = vitali_cover(moment2["table"], moment2["entries"],
                         [-0.1] * 3, [0.1] * 3, rho=0.25, delta=1.5, grid=2)
        assert r["count"] == 0

    def test_no_lambda_classes_reports_null(self, moment2):
        r = vitali_cover(moment2["table"], [], [-0.1] * 3, [0.1] * 3, rho=0.25)
        assert r["count"] == 0 and r["covered_fraction"] is None

    def test_count_grows_as_rho_shrinks(self, moment2):
        counts = []
        for rho in (64.0, 32.0, 16.0):
            r = vitali_cover(moment2["table"], moment2["entries"],
                             [-0.5] * 3, [0.5] * 3, rho=rho, delta=0.5,
                             grid=3, seed=2)
            counts.append(r["count"])
        assert counts[0] <= counts[1] <= counts[2]
        assert counts[2] > 1


def rounded(x):
    return np.array([float(Fraction(v).limit_denominator(10**9)) for v in x])


def reference_members(table, words, centers, ys, hw, tol=1e-9):
    """Every start, one center at a time, no enclosure and no early exit.

    Returns (member, inconclusive, late): late marks the members whose
    box-center start converged outside the box.
    """
    flow = iter_flow(table, words)
    n = table.dim
    fwd, jac = MapEvaluator(flow.map), JacobianEvaluator(flow.map, wrt=range(n, 2 * n))
    hw = np.asarray(hw, dtype=float)
    member = np.zeros((len(centers), len(ys)), dtype=bool)
    converged = np.zeros_like(member)
    late = np.zeros_like(member)
    for k, c in enumerate(centers):
        for i, start in enumerate(ccballs._newton_starts(hw)):
            sol, ok = newton_preimage(fwd, jac, ys, start, tol=tol,
                                      fixed=np.tile(c, (len(ys), 1)))
            inside = ok & np.all(np.abs(sol) < hw * (1 + 1e-9) + tol, axis=1)
            if i == 0:
                late[k] = ok & ~inside
            member[k] |= inside
            converged[k] |= ok
    return member, ~converged, late & member


def reference_cover(table, report, grid, seed):
    """(selected, covered_fraction) from one-center membership calls, one
    candidate at a time, stopping at the first hit, over the whole grid."""
    words = tuple(tuple(w) for w in report["words"])
    assert report["eligible_points"] == grid ** 3  # the whole grid, in meshgrid order
    axis = np.linspace(-0.5, 0.5, grid)
    mesh = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    ball = BallMap(table, words)
    r_small, r_big = report["radius_small"], report["radius_inflated"]
    t_cloud = (2.0 * halton(3, 16, seed=seed) - 1.0) * r_small
    selected, centers = [], []
    for x in mesh:
        cloud = ball.push(rounded(x), t_cloud)
        if not any(ball.members([c], cloud, [r_small] * 3)[0].any() for c in centers):
            selected.append(list(map(float, x)))
            centers.append(rounded(x))
    covered = np.zeros(len(mesh), dtype=bool)
    for c in centers:
        covered |= ball.members([c], mesh, [r_big] * 3)[0][0]
    return selected, float(covered.mean())


class TestMembers:
    WORDS = ((1,), (2,), (1, 2))

    @pytest.mark.parametrize("chunk", [ccballs.CHUNK_ROWS, 37])
    def test_many_centers_equal_one_center_calls(self, moment2, monkeypatch, chunk):
        monkeypatch.setattr(ccballs, "CHUNK_ROWS", chunk)
        monkeypatch.setattr(ccballs, "ENCLOSURE_PAIRS", chunk)
        ball = BallMap(moment2["table"], self.WORDS)
        centers = 0.4 * (2.0 * halton(3, 6, seed=4) - 1.0)
        ys = ball.push(np.zeros(3), 0.3 * (2.0 * halton(3, 25, seed=9) - 1.0))
        hw = [0.2, 0.15, 0.1]
        member, bad = ball.members(centers, ys, hw)
        assert member.shape == bad.shape == (6, 25)
        for k, c in enumerate(centers):
            m1, b1 = ball.members([c], ys, hw)
            assert np.array_equal(m1[0], member[k]) and np.array_equal(b1[0], bad[k])
        # both outcomes occur, so the comparison can fail
        assert member.any() and not member.all()

    # (fixture, words): the benchmark's class; a class with negative
    # coefficients and centers in its t-terms; a rank-one tuple whose
    # preimages form lines, so that some members are reached only from a start
    # off the box center
    CASES = [("moment2", ((1,), (2,), (1, 2))), ("power2d_k2", ((1,), (2,))),
             ("power2d_k2", ((2,), (1, 2)))]

    def test_masks_match_all_start_reference(self, request, monkeypatch):
        seen = set()  # the (center, point) rows Newton was asked to solve

        def recording(forward, jacobian, targets, start, tol, fixed):
            seen.update(row.tobytes() for row in np.hstack([fixed, targets]))
            return newton_preimage(forward, jacobian, targets, start, tol=tol, fixed=fixed)

        monkeypatch.setattr(ccballs, "newton_preimage", recording)
        chunks = (ccballs.CHUNK_ROWS, 7)
        n_cloud = 24
        late_members = edge_members = edge_outsiders = 0
        for fixture, words in self.CASES:
            table = request.getfixturevalue(fixture)["table"]
            n = table.dim
            ball = BallMap(table, words)
            hw = np.array([0.3, 0.2, 0.1][:n])
            centers = 0.6 * (2.0 * halton(n, 4, seed=7) - 1.0)
            assert (centers < 0).any()
            # a cloud over 1.5x the box, then pairs of corners: just inside
            # the box, and just outside it on one axis
            ts = [1.5 * hw * (2.0 * halton(n, n_cloud, seed=2) - 1.0)]
            for signs in (np.ones(n), -np.ones(n), (-1.0) ** np.arange(n)):
                corner = signs * hw * (1 - 1e-6)
                for k in range(n):
                    out = corner.copy()
                    out[k] = signs[k] * hw[k] * (1 + 1e-6)
                    ts.append(np.array([corner, out]))
            ts = np.vstack(ts)
            ys = np.vstack([ball.push(c, ts) for c in centers])
            ref_member, ref_bad, late = reference_members(table, words, centers, ys, hw)
            for chunk in chunks:
                monkeypatch.setattr(ccballs, "CHUNK_ROWS", chunk)
                monkeypatch.setattr(ccballs, "ENCLOSURE_PAIRS", chunk)
                seen.clear()
                member, bad = ball.members(centers, ys, hw)
                asked = np.array([[np.hstack([c, y]).tobytes() in seen for y in ys]
                                  for c in centers])
                assert np.array_equal(member, ref_member), (fixture, words, chunk)
                assert np.array_equal(bad, ref_bad & asked), (fixture, words, chunk)
                # the enclosure settled a share of the pairs without Newton
                assert not asked.all(), (fixture, words, chunk)
            late_members += late.sum()
            # each center against the points pushed from it
            own = np.array([member[k, k * len(ts):(k + 1) * len(ts)]
                            for k in range(len(centers))])
            edge_members += own[:, n_cloud::2].sum()
            edge_outsiders += (~own[:, n_cloud + 1::2]).sum()
        assert late_members > 0 and edge_members > 0 and edge_outsiders > 0

    @pytest.mark.parametrize("chunk", [ccballs.CHUNK_ROWS, 7])
    @pytest.mark.parametrize("fixture, words", [("moment2", ((1,), (2,), (1, 2))),
                                                ("power2d_k2", ((2,), (1, 2)))])
    def test_pairs_decide_only_their_entries(self, request, monkeypatch, chunk,
                                             fixture, words):
        monkeypatch.setattr(ccballs, "CHUNK_ROWS", chunk)
        monkeypatch.setattr(ccballs, "ENCLOSURE_PAIRS", chunk)
        table = request.getfixturevalue(fixture)["table"]
        n = table.dim
        ball = BallMap(table, words)
        hw = np.array([0.3, 0.2, 0.1][:n])
        centers = 0.6 * (2.0 * halton(n, 5, seed=7) - 1.0)
        ts = 1.5 * hw * (2.0 * halton(n, 12, seed=2) - 1.0)
        ys = np.vstack([ball.push(c, ts) for c in centers])
        member, bad = ball.members(centers, ys, hw)
        # half of the entries, in no particular order
        pairs = np.random.default_rng(0).permutation(member.size)[:member.size // 2]
        asked = np.zeros(member.size, dtype=bool)
        asked[pairs] = True
        asked = asked.reshape(member.shape)
        m, b = ball.members(centers, ys, hw, pairs=pairs)
        assert np.array_equal(m, member & asked) and np.array_equal(b, bad & asked)
        # both outcomes among the asked entries, so the comparison can fail
        assert member[asked].any() and not member[asked].all()

    def test_no_centers(self, moment2):
        ball = BallMap(moment2["table"], self.WORDS)
        member, bad = ball.members(np.empty((0, 3)), np.zeros((4, 3)), [0.1] * 3)
        assert member.shape == bad.shape == (0, 4)

    def test_cover_over_two_chunks_matches_per_center_loop(self, moment2, monkeypatch):
        table, entries = moment2["table"], moment2["entries"]
        solves, per_question = [], []

        def counting_newton(*args, **kwargs):
            solves.append(len(args[2]))
            return newton_preimage(*args, **kwargs)

        def counting_members(self, *args, **kwargs):
            before = len(solves)
            out = members(self, *args, **kwargs)
            per_question.append(len(solves) - before)
            return out

        members = BallMap.members
        monkeypatch.setattr(ccballs, "CHUNK_ROWS", 1000)
        monkeypatch.setattr(ccballs, "newton_preimage", counting_newton)
        monkeypatch.setattr(BallMap, "members", counting_members)
        r = vitali_cover(table, entries, [-0.5] * 3, [0.5] * 3, rho=8.0,
                         delta=0.5, grid=5, seed=3)
        monkeypatch.undo()
        # members makes two Newton passes, so a call with more than two
        # newton_preimage calls split one of its passes into chunks
        assert max(per_question) > 2 and max(solves) == 1000
        selected, covered = reference_cover(table, r, 5, 3)
        assert r["centers"] == selected and r["count"] == len(selected)
        assert r["covered_fraction"] == covered

    # (grid, rho, seed, pair cap): the benchmark's grid, where rho 0.25 picks
    # all 27 candidates and rho 16 picks 18; then a cap of 600 pairs, so that
    # blocks hold at most 9 candidates and both selection calls run many times
    @pytest.mark.parametrize("grid, rho, seed, cap",
                             [(3, rho, seed, ccballs.PAIRS_PER_CALL)
                              for rho in (0.25, 16.0) for seed in (1, 2, 3)]
                             + [(4, 8.0, 3, 600)])
    def test_cover_matches_one_candidate_loop(self, moment2, monkeypatch,
                                              grid, rho, seed, cap):
        table, entries = moment2["table"], moment2["entries"]
        calls = {"all": 0, "pairs": 0}

        def counting_members(self, *args, pairs=None, **kwargs):
            calls["all" if pairs is None else "pairs"] += 1
            return members(self, *args, pairs=pairs, **kwargs)

        members = BallMap.members
        monkeypatch.setattr(ccballs, "PAIRS_PER_CALL", cap)
        monkeypatch.setattr(BallMap, "members", counting_members)
        r = vitali_cover(table, entries, [-0.5] * 3, [0.5] * 3, rho=rho,
                         delta=0.5, grid=grid, seed=seed)
        monkeypatch.undo()
        selected, covered = reference_cover(table, r, grid, seed)
        assert r["centers"] == selected and r["count"] == len(selected)
        assert r["covered_fraction"] == covered
        if cap < ccballs.PAIRS_PER_CALL:
            # the coverage call is the one more call without pairs
            assert calls["pairs"] > 5 and calls["all"] > 5, calls
