"""Iterated flows, Jacobian derivatives, torsion profiles, weight covariance."""

import random
from fractions import Fraction

import numpy as np
import pytest

from torsionlab import torsion
from torsionlab.geometry import build_word_table, hodge_star_field, lie_series_flow
from torsionlab.nilpotent import basis_frame
from torsionlab.polycore import PolyMatrix, RatPoly
from torsionlab.scenes import builtin_scene, curve_maps, moment_curve_scene, power2d_scene
from torsionlab.torsion import (
    NonConstantJacobian,
    all_jacobian_derivatives,
    b_of_beta,
    b_tilde_of_beta,
    exponents_for_b,
    iter_flow,
    jacobian_derivative,
    psi_flow,
    psi_tilde_flow,
    psi_words,
    torsion_profile,
    weight_transform,
)
from torsionlab.verify import WeightEvaluator


class TestIterFlow:
    def test_psi_jacobian_moment_curve(self, moment2):
        psi = psi_flow(moment2["table"])
        # hand computation: rows (0,1,0),(2t2, 2t+2t1+2t2, 0),(1,1,1) -> -2 t2
        t2 = RatPoly.variable(6, 4)
        assert psi.jac_det == t2 * (-2)

    def test_repeated_word_degenerates(self, moment2):
        f = iter_flow(moment2["table"], ((1,), (1,), (1,)))
        assert f.jac_det.is_zero()

    def test_constant_frame_tuple(self, moment2):
        f = iter_flow(moment2["table"], ((1,), (2,), (1, 2)))
        assert f.jac_det == RatPoly.const(6, 2) or f.jac_det == RatPoly.const(6, -2)

    def test_identity_at_zero_time(self, moment2):
        psi = psi_flow(moment2["table"])
        pt = [Fraction(1, 7), Fraction(2, 5), Fraction(3, 4)]
        assert psi.eval(pt, [0, 0, 0]) == pt

    def test_memoized_on_table(self, moment2):
        a = iter_flow(moment2["table"], ((1,), (2,), (1,)))
        b = iter_flow(moment2["table"], ((1,), (2,), (1,)))
        assert a is b

    def test_jacobian_at_zero_is_frame_determinant(self, moment3):
        # det D_t Phi^I_x(0) = +- det(X_{w_1}(x), ..., X_{w_n}(x)) exactly
        table = moment3["table"]
        n = table.dim
        for words in [((1,), (2,), (1, 2), (1, 1, 2)),
                      ((2,), (1,), (1, 2), (2, 1, 2)),
                      ((1,), (2,), (1,), (2,))]:
            flow = iter_flow(table, words)
            zero_t = RatPoly.variables(n) + [RatPoly.zero(n)] * n
            at0 = flow.jac_det.compose(zero_t)
            frame = PolyMatrix.from_rows(
                [[table.field_for(w).components[i] for w in words]
                 for i in range(n)]
            ).det()
            assert at0 == frame or at0 == -frame


def _bareiss_jac_det(flow):
    """det d(map)/dt by one Bareiss determinant over all 2n variables."""
    return PolyMatrix.jacobian(flow.map, flow.time_vars()).det()


@pytest.fixture()
def route_log(monkeypatch):
    """Record, per uncached iter_flow call, whether the adjoint route served
    it (True) or declined so that the Bareiss fallback ran (False)."""
    log = []
    route = torsion.adjoint_jac_det

    def spy(*args):
        out = route(*args)
        log.append(out is not None)
        return out

    monkeypatch.setattr(torsion, "adjoint_jac_det", spy)
    return log


@pytest.fixture()
def compose_log(monkeypatch):
    """Record every flow factor that torsion composes."""
    log = []
    compose = torsion.compose_flow

    def spy(*args):
        log.append(args)
        return compose(*args)

    monkeypatch.setattr(torsion, "compose_flow", spy)
    return log


def _moment_table(d, cap=None):
    scene = moment_curve_scene(d)
    if cap is not None:
        scene.cap = cap
    return scene.word_table()


def _seeded_curve_table(seed):
    rng = random.Random(seed)

    def coef():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))

    pi1, pi2 = curve_maps([[0, 1, coef()], [0, 0, coef(), coef()]])
    return build_word_table(hodge_star_field(pi1), hodge_star_field(pi2), 6)


class TestAdjointRoute:
    """iter_flow's jac_det through word coordinates equals the Bareiss
    determinant of the composed map's time Jacobian."""

    @pytest.mark.parametrize("name", ["moment2", "moment3", "power2d_k2",
                                      "power2d_k3", "moment4"])
    @pytest.mark.parametrize("start", [1, 2])
    def test_psi_maps(self, name, start, route_log):
        table = (_moment_table(4) if name == "moment4"
                 else builtin_scene(name).word_table())
        flow = iter_flow(table, psi_words(table.dim, start))
        assert route_log == [True]
        assert flow.jac_det == _bareiss_jac_det(flow)

    def test_psi_tilde_moment5(self, route_log):
        flow = psi_tilde_flow(_moment_table(5))
        assert route_log == [True]
        assert flow.jac_det == _bareiss_jac_det(flow)

    @pytest.mark.parametrize("scene", ["curve0", "curve1", "sheared"])
    def test_more_basis_fields_than_dimensions(self, scene, route_log, compose_log):
        from test_polytope import sheared_scene

        table = (sheared_scene().word_table() if scene == "sheared"
                 else _seeded_curve_table(int(scene[-1])))
        frame = basis_frame(table)
        assert len(frame.basis.words) > table.dim
        assert any(not minor.is_constant() for _, minor in frame.minors)
        for k, start in enumerate((1, 2), 1):
            flow = iter_flow(table, psi_words(table.dim, start))
            # a minor det E_S is not constant, so jac_det composed the map
            assert len(compose_log) == k * table.dim
            assert flow.jac_det == _bareiss_jac_det(flow)
        assert route_log == [True, True]
        assert len(compose_log) == 2 * table.dim

    @pytest.mark.parametrize("d, words, degree", [
        (2, ((1,), (2,), (1, 2)), 0),
        (2, ((1,), (2, 1), (2,)), 0),
        (2, ((2, 1), (1, 2), (2,)), -1),          # proportional words
        (2, ((1,), (1,), (2,)), -1),              # repeated word
        (2, ((1,), (2,), (1, 1)), -1),            # vanished word
        (3, ((1,), (2,), (1, 2), (1, 1, 2)), 0),
        (3, ((2,), (1,), (1, 2), (2, 1, 2)), 0),
        (3, ((1, 2), (2,), (1, 2), (1,)), 1),     # repeated word
        (3, ((1,), (2,), (1,), (1, 2)), 2),
        (3, ((2,), (1, 2), (1,), (2,)), 2),
        (3, ((1,), (2,), (2, 1, 2), (1,)), 1),
        (3, ((1,), (2, 2), (2,), (1, 2)), -1),    # vanished word
    ])
    def test_word_tuples(self, d, words, degree, route_log):
        flow = iter_flow(_moment_table(d), words)
        assert route_log == [True]
        assert flow.jac_det == _bareiss_jac_det(flow)
        assert flow.jac_det.total_degree() == degree

    def test_declines_when_an_ad_series_does_not_terminate(self):
        # X1 = x0 d/dx0, X2 = d/dx0: the span {X1, X2} is closed, but
        # ad X1 (X2) = -X2, so exp(-t ad X1) X2 is no polynomial
        from torsionlab.geometry import PolyVectorField

        x0 = RatPoly.variable(2, 0)
        zero, one = RatPoly.zero(2), RatPoly.const(2, 1)
        table = build_word_table(PolyVectorField((x0, zero)),
                                 PolyVectorField((one, zero)), 3)
        assert basis_frame(table).letter_ad is not None
        flows = [torsion.IterFlowMap(table, words) for words in (((2,), (1,)), ((1,), (2,)))]
        assert torsion.adjoint_jac_det(flows[0]) is None
        assert torsion.adjoint_jac_det(flows[1]) is not None

    @pytest.mark.parametrize("d, cap", [(3, 2), (4, 3)])
    def test_truncated_cap_takes_the_fallback(self, d, cap, route_log):
        table = _moment_table(d, cap)
        assert basis_frame(table).letter_ad is None
        for start in (1, 2):
            flow = iter_flow(table, psi_words(table.dim, start))
            assert flow.jac_det == _bareiss_jac_det(flow)
        assert route_log == [False, False]
        # the truncated table gives the same polynomial as the full one
        full = psi_flow(_moment_table(d))
        assert psi_flow(table).jac_det == full.jac_det


def _composed_outside_in(table, words):
    """Phi = F_n o ... o F_1 substituted from the outermost factor inward,
    the other bracketing of the composition that iter_flow builds."""
    n = table.dim
    xs = RatPoly.variables(2 * n)
    state = xs[:n]
    for slot in reversed(range(n)):
        fld = table.field_for(words[slot])
        if fld.is_zero():
            continue
        factor = [m.compose(xs[:n] + [xs[n + slot]]) for m in lie_series_flow(fld).map]
        state = [p.compose(factor + xs[n:]) for p in state]
    return tuple(state)


class TestLazyMap:
    """The composed map is built on first read, and only the Bareiss fallback
    or a minor det E_S that is not constant reads it for jac_det."""

    @pytest.mark.parametrize("d", [3, 5])
    def test_moment_profiles_compose_no_map(self, d, compose_log):
        scene = moment_curve_scene(d)
        table = scene.word_table()
        for reversed_order in (False, True):
            torsion_profile(table, scene.beta, reversed_order=reversed_order)
        assert compose_log == []
        flow = psi_flow(table)
        assert flow.map is flow.map
        assert len(compose_log) == table.dim

    @pytest.mark.parametrize("name, words", [
        ("moment2", ((1,), (2,), (1,))),
        ("moment2", ((1,), (2,), (1, 1))),        # vanished word
        ("moment3", ((2,), (1, 2), (1,), (2,))),
        ("curve0", ((1,), (2,), (1,))),
    ])
    def test_map_matches_outside_in_composition(self, name, words):
        table = (_seeded_curve_table(0) if name == "curve0"
                 else _moment_table(int(name[-1])))
        assert iter_flow(table, words).map == _composed_outside_in(table, words)


class TestJacobianDerivative:
    def test_first_derivative(self, moment2):
        psi = psi_flow(moment2["table"])
        assert jacobian_derivative(psi, (0, 1, 0)) == RatPoly.const(3, -2)

    def test_zeroth_derivative(self, moment2):
        psi = psi_flow(moment2["table"])
        assert jacobian_derivative(psi, (0, 0, 0)).is_zero()

    def test_power_map_constant_torsion(self, power2d_k2):
        psi = psi_flow(power2d_k2["table"])
        J = jacobian_derivative(psi, (1, 0))
        assert J.is_constant() and abs(J.constant_value()) == 2

    def test_negative_entry_rejected(self, moment2):
        psi = psi_flow(moment2["table"])
        with pytest.raises(ValueError, match="nonnegative"):
            jacobian_derivative(psi, (-1, 0, 0))

    def test_enumeration_matches_single_queries(self, moment3):
        psi = psi_flow(moment3["table"])
        allJ = all_jacobian_derivatives(psi)
        for beta, J in allJ.items():
            assert jacobian_derivative(psi, beta) == J
            assert not J.is_zero()

    def test_matches_iterated_partial_derivatives(self, moment3):
        # independent route: apply d/dt_i repeatedly, then set t = 0
        psi = psi_flow(moment3["table"])
        n = psi.dim
        for beta in [(0, 1, 2, 0), (1, 1, 1, 0), (0, 0, 0, 0), (2, 0, 1, 0)]:
            full_beta = [0] * n + list(beta)
            derived = psi.jac_det
            for i, b in enumerate(full_beta):
                for _ in range(b):
                    derived = derived.partial(i)
            at_zero = derived.compose(
                RatPoly.variables(2 * n)[:n] + [RatPoly.zero(2 * n)] * n)
            direct = jacobian_derivative(psi, beta)
            assert at_zero == direct.extend(2 * n)


class TestProfiles:
    def test_moment2_profile(self, moment2):
        p = moment2["profile"]
        assert p.b == (2, 2)
        assert p.p == (Fraction(3, 2), Fraction(3, 2))
        assert p.rho_exponent == Fraction(1, 3)
        assert abs(p.J_beta.constant_value()) == 2
        assert WeightEvaluator(p)(np.zeros((1, 3)))[0] == pytest.approx(2 ** (1 / 3))

    def test_power_map_profiles(self):
        for k in (2, 3):
            scene = power2d_scene(k)
            prof = torsion_profile(scene.word_table(), (k - 1, 0))
            assert prof.b == (k, 1)
            assert prof.p == (Fraction(1), Fraction(k))

    def test_zero_beta_bookkeeping(self):
        assert b_of_beta((0, 0, 0)) == (2, 1)
        assert exponents_for_b((2, 1)) == (Fraction(1), Fraction(2))

    def test_tilde_swaps(self):
        beta = (0, 1, 0)
        assert b_of_beta(beta) == (2, 2)
        assert b_tilde_of_beta(beta) == (2, 2)
        beta = (1, 0, 0)
        assert b_of_beta(beta) == (3, 1)
        assert b_tilde_of_beta(beta) == (1, 3)

    def test_reversed_order_uses_tilde_map(self, moment2):
        prof = torsion_profile(moment2["table"], (0, 1, 0), reversed_order=True)
        tilde = psi_tilde_flow(moment2["table"])
        assert prof.J_beta == jacobian_derivative(tilde, (0, 1, 0))


def random_affine_selfmap(rng, n, nvars=None):
    """Random invertible affine map as RatPolys, with rational entries."""
    nvars = nvars or n
    while True:
        A = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        det = _det_int(A)
        if det != 0:
            break
    b = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
    xs = RatPoly.variables(nvars)
    comps = []
    for i in range(n):
        p = RatPoly.const(nvars, b[i])
        for j in range(n):
            p = p + xs[j] * A[i][j]
        comps.append(p)
    return comps


def _det_int(A):
    n = len(A)
    if n == 1:
        return A[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in A[1:]]
        total += (-1) ** j * A[0][j] * _det_int(minor)
    return total


def fields_to_profile(pi1, pi2, beta, cap=6):
    t = build_word_table(hodge_star_field(pi1), hodge_star_field(pi2), cap)
    return torsion_profile(t, beta)


class TestWeightTransform:
    def test_identity(self, moment2):
        n = 3
        F = RatPoly.variables(n)
        G = RatPoly.variables(n - 1)
        out = weight_transform(moment2["profile"], F, G, G)
        assert out.J_beta == moment2["profile"].J_beta

    def test_dilation_factor(self, moment2):
        # F = 2x on R^3: det DF = 8, b = (2,2): factor 8^3 = 512
        n = 3
        F = [x * 2 for x in RatPoly.variables(n)]
        G = RatPoly.variables(n - 1)
        out = weight_transform(moment2["profile"], F, G, G)
        assert out.J_beta == moment2["profile"].J_beta.compose(F) * 512

    def test_target_dilation_exponent(self, moment2):
        # G1 = 3y on R^2: det DG1 = 9, exponent b1 = 2: factor 81
        n = 3
        F = RatPoly.variables(n)
        G1 = [y * 3 for y in RatPoly.variables(n - 1)]
        G2 = RatPoly.variables(n - 1)
        out = weight_transform(moment2["profile"], F, G1, G2)
        assert out.J_beta == moment2["profile"].J_beta * 81

    def test_nonconstant_jacobian_rejected(self, moment2):
        xs = RatPoly.variables(3)
        F = [xs[0] + xs[1] ** 2 * xs[0], xs[1], xs[2]]
        G = RatPoly.variables(2)
        with pytest.raises(NonConstantJacobian):
            weight_transform(moment2["profile"], F, G, G)

    def test_functorial_composition(self, moment2):
        rng = random.Random(7)
        F1 = random_affine_selfmap(rng, 3)
        F2 = random_affine_selfmap(rng, 3)
        G = RatPoly.variables(2)
        once = weight_transform(
            weight_transform(moment2["profile"], F1, G, G), F2, G, G
        )
        composed = [f.compose(F2) for f in F1]  # (F1 o F2)(x)
        direct = weight_transform(moment2["profile"], composed, G, G)
        assert once.J_beta == direct.J_beta

    def test_covariance_against_from_scratch_recomputation(self, moment2):
        """Oracle: rebuild everything from the transformed maps and compare.

        pi_j -> G_j o pi_j o F with random affine maps; the recomputed
        J^beta must equal the formula's prediction exactly.
        """
        from torsionlab.geometry import PolyMap

        rng = random.Random(2024)
        scene = moment2["scene"]
        prof = moment2["profile"]
        for trial in range(6):
            F = random_affine_selfmap(rng, 3)
            G1 = random_affine_selfmap(rng, 2)
            G2 = random_affine_selfmap(rng, 2)
            pred = weight_transform(prof, F, G1, G2)
            pi1_hat = PolyMap(tuple(
                g.compose([c.compose(F) for c in scene.pi1.components])
                for g in G1
            ))
            pi2_hat = PolyMap(tuple(
                g.compose([c.compose(F) for c in scene.pi2.components])
                for g in G2
            ))
            recomputed = fields_to_profile(pi1_hat, pi2_hat, (0, 1, 0))
            assert recomputed.J_beta == pred.J_beta, f"trial {trial}"
            assert recomputed.b == pred.b


class TestVanishingEquivalence:
    """Lambda(x) = 0 iff all J^beta(x) = tilde-J^beta(x) = 0, at samples."""

    def field_pairs(self):
        out = []
        out.append(curve_maps([[0, 1], [0, 0, 1]]))           # moment d=2
        out.append(curve_maps([[0, 1], [0, 0, 0, 1]]))        # (t, t^3)
        out.append(curve_maps([[0, 0, 1], [0, 0, 0, 1]]))     # (t^2, t^3)
        sc = power2d_scene(3)
        out.append((sc.pi1, sc.pi2))
        # reducible pair: second coordinate never moves, Lambda == 0
        xs = RatPoly.variables(3)
        from torsionlab.geometry import PolyMap
        out.append((PolyMap((xs[0], xs[1])), PolyMap((xs[0] - xs[2] ** 2, xs[1]))))
        return out

    def test_equivalence_at_rational_samples(self):
        from torsionlab.polytope import lambda_table

        rng = random.Random(11)
        for pi1, pi2 in self.field_pairs():
            table = build_word_table(
                hodge_star_field(pi1), hodge_star_field(pi2), 6
            )
            entries = lambda_table(table)
            psi = psi_flow(table)
            tilde = psi_tilde_flow(table)
            allJ = list(all_jacobian_derivatives(psi).values())
            allJt = list(all_jacobian_derivatives(tilde).values())
            n = table.dim
            for _ in range(50):
                x = [Fraction(rng.randint(-12, 12), rng.randint(1, 12))
                     for _ in range(n)]
                lam_zero = all(e.poly.eval(x) == 0 for e in entries)
                J_zero = all(J.eval(x) == 0 for J in allJ) and \
                    all(J.eval(x) == 0 for J in allJt)
                assert lam_zero == J_zero, (pi1, x)
