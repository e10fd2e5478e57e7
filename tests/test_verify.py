"""Measure engine, restricted-weak-type and strong-type probes, controls."""

import math
from fractions import Fraction

import numpy as np
import pytest

from torsionlab.polycore import RatPoly
from torsionlab.scenes import Box, Scene, curve_maps
from torsionlab.torsion import torsion_profile
from torsionlab.verify import (
    BoxUnion,
    DegenerateRegion,
    RegionSpec,
    StepFunction,
    bilinear_form,
    coarea_check,
    counterexample_2d,
    measure,
    perturbation_ratios,
    rwt_ratio,
    scale_profile,
)

F = Fraction


def unit_box(n):
    return Box(tuple(F(0) for _ in range(n)), tuple(F(1) for _ in range(n)))


class TestMeasure:
    def test_full_box(self, moment2):
        sc = moment2["scene"]
        r = measure(RegionSpec(domain=unit_box(3)), sc.pi1, sc.pi2,
                    moment2["profile"], 20000, seed=1)
        assert r["estimate"] == pytest.approx(1.0, abs=3 * max(r["stderr"], 1e-12))

    def test_constant_weight_band_dichotomy(self, moment2):
        # rho = 2^(1/3) everywhere: band 0 holds all mass, band 5 none
        sc = moment2["scene"]
        full = measure(RegionSpec(domain=unit_box(3), band=0), sc.pi1, sc.pi2,
                       moment2["profile"], 5000, seed=2)
        empty = measure(RegionSpec(domain=unit_box(3), band=5), sc.pi1, sc.pi2,
                        moment2["profile"], 5000, seed=2)
        assert full["estimate"] == 1.0
        assert empty["estimate"] == 0.0

    def test_empty_target_set(self, moment2):
        sc = moment2["scene"]
        e1 = BoxUnion((Box((F(50), F(50)), (F(51), F(51))),))
        r = measure(RegionSpec(domain=unit_box(3), e1=e1), sc.pi1, sc.pi2,
                    moment2["profile"], 4000, seed=3)
        assert r["estimate"] == 0.0

    def test_degenerate_domain_rejected(self, moment2):
        with pytest.raises(Exception):
            Box((F(0), F(0), F(0)), (F(0), F(1), F(1)))

    def test_band_requires_profile(self, moment2):
        sc = moment2["scene"]
        with pytest.raises(DegenerateRegion):
            measure(RegionSpec(domain=unit_box(3), band=0), sc.pi1, sc.pi2,
                    None, 1000, seed=1)


class TestStepFunction:
    def test_exact_norm(self):
        f = StepFunction.from_levels([
            (0, [Box((F(0), F(0)), (F(1), F(1)))]),
            (2, [Box((F(2), F(2)), (F(3), F(5, 2)))]),
        ])
        # ||f||_2^2 = 1*1 + 16*(1/2): sqrt(9) = 3
        assert f.norm(2) == pytest.approx(3.0)

    def test_disjointness_enforced(self):
        with pytest.raises(ValueError):
            BoxUnion((Box((F(0), F(0)), (F(2), F(2))),
                      Box((F(1), F(1)), (F(3), F(3)))))

    def test_levels_disjointness_enforced(self):
        # each level alone is a valid union; only the two levels overlap
        with pytest.raises(ValueError, match="step function levels"):
            StepFunction.from_levels([
                (0, [Box((F(0), F(0)), (F(2), F(2)))]),
                (1, [Box((F(1), F(1)), (F(3), F(3)))]),
            ])


    def test_indicator_and_values_ignore_the_batch_layout(self):
        f = StepFunction.from_levels([
            (0, [Box((F(0), F(0)), (F(1, 2), F(1, 4))), Box((F(1, 2), F(0)), (F(1), F(1, 2)))]),
            (3, [Box((F(-1), F(-1)), (F(0), F(1, 2)))]),
        ])
        # a grid that puts points on box faces, where the half-open test bites
        axis = np.linspace(-1.25, 1.25, 41)
        pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        c_pts, f_pts = np.ascontiguousarray(pts), np.asfortranarray(pts)
        assert not c_pts.flags.f_contiguous and not f_pts.flags.c_contiguous
        for _, union in f.levels:
            inside = union.indicator(c_pts)
            assert np.array_equal(inside, union.indicator(f_pts))
            assert inside.any() and not inside.all()
        assert f.values(c_pts).tobytes() == f.values(f_pts).tobytes()


class TestRwt:
    def test_scale_invariant_family(self, moment2):
        sc = moment2["scene"]
        prof = moment2["profile"]
        ratios = []
        for k in range(3):
            s = F(1, 2 ** k)
            e = BoxUnion((Box((F(0), F(0)), (s, s * s)),))
            r = rwt_ratio(e, e, prof, sc.pi1, sc.pi2, unit_box(3), band=None,
                          n_samples=120000, seed=5)
            ratios.append(r["ratio"])
        assert max(ratios) / min(ratios) < 2.0

    def test_empty_e2(self, moment2):
        sc = moment2["scene"]
        e1 = BoxUnion((Box((F(0), F(0)), (F(1), F(1))),))
        e2 = BoxUnion((Box((F(40), F(40)), (F(41), F(41))),))
        r = rwt_ratio(e1, e2, moment2["profile"], sc.pi1, sc.pi2, unit_box(3),
                      band=None, n_samples=4000, seed=6)
        assert r["estimate"] == 0.0
        assert r["ratio"] == 0.0


class TestBilinear:
    def test_indicator_reduction(self, moment2):
        # f1 = f2 = chi: B = rho * |Omega| with constant rho = 2^(1/3)
        sc = moment2["scene"]
        prof = moment2["profile"]
        box = Box((F(0), F(0)), (F(1), F(1)))
        f = StepFunction.indicator_box(box)
        r = bilinear_form(f, f, prof, sc.pi1, sc.pi2, unit_box(3), 60000, seed=7)
        e = BoxUnion((box,))
        omega = measure(RegionSpec(domain=unit_box(3), e1=e, e2=e),
                        sc.pi1, sc.pi2, prof, 60000, seed=7)
        assert r["estimate"] == pytest.approx(
            2 ** (1 / 3) * omega["estimate"], rel=5e-3)

    def test_zero_function(self, moment2):
        sc = moment2["scene"]
        f1 = StepFunction.indicator_box(Box((F(0), F(0)), (F(1), F(1))))
        f2 = StepFunction.from_levels([(0, [Box((F(30), F(30)), (F(31), F(31)))])])
        r = bilinear_form(f1, f2, moment2["profile"], sc.pi1, sc.pi2,
                          unit_box(3), 4000, seed=8)
        assert r["estimate"] == 0.0

    def test_multi_level_stability(self, moment2):
        sc = moment2["scene"]
        levels = []
        for k in range(8):
            lo = F(k, 8)
            levels.append((-k, [Box((lo, F(0)), (lo + F(1, 8), F(1)))]))
        f = StepFunction.from_levels(levels)
        r1 = bilinear_form(f, f, moment2["profile"], sc.pi1, sc.pi2,
                           unit_box(3), 30000, seed=9)
        r2 = bilinear_form(f, f, moment2["profile"], sc.pi1, sc.pi2,
                           unit_box(3), 120000, seed=9)
        assert r1["ratio"] == pytest.approx(r2["ratio"], rel=0.05)


class TestCounterexample2D:
    def test_growth_for_k2(self):
        r = counterexample_2d(2)
        assert r["strictly_increasing"]
        assert r["growth_factor"] >= 3.0
        assert r["verdict"] == "unbounded-growth"

    def test_k1_control_bounded(self):
        r = counterexample_2d(1)
        assert r["growth_factor"] == pytest.approx(1.0, abs=1e-9)
        assert r["verdict"] == "bounded"

    def test_plain_indicator_control_bounded(self):
        r = counterexample_2d(2, variant="plain")
        assert r["growth_factor"] < 2.0
        assert r["verdict"] == "bounded"

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_log_rows_closed_form(self, k):
        # cut c = 1/2, delta = 2^-j: u runs over (log 2, j log 2)
        r = counterexample_2d(k)
        assert len(r["rows"]) == 16
        for row in r["rows"]:
            j = row["j"]
            assert row["B"] == pytest.approx(math.log(j) / k, rel=1e-13)
            assert row["norm_f2"] ** k == pytest.approx(
                math.log(2) ** (1 - k) * (1 - j ** (1 - k)) / (k - 1), rel=1e-13)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_plain_rows_closed_form(self, k):
        r = counterexample_2d(k, variant="plain")
        for row in r["rows"]:
            j = row["j"]
            assert row["B"] == pytest.approx(2 ** (-1 / k) - 2 ** (-j / k), rel=1e-13)
            assert row["norm_f2"] ** k == pytest.approx(0.5 - 2.0 ** -j, rel=1e-13)

    def test_rejects_k_below_one(self):
        with pytest.raises(ValueError, match="k must be at least 1, got 0"):
            counterexample_2d(0)


class TestScaleProfile:
    def test_constant_torsion_single_band(self, moment2):
        sc = moment2["scene"]
        f = StepFunction.indicator_box(Box((F(-2), F(-2)), (F(2), F(2))))
        r = scale_profile(f, f, moment2["profile"], sc.pi1, sc.pi2,
                          unit_box(3), range(-4, 4), 4000, seed=10)
        assert r["nonzero_bands"] == 1

    def test_degenerate_cubic_multiple_bands(self):
        pi1, pi2 = curve_maps([[0, 1], [0, 0, 0, 1]])
        scene = Scene(pi1=pi1, pi2=pi2, beta=(0, 1, 0), cap=6)
        domain = Box((F(-1),) * 3, (F(1),) * 3)
        prof = torsion_profile(scene.word_table(), scene.beta)
        f = StepFunction.indicator_box(Box((F(-2), F(-2)), (F(2), F(2))))
        r = scale_profile(f, f, prof, pi1, pi2, domain, range(-8, 3),
                          30000, seed=11)
        assert r["nonzero_bands"] >= 4
        assert r["sum"] > 0
        # band masses must add back to the unbanded form
        total = bilinear_form(f, f, prof, pi1, pi2, domain, 30000, seed=11)
        assert r["sum"] == pytest.approx(total["estimate"], rel=0.02)

    # three shards (65,536, 65,536 and 4096 points), so that the shard order
    # of the partial sums shows in the last bits
    _SHARDED = (1 << 17) + 4096

    def _assert_rows_equal_banded_forms(self, f, prof, pi1, pi2, domain, bands,
                                        seed):
        r = scale_profile(f, f, prof, pi1, pi2, domain, bands,
                          self._SHARDED, seed=seed)
        assert [row["m"] for row in r["bands"]] == list(bands)
        for row in r["bands"]:
            one = bilinear_form(f, f, prof, pi1, pi2, domain, self._SHARDED,
                                seed=seed, band=row["m"])
            assert row["B_m"] == one["estimate"], row["m"]
            assert row["stderr"] == one["stderr"], row["m"]
        return r

    def test_rows_equal_banded_forms_cubic(self):
        pi1, pi2 = curve_maps([[0, 1], [0, 0, 0, 1]])
        scene = Scene(pi1=pi1, pi2=pi2, beta=(0, 1, 0), cap=6)
        prof = torsion_profile(scene.word_table(), scene.beta)
        f = StepFunction.indicator_box(Box((F(-2), F(-2)), (F(2), F(2))))
        r = self._assert_rows_equal_banded_forms(
            f, prof, pi1, pi2, Box((F(-1),) * 3, (F(1),) * 3), range(-8, 3), 11)
        assert r["nonzero_bands"] >= 4

    def test_rows_equal_banded_forms_moment2(self, moment2):
        sc = moment2["scene"]
        f = StepFunction.from_levels([
            (1, [Box((F(0), F(0)), (F(1, 2), F(1)))]),
            (0, [Box((F(1, 2), F(0)), (F(1), F(1)))]),
        ])
        r = self._assert_rows_equal_banded_forms(
            f, moment2["profile"], sc.pi1, sc.pi2, unit_box(3), range(-4, 4), 10)
        assert r["nonzero_bands"] == 1

    def test_far_support_empty(self, moment2):
        sc = moment2["scene"]
        f = StepFunction.from_levels([(0, [Box((F(90), F(90)), (F(91), F(91)))])])
        r = scale_profile(f, f, moment2["profile"], sc.pi1, sc.pi2,
                          unit_box(3), range(-3, 3), 3000, seed=12)
        assert all(row["B_m"] == 0 for row in r["bands"])


class TestCoarea:
    def test_moment_curve_box(self):
        t = RatPoly.variable(1, 0)
        r = coarea_check([t, t ** 2], unit_box(2), Box((F(0),), (F(1),)),
                         n_samples=300000, seed=13)
        assert r["relative_error"] < 0.01

    def test_cubic_component(self):
        t = RatPoly.variable(1, 0)
        r = coarea_check([t ** 2, t ** 3],
                         Box((F(-1), F(-1)), (F(1), F(1))),
                         Box((F(-1),), (F(1),)), n_samples=300000, seed=14)
        assert r["relative_error"] < 0.01


class TestUniformityProbe:
    def test_perturbation_family_window(self):
        r = perturbation_ratios(["0", "1/4", "-1/4", "1", "-1"],
                                n_samples=40000, seed=15)
        assert r["max_over_min"] <= 4.0
