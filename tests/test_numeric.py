"""The float evaluator against exact evaluation, across batch sizes."""

from fractions import Fraction as F

import numpy as np
import pytest

from torsionlab.numeric import JacobianEvaluator, MapEvaluator
from torsionlab.polycore import RatPoly


def components():
    x, y, z = RatPoly.variables(3)
    return [
        x * y ** 2 - F(3, 7) * z ** 3 + F(1, 2),
        RatPoly.const(3, F(5, 3)),
        RatPoly.zero(3),
        y ** 4 - x * z + z * F(-2, 5),
    ]


def dyadic_points(m, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(-16, 17, size=(m, 3)) / 8.0


def test_matches_exact_eval():
    comps = components()
    pts = dyadic_points(40)
    vals = MapEvaluator(comps)(pts)
    assert vals.shape == (40, 4)
    for row, p in zip(vals, pts):
        exact = [float(c.eval([F(v) for v in p])) for c in comps]
        assert row == pytest.approx(exact, rel=1e-12, abs=1e-12)
    assert (vals[:, 1] == 5 / 3).all()
    assert (vals[:, 2] == 0.0).all()


def test_rows_alone_match_the_batch_bit_for_bit():
    pts = np.random.default_rng(1).uniform(-3, 3, size=(64, 3))
    for ev in (MapEvaluator(components()), JacobianEvaluator(components(), [2, 0])):
        batch = ev(pts)
        rows = np.concatenate([ev(pts[i:i + 1]) for i in range(len(pts))])
        assert np.array_equal(rows, batch)
        halves = np.concatenate([ev(pts[:23]), ev(pts[23:])])
        assert np.array_equal(halves, batch)


def test_jacobian_is_the_reshaped_map_of_partials():
    comps = components()
    wrt = [2, 0]
    pts = np.random.default_rng(2).uniform(-2, 2, size=(17, 3))
    partials = MapEvaluator([c.partial(j) for c in comps for j in wrt])(pts)
    jac = JacobianEvaluator(comps, wrt)(pts)
    assert jac.shape == (17, 4, 2)
    assert np.array_equal(jac, partials.reshape(17, 4, 2))
    assert np.array_equal(jac[:, 0, 0], -9 / 7 * pts[:, 2] ** 2)


def test_wrong_point_shape_rejected():
    ev = MapEvaluator(components())
    for pts in (np.zeros((5, 2)), np.zeros((5, 4)), np.zeros(3)):
        with pytest.raises(ValueError):
            ev(pts)
