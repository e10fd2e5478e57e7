"""The float evaluator and the Newton solver, across batch sizes."""

from fractions import Fraction as F

import numpy as np
import pytest

from torsionlab.numeric import (
    JacobianEvaluator,
    MapEvaluator,
    _newton_step,
    newton_preimage,
)
from torsionlab.polycore import RatPoly
from torsionlab.sampling import halton


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


def test_output_is_column_major_and_blind_to_the_input_order():
    pts = np.random.default_rng(5).uniform(-3, 3, size=(50, 3))
    c_pts, f_pts = np.ascontiguousarray(pts), np.asfortranarray(pts)
    assert c_pts.flags.c_contiguous and f_pts.flags.f_contiguous
    for ev in (MapEvaluator(components()), JacobianEvaluator(components(), [2, 0])):
        from_c, from_f = ev(c_pts), ev(f_pts)
        assert from_c.tobytes() == from_f.tobytes()
    vals = MapEvaluator(components())(c_pts)
    assert vals.flags.f_contiguous and not vals.flags.c_contiguous


def test_powers_are_left_to_right_products():
    # Halton coordinates 1 and 2 (coordinate 0, in base 2, is dyadic and its
    # cubes are exact), mapped to [-1, 1): mixed signs, none zero, F-ordered
    pts = 2.0 * halton(3, 65536, seed=1)[:, 1:] - 1.0
    assert pts.flags.f_contiguous and (pts < 0).any() and (pts > 0).any() and pts.all()
    a, b = pts[:, 0], pts[:, 1]
    x, y = RatPoly.variables(2)
    comps = [x ** 3, x ** 4 * y, x ** 2 * y ** 5]
    # x^e is ((x * x) * x) ... * x; a term is c times its factors in turn
    want = [1.0 * (a * a * a), 1.0 * (a * a * a * a) * b, 1.0 * (a * a) * (b * b * b * b * b)]
    vals = MapEvaluator(comps)(pts)
    for j, w in enumerate(want):
        assert vals[:, j].tobytes() == w.tobytes()
    jac = JacobianEvaluator(comps, [0, 1])(pts)
    want = [[3.0 * (a * a), np.zeros_like(a)],
            [4.0 * (a * a * a) * b, 1.0 * (a * a * a * a)],
            [2.0 * a * (b * b * b * b * b), 5.0 * (a * a) * (b * b * b * b)]]
    for j, row in enumerate(want):
        for k, w in enumerate(row):
            assert jac[:, j, k].tobytes() == w.tobytes()
    # e = 2 keeps the bits of numpy's x ** 2
    squares = MapEvaluator([x ** 2, y ** 2])(pts)
    assert squares.tobytes() == (pts ** 2).tobytes()


def test_wrong_point_shape_rejected():
    ev = MapEvaluator(components())
    for pts in (np.zeros((5, 2)), np.zeros((5, 4)), np.zeros(3)):
        with pytest.raises(ValueError):
            ev(pts)


def cusp(t):
    """f(t) = (t0^3 + a t0 t1, t1 + 0.3 t0^2) on rows [a, t0, t1] (a = 1 if absent)."""
    a = t[:, 0] if t.shape[1] == 3 else np.ones(len(t))
    t0, t1 = t[:, -2], t[:, -1]
    return np.stack([t0 ** 3 + a * t0 * t1, t1 + 0.3 * t0 ** 2], axis=1)


def cusp_jacobian(t):
    """d f / d(t0, t1); singular at t = 0."""
    a = t[:, 0] if t.shape[1] == 3 else np.ones(len(t))
    t0, t1 = t[:, -2], t[:, -1]
    return np.stack([np.stack([3 * t0 ** 2 + a * t1, a * t0], axis=1),
                     np.stack([0.6 * t0, np.ones(len(t))], axis=1)], axis=1)


def test_newton_row_ignores_a_singular_neighbour():
    target = np.array([[0.7, 0.2]])
    alone, ok = newton_preimage(cusp, cusp_jacobian, target, [0.5, 0.1])
    # the second row starts where the Jacobian is singular
    both, ok2 = newton_preimage(cusp, cusp_jacobian, np.repeat(target, 2, axis=0),
                                np.array([[0.5, 0.1], [0.0, 0.0]]))
    assert ok[0] and ok2.all()
    assert np.array_equal(both[0], alone[0])
    singular_alone, _ = newton_preimage(cusp, cusp_jacobian, target, [0.0, 0.0])
    assert np.array_equal(both[1], singular_alone[0])


def test_newton_fixed_rows_match_one_parameter_solves():
    rng = np.random.default_rng(3)
    fixed = rng.uniform(0.5, 2.0, size=(12, 1))
    targets = rng.uniform(0.1, 0.9, size=(12, 2))
    starts = rng.uniform(0.2, 0.8, size=(12, 2))
    sol, ok = newton_preimage(cusp, cusp_jacobian, targets, starts, fixed=fixed)
    for i in range(12):
        def fwd(t, a=fixed[i]):
            return cusp(np.hstack([np.broadcast_to(a, (len(t), 1)), t]))

        def jac(t, a=fixed[i]):
            return cusp_jacobian(np.hstack([np.broadcast_to(a, (len(t), 1)), t]))

        one, one_ok = newton_preimage(fwd, jac, targets[i:i + 1], starts[i])
        assert np.array_equal(sol[i], one[0]) and ok[i] == one_ok[0]
    assert ok.sum() >= 10


def reference_newton_step(J, r):
    """Each row solved on its own; a row whose solve raises takes its own
    pseudoinverse step.  Also returns the rows that raised."""
    step = np.empty_like(r)
    raised = np.zeros(len(J), dtype=bool)
    for i in range(len(J)):
        try:
            step[i] = np.linalg.solve(J[i:i + 1], r[i:i + 1, :, None])[0, :, 0]
        except np.linalg.LinAlgError:
            raised[i] = True
            step[i] = np.einsum("mij,mj->mi", np.linalg.pinv(J[i:i + 1]), r[i:i + 1])[0]
    return step, raised


def test_newton_step_on_a_mixed_batch_matches_row_by_row():
    rng = np.random.default_rng(4)
    m = 400
    J = rng.uniform(-2, 2, size=(m, 3, 3))
    kind = np.arange(m) % 5
    # proportional rows and a zero column give exact zero pivots; a rank-one
    # product of dyadic vectors may or may not, and a tiny perturbation of a
    # singular matrix gives a nonzero pivot
    J[kind == 1, 2] = 2.0 * J[kind == 1, 0]
    J[kind == 2, :, 1] = 0.0
    u = rng.integers(-4, 5, size=(m, 3)) / 4.0
    v = rng.integers(-4, 5, size=(m, 3)) / 4.0
    J[kind == 3] = (u[:, :, None] * v[:, None, :])[kind == 3]
    J[kind == 4] = np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + 2.0 ** -50, 0.0], [0.0, 0.0, 1.0]])
    r = rng.uniform(-1, 1, size=(m, 3))
    ref, raised = reference_newton_step(J, r)
    assert 0 < raised.sum() < m and not raised[kind == 4].any()
    assert np.isfinite(ref).all()
    assert _newton_step(J, r).tobytes() == ref.tobytes()
    # a batch with no regular row
    assert _newton_step(J[raised], r[raised]).tobytes() == ref[raised].tobytes()
