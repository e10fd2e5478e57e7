import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from torsionlab.geometry import compose_flow, lie_series_flow  # noqa: E402
from torsionlab.polycore import RatPoly  # noqa: E402
from torsionlab.polytope import lambda_table  # noqa: E402
from torsionlab.scenes import moment_curve_scene, power2d_scene  # noqa: E402
from torsionlab.torsion import torsion_profile  # noqa: E402


@pytest.fixture(scope="session")
def moment2():
    scene = moment_curve_scene(2)
    table = scene.word_table()
    return {
        "scene": scene,
        "table": table,
        "entries": lambda_table(table),
        "profile": torsion_profile(table, scene.beta),
    }


@pytest.fixture(scope="session")
def moment3():
    scene = moment_curve_scene(3)
    table = scene.word_table()
    return {
        "scene": scene,
        "table": table,
        "entries": lambda_table(table),
        "profile": torsion_profile(table, scene.beta),
    }


@pytest.fixture(scope="session")
def power2d_k2():
    scene = power2d_scene(2)
    table = scene.word_table()
    return {
        "scene": scene,
        "table": table,
        "entries": lambda_table(table),
        "profile": torsion_profile(table, scene.beta),
    }


def _chart(basis, x, state):
    """Phi_x composed after ``state``: flow e_0 for time x_0 first, then e_1, ..."""
    alg = basis.algebra
    n = len(state)
    for e, t in zip(basis.elements, x):
        if t != 0:
            state = compose_flow(lie_series_flow(alg.element_field(e)),
                                 RatPoly.const(n, t), state)
    return state


@pytest.fixture(scope="session")
def group_law_flows():
    """Check a group law at one rational (x1, x2) against concrete flows.

    Phi_x flows e_0 for time x_0 first, then e_1, and so on, and X(v) is the
    field of sum_i v_i e_i.  Then Phi_r(x1,x2) = e^X(x2) o Phi_x1 and
    Phi_q(x1,x2) = Phi_x1 o e^X(x2), exactly, as maps of the whole space.
    """
    def check(basis, gl, x1, x2):
        alg = basis.algebra
        n = alg.basis_fields[0].dim
        xs = RatPoly.variables(n)
        one = RatPoly.const(n, 1)
        v = [sum((c * e[k] for c, e in zip(x2, basis.elements)), Fraction(0))
             for k in range(alg.dim)]
        flow_x2 = lie_series_flow(alg.element_field(v))
        point = list(x1) + list(x2)
        r = [p.eval(point) for p in gl.r]
        q = [p.eval(point) for p in gl.q]
        assert _chart(basis, r, xs) == compose_flow(flow_x2, one, _chart(basis, x1, xs))
        assert _chart(basis, q, xs) == _chart(basis, x1, compose_flow(flow_x2, one, xs))

    return check
