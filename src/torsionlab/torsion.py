"""Iterated flow maps, Jacobian-derivative functionals, and torsion weights.

The central object is the composed flow

    Phi^I_x(t) = e^(t_n X_{w_n}) o ... o e^(t_1 X_{w_1})(x),

a polynomial map in 2n variables (base point first, flow times second).  Its
time-Jacobian determinant, expanded around t = 0, produces the functionals

    J^beta(x) = d_t^beta det D_t Psi_x(0),

where Psi alternates the two generators starting with X_1 (and the reversed
map Psi-tilde starts with X_2).  The weight carried by a multiindex beta is
|J^beta|^(1/(b1+b2-1)) with the bidegree bookkeeping

    b(beta) = (sum over odd slots of 1+beta_j, sum over even slots of 1+beta_j)

and endpoint exponents p = ((b1+b2-1)/b1, (b1+b2-1)/b2).  Everything here is
exact; the numeric |.|^e evaluation lives in the verifier.  Each flow factor
is one ``geometry.compose_flow`` step.

The time Jacobian rests on the nilpotent structure.  Column j of d Phi/dt is
Y_j = X_{w_j} pushed forward by the later flows, evaluated at Phi.  In the
coordinates of the word basis E_1..E_N (``nilpotent.basis_frame``) that
pushforward is

    c_j(t) = exp(-t_n ad Y_n) ... exp(-t_(j+1) ad Y_(j+1)) v_j,

with v_j the coordinates of Y_j.  This is the convention (phi_s)_* Y =
exp(-s ad Z) Y for phi the flow of Z, with no further global sign.  Each
column is one ``nilpotent.exp_neg_ad_chain`` over slots j+1..n, the chain the
group law's Maurer-Cartan columns use.  Every series is finite because ad
is nilpotent, so C(t) = [c_1 ... c_n] is an N x n polynomial matrix in t
alone, and Cauchy-Binet gives

    det d Phi/dt = sum over n-subsets S of det C(t)[S, :] * (det E_S) o Phi.

On moment curves N = n and det E is constant, so no composition is needed.
When the span is not known to be closed (a bracket [X_i, E_k] lies beyond
the table's cap), or an ad series is still nonzero after N terms, the
Jacobian of the composed map is taken by one Bareiss determinant over all
2n variables instead.  Both routes give the same polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .geometry import Word, WordTable, compose_flow, lie_series_flow
from .nilpotent import basis_frame, exp_neg_ad_chain
from .polycore import PolyMatrix, RatPoly


class NonConstantJacobian(ValueError):
    """A coordinate-change map fed to weight_transform has a non-constant Jacobian."""


@dataclass(frozen=True, eq=False)
class IterFlowMap:
    """Composed flow Phi^I_x of a table's word tuple and its time Jacobian.

    ``map`` holds n polynomials in 2n variables: x_0..x_(n-1), t_1..t_n.
    ``jac_det`` is det of d(map)/d(t), same variable space.  Both are built
    on first read; ``jac_det`` reads ``map`` only where ``adjoint_jac_det``
    needs it, so on moment curves the flows are never composed.
    """

    table: WordTable = field(repr=False)
    words: tuple[Word, ...]

    @property
    def dim(self) -> int:
        return self.table.dim

    def time_vars(self) -> list[int]:
        n = self.dim
        return list(range(n, 2 * n))

    def eval(self, x: Sequence, t: Sequence) -> list[Fraction]:
        pt = list(x) + list(t)
        return [m.eval(pt) for m in self.map]

    @cached_property
    def map(self) -> tuple[RatPoly, ...]:
        """Flow along words[0] first; an absent word is an identity factor."""
        n = self.dim
        nv = 2 * n
        state = [RatPoly.variable(nv, i) for i in range(n)]
        for slot, w in enumerate(self.words):
            fld = self.table.field_for(w)
            if fld.is_zero():
                continue
            state = compose_flow(lie_series_flow(fld), RatPoly.variable(nv, n + slot), state)
        return tuple(state)

    @cached_property
    def jac_det(self) -> RatPoly:
        """``adjoint_jac_det``, or the Bareiss determinant of the composed map's
        time Jacobian where that declines."""
        det = adjoint_jac_det(self)
        if det is None:
            det = PolyMatrix.jacobian(self.map, self.time_vars()).det()
        return det


def iter_flow(table: WordTable, words: Sequence[Word]) -> IterFlowMap:
    """Exact Phi^I_x for a tuple of words, flowing along words[0] first.

    Absent words act as zero fields and contribute identity factors; the
    resulting Jacobian is then degenerate, which is legal.  Results are
    memoized on the table, with ``jac_det`` already read.

    ``jac_det`` is det d Phi/dt = sum_S det C(t)[S, :] * (det E_S) o Phi
    (``adjoint_jac_det``), where column j of C(t) holds the word coordinates
    of exp(-t_n ad Y_n) ... exp(-t_(j+1) ad Y_(j+1)) Y_j, Y_j = X_{w_j}, with
    no further global sign.  When the table's span is not known to be closed
    (some [X_i, E_k] lies beyond the cap) or an ad series is still nonzero
    after N terms, it is one Bareiss determinant of the composed map's time
    Jacobian over all 2n variables.  Both give the same polynomial.
    """
    key = tuple(tuple(w) for w in words)
    cache = table._flow_cache
    if key in cache:
        return cache[key]
    n = table.dim
    if len(words) != n:
        raise ValueError(f"need an n-tuple of words (n={n}), got {len(words)}")
    result = IterFlowMap(table, key)
    result.jac_det  # built now, so that every cached flow carries it
    cache[key] = result
    return result


def adjoint_jac_det(flow: IterFlowMap) -> RatPoly | None:
    """det d Phi/dt for Phi = ``flow.map``, by Cauchy-Binet over the table's
    word basis (see the module docstring).  ``flow.map`` is read only for a
    minor det E_S that is not constant.

    Returns None, so that the caller takes the Bareiss determinant, when the
    table's ad matrices are unknown or an ad series is still nonzero after N
    terms.
    """
    table, words = flow.table, flow.words
    frame = basis_frame(table)
    if frame.letter_ad is None:
        return None
    n = table.dim
    nv = 2 * n
    if any(w not in table.entries for w in words):
        return RatPoly.zero(nv)  # a vanished word gives a zero column
    ads = [frame.ad(w) for w in words]
    # column j of C(t), in the n time variables
    cols = [exp_neg_ad_chain(ads, {(0,) * n: list(frame.basis.coords[w])}, range(j + 1, n))
            for j, w in enumerate(words)]
    if None in cols:
        return None  # (ad Y)^N v != 0: ad Y is not nilpotent
    C = list(zip(*cols))
    # a nonzero minor's det is padded once
    pad = (0,) * n
    total = RatPoly.zero(nv)
    for S, minor in frame.minors:
        det_c = PolyMatrix.from_rows([C[r] for r in S]).det()
        if det_c.is_zero():
            continue
        det_c = RatPoly._of(nv, {pad + e: c for e, c in det_c.terms.items()})
        if minor.is_constant():
            total = total + det_c * minor.constant_value()
        else:
            total = total + det_c * minor.compose(flow.map)
    return total


def psi_words(n: int, start: int = 1) -> tuple[Word, ...]:
    """Cyclic word tuple ((1),(2),(1),...) of length n (start=2 for the tilde map)."""
    return tuple(((start if j % 2 == 0 else 3 - start),) for j in range(n))


def psi_flow(table: WordTable) -> IterFlowMap:
    return iter_flow(table, psi_words(table.dim, start=1))


def psi_tilde_flow(table: WordTable) -> IterFlowMap:
    return iter_flow(table, psi_words(table.dim, start=2))


def jacobian_derivative(flow: IterFlowMap, beta: Sequence[int]) -> RatPoly:
    """J^beta(x) = d_t^beta jac_det at t = 0, an exact polynomial in x."""
    n = flow.dim
    if len(beta) != n:
        raise ValueError("beta length must equal the dimension")
    if any(b < 0 for b in beta):
        raise ValueError(f"beta entries must be nonnegative, got {list(beta)}")
    return all_jacobian_derivatives(flow).get(tuple(int(b) for b in beta), RatPoly.zero(n))


def all_jacobian_derivatives(flow: IterFlowMap) -> dict[tuple[int, ...], RatPoly]:
    """Every beta with J^beta not identically zero, read off the Jacobian expansion:
    beta! times the t^beta coefficient of jac_det, restricted to the base block."""
    n = flow.dim
    out = {}
    for beta, c in flow.jac_det.coefficients_in(flow.time_vars()).items():
        factor = math.prod(math.factorial(b) for b in beta)
        out[beta] = RatPoly(n, {exp[:n]: v * factor for exp, v in c.terms.items()})
    return out


def b_of_beta(beta: Sequence[int]) -> tuple[int, int]:
    """Bidegree bookkeeping for the alternating map starting with X_1.

    Slots are 1-indexed in the convention: odd slots flow X_1.
    """
    b1 = sum(1 + b for j, b in enumerate(beta) if (j + 1) % 2 == 1)
    b2 = sum(1 + b for j, b in enumerate(beta) if (j + 1) % 2 == 0)
    return (b1, b2)


def b_tilde_of_beta(beta: Sequence[int]) -> tuple[int, int]:
    """Swapped bookkeeping for the reversed map (odd slots flow X_2)."""
    b1, b2 = b_of_beta(beta)
    return (b2, b1)


def exponents_for_b(b: tuple[int, int]) -> tuple[Fraction, Fraction]:
    """Endpoint Lebesgue exponents p(b) = ((|b|-1)/b1, (|b|-1)/b2)."""
    s = b[0] + b[1] - 1
    return (Fraction(s, b[0]), Fraction(s, b[1]))


@dataclass(frozen=True)
class TorsionProfile:
    """The weight data attached to one multiindex beta.

    The weight itself is |J_beta|^rho_exponent, kept symbolic as the pair
    (base polynomial, rational exponent).
    """

    beta: tuple[int, ...]
    b: tuple[int, int]
    p: tuple[Fraction, Fraction]
    J_beta: RatPoly
    rho_exponent: Fraction

    def to_json_dict(self) -> dict:
        return {
            "beta": list(self.beta),
            "b": list(self.b),
            "p": [str(self.p[0]), str(self.p[1])],
            "J_beta": self.J_beta.to_json_dict(),
            "rho_exponent": str(self.rho_exponent),
        }


def torsion_profile(table: WordTable, beta: Sequence[int],
                    reversed_order: bool = False) -> TorsionProfile:
    """Profile for beta: b, p, and the exact J^beta polynomial.

    ``reversed_order`` computes the tilde variant (flows starting with X_2)
    with the swapped bidegree convention; there is no separate code path.
    """
    beta = tuple(int(x) for x in beta)
    flow = psi_tilde_flow(table) if reversed_order else psi_flow(table)
    b = b_tilde_of_beta(beta) if reversed_order else b_of_beta(beta)
    return TorsionProfile(
        beta=beta,
        b=b,
        p=exponents_for_b(b),
        J_beta=jacobian_derivative(flow, beta),
        rho_exponent=Fraction(1, b[0] + b[1] - 1),
    )


def _constant_jacobian(components: Sequence[RatPoly]) -> Fraction:
    n = components[0].nvars
    if len(components) != n:
        raise ValueError("expected a self-map")
    d = PolyMatrix.jacobian(components, range(n)).det()
    if not d.is_constant():
        raise NonConstantJacobian(f"Jacobian determinant {d!r} is not constant")
    return d.constant_value()


def weight_transform(profile: TorsionProfile,
                     F: Sequence[RatPoly],
                     G1: Sequence[RatPoly],
                     G2: Sequence[RatPoly]) -> TorsionProfile:
    """Covariance of J_beta under pi_j -> G_j o pi_j o F.

    When every Jacobian determinant is constant, the chain-rule expansion has
    no lower-order terms and the transformed functional is exactly

        J_beta -> (det DF)^(b1+b2-1) (det DG1)^b1 (det DG2)^b2 * (J_beta o F).

    Raises NonConstantJacobian otherwise; the error terms are then genuinely
    present and no pointwise identity is available.
    """
    kF = _constant_jacobian(F)
    k1 = _constant_jacobian(G1)
    k2 = _constant_jacobian(G2)
    if kF == 0 or k1 == 0 or k2 == 0:
        raise NonConstantJacobian("coordinate change is singular")
    b1, b2 = profile.b
    scale = (kF ** (b1 + b2 - 1)) * (k1 ** b1) * (k2 ** b2)
    transformed = profile.J_beta.compose(list(F)) * scale
    return TorsionProfile(
        beta=profile.beta,
        b=profile.b,
        p=profile.p,
        J_beta=transformed,
        rho_exponent=profile.rho_exponent,
    )
