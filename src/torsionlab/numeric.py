"""Float-side helpers: vectorized polynomial evaluation and Newton preimages.

Exact objects cross into floating point exactly here, through one evaluator
that maps an (m, nvars) array of points to an (m, ncomps) array of values,
with the same float operations on every row whatever the batch.  The Newton
solver batches damped iterations over many target points at once, which is
what ball-membership testing needs.

Layout: a batch of points is an (m, nvars) array in Fortran (column-major)
order, as ``sampling.halton`` draws it, and the evaluator's (m, ncomps)
output is too.  Each coordinate read and each component written is then one
contiguous vector rather than a strided column.  C-ordered input gives the
same bits, only more slowly.

Powers: the evaluator forms x^e as ((x * x) * x) ... * x, left to right,
e - 1 multiplications, and calls no numpy power.  Each product is correctly
rounded on every CPU, whereas numpy picks its pow kernel from the host's SIMD
features (on an AVX-512 host ``x ** 3`` differs from libm ``pow`` on about 5%
of nonnegative inputs), and a negative base takes a scalar path: ``x ** 3`` on
65,536 mixed-sign values takes about 4 ms, ``x * x * x`` under 0.1 ms.  For
e = 2 the chain is ``x * x``, which has the bits of ``x ** 2``.  It differs
from ``x ** e`` by at most 1 ulp for e = 3 and 2 ulp for e = 4 and 5; its
worst error from the exact power is 1.2 ulp for e = 3 and 2.2 ulp for e = 5.

``newton_preimage(..., fixed=F)`` solves a family of maps at once: row i
solves forward([F_i, t]) = target_i for t, where F_i holds parameters that
stay fixed through the iteration (a ball's center, say).  ``forward`` and
``jacobian`` are then called on ``np.hstack([F[rows], t])``, so an evaluator
over (parameters, t) plugs in directly.  Every row takes the same float steps
whatever else is in the batch: the evaluators are row-independent, batched
``np.linalg.solve`` factors each matrix separately, and a singular Jacobian
sends only its own row to the pseudoinverse (the singular rows of a batch
take it together, in one batched call).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .polycore import RatPoly


def _power(x: np.ndarray, e: int) -> np.ndarray:
    """x^e as ((x * x) * x) ... * x, left to right; x itself for e = 1."""
    if e == 1:
        return x
    power = x * x
    for _ in range(e - 2):
        power *= x
    return power


class MapEvaluator:
    """Vectorized evaluator for a tuple of RatPolys sharing one variable space.

    Each component compiles to its terms in ``sorted_terms`` order, each a
    float coefficient and its nonzero (variable, exponent) factors.
    """

    def __init__(self, components: Sequence[RatPoly]):
        self.nvars = components[0].nvars
        self._terms = [
            [(float(c), [(i, e) for i, e in enumerate(exp) if e])
             for exp, c in p.sorted_terms()]
            for p in components
        ]

    def _eval(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.nvars:
            raise ValueError(f"expected points of shape (m, {self.nvars}), got {points.shape}")
        m = len(points)
        out = np.zeros((m, len(self._terms)), order="F")
        for j, terms in enumerate(self._terms):
            for c, factors in terms:
                # a scalar start allocates no m-vector and gives the bits a
                # vector of c's would: c * x, or c broadcast into the add
                term = c
                for i, e in factors:
                    term = term * _power(points[:, i], e)
                out[:, j] += term
        return out

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """points: (m, nvars) -> (m, ncomps)."""
        return self._eval(points)


class JacobianEvaluator(MapEvaluator):
    """Vectorized Jacobian of selected variables of a polynomial map."""

    def __init__(self, components: Sequence[RatPoly], wrt: Sequence[int]):
        wrt = list(wrt)
        self._shape = (len(components), len(wrt))
        super().__init__([c.partial(j) for c in components for j in wrt])

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """points: (m, nvars) -> (m, ncomps, len(wrt))."""
        vals = self._eval(points)
        return vals.reshape(len(vals), *self._shape)


def _newton_step(J: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Solve J_i step_i = r_i row by row; singular rows use the pseudoinverse."""
    try:
        return np.linalg.solve(J, r[..., None])[..., 0]
    except np.linalg.LinAlgError:
        pass
    # one singular matrix fails the whole batch.  solve raises where LAPACK's
    # LU meets an exact zero pivot, and slogdet's sign is 0 exactly there, so
    # the other rows are solved in one batch and only the singular ones take
    # the least-squares step, also in one batch
    singular = np.linalg.slogdet(J)[0] == 0
    regular = ~singular
    step = np.empty_like(r)
    step[regular] = np.linalg.solve(J[regular], r[regular, :, None])[..., 0]
    step[singular] = np.einsum("mij,mj->mi", np.linalg.pinv(J[singular]), r[singular])
    return step


def newton_preimage(
    forward: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
    targets: np.ndarray,
    start: np.ndarray,
    tol: float = 1e-9,
    max_iter: int = 60,
    fixed: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton solve forward(t) = target, batched over targets.

    ``start`` may be a single point (broadcast) or one start per target.
    ``fixed``, if given, is an (m, k) array of per-row parameters prepended
    to t on every call of ``forward`` and ``jacobian``.
    Returns (solutions, converged mask); non-converged rows hold the last
    iterate.  Steps are halved until the residual decreases (at most 8
    halvings per iteration).  Each row's result is independent of the batch.
    """
    targets = np.asarray(targets, dtype=float)
    m, n = targets.shape
    t = np.broadcast_to(np.asarray(start, dtype=float), (m, n)).copy()

    def at(rows, t):
        return t if fixed is None else np.hstack([fixed[rows], t])

    res = forward(at(slice(None), t)) - targets
    res_norm = np.linalg.norm(res, axis=1)
    active = res_norm > tol
    for _ in range(max_iter):
        if not active.any():
            break
        rows = np.flatnonzero(active)
        ta = t[rows]
        ra = res[rows]
        step = _newton_step(jacobian(at(rows, ta)), ra)
        # guard singular rows elementwise
        bad = ~np.isfinite(step).all(axis=1)
        step[bad] = 0.0
        scale = np.ones(len(ta))
        cur_norm = np.linalg.norm(ra, axis=1)
        new_t = ta - step
        new_res = forward(at(rows, new_t)) - targets[rows]
        new_norm = np.linalg.norm(new_res, axis=1)
        for _ in range(8):
            worse = new_norm > cur_norm
            if not worse.any():
                break
            scale[worse] *= 0.5
            new_t[worse] = ta[worse] - scale[worse, None] * step[worse]
            new_res[worse] = forward(at(rows[worse], new_t[worse])) - targets[rows[worse]]
            new_norm[worse] = np.linalg.norm(new_res[worse], axis=1)
        t[rows] = new_t
        res[rows] = new_res
        res_norm[rows] = new_norm
        active = res_norm > tol
    return t, res_norm <= tol
