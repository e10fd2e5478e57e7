"""Float-side helpers: vectorized polynomial evaluation and Newton preimages.

Exact objects cross into floating point exactly here, through one evaluator
that maps an (m, nvars) array of points to an (m, ncomps) array of values,
with the same float operations on every row whatever the batch.  The Newton
solver batches damped iterations over many target points at once, which is
what ball-membership testing needs.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .polycore import RatPoly


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
        out = np.zeros((m, len(self._terms)))
        for j, terms in enumerate(self._terms):
            for c, factors in terms:
                term = np.full(m, c)
                for i, e in factors:
                    term = term * (points[:, i] if e == 1 else points[:, i] ** e)
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


def newton_preimage(
    forward: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
    targets: np.ndarray,
    start: np.ndarray,
    tol: float = 1e-9,
    max_iter: int = 60,
) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton solve forward(t) = target, batched over targets.

    ``start`` may be a single point (broadcast) or one start per target.
    Returns (solutions, converged mask); non-converged rows hold the last
    iterate.  Steps are halved until the residual decreases (at most 8
    halvings per iteration).
    """
    targets = np.asarray(targets, dtype=float)
    m, n = targets.shape
    t = np.broadcast_to(np.asarray(start, dtype=float), (m, n)).copy()
    res = forward(t) - targets
    res_norm = np.linalg.norm(res, axis=1)
    active = res_norm > tol
    for _ in range(max_iter):
        if not active.any():
            break
        ta = t[active]
        ra = res[active]
        Ja = jacobian(ta)
        try:
            step = np.linalg.solve(Ja, ra[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # singular rows fall back to least-squares via the pseudoinverse
            step = np.einsum("mij,mj->mi", np.linalg.pinv(Ja), ra)
        # guard singular rows elementwise
        bad = ~np.isfinite(step).all(axis=1)
        step[bad] = 0.0
        scale = np.ones(len(ta))
        cur_norm = np.linalg.norm(ra, axis=1)
        new_t = ta - step
        new_res = forward(new_t) - targets[active]
        new_norm = np.linalg.norm(new_res, axis=1)
        for _ in range(8):
            worse = new_norm > cur_norm
            if not worse.any():
                break
            scale[worse] *= 0.5
            new_t[worse] = ta[worse] - scale[worse, None] * step[worse]
            new_res[worse] = forward(new_t[worse]) - targets[active][worse]
            new_norm[worse] = np.linalg.norm(new_res[worse], axis=1)
        t[active] = new_t
        res[active] = new_res
        res_norm[active] = new_norm
        active = res_norm > tol
    return t, res_norm <= tol
