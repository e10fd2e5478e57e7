"""Floating-point measure and inequality engine.

Verifies, at desk scale, the behavior the exact layer predicts: restricted
weak type ratios on torsion bands, weighted bilinear forms against step
functions, band-by-band summation profiles, the coarea identity along fiber
flows, and the two-dimensional counterexample where the growth of a truncated
ratio witnesses the failure of the strong-type bound.

All sampling is scrambled-Halton with explicit seeds; estimates carry
conservative MC-style standard errors.  Nothing here asserts the inequalities
of the theory with their (unknowable) constants: functions return reports and
the regression corpus pins acceptable windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .geometry import PolyMap
from .numeric import MapEvaluator
from .polycore import RatPoly
from .sampling import qmc_mean, scale_to_box
from .scenes import Box
from .torsion import TorsionProfile


class DegenerateRegion(ValueError):
    """Region has zero volume or an empty constraint set where mass is required."""


def _require_disjoint(boxes: Sequence[Box], message: str) -> None:
    """Raise ValueError(message) when two boxes share interior points."""
    for i, a in enumerate(boxes):
        for b in boxes[i + 1:]:
            if all(max(al, bl) < min(ah, bh)
                   for al, ah, bl, bh in zip(a.lo, a.hi, b.lo, b.hi)):
                raise ValueError(message)


@dataclass
class BoxUnion:
    """Finite union of pairwise disjoint boxes with exact total volume."""

    boxes: tuple[Box, ...]

    def __post_init__(self):
        _require_disjoint(self.boxes, "boxes in a union must be pairwise disjoint")

    def volume(self) -> Fraction:
        return sum((b.volume() for b in self.boxes), Fraction(0))

    def indicator(self, pts: np.ndarray) -> np.ndarray:
        out = np.zeros(len(pts), dtype=bool)
        for b in self.boxes:
            lo = np.array([float(x) for x in b.lo])
            hi = np.array([float(x) for x in b.hi])
            out |= np.all((pts >= lo) & (pts < hi), axis=1)
        return out


@dataclass
class StepFunction:
    """f = sum_k 2^k chi_(E^k) with pairwise disjoint box-union levels."""

    levels: tuple[tuple[int, BoxUnion], ...]

    def norm(self, p: Fraction | float) -> float:
        p = float(p)
        total = 0.0
        for k, eu in self.levels:
            total += (2.0**k) ** p * float(eu.volume())
        return total ** (1.0 / p)

    def values(self, pts: np.ndarray) -> np.ndarray:
        out = np.zeros(len(pts))
        for k, eu in self.levels:
            out[eu.indicator(pts)] = 2.0**k
        return out

    @classmethod
    def from_levels(cls, levels: Sequence[tuple[int, Sequence[Box]]]) -> "StepFunction":
        built = tuple((k, BoxUnion(tuple(bs))) for k, bs in levels)
        _require_disjoint([b for _, eu in built for b in eu.boxes],
                          "step function levels must be pairwise disjoint")
        return cls(built)

    @classmethod
    def indicator_box(cls, box: Box) -> "StepFunction":
        return cls(((0, BoxUnion((box,))),))


@dataclass
class RegionSpec:
    """Domain box with optional torsion band and preimage constraints."""

    domain: Box
    band: int | None = None          # rho in [2^band, 2^(band+1))
    e1: BoxUnion | None = None
    e2: BoxUnion | None = None


class WeightEvaluator(MapEvaluator):
    """rho_beta(x) = |J_beta(x)|^rho_exponent as a vectorized float map."""

    def __init__(self, profile: TorsionProfile):
        super().__init__((profile.J_beta,))
        self._exp = float(profile.rho_exponent)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        """pts: (m, nvars) -> (m,)."""
        return np.abs(self._eval(pts)[:, 0]) ** self._exp


def _band_mask(rho: np.ndarray, band: int | None) -> np.ndarray:
    if band is None:
        return np.ones(len(rho), dtype=bool)
    lo, hi = 2.0**band, 2.0 ** (band + 1)
    return (rho >= lo) & (rho < hi)


def measure(region: RegionSpec, pi1: PolyMap, pi2: PolyMap,
            profile: TorsionProfile | None, n_samples: int,
            seed: int = 0) -> dict:
    """QMC volume of the region: domain ∩ torsion band ∩ preimages."""
    box = region.domain
    if box.volume() == 0:
        raise DegenerateRegion("domain box has zero volume")
    lo = [float(x) for x in box.lo]
    hi = [float(x) for x in box.hi]
    n = box.dim
    ev1 = MapEvaluator(pi1.components)
    ev2 = MapEvaluator(pi2.components)
    weight = WeightEvaluator(profile) if profile is not None else None

    def f(u: np.ndarray) -> np.ndarray:
        x = scale_to_box(u, lo, hi)
        keep = np.ones(len(x), dtype=bool)
        if region.band is not None:
            if weight is None:
                raise DegenerateRegion("band constraint needs a torsion profile")
            keep &= _band_mask(weight(x), region.band)
        if region.e1 is not None:
            keep &= region.e1.indicator(ev1(x))
        if region.e2 is not None:
            keep &= region.e2.indicator(ev2(x))
        return keep.astype(float)

    mean, stderr, n_used = qmc_mean(f, n, n_samples, seed=seed)
    vol = float(box.volume())
    return {
        "estimate": mean * vol,
        "stderr": stderr * vol,
        "seed": seed,
        "samples": n_used,
    }


def rwt_ratio(e1: BoxUnion, e2: BoxUnion, profile: TorsionProfile,
              pi1: PolyMap, pi2: PolyMap, domain: Box, band: int | None,
              n_samples: int, seed: int = 0) -> dict:
    """Restricted weak type ratio |Omega| / (|E1|^(1/p1) |E2|^(1/p2)).

    Also reports the equivalent alpha-form alpha1^b1 alpha2^b2 / |Omega| when
    the region has positive estimated mass.
    """
    v1, v2 = float(e1.volume()), float(e2.volume())
    region = RegionSpec(domain=domain, band=band, e1=e1, e2=e2)
    m = measure(region, pi1, pi2, profile, n_samples, seed=seed)
    omega = m["estimate"]
    p1, p2 = [float(p) for p in profile.p]
    report = dict(m)
    report["E1_volume"] = v1
    report["E2_volume"] = v2
    if v1 == 0 or v2 == 0:
        report["ratio"] = 0.0
        report["verdict"] = "degenerate"
        return report
    report["ratio"] = omega / (v1 ** (1 / p1) * v2 ** (1 / p2))
    if omega > 0:
        a1, a2 = omega / v1, omega / v2
        b1, b2 = profile.b
        report["alpha_form"] = (a1**b1) * (a2**b2) / omega
    report["verdict"] = "ok"
    return report


def _form_factors(f1: StepFunction, f2: StepFunction, profile: TorsionProfile,
                  pi1: PolyMap, pi2: PolyMap, domain: Box):
    """u in [0,1)^n -> (f1(pi1 x) f2(pi2 x), rho_beta(x)) at x = u scaled to the domain."""
    lo = [float(x) for x in domain.lo]
    hi = [float(x) for x in domain.hi]
    ev1 = MapEvaluator(pi1.components)
    ev2 = MapEvaluator(pi2.components)
    weight = WeightEvaluator(profile)

    def factors(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = scale_to_box(u, lo, hi)
        return f1.values(ev1(x)) * f2.values(ev2(x)), weight(x)

    return factors


def bilinear_form(f1: StepFunction, f2: StepFunction, profile: TorsionProfile,
                  pi1: PolyMap, pi2: PolyMap, domain: Box,
                  n_samples: int, seed: int = 0,
                  band: int | None = None) -> dict:
    """B(f1,f2) = integral of f1(pi1 x) f2(pi2 x) rho_beta(x) over the domain."""
    factors = _form_factors(f1, f2, profile, pi1, pi2, domain)

    def f(u: np.ndarray) -> np.ndarray:
        g, rho = factors(u)
        if band is not None:
            rho = rho * _band_mask(rho, band)
        return g * rho

    mean, stderr, n_used = qmc_mean(f, domain.dim, n_samples, seed=seed)
    vol = float(domain.volume())
    B = mean * vol
    n1 = f1.norm(profile.p[0])
    n2 = f2.norm(profile.p[1])
    denom = n1 * n2
    return {
        "estimate": B,
        "stderr": stderr * vol,
        "norm1": n1,
        "norm2": n2,
        "ratio": B / denom if denom > 0 else 0.0,
        "seed": seed,
        "samples": n_used,
    }


def scale_profile(f1: StepFunction, f2: StepFunction, profile: TorsionProfile,
                  pi1: PolyMap, pi2: PolyMap, domain: Box,
                  m_range: Sequence[int], n_samples: int, seed: int = 0) -> dict:
    """Per-band weighted forms B_m over U_m = {rho in [2^m, 2^(m+1))}.

    One sample pass: each shard of points is drawn once and pi1, pi2 and
    rho_beta are evaluated once; every band's integrand is then cut from those
    values, so each row's B_m and stderr equal those of
    ``bilinear_form(..., band=m)`` bit for bit.

    Reports the band table, the straight sum against ||f1|| ||f2||, and the
    theta-power sum with theta = (1/p1 + 1/p2)^(-1) next to log(band count).
    """
    bands = [int(m) for m in m_range]
    factors = _form_factors(f1, f2, profile, pi1, pi2, domain)

    def f(u: np.ndarray):
        g, rho = factors(u)
        for m in bands:
            yield g * (rho * _band_mask(rho, m))

    stats = qmc_mean(f, domain.dim, n_samples, seed=seed)
    vol = float(domain.volume())
    rows = [{"m": m, "B_m": mean * vol, "stderr": stderr * vol}
            for m, (mean, stderr, _) in zip(bands, stats)]
    p1, p2 = [float(p) for p in profile.p]
    theta = 1.0 / (1.0 / p1 + 1.0 / p2)
    nonzero = [r for r in rows if r["B_m"] > 0]
    total = sum(r["B_m"] for r in rows)
    theta_sum = sum(r["B_m"] ** theta for r in nonzero)
    denom = f1.norm(profile.p[0]) * f2.norm(profile.p[1])
    return {
        "bands": rows,
        "theta": theta,
        "sum": total,
        "sum_ratio": total / denom if denom else 0.0,
        "theta_sum": theta_sum,
        "nonzero_bands": len(nonzero),
        "log_band_count": math.log(max(len(nonzero), 1)),
        "seed": seed,
        "samples": n_samples,
    }


# -- the 2D counterexample ------------------------------------------------------

def counterexample_2d(k: int, j_list: Sequence[int] | None = None,
                      upper_cut: float = 0.5, variant: str = "log") -> dict:
    """Truncated ratio growth for pi1 = x1, pi2 = x2^k against f2 blowing up.

    f2(y) = (y^(1/k) log(1/y))^(-1) on (delta, c], delta = 2^(-j); support
    reaching y = 1 would blow up the k-norm at the top end, so the cap c < 1
    keeps the norm finite while preserving the divergence at 0.
    The j grid grows geometrically: the ratio grows like log log(1/delta), so
    dyadic-in-delta steps alone move it too slowly to showcase the blowup.

    variant='plain' drops the log factor (bounded ratio control); k = 1 is the
    change-of-variables-bounded control.

    With u = log(1/y) every integral is elementary, so each row is a closed
    form over (uc, u_hi) = (log(1/c), log(1/delta)).  The log variant takes
    ||f2||_k^k in logs, so that large k stays finite.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if j_list is None:
        j_list = [4 * 2**i for i in range(16)]
    uc = math.log(1.0 / upper_cut)
    rows = []
    for j in j_list:
        u_hi = j * math.log(2.0)
        if u_hi <= uc:
            continue
        if variant == "log":
            # B = int du / (ku);  ||f2||_k^k = int u^(-k) du
            log_ratio = math.log(u_hi / uc)
            B = log_ratio / k
            if k == 1:
                norm = log_ratio
            else:
                log_nk = ((1 - k) * math.log(uc) + math.log1p(-(uc / u_hi) ** (k - 1))
                          - math.log(k - 1))
                norm = math.exp(log_nk / k)
        elif variant == "plain":
            # f2 = chi_((delta, c]): B = int e^(-u) du over (uc/k, u_hi/k),
            # ||f2||_k^k = int e^(-u) du over (uc, u_hi)
            B = -math.exp(-uc / k) * math.expm1((uc - u_hi) / k)
            norm = (-math.exp(-uc) * math.expm1(uc - u_hi)) ** (1.0 / k)
        else:
            raise ValueError(f"unknown variant {variant!r}")
        rows.append({"j": int(j), "delta": f"2^-{int(j)}", "B": B,
                     "norm_f2": norm, "ratio": B / norm if norm > 0 else 0.0})
    ratios = [r["ratio"] for r in rows]
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    return {
        "k": k,
        "variant": variant,
        "rows": rows,
        "strictly_increasing": increasing,
        "growth_factor": ratios[-1] / ratios[0] if ratios and ratios[0] > 0 else float("inf"),
        "verdict": "unbounded-growth" if increasing and len(rows) >= 3
        and ratios[-1] / ratios[0] > 2 else "bounded",
    }


# -- coarea cross-check -----------------------------------------------------------

def coarea_check(gamma: Sequence[RatPoly], x_box: Box, t_box: Box,
                 n_samples: int, seed: int = 0) -> dict:
    """Fiber-integral form of the volume of a box for the curve family.

    For pi2 = x - gamma(t), fibers are flow lines of the second field and the
    coarea identity reduces to |Omega| = int over (y, t) of chi(y + gamma(t)).
    Both sides are computed independently: the left exactly, the right by QMC
    over a bounding box of the section coordinates.
    """
    d = len(gamma)
    gam = MapEvaluator(gamma)
    t_lo, t_hi = float(t_box.lo[0]), float(t_box.hi[0])
    gvals = gam(np.linspace(t_lo, t_hi, 512)[:, None])
    y_lo = [float(x_box.lo[i]) - float(gvals[:, i].max()) for i in range(d)]
    y_hi = [float(x_box.hi[i]) - float(gvals[:, i].min()) for i in range(d)]
    lo = y_lo + [t_lo]
    hi = y_hi + [t_hi]

    def f(u: np.ndarray) -> np.ndarray:
        z = scale_to_box(u, lo, hi)
        x = z[:, :d] + gam(z[:, d:])
        keep = np.ones(len(z), dtype=bool)
        for i in range(d):
            keep &= (x[:, i] >= float(x_box.lo[i])) & (x[:, i] < float(x_box.hi[i]))
        return keep.astype(float)

    mean, stderr, n_used = qmc_mean(f, d + 1, n_samples, seed=seed)
    sect_vol = 1.0
    for a, b in zip(lo, hi):
        sect_vol *= b - a
    fiber_form = mean * sect_vol
    direct = float(x_box.volume() * t_box.volume())
    return {
        "direct": direct,
        "fiber_form": fiber_form,
        "stderr": stderr * sect_vol,
        "relative_error": abs(fiber_form - direct) / direct if direct else float("inf"),
        "seed": seed,
        "samples": n_used,
    }


def perturbation_ratios(a_values: Sequence, n_samples: int, seed: int = 0) -> dict:
    """Strong-type ratios across the perturbed-cubic family gamma_a.

    One fixed pair of indicator step functions, one domain; the spread
    max/min of the ratios is the uniformity probe.
    """
    from .scenes import perturbed_cubic_scene
    from .torsion import torsion_profile

    target_box = Box((Fraction(-2), Fraction(-2)), (Fraction(2), Fraction(2)))
    f1 = StepFunction.indicator_box(target_box)
    f2 = StepFunction.indicator_box(target_box)
    out = []
    for a in a_values:
        scene = perturbed_cubic_scene(a)
        table = scene.word_table()
        prof = torsion_profile(table, scene.beta)
        r = bilinear_form(f1, f2, prof, scene.pi1, scene.pi2, scene.domain,
                          n_samples=n_samples, seed=seed)
        out.append({"a": str(Fraction(a)), "ratio": r["ratio"],
                    "estimate": r["estimate"]})
    ratios = [row["ratio"] for row in out]
    return {
        "rows": out,
        "max_over_min": max(ratios) / min(ratios) if min(ratios) > 0 else float("inf"),
        "seed": seed,
        "samples": n_samples,
    }
