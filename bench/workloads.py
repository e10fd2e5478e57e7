"""The four benchmark workloads: fixed torsion-lab job lists and their inputs.

Every workload is a list of CLI jobs.  ``build(workload, seed, workdir)``
writes the input scene and polynomial files the jobs read into ``workdir`` and
returns the jobs.  The seed only reaches the program through these inputs:

* the Halton scramble seed of every ``verify`` and ``ccball`` job,
* the rational coefficients of the seeded curve scene in ``exact-moment``,
* the rational roots of the seeded family in ``polyalg-cover``.

Seeded inputs are drawn from ``variant(seed)``, one of ``VARIANTS`` variants,
so that every seed has golden reports kept with the benchmark.  The fixed
moment, verify and corpus jobs do not depend on the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path

WORKLOADS = ("exact-moment", "verify-bands", "ccball-cover", "polyalg-cover")
VARIANTS = 16
VERIFY_SAMPLES = 1 << 18    # four full 65,536-point batches per estimator


@dataclass(frozen=True)
class Job:
    id: str                  # unique within the workload; names the report file
    argv: tuple[str, ...]    # torsion-lab arguments, without --out
    seeded: bool = False     # the report depends on the seed variant
    poly: str | None = None  # monomialize input file, for the cover check


def variant(seed: int) -> int:
    return seed % VARIANTS


def build(workload: str, seed: int, workdir: Path) -> list[Job]:
    """Write the workload's input files into ``workdir`` and return its jobs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    workdir.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[workload](variant(seed), workdir)


def _write(path: Path, data) -> str:
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return str(path)


def _poly_json(coeffs) -> dict:
    """One-variable polynomial (constant term first) in the CLI's JSON form."""
    terms = [{"exp": [k], "num": str(F(c).numerator), "den": str(F(c).denominator)}
             for k, c in enumerate(coeffs) if c]
    return {"nvars": 1, "terms": terms}


# -- exact-moment ---------------------------------------------------------------

def seeded_curve(v: int) -> list[list[F]]:
    """gamma(t) = (t + a t^2, b t^2 + c t^3) with small nonzero rationals."""
    rng = random.Random(1000 + v)

    def coef() -> F:
        return F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))

    return [[F(0), F(1), coef()], [F(0), F(0), coef(), coef()]]


def _exact_moment(v: int, workdir: Path) -> list[Job]:
    from torsionlab.scenes import curve_maps, moment_curve_scene, Scene

    scenes = {name: f"builtin:{name}"
              for name in ("moment2", "moment3", "power2d_k2", "power2d_k3")}
    for d in (4, 5):
        scenes[f"moment{d}"] = _write(workdir / f"moment{d}.json",
                                      moment_curve_scene(d).to_json_dict())
    pi1, pi2 = curve_maps(seeded_curve(v))
    curve = Scene(pi1=pi1, pi2=pi2, beta=(0, 1, 0), cap=6, name=f"curve-v{v}")
    scenes["curve"] = _write(workdir / "curve.json", curve.to_json_dict())

    jobs = []
    for name in ("moment2", "moment3", "power2d_k2", "power2d_k3", "moment4"):
        for cmd in ("fields", "torsion", "polytope", "malcev"):
            jobs.append(Job(f"{cmd}-{name}", (cmd, "--scene", scenes[name])))
    for name in ("moment5", "curve"):
        for cmd in ("torsion", "fields"):
            jobs.append(Job(f"{cmd}-{name}", (cmd, "--scene", scenes[name]),
                            seeded=name == "curve"))
    return jobs


# -- verify-bands ---------------------------------------------------------------

def _verify_bands(v: int, workdir: Path) -> list[Job]:
    from torsionlab.scenes import Box, Scene, curve_maps, moment_curve_scene

    # panel 3 of scripts/inequality_sweep.py: the degenerate cubic (t, t^3)
    pi1, pi2 = curve_maps([[0, 1], [0, 0, 0, 1]])
    cubic = Scene(pi1=pi1, pi2=pi2, beta=(0, 1, 0), cap=6, name="cubic_t3")
    cubic.domain = Box((F(-1),) * 3, (F(1),) * 3)
    square = Box((F(-2), F(-2)), (F(2), F(2)))
    cubic.f1 = [(0, [square])]
    cubic.f2 = [(0, [square])]
    cubic_path = _write(workdir / "cubic.json", cubic.to_json_dict())

    m2 = moment_curve_scene(2)
    m2.e1 = [Box((F(0), F(0)), (F(1, 2), F(1, 4)))]
    m2.e2 = [Box((F(0), F(0)), (F(1, 2), F(1, 4)))]
    m2.f1 = [(1, [Box((F(0), F(0)), (F(1, 2), F(1)))]),
             (0, [Box((F(1, 2), F(0)), (F(1), F(1)))])]
    m2.f2 = [(0, [Box((F(0), F(0)), (F(1), F(1)))])]
    m2_path = _write(workdir / "moment2-boxes.json", m2.to_json_dict())

    seed = ("--seed", str(v + 1), "--samples", str(VERIFY_SAMPLES))
    return [
        Job("scales-cubic", ("verify", "scales", "--scene", cubic_path,
                             "--bands=-6:2") + seed, seeded=True),
        Job("rwt-moment2", ("verify", "rwt", "--scene", m2_path) + seed, seeded=True),
        Job("strong-moment2", ("verify", "strong", "--scene", m2_path) + seed,
            seeded=True),
        Job("counterexample2d", ("verify", "counterexample2d", "--k", "2")),
    ]


# -- ccball-cover ---------------------------------------------------------------

def _ccball_cover(v: int, workdir: Path) -> list[Job]:
    base = ("ccball", "--scene", "builtin:moment2", "--seed", str(v + 1))
    return [
        Job("cover-rho0.25", base + ("--check", "cover", "--grid", "3",
                                     "--rho", "0.25"), seeded=True),
        Job("cover-rho16", base + ("--check", "cover", "--grid", "3",
                                   "--rho", "16"), seeded=True),
        Job("doubling", base + ("--check", "doubling", "--x2", "0,0,1/64",
                                "--samples", "2000"), seeded=True),
        Job("sample", base + ("--check", "sample", "--samples", "100000"),
            seeded=True),
    ]


# -- polyalg-cover --------------------------------------------------------------

def _mul(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _prod(*ps):
    out = [F(1)]
    for p in ps:
        out = _mul(out, p)
    return out


def _lin(r) -> list[F]:
    """t - r"""
    return [-F(r), F(1)]


# the 10-family corpus of acceptance criterion 9 (tests/test_acceptance.py)
CORPUS = [
    [[0, 1]],
    [[-1, 0, 1]],
    [[0, 1], [-1, 1]],
    [[0, -1, 0, 1]],
    [[1, 0, 1]],
    [_prod([-1, 2], [2, 1])],
    [_prod(_lin(1), _lin(2), _lin(4))],
    [_prod([-1, 0, 1], [F(-1, 4), 0, 1])],
    [[1, 5], [0, 0, 3]],
    [[0, -2, 1, 1]],
]


def seeded_family(v: int) -> list[list[F]]:
    """[(t - r1)(t - r2), t - r3] with distinct rational roots in [-4, 4]."""
    rng = random.Random(2000 + v)
    roots: list[F] = []
    while len(roots) < 3:
        r = F(rng.randint(-8, 8), rng.choice([2, 4]))
        if r not in roots:
            roots.append(r)
    return [_prod(_lin(roots[0]), _lin(roots[1])), _lin(roots[2])]


def _polyalg_cover(v: int, workdir: Path) -> list[Job]:
    families = [(f"corpus{i}", fam) for i, fam in enumerate(CORPUS)]
    families.append(("seeded", seeded_family(v)))
    jobs = []
    for name, fam in families:
        path = _write(workdir / f"{name}.json", [_poly_json(p) for p in fam])
        jobs.append(Job(f"monomialize-{name}",
                        ("polyalg", "monomialize", "--poly", path, "--eps", "0.1"),
                        seeded=name == "seeded", poly=path))
    return jobs


_BUILDERS = {
    "exact-moment": _exact_moment,
    "verify-bands": _verify_bands,
    "ccball-cover": _ccball_cover,
    "polyalg-cover": _polyalg_cover,
}
