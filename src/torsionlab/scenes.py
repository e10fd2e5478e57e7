"""Scene files: JSON descriptions of a map pair plus verification inputs.

A scene bundles the two polynomial maps with optional beta, domain boxes,
target sets, step functions, and sampling defaults.  Built-in constructors
cover the standard examples (moment curves, perturbed cubics, the
two-dimensional power map) so the command line and tests share one source.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .geometry import PolyMap, PolyVectorField, build_word_table, hodge_star_field
from .polycore import RatPoly


class SceneValidationError(ValueError):
    """Scene JSON failed validation; message carries the offending path."""


def _frac(v, path: str) -> Fraction:
    try:
        if isinstance(v, str):
            return Fraction(v)
        if isinstance(v, int) and not isinstance(v, bool):
            return Fraction(v)
    except (ValueError, ZeroDivisionError) as e:
        raise SceneValidationError(f"{path}: bad rational {v!r} ({e})") from None
    raise SceneValidationError(f"{path}: expected rational as string or int, got {type(v).__name__}")


def _int(v, path: str) -> int:
    """An integer field, given as a JSON integer or a decimal string."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, str):
        try:
            return int(v)
        except ValueError:
            pass
    raise SceneValidationError(f"{path}: expected an integer, got {v!r}")


def _list(v, path: str) -> list:
    """A JSON list field; a string would otherwise be read per character."""
    if not isinstance(v, list):
        raise SceneValidationError(f"{path}: expected a list, got {v!r}")
    return v


@dataclass
class Box:
    lo: tuple[Fraction, ...]
    hi: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise SceneValidationError("box lo/hi length mismatch")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise SceneValidationError("box must be nondegenerate (hi > lo)")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def volume(self) -> Fraction:
        v = Fraction(1)
        for l, h in zip(self.lo, self.hi):
            v *= h - l
        return v

    @classmethod
    def from_json(cls, data, path: str = "box") -> "Box":
        if not isinstance(data, dict) or "lo" not in data or "hi" not in data:
            raise SceneValidationError(f"{path}: expected {{'lo': [...], 'hi': [...]}}")
        lo = tuple(_frac(v, f"{path}.lo[{i}]")
                   for i, v in enumerate(_list(data["lo"], f"{path}.lo")))
        hi = tuple(_frac(v, f"{path}.hi[{i}]")
                   for i, v in enumerate(_list(data["hi"], f"{path}.hi")))
        return cls(lo, hi)

    def to_json_dict(self) -> dict:
        return {"lo": [str(x) for x in self.lo], "hi": [str(x) for x in self.hi]}


@dataclass
class Scene:
    pi1: PolyMap
    pi2: PolyMap
    beta: tuple[int, ...] | None = None
    cap: int = 6
    domain: Box | None = None
    e1: list[Box] = field(default_factory=list)
    e2: list[Box] = field(default_factory=list)
    f1: list[tuple[int, list[Box]]] = field(default_factory=list)
    f2: list[tuple[int, list[Box]]] = field(default_factory=list)
    alpha: tuple[Fraction, Fraction] | None = None
    seed: int = 0
    samples: int = 1 << 16
    name: str = ""

    @property
    def dim(self) -> int:
        return self.pi1.source_dim

    def fields(self) -> tuple[PolyVectorField, PolyVectorField]:
        return hodge_star_field(self.pi1), hodge_star_field(self.pi2)

    def word_table(self):
        x1, x2 = self.fields()
        return build_word_table(x1, x2, self.cap)

    def to_json_dict(self) -> dict:
        out = {
            "pi1": self.pi1.to_json_dict(),
            "pi2": self.pi2.to_json_dict(),
            "cap": self.cap,
            "seed": self.seed,
            "samples": self.samples,
        }
        if self.name:
            out["name"] = self.name
        if self.beta is not None:
            out["beta"] = list(self.beta)
        if self.domain is not None:
            out["domain"] = self.domain.to_json_dict()
        for key, boxes in (("e1", self.e1), ("e2", self.e2)):
            if boxes:
                out[key] = [b.to_json_dict() for b in boxes]
        for key, levels in (("f1", self.f1), ("f2", self.f2)):
            if levels:
                out[key] = [
                    {"k": k, "boxes": [b.to_json_dict() for b in bs]}
                    for k, bs in levels
                ]
        if self.alpha is not None:
            out["alpha"] = [str(a) for a in self.alpha]
        return out


def _levels_from_json(data, path: str) -> list[tuple[int, list[Box]]]:
    out = []
    for i, lvl in enumerate(data):
        if "k" not in lvl or "boxes" not in lvl:
            raise SceneValidationError(f"{path}[{i}]: need 'k' and 'boxes'")
        out.append(
            (_int(lvl["k"], f"{path}[{i}].k"),
             [Box.from_json(b, f"{path}[{i}].boxes[{j}]") for j, b in enumerate(lvl["boxes"])])
        )
    return out


def scene_from_json_dict(data: dict) -> Scene:
    maps = []
    for key in ("pi1", "pi2"):
        if key not in data:
            raise SceneValidationError(f"scene missing required key {key!r}")
        try:
            maps.append(PolyMap.from_json_dict(data[key]))
        except (KeyError, TypeError, ValueError) as e:
            raise SceneValidationError(f"{key}: bad polynomial map: {e}") from None
    pi1, pi2 = maps
    if pi1.source_dim != pi2.source_dim:
        raise SceneValidationError("pi1 and pi2 disagree on the source dimension")
    scene = Scene(pi1=pi1, pi2=pi2)
    if "name" in data:
        scene.name = str(data["name"])
    if "beta" in data:
        scene.beta = tuple(_int(b, f"beta[{i}]")
                           for i, b in enumerate(_list(data["beta"], "beta")))
        if any(b < 0 for b in scene.beta):
            raise SceneValidationError(f"beta entries must be nonnegative, got {list(scene.beta)}")
        if len(scene.beta) != pi1.source_dim:
            raise SceneValidationError("beta length must equal the dimension")
    if "cap" in data:
        scene.cap = _int(data["cap"], "cap")
    if "domain" in data:
        scene.domain = Box.from_json(data["domain"], "domain")
        if scene.domain.dim != pi1.source_dim:
            raise SceneValidationError("domain dimension mismatch")
    for key in ("e1", "e2"):
        if key in data:
            boxes = [Box.from_json(b, f"{key}[{i}]") for i, b in enumerate(data[key])]
            if any(b.dim != pi1.source_dim - 1 for b in boxes):
                raise SceneValidationError(f"{key} boxes must live in the target space")
            setattr(scene, key, boxes)
    for key in ("f1", "f2"):
        if key in data:
            setattr(scene, key, _levels_from_json(data[key], key))
    if "alpha" in data:
        a = _list(data["alpha"], "alpha")
        if len(a) != 2:
            raise SceneValidationError("alpha must be a pair")
        scene.alpha = (_frac(a[0], "alpha[0]"), _frac(a[1], "alpha[1]"))
    if "seed" in data:
        scene.seed = _int(data["seed"], "seed")
    if "samples" in data:
        scene.samples = _int(data["samples"], "samples")
        if scene.samples < 1:
            raise SceneValidationError(f"samples must be at least 1, got {scene.samples}")
    return scene


def load_scene(path: str) -> Scene:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise SceneValidationError(
                f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}"
            ) from None
    return scene_from_json_dict(data)


# -- built-in families --------------------------------------------------------


def curve_maps(gamma_coeffs: Sequence[Sequence]) -> tuple[PolyMap, PolyMap]:
    """Translation-invariant pair pi1 = x, pi2 = x - gamma(t) on R^(d+1)."""
    d = len(gamma_coeffs)
    n = d + 1
    xs = RatPoly.variables(n)
    t = xs[-1]
    comps2 = []
    for i, coeffs in enumerate(gamma_coeffs):
        g = RatPoly.zero(n)
        for k, c in enumerate(coeffs):
            g = g + RatPoly.const(n, Fraction(c)) * t**k
        comps2.append(xs[i] - g)
    pi1 = PolyMap(tuple(xs[:d]))
    pi2 = PolyMap(tuple(comps2))
    return pi1, pi2


def moment_curve_scene(d: int) -> Scene:
    """gamma(t) = (t, t^2, ..., t^d); the canonical example family."""
    coeffs = []
    for i in range(1, d + 1):
        c = [0] * (i + 1)
        c[i] = 1
        coeffs.append(c)
    pi1, pi2 = curve_maps(coeffs)
    n = d + 1
    beta = tuple(_moment_beta(d))
    scene = Scene(pi1=pi1, pi2=pi2, beta=beta, cap=d + 2, name=f"moment{d}")
    scene.domain = Box(tuple(Fraction(0) for _ in range(n)),
                       tuple(Fraction(1) for _ in range(n)))
    return scene


def _moment_beta(d: int) -> list[int]:
    """Multiindex hitting the nondegenerate torsion of the moment curve.

    For the alternating flow map in n = d+1 variables, beta = (0,1,2,...,d-1,0)
    reproduces the Wronskian det(gamma', ..., gamma^(d)) up to a constant; for
    d = 2 this is (0,1,0).
    """
    return [0] + list(range(1, d)) + [0]


def perturbed_cubic_scene(a: Fraction | int | str) -> Scene:
    """gamma_a(t) = (t, t^2 + a t^3): the uniformity-probe family."""
    a = Fraction(a)
    pi1, pi2 = curve_maps([[0, 1], [0, 0, 1, a]])
    scene = Scene(pi1=pi1, pi2=pi2, beta=(0, 1, 0), cap=5, name=f"cubic_a={a}")
    scene.domain = Box(tuple(Fraction(-1) for _ in range(3)),
                       tuple(Fraction(1) for _ in range(3)))
    return scene


def power2d_scene(k: int) -> Scene:
    """pi1 = x1, pi2 = x2^k on R^2: the strong-type failure example."""
    xs = RatPoly.variables(2)
    pi1 = PolyMap((xs[0],))
    pi2 = PolyMap((xs[1] ** k,))
    scene = Scene(pi1=pi1, pi2=pi2, beta=(k - 1, 0), cap=k + 2, name=f"power2d_k={k}")
    scene.domain = Box((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)))
    return scene


_BUILTINS = {
    "moment2": lambda: moment_curve_scene(2),
    "moment3": lambda: moment_curve_scene(3),
    "moment4": lambda: moment_curve_scene(4),
    "moment5": lambda: moment_curve_scene(5),
    "power2d_k2": lambda: power2d_scene(2),
    "power2d_k3": lambda: power2d_scene(3),
}


def builtin_scene(name: str) -> Scene:
    if name not in _BUILTINS:
        raise SceneValidationError(
            f"unknown builtin scene {name!r}; available: {sorted(_BUILTINS)}"
        )
    return _BUILTINS[name]()
