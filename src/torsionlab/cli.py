"""torsion-lab: one executable over the exact core and the numeric verifier.

Subcommands mirror the library modules:

    fields            word table summary for a map pair
    torsion           J^beta profile {b, p, J_beta, rho_exponent}
    polytope          generators, extreme and minimal points, weights
    ccball            ball sampling / doubling / covering probes
    malcev            abstract algebra, group law, covering map
    polyalg           monomialize | refine | extract | sublevel
    verify            rwt | strong | scales | counterexample2d

Scenes are JSON files (see scenes.py) or builtin:<name>.  Reports are JSON on
stdout, deterministic for fixed inputs and seeds: keys are sorted and all
randomness flows through the seeded low-discrepancy sampler.

Exit codes: 0 success, 2 validation error, 3 numeric inconclusiveness.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .geometry import (
    NonTerminatingSeries,
    NotNilpotentWithinCap,
    build_word_table,
    nilpotency_step,
)
from .polycore import RatPoly
from .polytope import TupleBudgetExceeded
from .scenes import (
    Scene,
    SceneValidationError,
    builtin_scene,
    load_scene,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INCONCLUSIVE = 3
# largest |band| whose edges 2.0 ** band and 2.0 ** (band + 1) are normal floats
MAX_BAND = sys.float_info.max_exp - 2


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_VALIDATION):
        super().__init__(message)
        self.code = code


def dump_report(data, out: str | None) -> None:
    text = json.dumps(data, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _scene_from_args(args) -> Scene:
    if args.scene:
        if args.scene.startswith("builtin:"):
            return builtin_scene(args.scene.split(":", 1)[1])
        return load_scene(args.scene)
    if args.pi1 and args.pi2:
        from .geometry import PolyMap

        def load_map(path):
            with open(path) as fh:
                return PolyMap.from_json_dict(json.load(fh))

        return Scene(pi1=load_map(args.pi1), pi2=load_map(args.pi2))
    raise CliError("need --scene or both --pi1 and --pi2")


def _parse_vector(text: str, what: str) -> list[Fraction]:
    try:
        return [Fraction(x) for x in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise CliError(f"bad {what}: {text!r} (expected comma-separated rationals)")


def _parse_point(text: str | None, what: str, dim: int) -> list[Fraction]:
    """A point of the scene's space; the origin when the option is absent."""
    if not text:
        return [Fraction(0)] * dim
    point = _parse_vector(text, what)
    if len(point) != dim:
        raise CliError(f"bad {what}: {text!r} has {len(point)} coordinates, "
                       f"expected {dim}")
    return point


def _parse_eps(text: str) -> Fraction:
    """--eps as a rational in (0, 1), rounded to denominator at most 10^6."""
    bad = CliError(f"bad --eps: {text!r} (expected a rational in (0, 1))")
    try:
        eps = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise bad from None
    if not 0 < eps < 1:
        raise bad
    rounded = eps.limit_denominator(10**6)
    if not 0 < rounded < 1:
        raise CliError(f"bad --eps: {text!r} rounds to {rounded} at denominator "
                       f"at most 10^6 (expected a value in (0, 1))")
    return rounded


def _parse_bands(text: str) -> range:
    bad = CliError(f"bad --bands: {text!r} (expected M0:M1, integers with "
                   f"{-MAX_BAND} <= M0 <= M1 <= {MAX_BAND})")
    try:
        m0, m1 = (int(x) for x in text.split(":"))
    except ValueError:
        raise bad from None
    if not -MAX_BAND <= m0 <= m1 <= MAX_BAND:
        raise bad
    return range(m0, m1 + 1)


def _parse_beta(args, scene: Scene) -> tuple[int, ...]:
    if args.beta:
        bad = CliError(f"bad --beta: {args.beta!r} (expected comma-separated nonnegative integers)")
        try:
            beta = tuple(int(x) for x in args.beta.split(","))
        except ValueError:
            raise bad from None
        if min(beta) < 0:
            raise bad
        if len(beta) != scene.dim:
            raise CliError(f"bad --beta: {args.beta!r} has {len(beta)} entries, "
                           f"expected {scene.dim}")
        return beta
    if scene.beta is not None:
        return scene.beta
    raise CliError("no beta: pass --beta or use a scene that declares one")


def cmd_fields(args) -> tuple[dict, int]:
    if args.cap is not None and args.cap < 1:
        raise CliError(f"--cap must be at least 1, got {args.cap}")
    scene = _scene_from_args(args)
    cap = scene.cap if args.cap is None else args.cap
    x1, x2 = scene.fields()
    table = build_word_table(x1, x2, cap)
    summary = table.summary()
    try:
        summary["certified_step"] = nilpotency_step(table)
    except NotNilpotentWithinCap as e:
        summary["certified_step"] = None
        summary["note"] = str(e)
    if args.full:
        summary["fields"] = table.to_json_dict()
    return summary, EXIT_OK if summary["certified_step"] is not None else EXIT_INCONCLUSIVE


def cmd_torsion(args) -> tuple[dict, int]:
    from .torsion import torsion_profile

    scene = _scene_from_args(args)
    beta = _parse_beta(args, scene)
    table = scene.word_table()
    prof = torsion_profile(table, beta, reversed_order=args.reversed)
    return prof.to_json_dict(), EXIT_OK


def cmd_polytope(args) -> tuple[dict, int]:
    from .polytope import extreme_and_minimal, lambda_table, newton_polytope, weight_spec

    scene = _scene_from_args(args)
    table = scene.word_table()
    nilpotency_step(table)
    entries = lambda_table(table)
    poly = newton_polytope(entries, "union")
    report = {
        "generators": [list(g) for g in sorted({tuple(e.deg) for e in entries})],
        "classes": [
            {"words": [list(w) for w in e.words], "deg": list(e.deg)}
            for e in entries
        ],
    }
    em = {"extreme": [], "minimal": []} if poly.is_empty() else extreme_and_minimal(poly)
    report["extreme"] = [[int(x) if x.denominator == 1 else str(x) for x in p]
                         for p in em["extreme"]]
    report["minimal"] = [list(p) for p in em["minimal"]]
    report["weights"] = [weight_spec(entries, b).to_json_dict() for b in em["minimal"]]
    return report, EXIT_OK


def cmd_ccball(args) -> tuple[dict, int]:
    from .ccballs import BallSpec, ball_sample, doubling_check, vitali_cover
    from .polytope import lambda_table

    scene = _scene_from_args(args)
    table = scene.word_table()
    nilpotency_step(table)
    seed = scene.seed if args.seed is None else args.seed
    samples = args.samples or 10_000
    if args.check == "sample":
        if args.spec:
            with open(args.spec) as fh:
                raw = json.load(fh)
            spec = BallSpec(
                center=tuple(Fraction(c) for c in raw["center"]),
                words=tuple(tuple(int(a) for a in w) for w in raw["words"]),
                alpha=tuple(Fraction(a) for a in raw["alpha"]),
            )
        else:
            entries = lambda_table(table)
            if not entries:
                raise CliError("no nonzero lambda classes; supply --spec")
            spec = BallSpec(center=(Fraction(0),) * scene.dim, words=entries[0].words,
                            alpha=scene.alpha or (Fraction(1), Fraction(1)))
        return ball_sample(table, spec, samples, seed=seed).to_json_dict(), EXIT_OK
    entries = lambda_table(table)
    if args.check == "doubling":
        x1 = _parse_point(args.x1, "--x1", scene.dim)
        x2 = _parse_point(args.x2, "--x2", scene.dim)
        if not entries:
            raise CliError("no nonzero lambda classes; the doubling check "
                           "takes its ball words from one")
        words = entries[0].words
        report = doubling_check(
            table, entries, x1, x2, words, words,
            rho=args.rho, delta=args.delta,
            n_samples=min(samples, 2000), seed=seed, c=args.c,
        )
        return report, EXIT_OK if report["verdict"] in ("Pass", "NotApplicable") \
            else EXIT_INCONCLUSIVE
    report = vitali_cover(table, entries, [-0.5] * scene.dim, [0.5] * scene.dim,
                          rho=args.rho, delta=args.delta, grid=args.grid, c=args.c,
                          seed=seed)
    return report, EXIT_OK


def cmd_malcev(args) -> tuple[dict, int]:
    from .nilpotent import (
        SingularAtOrigin,
        abstract_algebra,
        covering_map,
        group_law,
        isotropy_subalgebra,
        weak_malcev,
    )

    scene = _scene_from_args(args)
    alg = abstract_algebra(scene.word_table())
    x0 = _parse_point(args.x0, "--x0", scene.dim)
    report = {
        "dim": alg.dim,
        "step": alg.step,
        "basis_words": [list(w) for w in alg.basis_words],
    }
    z = isotropy_subalgebra(alg, x0)
    basis = weak_malcev(alg, z)
    report["malcev_split"] = basis.split
    report["malcev_elements"] = [[str(c) for c in e] for e in basis.elements]
    gl = group_law(basis)
    report["group_law_q"] = [q.to_json_dict() for q in gl.q]
    report["group_law_r"] = [r.to_json_dict() for r in gl.r]
    try:
        cm = covering_map(basis, x0)
        report["covering_map"] = [m.to_json_dict() for m in cm.map]
        report["covering_jacobian_at_0"] = str(cm.jacobian_det_at_origin)
        report["covering_diagnostics"] = {
            k: (v if not isinstance(v, Fraction) else str(v))
            for k, v in cm.diagnostics.items()
        }
    except SingularAtOrigin as e:
        report["covering_map"] = None
        report["covering_error"] = str(e)
    return report, EXIT_OK


def cmd_polyalg(args) -> tuple[dict, int]:
    from . import polyalg as pa

    option = {"monomialize": "poly", "sublevel": "poly", "refine": "set",
              "extract": "coeffs"}[args.algorithm]
    if getattr(args, option) is None:
        raise CliError(f"polyalg {args.algorithm} needs --{option}")
    if args.algorithm == "monomialize":
        eps = _parse_eps(args.eps)
        with open(args.poly) as fh:
            data = json.load(fh)
        polys = [RatPoly.from_json_dict(p) for p in (data if isinstance(data, list) else [data])]
        cover = pa.monomialize(polys, eps)
        report = {
            "eps": str(cover.eps),
            "pieces": [
                {
                    "lo": None if p.lo is None else str(p.lo),
                    "hi": None if p.hi is None else str(p.hi),
                    "center": str(p.center),
                    "exponents": list(p.exponents),
                }
                for p in cover.pieces
            ],
            "diagnostics": cover.diagnostics,
        }
        return report, EXIT_OK if cover.diagnostics.get("uncertified_pieces", 0) == 0 \
            else EXIT_INCONCLUSIVE
    if args.algorithm == "refine":
        try:
            S = pa.IntervalSet.from_pairs(json.loads(args.set))
        except (TypeError, ValueError, ZeroDivisionError):
            raise CliError(f"bad --set: {args.set!r} (expected a JSON list of "
                           f"[lo, hi] pairs of rationals)") from None
        try:
            c = Fraction(args.c).limit_denominator(1000)
        except (ValueError, ZeroDivisionError):
            raise CliError(f"bad --c: {args.c!r} (expected a rational)") from None
        try:
            r = pa.refine_interval(S, c=c)
        except pa.HypothesisNotMet as e:
            raise CliError(f"bad --set: {args.set!r} ({e})") from None
        report = {
            "J": [str(r["J"][0]), str(r["J"][1])],
            "K": [str(r["K"][0]), str(r["K"][1])],
            "S_in_J": str(r["S_in_J"]),
            "S_in_K": str(r["S_in_K"]),
            "achieved_J_fraction": str(r["achieved_J_fraction"]),
            "iterations": r["iterations"],
        }
        return report, EXIT_OK
    if args.algorithm == "extract":
        coeffs = _parse_vector(args.coeffs, "--coeffs")
        if min(coeffs) < 0:
            raise CliError(f"bad --coeffs: {args.coeffs!r} (expected nonnegative rationals)")
        if args.k < 0:
            raise CliError(f"--k must be nonnegative, got {args.k}")
        r = pa.extract_two_terms(coeffs, args.k)
        report = {
            "kind": r.kind,
            "holds": r.holds,
            "n1": r.n1,
            "n2": r.n2,
            "achieved": None if r.achieved is None else str(r.achieved),
            "counterexample": None if r.counterexample is None else str(r.counterexample),
        }
        return report, EXIT_OK
    with open(args.poly) as fh:
        data = json.load(fh)
    if isinstance(data, list):
        if len(data) != 1:
            raise CliError("sublevel expects a single polynomial")
        data = data[0]
    poly = RatPoly.from_json_dict(data)
    return pa.sublevel_sweep(poly, n_samples=args.samples, seed=args.seed), EXIT_OK


def cmd_verify(args) -> tuple[dict, int]:
    from .torsion import torsion_profile
    from .verify import (
        BoxUnion,
        StepFunction,
        bilinear_form,
        counterexample_2d,
        rwt_ratio,
        scale_profile,
    )

    if args.inequality == "counterexample2d":
        if args.k < 1:
            raise CliError(f"--k must be at least 1, got {args.k}")
        if args.k > sys.float_info.max:
            # the closed forms take k as a float
            raise CliError(f"--k must be at most {sys.float_info.max:g}, "
                           f"got a {len(str(args.k))}-digit integer")
        return counterexample_2d(args.k), EXIT_OK
    if args.band is not None and not -MAX_BAND <= args.band <= MAX_BAND:
        raise CliError(f"--band must lie in [{-MAX_BAND}, {MAX_BAND}], got {args.band}")
    bands = _parse_bands(args.bands) if args.inequality == "scales" else None
    scene = _scene_from_args(args)
    if scene.domain is None:
        raise CliError("scene needs a 'domain' box for verification")
    beta = _parse_beta(args, scene)
    table = scene.word_table()
    prof = torsion_profile(table, beta)
    seed = args.seed if args.seed is not None else scene.seed
    samples = args.samples if args.samples is not None else scene.samples
    # every estimator takes the torsion profile, the map pair and the domain
    setting = (prof, scene.pi1, scene.pi2, scene.domain)
    if args.inequality == "rwt":
        if not scene.e1 or not scene.e2:
            raise CliError("rwt needs e1 and e2 box unions in the scene")
        report = rwt_ratio(BoxUnion(tuple(scene.e1)), BoxUnion(tuple(scene.e2)), *setting,
                           band=args.band, n_samples=samples, seed=seed)
        return report, EXIT_OK
    if not scene.f1 or not scene.f2:
        raise CliError(f"{args.inequality} needs f1 and f2 step functions in the scene")
    f1, f2 = StepFunction.from_levels(scene.f1), StepFunction.from_levels(scene.f2)
    if args.inequality == "strong":
        report = bilinear_form(f1, f2, *setting, n_samples=samples, seed=seed, band=args.band)
    else:
        report = scale_profile(f1, f2, *setting, m_range=bands, n_samples=samples, seed=seed)
    return report, EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later call."""
    p = argparse.ArgumentParser(prog="torsion-lab", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, help, scene=True):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(func=func)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--samples", type=int, default=None)
        sp.add_argument("--out", type=str, default=None)
        if scene:
            sp.add_argument("--scene", type=str, default=None,
                            help="scene JSON path or builtin:<name>")
            sp.add_argument("--pi1", type=str, default=None)
            sp.add_argument("--pi2", type=str, default=None)
        return sp

    sp = command("fields", cmd_fields, "word table and nilpotency certificate")
    sp.add_argument("--cap", type=int, default=None)
    sp.add_argument("--full", action="store_true", help="include field polynomials")

    sp = command("torsion", cmd_torsion, "torsion profile for a multiindex")
    sp.add_argument("--beta", type=str, default=None, help="comma list, e.g. 0,1,0")
    sp.add_argument("--reversed", action="store_true",
                    help="use the reversed-order flow map")

    command("polytope", cmd_polytope, "Newton polytope and weights")

    sp = command("ccball", cmd_ccball, "ball sampling and covering probes")
    sp.add_argument("--check", choices=["sample", "doubling", "cover"],
                    default="sample")
    sp.add_argument("--spec", type=str, default=None, help="ball spec JSON")
    sp.add_argument("--x1", type=str, default=None)
    sp.add_argument("--x2", type=str, default=None)
    sp.add_argument("--rho", type=float, default=0.25)
    sp.add_argument("--delta", type=float, default=0.5)
    sp.add_argument("--c", type=float, default=0.125)
    sp.add_argument("--grid", type=int, default=3)

    sp = command("malcev", cmd_malcev, "abstract algebra, group law, covering map")
    sp.add_argument("--x0", type=str, default=None, help="base point, comma list")

    sp = command("polyalg", cmd_polyalg, "appendix polynomial algorithms", scene=False)
    sp.set_defaults(seed=0, samples=1 << 15)
    sp.add_argument("algorithm", choices=["monomialize", "refine", "extract", "sublevel"])
    sp.add_argument("--poly", type=str, default=None, help="polynomial JSON file")
    sp.add_argument("--eps", type=str, default="0.1")
    sp.add_argument("--set", type=str, default=None, help="interval list JSON")
    sp.add_argument("--c", type=str, default="0.5")
    sp.add_argument("--coeffs", type=str, default=None)
    sp.add_argument("--k", type=int, default=1)

    sp = command("verify", cmd_verify, "numeric inequality checks")
    sp.add_argument("inequality", choices=["rwt", "strong", "scales", "counterexample2d"])
    sp.add_argument("--beta", type=str, default=None)
    sp.add_argument("--band", type=int, default=None)
    sp.add_argument("--bands", type=str, default="-4:4")
    sp.add_argument("--k", type=int, default=2)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.samples is not None and args.samples < 1:
            raise CliError(f"--samples must be at least 1, got {args.samples}")
        report, code = args.func(args)
        dump_report(report, args.out)
        return code
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except SceneValidationError as e:
        print(f"scene error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    # before ValueError, of which NotNilpotentWithinCap is a subclass
    except (NonTerminatingSeries, NotNilpotentWithinCap, TupleBudgetExceeded) as e:
        print(f"inconclusive: {e}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as e:
        print(f"error: malformed input: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
