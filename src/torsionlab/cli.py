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
    if getattr(args, "scene", None):
        name = args.scene
        if name.startswith("builtin:"):
            return builtin_scene(name.split(":", 1)[1])
        return load_scene(name)
    if getattr(args, "pi1", None) and getattr(args, "pi2", None):
        from .geometry import PolyMap

        def load_map(path):
            with open(path) as fh:
                return PolyMap.from_json_dict(json.load(fh))

        scene = Scene(pi1=load_map(args.pi1), pi2=load_map(args.pi2))
        if getattr(args, "cap", None):
            scene.cap = args.cap
        return scene
    raise CliError("need --scene or both --pi1 and --pi2")


def _parse_vector(text: str, what: str) -> list[Fraction]:
    try:
        return [Fraction(x) for x in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise CliError(f"bad {what}: {text!r} (expected comma-separated rationals)")


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
    bad = CliError(f"bad --bands: {text!r} (expected M0:M1, integers with M0 <= M1)")
    try:
        m0, m1 = (int(x) for x in text.split(":"))
    except ValueError:
        raise bad from None
    if m0 > m1:
        raise bad
    return range(m0, m1 + 1)


def _parse_beta(args, scene: Scene) -> tuple[int, ...]:
    if getattr(args, "beta", None):
        bad = CliError(f"bad --beta: {args.beta!r} (expected comma-separated nonnegative integers)")
        try:
            beta = tuple(int(x) for x in args.beta.split(","))
        except ValueError:
            raise bad from None
        if min(beta) < 0:
            raise bad
        return beta
    if scene.beta is not None:
        return scene.beta
    raise CliError("no beta: pass --beta or use a scene that declares one")


def cmd_fields(args) -> int:
    scene = _scene_from_args(args)
    cap = args.cap or scene.cap
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
    dump_report(summary, args.out)
    return EXIT_OK if summary["certified_step"] is not None else EXIT_INCONCLUSIVE


def cmd_torsion(args) -> int:
    from .torsion import torsion_profile

    scene = _scene_from_args(args)
    beta = _parse_beta(args, scene)
    table = scene.word_table()
    prof = torsion_profile(table, beta, reversed_order=args.reversed)
    dump_report(prof.to_json_dict(), args.out)
    return EXIT_OK


def cmd_polytope(args) -> int:
    from .polytope import extreme_and_minimal, lambda_table, newton_polytope, weight_spec

    scene = _scene_from_args(args)
    table = scene.word_table()
    nilpotency_step(table)
    entries = lambda_table(table)
    poly = newton_polytope(entries, "union")
    report = {
        "generators": sorted({tuple(e.deg) for e in entries}),
        "classes": [
            {"words": [list(w) for w in e.words], "deg": list(e.deg)}
            for e in entries
        ],
    }
    report["generators"] = [list(g) for g in report["generators"]]
    if poly.is_empty():
        report["extreme"] = []
        report["minimal"] = []
        report["weights"] = []
    else:
        em = extreme_and_minimal(poly)
        report["extreme"] = [
            [int(p[0]) if p[0].denominator == 1 else str(p[0]),
             int(p[1]) if p[1].denominator == 1 else str(p[1])]
            for p in em["extreme"]
        ]
        report["minimal"] = [list(p) for p in em["minimal"]]
        report["weights"] = [
            weight_spec(entries, b).to_json_dict() for b in em["minimal"]
        ]
    dump_report(report, args.out)
    return EXIT_OK


def cmd_ccball(args) -> int:
    from .ccballs import BallSpec, ball_sample, doubling_check, vitali_cover
    from .polytope import lambda_table

    scene = _scene_from_args(args)
    table = scene.word_table()
    nilpotency_step(table)
    if args.seed is None:
        args.seed = scene.seed
    if args.samples is None:
        args.samples = 10_000
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
            alpha = scene.alpha or (Fraction(1), Fraction(1))
            spec = BallSpec(
                center=tuple(Fraction(0) for _ in range(scene.dim)),
                words=entries[0].words,
                alpha=alpha,
            )
        sample = ball_sample(table, spec, args.samples, seed=args.seed)
        report = sample.to_json_dict()
        dump_report(report, args.out)
        return EXIT_OK
    entries = lambda_table(table)
    if args.check == "doubling":
        x1 = _parse_vector(args.x1 or ",".join(["0"] * scene.dim), "--x1")
        x2 = _parse_vector(args.x2 or ",".join(["0"] * scene.dim), "--x2")
        if not entries:
            raise CliError("no nonzero lambda classes; the doubling check "
                           "takes its ball words from one")
        words = entries[0].words
        report = doubling_check(
            table, entries, x1, x2, words, words,
            rho=args.rho, delta=args.delta,
            n_samples=min(args.samples, 2000), seed=args.seed, c=args.c,
        )
        dump_report(report, args.out)
        return EXIT_OK if report["verdict"] in ("Pass", "NotApplicable") \
            else EXIT_INCONCLUSIVE
    if args.check == "cover":
        lo = [-0.5] * scene.dim
        hi = [0.5] * scene.dim
        report = vitali_cover(table, entries, lo, hi, rho=args.rho,
                              delta=args.delta, grid=args.grid, c=args.c,
                              seed=args.seed)
        dump_report(report, args.out)
        return EXIT_OK
    raise CliError(f"unknown ccball check {args.check!r}")


def cmd_malcev(args) -> int:
    from .nilpotent import (
        SingularAtOrigin,
        abstract_algebra,
        covering_map,
        group_law,
        isotropy_subalgebra,
        weak_malcev,
    )

    scene = _scene_from_args(args)
    table = scene.word_table()
    step = nilpotency_step(table)
    alg = abstract_algebra(table, step)
    x0 = _parse_vector(args.x0, "--x0") if args.x0 else [Fraction(0)] * scene.dim
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
    dump_report(report, args.out)
    return EXIT_OK


def cmd_polyalg(args) -> int:
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
        dump_report(report, args.out)
        return EXIT_OK if cover.diagnostics.get("uncertified_pieces", 0) == 0 \
            else EXIT_INCONCLUSIVE
    if args.algorithm == "refine":
        pairs = json.loads(args.set)
        S = pa.IntervalSet.from_pairs(pairs)
        r = pa.refine_interval(S, c=Fraction(args.c).limit_denominator(1000))
        report = {
            "J": [str(r["J"][0]), str(r["J"][1])],
            "K": [str(r["K"][0]), str(r["K"][1])],
            "S_in_J": str(r["S_in_J"]),
            "S_in_K": str(r["S_in_K"]),
            "achieved_J_fraction": str(r["achieved_J_fraction"]),
            "iterations": r["iterations"],
        }
        dump_report(report, args.out)
        return EXIT_OK
    if args.algorithm == "extract":
        coeffs = _parse_vector(args.coeffs, "--coeffs")
        r = pa.extract_two_terms(coeffs, args.k)
        report = {
            "kind": r.kind,
            "holds": r.holds,
            "n1": r.n1,
            "n2": r.n2,
            "achieved": None if r.achieved is None else str(r.achieved),
            "counterexample": None if r.counterexample is None else str(r.counterexample),
        }
        dump_report(report, args.out)
        return EXIT_OK
    if args.algorithm == "sublevel":
        if args.samples < 1:
            raise CliError(f"--samples must be at least 1, got {args.samples}")
        with open(args.poly) as fh:
            data = json.load(fh)
        if isinstance(data, list):
            if len(data) != 1:
                raise CliError("sublevel expects a single polynomial")
            data = data[0]
        poly = RatPoly.from_json_dict(data)
        r = pa.sublevel_sweep(poly, n_samples=args.samples, seed=args.seed)
        dump_report(r, args.out)
        return EXIT_OK
    raise CliError(f"unknown polyalg algorithm {args.algorithm!r}")


def cmd_verify(args) -> int:
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
        report = counterexample_2d(args.k)
        dump_report(report, args.out)
        return EXIT_OK
    if args.samples is not None and args.samples < 1:
        raise CliError(f"--samples must be at least 1, got {args.samples}")
    bands = _parse_bands(args.bands) if args.inequality == "scales" else None
    scene = _scene_from_args(args)
    if scene.domain is None:
        raise CliError("scene needs a 'domain' box for verification")
    beta = _parse_beta(args, scene)
    table = scene.word_table()
    prof = torsion_profile(table, beta)
    seed = args.seed if args.seed is not None else scene.seed
    samples = args.samples if args.samples is not None else scene.samples
    if args.inequality == "rwt":
        if not scene.e1 or not scene.e2:
            raise CliError("rwt needs e1 and e2 box unions in the scene")
        report = rwt_ratio(
            BoxUnion(tuple(scene.e1)), BoxUnion(tuple(scene.e2)), prof,
            scene.pi1, scene.pi2, scene.domain, band=args.band,
            n_samples=samples, seed=seed,
        )
        dump_report(report, args.out)
        return EXIT_OK
    if args.inequality == "strong":
        if not scene.f1 or not scene.f2:
            raise CliError("strong needs f1 and f2 step functions in the scene")
        report = bilinear_form(
            StepFunction.from_levels(scene.f1), StepFunction.from_levels(scene.f2),
            prof, scene.pi1, scene.pi2, scene.domain,
            n_samples=samples, seed=seed, band=args.band,
        )
        dump_report(report, args.out)
        return EXIT_OK
    if args.inequality == "scales":
        if not scene.f1 or not scene.f2:
            raise CliError("scales needs f1 and f2 step functions in the scene")
        report = scale_profile(
            StepFunction.from_levels(scene.f1), StepFunction.from_levels(scene.f2),
            prof, scene.pi1, scene.pi2, scene.domain,
            m_range=bands, n_samples=samples, seed=seed,
        )
        dump_report(report, args.out)
        return EXIT_OK
    raise CliError(f"unknown verify inequality {args.inequality!r}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="torsion-lab", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, scene=True):
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--samples", type=int, default=None)
        sp.add_argument("--out", type=str, default=None)
        if scene:
            sp.add_argument("--scene", type=str, default=None,
                            help="scene JSON path or builtin:<name>")
            sp.add_argument("--pi1", type=str, default=None)
            sp.add_argument("--pi2", type=str, default=None)

    sp = sub.add_parser("fields", help="word table and nilpotency certificate")
    common(sp)
    sp.add_argument("--cap", type=int, default=None)
    sp.add_argument("--full", action="store_true", help="include field polynomials")
    sp.set_defaults(func=cmd_fields)

    sp = sub.add_parser("torsion", help="torsion profile for a multiindex")
    common(sp)
    sp.add_argument("--beta", type=str, default=None, help="comma list, e.g. 0,1,0")
    sp.add_argument("--reversed", action="store_true",
                    help="use the reversed-order flow map")
    sp.set_defaults(func=cmd_torsion)

    sp = sub.add_parser("polytope", help="Newton polytope and weights")
    common(sp)
    sp.set_defaults(func=cmd_polytope)

    sp = sub.add_parser("ccball", help="ball sampling and covering probes")
    common(sp)
    sp.add_argument("--check", choices=["sample", "doubling", "cover"],
                    default="sample")
    sp.add_argument("--spec", type=str, default=None, help="ball spec JSON")
    sp.add_argument("--x1", type=str, default=None)
    sp.add_argument("--x2", type=str, default=None)
    sp.add_argument("--rho", type=float, default=0.25)
    sp.add_argument("--delta", type=float, default=0.5)
    sp.add_argument("--c", type=float, default=0.125)
    sp.add_argument("--grid", type=int, default=3)
    sp.set_defaults(func=cmd_ccball)

    sp = sub.add_parser("malcev", help="abstract algebra, group law, covering map")
    common(sp)
    sp.add_argument("--x0", type=str, default=None, help="base point, comma list")
    sp.set_defaults(func=cmd_malcev)

    sp = sub.add_parser("polyalg", help="appendix polynomial algorithms")
    sp.add_argument("algorithm", choices=["monomialize", "refine", "extract", "sublevel"])
    sp.add_argument("--poly", type=str, default=None, help="polynomial JSON file")
    sp.add_argument("--eps", type=str, default="0.1")
    sp.add_argument("--set", type=str, default=None, help="interval list JSON")
    sp.add_argument("--c", type=str, default="0.5")
    sp.add_argument("--coeffs", type=str, default=None)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--samples", type=int, default=1 << 15)
    sp.add_argument("--out", type=str, default=None)
    sp.set_defaults(func=cmd_polyalg)

    sp = sub.add_parser("verify", help="numeric inequality checks")
    sp.add_argument("inequality", choices=["rwt", "strong", "scales", "counterexample2d"])
    common(sp)
    sp.add_argument("--beta", type=str, default=None)
    sp.add_argument("--band", type=int, default=None)
    sp.add_argument("--bands", type=str, default="-4:4")
    sp.add_argument("--k", type=int, default=2)
    sp.set_defaults(func=cmd_verify)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
