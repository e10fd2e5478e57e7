#!/usr/bin/env python3
"""End-to-end exact report for the moment-curve family.

Walks the full pipeline for gamma(t) = (t, t^2, ..., t^d): fiber fields,
word table, nilpotency certificate, lambda classes, Newton polytope, weights,
torsion profile, and the abstract algebra with its Malcev group law.

    python scripts/moment_curve_report.py [d]
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from torsionlab.nilpotent import abstract_algebra, group_law, weak_malcev
from torsionlab.polytope import extreme_and_minimal, lambda_table, newton_polytope, weight_spec
from torsionlab.scenes import moment_curve_scene
from torsionlab.torsion import torsion_profile


def main() -> None:
    d = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    scene = moment_curve_scene(d)
    table = scene.word_table()
    alg = abstract_algebra(table)
    entries = lambda_table(table)
    poly = newton_polytope(entries, "union")
    em = extreme_and_minimal(poly)
    prof = torsion_profile(table, scene.beta)
    gl = group_law(weak_malcev(alg, []))
    report = {
        "d": d,
        "nonzero_words": [list(w) for w in table.words()],
        "certified_step": alg.step,
        "lambda_classes": [
            {"words": [list(w) for w in e.words], "deg": list(e.deg),
             "poly": repr(e.poly)}
            for e in entries
        ],
        "polytope_extreme": [[str(v[0]), str(v[1])] for v in em["extreme"]],
        "polytope_minimal": [list(v) for v in em["minimal"]],
        "weights": [
            {"b": list(b), "p": [str(x) for x in weight_spec(entries, b).p],
             "value_at_0": weight_spec(entries, b).eval_at([0] * (d + 1))}
            for b in em["minimal"]
        ],
        "torsion_profile": {
            "beta": list(prof.beta),
            "b": list(prof.b),
            "p": [str(x) for x in prof.p],
            "J_beta": repr(prof.J_beta),
            "rho_exponent": str(prof.rho_exponent),
        },
        "algebra": {
            "dim": alg.dim,
            "basis_words": [list(w) for w in alg.basis_words],
            "group_law_q": [repr(q) for q in gl.q],
        },
    }
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
