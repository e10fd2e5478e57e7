"""Correctness checks on the CLI reports of the benchmark's jobs.

* ``exact-moment``: report bytes identical to the golden report.
* ``verify-bands`` and ``ccball-cover``: same keys, list lengths, integers,
  strings and verdicts as the golden; float fields within ``float_tolerance``;
  ``stderr`` fields only finite and non-negative.
* ``polyalg-cover``: no uncertified pieces and no root gutters, pieces that
  tile the real line, and the domination inequality at sample points of the
  cover rebuilt from the report (``cover_samples_ok``).

Every check returns ``None`` when it passes and a one-line reason otherwise.
Goldens live in ``golden/<workload>/<job>.json``, or under ``v<variant>/``
for jobs whose report depends on the seed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

# error-bar fields: checked only for being finite and non-negative
STDERR_FIELDS = {"stderr", "volume_stderr"}
# QMC estimates, each with its error bar in the same record
ESTIMATES = {"estimate": "stderr", "B_m": "stderr", "volume_estimate": "volume_stderr"}
# values derived from a report's estimates (ratios, sums, powers of them)
DERIVED = {"ratio", "alpha_form", "sum", "sum_ratio", "theta_sum"}
# fractions of a sample count, named by the field that holds the count
FRACTIONS = {
    "intersecting_fraction": "n_samples",
    "pass_fraction": "n_samples",
    "newton_failure_fraction": "n_samples",
    "covered_fraction": "eligible_points",
}
ESTIMATE_SIGMAS = 3     # estimates: within 3 golden error bars
DERIVED_SIGMAS = 6      # derived values: 3 error bars, doubled for squared terms
FLOAT_REL = 1e-9        # every other float: reordered float arithmetic only


def golden_path(workload: str, job, variant: int, root: Path = GOLDEN) -> Path:
    sub = root / workload / (f"v{variant}" if job.seeded else "")
    return sub / f"{job.id}.json"


def check_job(workload: str, job, code, report: bytes | None, variant: int,
              golden_root: Path = GOLDEN) -> str | None:
    if code != 0:
        return f"exit code {code!r}, expected 0"
    if report is None:
        return "no report written"
    if workload == "polyalg-cover":
        return check_cover(json.loads(report))
    golden = golden_path(workload, job, variant, golden_root).read_bytes()
    if workload == "exact-moment":
        return None if report == golden else "report differs from the golden bytes"
    return compare_reports(json.loads(report), json.loads(golden))


# -- verify and ccball reports --------------------------------------------------

def _rel_error(golden) -> float:
    """Summed error bars over summed |estimates| of the whole golden report."""
    err = est = 0.0

    def walk(node):
        nonlocal err, est
        if isinstance(node, dict):
            for key, bar in ESTIMATES.items():
                if isinstance(node.get(key), float) and isinstance(node.get(bar), float):
                    est += abs(node[key])
                    err += node[bar]
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(golden)
    return err / est if est > 0 else 0.0


def float_tolerance(key: str | None, record: dict, golden: float, rel_error: float) -> float:
    """Allowed |actual - golden| for the float field ``key`` of ``record``."""
    floor = FLOAT_REL * abs(golden)
    if key in ESTIMATES:
        return max(ESTIMATE_SIGMAS * record[ESTIMATES[key]], floor)
    if key in DERIVED:
        return max(DERIVED_SIGMAS * rel_error * abs(golden), floor)
    if key in FRACTIONS:
        n = record[FRACTIONS[key]]
        return max(ESTIMATE_SIGMAS * math.sqrt(max(golden * (1 - golden), 1 / n) / n),
                   floor)
    return max(floor, 1e-300)


def compare_reports(actual, golden) -> str | None:
    rel_error = _rel_error(golden)

    def walk(a, g, path, key, record):
        if isinstance(g, dict):
            if not isinstance(a, dict) or set(a) != set(g):
                return f"{path}: keys differ"
            for k in sorted(g):
                reason = walk(a[k], g[k], f"{path}.{k}", k, g)
                if reason:
                    return reason
            return None
        if isinstance(g, list):
            if not isinstance(a, list) or len(a) != len(g):
                return f"{path}: list length differs"
            for i, (x, y) in enumerate(zip(a, g)):
                reason = walk(x, y, f"{path}[{i}]", key, record)
                if reason:
                    return reason
            return None
        if key in STDERR_FIELDS:
            ok = isinstance(a, (int, float)) and math.isfinite(a) and a >= 0
            return None if ok else f"{path}: error bar {a!r} not finite and >= 0"
        if isinstance(g, float) and isinstance(a, float):
            if math.isnan(g) or math.isinf(g):
                same = (math.isnan(a) and math.isnan(g)) or a == g
                return None if same else f"{path}: {a!r} != {g!r}"
            tol = float_tolerance(key, record, g, rel_error)
            return None if abs(a - g) <= tol else f"{path}: {a!r} not within {tol:.3g} of {g!r}"
        if type(a) is not type(g) or a != g:
            return f"{path}: {a!r} != {g!r}"
        return None

    return walk(actual, golden, "$", None, {})


# -- polyalg covers ---------------------------------------------------------------

def _frac(text):
    return None if text is None else Fraction(text)


def check_cover(report: dict) -> str | None:
    """Certified pieces only, and consecutive pieces that tile R."""
    diag = report["diagnostics"]
    if diag.get("uncertified_pieces") != 0:
        return f"uncertified_pieces = {diag.get('uncertified_pieces')!r}"
    if diag.get("root_gutters") != 0:
        return f"root_gutters = {diag.get('root_gutters')!r}"
    pieces = report["pieces"]
    if diag.get("pieces") != len(pieces):
        return "diagnostics.pieces differs from the number of pieces"
    ends = [(_frac(p["lo"]), _frac(p["hi"])) for p in pieces]
    if not ends or ends[0][0] is not None or ends[-1][1] is not None:
        return "pieces do not reach both infinities"
    for (_, hi), (lo, _) in zip(ends, ends[1:]):
        if hi is None or lo is None or hi != lo:
            return f"gap or overlap between pieces at {hi} and {lo}"
    return None


def cover_samples_ok(report: dict, poly_path: str, count: int) -> str | None:
    """Domination at ``count`` samples per piece of the cover in ``report``.

    The report drops each piece's ``certified`` flag; ``check_cover`` has
    already required that there are no gutters, so every piece is rebuilt as
    certified and none is skipped.
    """
    from torsionlab.polyalg import MonomialCover, MonomialPiece, from_ratpoly
    from torsionlab.polycore import RatPoly

    with open(poly_path) as fh:
        polys = [from_ratpoly(RatPoly.from_json_dict(p)) for p in json.load(fh)]
    cover = MonomialCover(
        pieces=[MonomialPiece(lo=_frac(p["lo"]), hi=_frac(p["hi"]),
                              center=Fraction(p["center"]),
                              exponents=tuple(p["exponents"]))
                for p in report["pieces"]],
        eps=Fraction(report["eps"]),
    )
    if cover.verify_samples(polys, count):
        return None
    return f"domination fails at {count} samples per piece"
