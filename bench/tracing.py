"""Per-layer tracing from outside the program.

``install(tracer)`` replaces public torsionlab functions and methods by
wrappers that record into a ``Tracer``.  Modules bind many of these names at
import (``ccballs`` holds its own ``newton_preimage``, ``halton`` and
``iter_flow``; ``torsion`` its own ``lie_series_flow``), so a function is
rebound in every torsionlab module that holds it, not only where it is defined.

Three kinds of wrapper, by how hot the call is:

* span: timed, and one record (id, parent, name, start, end, job) kept;
* timer: timed into the per-name totals only (hot evaluator calls);
* counter: a call count only (``RatPoly.__mul__``, ``lie_bracket``).

Self time is a call's duration minus the time of the wrapped calls inside it.
Time not covered by any wrapper stays with the job's root span.
"""

from __future__ import annotations

import importlib
import itertools
import math
import os
import pkgutil
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("polytope.lambda_table.s", "s", "lower"),
    ("polytope.lambda_table.tuples", "count", "lower"),
    ("polytope.lambda_table.classes", "count", "higher"),
    ("polytope.lambda_table.useful_frac", "ratio", "higher"),
    ("polycore.det.calls", "count", "lower"),
    ("polycore.det.s", "s", "lower"),
    ("polycore.mul.calls", "count", "lower"),
    ("torsion.iter_flow.calls", "count", "lower"),
    ("torsion.iter_flow.cache_hits", "count", "higher"),
    ("torsion.iter_flow.s", "s", "lower"),
    ("torsion.torsion_profile.s", "s", "lower"),
    ("geometry.lie_series_flow.calls", "count", "lower"),
    ("geometry.lie_series_flow.s", "s", "lower"),
    ("geometry.lie_bracket.calls", "count", "lower"),
    ("geometry.build_word_table.s", "s", "lower"),
    ("polycore.compose.calls", "count", "lower"),
    ("polycore.compose.s", "s", "lower"),
    ("nilpotent.abstract_algebra.s", "s", "lower"),
    ("nilpotent.group_law.s", "s", "lower"),
    ("nilpotent.covering_map.s", "s", "lower"),
    ("sampling.halton.calls", "count", "lower"),
    ("sampling.halton.points", "count", "lower"),
    ("sampling.halton.s", "s", "lower"),
    ("sampling.qmc_mean.calls", "count", "lower"),
    ("sampling.qmc_mean.s", "s", "lower"),
    ("verify.sample_passes", "ratio", "lower"),
    ("numeric.map_eval.calls", "count", "lower"),
    ("numeric.map_eval.points", "count", "lower"),
    ("numeric.map_eval.s", "s", "lower"),
    ("verify.weight_eval.points", "count", "lower"),
    ("verify.weight_eval.s", "s", "lower"),
    ("verify.bilinear_form.calls", "count", "lower"),
    ("verify.scale_profile.s", "s", "lower"),
    ("numeric.newton_preimage.calls", "count", "lower"),
    ("numeric.newton_preimage.points", "count", "lower"),
    ("numeric.newton_preimage.fwd_evals", "count", "lower"),
    ("numeric.newton_preimage.converged_frac", "ratio", "higher"),
    ("numeric.newton_preimage.s", "s", "lower"),
    ("numeric.jac_eval.calls", "count", "lower"),
    ("numeric.jac_eval.s", "s", "lower"),
    ("ccballs.vitali_cover.s", "s", "lower"),
    ("ccballs.doubling_check.s", "s", "lower"),
    ("ccballs.ball_sample.s", "s", "lower"),
    ("polyalg.monomialize.s", "s", "lower"),
    ("polyalg.isolate_real_roots.calls", "count", "lower"),
    ("polyalg.isolate_real_roots.s", "s", "lower"),
    ("polyalg.pieces", "count", "lower"),
    ("polyalg.endpoint_bits_max", "count", "lower"),
    ("cli.dump_report.s", "s", "lower"),
    ("cli.report_bytes", "count", "lower"),
    ("scenes.load_scene.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# workloads on which each metric must be non-zero (the "exercised by" column)
EXERCISED_BY = {
    **{name: ("exact-moment",) for name, _, _ in PER_LAYER
       if name.split(".")[0] in ("polytope", "polycore", "torsion", "geometry",
                                 "nilpotent")},
    **{name: ("verify-bands",) for name, _, _ in PER_LAYER
       if name.split(".")[0] in ("sampling", "verify")},
    "torsion.iter_flow.cache_hits": ("ccball-cover",),
    "numeric.map_eval.calls": ("verify-bands", "ccball-cover"),
    "numeric.map_eval.points": ("verify-bands", "ccball-cover"),
    "numeric.map_eval.s": ("verify-bands", "ccball-cover"),
    **{name: ("ccball-cover",) for name, _, _ in PER_LAYER
       if name.startswith(("numeric.newton", "numeric.jac", "ccballs."))},
    **{name: ("polyalg-cover",) for name, _, _ in PER_LAYER
       if name.startswith("polyalg.")},
    "cli.dump_report.s": ("exact-moment", "verify-bands", "ccball-cover",
                          "polyalg-cover"),
    "cli.report_bytes": ("exact-moment", "verify-bands", "ccball-cover",
                         "polyalg-cover"),
    "scenes.load_scene.s": ("exact-moment", "verify-bands"),
}


class Tracer:
    """Spans, per-name totals and counters of one pass, kept in memory."""

    def __init__(self):
        self.spans: list[tuple] = []          # (id, parent, name, start, end, job)
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.job_counts: defaultdict = defaultdict(Counter)
        self.job: str | None = None
        self._stack: list[list] = [[0, 0.0]]  # [span id, child time]
        self._ids = itertools.count(1)

    def wrap(self, name, fn, span=True, prepare=None, record=None):
        """Timed wrapper.  ``prepare(args)`` returns the arguments to call
        with; ``record(args, result)`` reads counts off the call."""
        stack, calls, self_s, spans, ids = (
            self._stack, self.calls, self.self_s, self.spans, self._ids)

        def wrapper(*args, **kwargs):
            if prepare is not None:
                args = prepare(args)
            frame = [next(ids) if span else 0, 0.0]
            parent = stack[-1]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                calls[name] += 1
                self_s[name] += dur - frame[1]
                if span:
                    spans.append((frame[0], parent[0], name, t0, t1, self.job))
            if record is not None:
                record(args, return_value)
            return return_value

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name, value) -> None:
        self.counts[name] += value
        if self.job is not None:
            self.job_counts[self.job][name] += value

    def run_job(self, job_id: str, fn):
        """Run ``fn()`` as the root span of one job."""
        self.job = job_id
        try:
            return self.wrap("job", fn)()
        finally:
            self.job = None

    def export(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "job_counts": {k: dict(v) for k, v in self.job_counts.items()},
            "spans": self.spans,
        }


def import_package():
    """Import every torsionlab module; return them."""
    import torsionlab

    for info in pkgutil.iter_modules(torsionlab.__path__):
        importlib.import_module(f"torsionlab.{info.name}")
    return [m for n, m in sorted(sys.modules.items())
            if n == "torsionlab" or n.startswith("torsionlab.")]


def install(tracer: Tracer) -> None:
    """Wrap the traced functions in every module that binds them."""
    modules = import_package()
    mod = {m.__name__.split(".")[-1]: m for m in modules}

    def rebind(orig, wrapper):
        found = False
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, attr, wrapper)
                    found = True
        if not found:
            raise RuntimeError(f"{orig!r} is bound in no torsionlab module")

    def function(module, fname, **kw):
        orig = getattr(mod[module], fname)
        rebind(orig, tracer.wrap(f"{module}.{fname}", orig, **kw))

    def method(cls, mname, make_wrapper):
        orig = cls.__dict__[mname]
        wrapper = make_wrapper(orig)
        for attr, value in list(vars(cls).items()):  # aliases such as __rmul__
            if value is orig:
                setattr(cls, attr, wrapper)

    def points(name):
        def record(args, result):
            tracer.count(name, len(result))
        return record

    # polycore
    polycore = mod["polycore"]
    method(polycore.RatPoly, "__mul__", lambda f: tracer.counter("polycore.mul", f))
    method(polycore.RatPoly, "compose",
           lambda f: tracer.wrap("polycore.compose", f, span=False))
    method(polycore.PolyMatrix, "det", lambda f: tracer.wrap("polycore.det", f, span=False))

    # geometry
    orig = mod["geometry"].lie_bracket
    rebind(orig, tracer.counter("geometry.lie_bracket", orig))
    function("geometry", "build_word_table")
    function("geometry", "lie_series_flow")

    # torsion
    def flow_prepare(args):
        table, words = args[:2]
        if tuple(tuple(w) for w in words) in table._flow_cache:
            tracer.count("torsion.iter_flow.cache_hits", 1)
        return args

    function("torsion", "iter_flow", prepare=flow_prepare)
    function("torsion", "torsion_profile")

    # polytope
    def lambda_record(args, result):
        table = args[0]
        tuples = math.comb(len(table.words()), table.dim)
        tracer.count("polytope.lambda_table.tuples", tuples)
        tracer.count("polytope.lambda_table.classes", len(result))

    function("polytope", "lambda_table", record=lambda_record)

    # nilpotent
    for fname in ("abstract_algebra", "group_law", "covering_map"):
        function("nilpotent", fname)

    # sampling
    function("sampling", "halton", record=points("sampling.halton.points"))
    function("sampling", "qmc_mean")

    # numeric
    numeric = mod["numeric"]
    method(numeric.MapEvaluator, "__call__",
           lambda f: tracer.wrap("numeric.map_eval", f, span=False,
                                 record=points("numeric.map_eval.points")))
    method(numeric.JacobianEvaluator, "__call__",
           lambda f: tracer.wrap("numeric.jac_eval", f, span=False))

    def newton_prepare(args):
        forward = args[0]

        def counted_forward(t):
            tracer.count("numeric.newton_preimage.fwd_evals", 1)
            return forward(t)

        return (counted_forward, *args[1:])

    def newton_record(args, result):
        _, ok = result
        tracer.count("numeric.newton_preimage.points", len(ok))
        tracer.count("numeric.newton_preimage.converged", int(ok.sum()))

    function("numeric", "newton_preimage", prepare=newton_prepare,
             record=newton_record)

    # verify
    method(mod["verify"].WeightEvaluator, "__call__",
           lambda f: tracer.wrap("verify.weight_eval", f, span=False,
                                 record=points("verify.weight_eval.points")))
    function("verify", "bilinear_form")
    function("verify", "scale_profile")

    # ccballs
    for fname in ("vitali_cover", "doubling_check", "ball_sample"):
        function("ccballs", fname)

    # polyalg
    def cover_record(args, result):
        tracer.count("polyalg.pieces", len(result.pieces))
        bits = [max(abs(x.numerator).bit_length(), x.denominator.bit_length())
                for p in result.pieces for x in (p.lo, p.hi) if x is not None]
        peak = max(bits, default=0)
        if peak > tracer.counts["polyalg.endpoint_bits_max"]:
            tracer.counts["polyalg.endpoint_bits_max"] = peak

    function("polyalg", "monomialize", record=cover_record)
    function("polyalg", "isolate_real_roots", span=False)

    # scenes and cli
    function("scenes", "load_scene")

    def report_record(args, result):
        out = args[1] if len(args) > 1 else None
        if out:
            tracer.count("cli.report_bytes", os.path.getsize(out))

    function("cli", "dump_report", record=report_record)


def layer_metrics(trace: dict, sampled_job: tuple[str, int] | None) -> dict[str, float]:
    """Per-layer metric values of one traced pass.

    ``sampled_job`` is the (id, requested samples) of the workload's
    ``verify scales`` job, if it has one: ``verify.sample_passes`` divides the
    Halton points generated during that job by the samples it asked for.
    """
    calls, self_s, counts = trace["calls"], trace["self_s"], trace["counts"]
    out: dict[str, float] = {}
    for name, unit, _ in PER_LAYER:
        if name in counts:
            out[name] = counts[name]
        elif name.endswith(".calls"):
            out[name] = calls.get(name[: -len(".calls")], 0)
        elif name.endswith(".s") and name != "trace.overhead_s":
            out[name] = self_s.get(name[: -len(".s")], 0.0)
        else:
            out[name] = counts.get(name, 0)
    tuples = counts.get("polytope.lambda_table.tuples", 0)
    out["polytope.lambda_table.useful_frac"] = (
        counts.get("polytope.lambda_table.classes", 0) / tuples if tuples else 0.0)
    pts = counts.get("numeric.newton_preimage.points", 0)
    out["numeric.newton_preimage.converged_frac"] = (
        counts.get("numeric.newton_preimage.converged", 0) / pts if pts else 0.0)
    out["verify.sample_passes"] = 0.0
    if sampled_job is not None:
        job, samples = sampled_job
        points = trace["job_counts"].get(job, {}).get("sampling.halton.points", 0)
        out["verify.sample_passes"] = points / samples
    out.pop("trace.overhead_s", None)
    return out
