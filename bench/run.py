#!/usr/bin/env python3
"""torsionlab benchmark: one workload, end to end or traced.

    python3 bench/run.py --workload exact-moment --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One process runs one workload.  It pins the environment (one
thread), imports the program, writes the seeded input files, and then runs
the workload's job list through ``torsionlab.cli.main`` again and again until
``--seconds`` have passed.  Each pass runs in a child forked from the
imported process, so every pass starts, like a CLI invocation, from an
imported program with empty caches, but pays no interpreter start or import.
Each job writes its report with ``--out``; the reports are checked after the
pass, outside the timed region.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: median over passes of the time to run the job list once;
* ``slowest_job_s``: the largest per-job median;
* ``setup_s``: median of five timed fresh interpreters that import the
  program and write the input files;
* ``peak_rss_mb``: median over passes of the pass's peak resident memory.

``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics of ``tracing.PER_LAYER`` (medians over traced passes) with the tracing
overhead, median traced minus median untraced ``wall_s``.  The spans go to
``bench/_out/trace-<workload>-seed<seed>.json``.

The last line of stdout is one JSON object with ``correct``, ``attempted``
(jobs run), ``failed`` (jobs with an unexpected exit code or a report that
fails its check; ``failed / attempted`` is the error rate) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# one thread everywhere: the library's own shards and any BLAS pool
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 5
MIN_PASSES = 3
COVER_SAMPLES = 4       # domination samples per piece in the polyalg check


def pin_environment() -> dict:
    """Unset TORSIONLAB_THREADS and pin BLAS pools; return what was found."""
    found = {"TORSIONLAB_THREADS": os.environ.pop("TORSIONLAB_THREADS", None)}
    os.environ.update(PINNED_ENV)
    return found


def import_program():
    """Import every torsionlab module from this checkout's ``src/``."""
    sys.path.insert(0, str(SRC))
    import torsionlab

    if Path(torsionlab.__file__).resolve().parent != (SRC / "torsionlab").resolve():
        raise ImportError(f"torsionlab imported from {torsionlab.__file__}, not {SRC}")
    tracing.import_package()
    import scipy.integrate  # noqa: F401  (imported lazily by counterexample_2d)


def environment(found: dict) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "TORSIONLAB_THREADS": os.environ.get("TORSIONLAB_THREADS"),
        "TORSIONLAB_THREADS_removed": found["TORSIONLAB_THREADS"],
        **{k: os.environ[k] for k in PINNED_ENV},
    }


def measure_setup(workload: str, seed: int, workdir: Path) -> float:
    """Median wall time of fresh interpreters that start, import and write inputs."""
    times = []
    for k in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only", str(workdir / f"setup{k}")],
            check=True, stdout=subprocess.DEVNULL,
        )
        times.append(perf_counter() - t0)
    return statistics.median(times)


# -- one pass, in a forked child ------------------------------------------------

def _child_pass(jobs, outdir: Path, traced: bool) -> dict:
    from torsionlab import cli

    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    codes, times = [], []
    start = perf_counter()
    for job in jobs:
        argv = [*job.argv, "--out", str(outdir / f"{job.id}.json")]

        def call(argv=argv):
            try:
                return cli.main(argv)
            except SystemExit as e:
                return e.code
            except Exception as e:  # a traceback is a failed job, not a dead pass
                traceback.print_exc()
                return f"{type(e).__name__}: {e}"

        t0 = perf_counter()
        codes.append(tracer.run_job(job.id, call) if tracer else call())
        times.append(perf_counter() - t0)
    wall = perf_counter() - start
    return {
        "wall_s": wall,
        "job_s": times,
        "codes": codes,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": tracer.export() if tracer else None,
    }


def run_pass(jobs, outdir: Path, traced: bool) -> dict | None:
    """Run the job list once in a forked child; None if the child died."""
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            data = json.dumps(_child_pass(jobs, outdir, traced)).encode()
            with os.fdopen(wfd, "wb") as fh:
                fh.write(data)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(status)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        return None
    return json.loads(data)


# -- the run ----------------------------------------------------------------------

def check_pass(workload, jobs, result, outdir: Path, variant: int, first: bool,
               golden_root: Path) -> list[str]:
    """Failure reasons, one per failed job of this pass."""
    if result is None:
        return [f"{job.id}: pass process died" for job in jobs]
    failures = []
    for job, code in zip(jobs, result["codes"]):
        path = outdir / f"{job.id}.json"
        report = path.read_bytes() if path.exists() else None
        try:
            reason = checks.check_job(workload, job, code, report, variant, golden_root)
            if reason is None and first and job.poly is not None:
                reason = checks.cover_samples_ok(json.loads(report), job.poly,
                                                 COVER_SAMPLES)
        except (OSError, ValueError, KeyError, TypeError) as e:
            reason = f"check raised {e!r}"
        if reason is not None:
            failures.append(f"{job.id}: {reason}")
    return failures


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 workdir: Path, golden_root: Path | None = None,
                 min_passes: int = MIN_PASSES) -> dict:
    """Measure one workload; return the passes and the failure list."""
    jobs = workloads.build(workload, seed, workdir / "in")
    outdir = workdir / "out"
    passes, failures = [], []
    min_passes = max(min_passes, 4) if trace else min_passes
    start = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        result = run_pass(jobs, outdir, traced)
        failures += check_pass(workload, jobs, result, outdir, workloads.variant(seed),
                               first=not passes, golden_root=golden_root or checks.GOLDEN)
        if result is None:
            break
        result["traced"] = traced
        passes.append(result)
        elapsed = perf_counter() - start
        if len(passes) >= min_passes and elapsed * (1 + 1 / len(passes)) > seconds:
            break
    return {"jobs": jobs, "passes": passes, "failures": failures,
            "attempted": len(jobs) * (len(passes) + (result is None))}


def end_to_end_metrics(passes: list[dict], setup_s: float) -> dict:
    per_job = zip(*(p["job_s"] for p in passes))
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "slowest_job_s": (max(statistics.median(t) for t in per_job), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
    }


def sampled_job(jobs) -> tuple[str, int] | None:
    """(id, requested samples) of the workload's ``verify scales`` job."""
    return next(((j.id, int(j.argv[j.argv.index("--samples") + 1]))
                 for j in jobs if j.argv[:2] == ("verify", "scales")), None)


def per_layer_metrics(jobs, passes: list[dict]) -> dict:
    sampled = sampled_job(jobs)
    traced = [tracing.layer_metrics(p["trace"], sampled) for p in passes if p["traced"]]
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    out = {name: (statistics.median(m[name] for m in traced), units[name])
           for name in traced[0]}
    overhead = (statistics.median(p["wall_s"] for p in passes if p["traced"])
                - statistics.median(p["wall_s"] for p in passes if not p["traced"]))
    out["trace.overhead_s"] = (overhead, "s")
    return {name: out[name] for name in units}


def write_trace(path: Path, env: dict, result: dict, metrics: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    data = {
        "env": env,
        "jobs": [j.id for j in result["jobs"]],
        "metrics": metrics,
        "passes": [{k: p[k] for k in ("traced", "wall_s", "job_s", "trace")}
                   for p in result["passes"]],
    }
    path.write_text(json.dumps(data) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="DIR",
                    help="import the program, write the inputs into DIR and exit")
    args = ap.parse_args(argv)

    found = pin_environment()
    try:
        import_program()
    except ImportError as e:
        print(f"bench: cannot import the program from {SRC}: {e}", file=sys.stderr)
        return 2

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    if args.setup_only:
        workloads.build(args.workload, args.seed, Path(args.setup_only))
        return 0

    env = environment(found)
    workdir = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup_s = None if args.trace else measure_setup(args.workload, args.seed, workdir)
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not result["passes"] or (args.trace and not any(p["traced"] for p in result["passes"])):
        print("bench: no complete pass to report", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer_metrics(result["jobs"], result["passes"])
        write_trace(BENCH / "_out" / f"trace-{args.workload}-seed{args.seed}.json",
                    env, result, metrics)
    else:
        metrics = end_to_end_metrics(result["passes"], setup_s)
    for reason in result["failures"]:
        print(f"FAILED {reason}", file=sys.stderr)
    attempted, failed = result["attempted"], len(result["failures"])
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# {args.workload} seed={args.seed} passes={len(result['passes'])} "
          f"attempted={attempted} failed={failed} error_rate={failed / attempted}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
