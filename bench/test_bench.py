"""Self-tests of the benchmark: its checks can fail, its wrappers see every
layer, its work size does not depend on the seed, and BENCHMARK.json matches
what the runner reports.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.pin_environment()
run.import_program()

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from torsionlab import cli  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced_pass(tmp_path_factory):
    """One traced pass per (workload, seed), shared by the tests below."""
    cache = {}

    def get(workload: str, seed: int) -> dict:
        if (workload, seed) not in cache:
            work = tmp_path_factory.mktemp(f"{workload}-{seed}")
            jobs = workloads.build(workload, seed, work / "in")
            result = run.run_pass(jobs, work / "out", traced=True)
            assert result is not None
            assert run.check_pass(workload, jobs, result, work / "out",
                                  workloads.variant(seed), True, checks.GOLDEN) == []
            cache[workload, seed] = tracing.layer_metrics(result["trace"],
                                                          run.sampled_job(jobs))
        return cache[workload, seed]

    return get


def _report(tmp_path: Path, workload: str, job_id: str, seed: int = 0):
    jobs = {j.id: j for j in workloads.build(workload, seed, tmp_path / "in")}
    job = jobs[job_id]
    out = tmp_path / f"{job_id}.json"
    code = cli.main([*job.argv, "--out", str(out)])
    return job, code, out.read_bytes()


# -- every check can fail -----------------------------------------------------------

def test_exact_moment_golden_byte_flip_fails(tmp_path):
    job, code, report = _report(tmp_path, "exact-moment", "fields-moment2")
    assert checks.check_job("exact-moment", job, code, report, 0) is None
    golden = tmp_path / "golden"
    shutil.copytree(checks.GOLDEN / "exact-moment", golden / "exact-moment")
    path = checks.golden_path("exact-moment", job, 0, golden)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 1
    path.write_bytes(bytes(data))
    assert checks.check_job("exact-moment", job, code, report, 0, golden) is not None


def test_unexpected_exit_code_fails(tmp_path):
    job, _, report = _report(tmp_path, "exact-moment", "fields-moment2")
    assert checks.check_job("exact-moment", job, 3, report, 0) is not None


def test_corrupted_golden_counts_in_error_rate(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(checks.GOLDEN / "verify-bands", golden / "verify-bands")
    job = next(j for j in workloads.build("verify-bands", 0, tmp_path / "in")
               if j.id == "rwt-moment2")
    path = checks.golden_path("verify-bands", job, 0, golden)
    g = json.loads(path.read_text())
    g["estimate"] += 10 * g["stderr"]
    path.write_text(json.dumps(g))
    result = run.run_workload("verify-bands", 0, 0, False, tmp_path / "work",
                              golden_root=golden, min_passes=1)
    assert result["attempted"] == 4
    assert len(result["failures"]) == 1
    assert result["failures"][0].startswith("rwt-moment2: $.estimate")


def test_float_estimate_within_tolerance_passes(tmp_path):
    _, _, report = _report(tmp_path, "verify-bands", "rwt-moment2")
    actual = json.loads(report)
    golden = dict(actual)
    golden["estimate"] += 2 * golden["stderr"]
    assert checks.compare_reports(actual, golden) is None
    golden["estimate"] += 2 * golden["stderr"]
    assert checks.compare_reports(actual, golden) is not None


def test_stderr_only_checked_for_sign_and_finiteness(tmp_path):
    _, _, report = _report(tmp_path, "verify-bands", "rwt-moment2")
    actual = json.loads(report)
    golden = dict(actual, stderr=actual["stderr"] * 5)
    assert checks.compare_reports(actual, golden) is None
    assert checks.compare_reports(dict(actual, stderr=float("nan")), golden) is not None
    assert checks.compare_reports(dict(actual, stderr=-1.0), golden) is not None


def test_ccball_count_change_fails(tmp_path):
    job, code, report = _report(tmp_path, "ccball-cover", "cover-rho16")
    assert checks.check_job("ccball-cover", job, code, report, 0) is None
    actual = json.loads(report)
    golden = json.loads(checks.golden_path("ccball-cover", job, 0).read_text())
    golden["count"] += 1
    assert checks.compare_reports(actual, golden) is not None


def test_polyalg_exponent_change_fails(tmp_path):
    job, code, report = _report(tmp_path, "polyalg-cover", "monomialize-corpus6")
    assert checks.check_job("polyalg-cover", job, code, report, 0) is None
    data = json.loads(report)
    assert checks.cover_samples_ok(data, job.poly, run.COVER_SAMPLES) is None
    piece = next(p for p in data["pieces"] if p["lo"] is not None and p["hi"] is not None)
    piece["exponents"][0] += 1
    assert checks.cover_samples_ok(data, job.poly, run.COVER_SAMPLES) is not None


def test_polyalg_gutters_gaps_and_uncertified_fail(tmp_path):
    _, _, report = _report(tmp_path, "polyalg-cover", "monomialize-corpus1")
    data = json.loads(report)
    assert checks.check_cover(data) is None
    for key in ("uncertified_pieces", "root_gutters"):
        bad = json.loads(report)
        bad["diagnostics"][key] = 1
        assert checks.check_cover(bad) is not None
    bad = json.loads(report)
    del bad["pieces"][len(bad["pieces"]) // 2]
    bad["diagnostics"]["pieces"] -= 1
    assert checks.check_cover(bad) is not None


# -- tracing sees every layer --------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_metric_nonzero_where_exercised(traced_pass, workload):
    metrics = traced_pass(workload, 1)
    assert set(metrics) == {name for name, _, _ in tracing.PER_LAYER} - {"trace.overhead_s"}
    for name, where in tracing.EXERCISED_BY.items():
        if workload in where:
            assert metrics[name] > 0, name


def test_every_metric_has_an_exercising_workload():
    names = {name for name, _, _ in tracing.PER_LAYER} - {"trace.overhead_s"}
    assert names == set(tracing.EXERCISED_BY)


def test_wrappers_reach_names_bound_at_import():
    from torsionlab import ccballs, numeric, sampling, torsion, verify

    original = ccballs.newton_preimage
    pid = os.fork()
    if pid == 0:  # install in a child, as the runner does, to keep this process clean
        status = 1
        try:
            tracing.install(tracing.Tracer())
            assert ccballs.newton_preimage is numeric.newton_preimage
            assert ccballs.newton_preimage.__wrapped__ is original
            assert ccballs.halton is sampling.halton
            assert ccballs.iter_flow is torsion.iter_flow
            assert torsion.lie_series_flow.__wrapped__ is not None
            assert verify.qmc_mean is sampling.qmc_mean
            status = 0
        finally:
            os._exit(status)
    _, status = os.waitpid(pid, 0)
    assert status == 0
    assert ccballs.newton_preimage is original


# -- seeds change inputs, not the amount of work ---------------------------------------

@pytest.mark.parametrize("workload, size", [
    ("exact-moment", "polytope.lambda_table.tuples"),
    ("polyalg-cover", "polyalg.pieces"),
    ("verify-bands", "sampling.halton.points"),
    ("ccball-cover", "sampling.halton.points"),
])
def test_work_size_steady_across_seeds(traced_pass, workload, size):
    sizes = [traced_pass(workload, seed)[size] for seed in (1, 2, 3)]
    assert min(sizes) > 0
    assert max(sizes) / min(sizes) < 1.1, sizes


def test_seeded_inputs_are_reproducible(tmp_path):
    for workload in workloads.WORKLOADS:
        a = workloads.build(workload, 7, tmp_path / "a")
        b = workloads.build(workload, 7, tmp_path / "b")
        assert [j.id for j in a] == [j.id for j in b]
        for f in (tmp_path / "a").iterdir():
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()
    assert workloads.seeded_family(1) != workloads.seeded_family(2)
    assert workloads.seeded_curve(1) != workloads.seeded_curve(2)


# -- the contract file matches the runner -----------------------------------------------

def test_benchmark_json_matches_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        tracing.PER_LAYER
    e2e = run.end_to_end_metrics([{"wall_s": 1.0, "job_s": [1.0], "rss_mb": 1.0}], 1.0)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        [(k, unit) for k, (_, unit) in e2e.items()]


def test_goldens_exist_for_every_variant():
    for workload in ("exact-moment", "verify-bands", "ccball-cover"):
        for v in range(workloads.VARIANTS):
            for job in workloads.build(workload, v, BENCH / "_work" / "goldens"):
                assert checks.golden_path(workload, job, v).is_file(), (workload, job.id, v)
    shutil.rmtree(BENCH / "_work" / "goldens", ignore_errors=True)
