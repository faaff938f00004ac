"""The benchmark harness still drives the package: small jobs, both paths.

`perfbench/stages.py` calls casrod's public functions (and
`solution_backward_error`, `point_errors`, `ellipse_reference.cache_clear`
through the harness). A package change that breaks one of those imports or
calls, or that moves a job's outputs outside its stored tolerance in
`golden.json`, fails here in about a second; `perfbench/selftest.py` covers
the rest of the harness and takes much longer.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
import stages  # noqa: E402
import workloads  # noqa: E402
from workloads import Job  # noqa: E402


def test_plain_and_traced_jobs_give_identical_outputs():
    # the 8-element ring CAS job with L2 errors and a field dump
    job = stages.WARM_UP
    assert (job.problem, job.formulation, job.n_elements, job.stage, job.fields) == (
        "ring", "cas", 8, "l2", True)
    plain = stages.run_plain(job)
    tracer = stages.Tracer()
    traced, counts, _ = stages.run_traced(job, False, tracer)
    assert plain == traced
    assert set(plain) >= {"e", "fields", "fields_digest", "points", "digest"}
    assert counts["n_dof"] == plain["n_dof"]
    assert counts["backward_error"] < 1e-10
    names = {span[0] for span in tracer.spans}
    assert {"formulations.ops", "assembly.constrain", "metrics.l2", "metrics.fields"} <= names


def test_point_error_job_and_reference_cache():
    # the large-mesh stage (point errors only), on a small arch mesh
    job = Job("contract", "arch", "cas", 0.01, 8, "points")
    plain = stages.run_plain(job)
    traced, _, _ = stages.run_traced(job, False, stages.Tracer())
    assert plain == traced
    assert set(plain["points"]) == {"uyC"}
    # worker.py clears the reference cache before every ellipse study
    assert callable(stages.ellipse_reference.cache_clear)


def test_ellipse_points_job_with_fresh_reference():
    # the ellipse workload's CAS job: the traced path regenerates the
    # reference (the virtual-work quadrature, no solve) inside its span, as
    # worker.py does for the first job of every ellipse study
    job = Job("contract", "ellipse", "cas", 0.04, 8, "points")
    stages.ellipse_reference.cache_clear()
    plain = stages.run_plain(job)
    stages.ellipse_reference.cache_clear()
    tracer = stages.Tracer()
    traced, _, _ = stages.run_traced(job, True, tracer)
    assert plain == traced
    assert set(plain["points"]) == {"ux_free", "uy_free"}
    assert stages.ellipse_reference.cache_info().misses == 1
    assert "benchmarks.reference" in {span[0] for span in tracer.spans}


def test_every_benchmark_job_matches_golden():
    # the benchmark rejects a change whose outputs leave these tolerances
    golden = checks.load_golden()
    jobs = [job for w in workloads.WORKLOADS for job in workloads.all_jobs(w)]
    assert len(jobs) == 172
    assert sorted(job.id for job in jobs) == sorted(golden)
    mismatches = {job.id: reason for job in jobs
                  if (reason := checks.compare(stages.run_plain(job), golden[job.id]))}
    assert not mismatches, mismatches
