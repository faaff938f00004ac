"""One workload run in a fresh process; started by run.py.

Protocol on standard output: after importing casrod and running one warm-up
job the worker prints `ready`; run.py times set-up up to that line. Unless
--setup-only is given it then runs the workload and prints one JSON object
with the metrics (each with a sample count), failures and environment.

Both modes start with one untimed warm-up pass (see measure). Untraced
(--trace 0): whole passes over the job list, median pass time as wall_s.
job_ms_p50 is the median over passes of each pass's median job latency: a
workload's median can fall in the gap between two mesh sizes, where one slow
pass would move a pooled median by much of that gap. job_ms_p90 pools every
pass's latencies, so that at least ten lie beyond it. Traced (--trace 1):
untraced and traced passes alternate; the traced ones give per-layer self
times and are checked bit for bit against the untraced outputs.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import stages  # noqa: E402
from workloads import FORMULATIONS, WORKLOADS, job_list  # noqa: E402

# The fewest job samples of which ten lie beyond the inclusive 90th percentile.
MIN_LATENCY_SAMPLES = 92
# Span names of the layers; the rest of traced wall_s is the benchmark's own.
LAYERS = ("benchmarks.build", "benchmarks.reference", "formulations.ops",
          "assembly.assemble", "assembly.constrain", "assembly.solve",
          "metrics.l2", "metrics.fields", "metrics.points")


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
    }


class Run:
    """State of one workload run: its studies, checks and collected passes."""

    def __init__(self, workload: str, seed: int):
        self.studies = job_list(workload, seed)
        self.jobs = {job.id: job for study in self.studies for job in study}
        self.n_jobs = len(self.jobs)
        self.golden = checks.load_golden()
        self.oracles = {t: checks.ellipse_free_end_oracle(t)
                        for t in {s[0].slenderness for s in self.studies
                                  if s[0].problem == "ellipse"}}
        self.attempted = 0
        self.failures: list[str] = []
        self.known_defects: list[str] = []
        self.reference_devs: list[float] = []
        self.tracer = stages.Tracer()

    def run_pass(self, traced: bool) -> dict:
        """One pass over every job; outputs are checked after the timed part."""
        gc.collect()
        outputs, errors, latencies, references, counts = {}, {}, [], [], []
        first_span = len(self.tracer.spans)
        extra_s = 0.0
        start = time.perf_counter()
        for study in self.studies:
            fresh = study[0].problem == "ellipse"
            if fresh:  # cold, as in a fresh `casrod converge --problem ellipse`
                stages.ellipse_reference.cache_clear()
            for i, job in enumerate(study):
                t0 = time.perf_counter()
                first = len(self.tracer.spans)
                try:
                    if traced:
                        out, job_counts, _ = stages.run_traced(job, fresh and i == 0,
                                                               self.tracer)
                    else:
                        out = stages.run_plain(job)
                except Exception as exc:  # a raised error is a failed operation
                    errors[job.id] = f"{type(exc).__name__}: {exc}"
                    continue
                t1 = time.perf_counter()
                latencies.append((t1 - t0) * 1e3)
                outputs[job.id] = out
                if traced:
                    counts.append((job, job_counts))
                    # counts computed after the job span are not traced work
                    extra_s += t1 - self.tracer.spans[first][2]
                if fresh and i == 0:
                    references.append((job.slenderness, stages.ellipse_reference(job.slenderness)))
        wall = time.perf_counter() - start - extra_s
        self._check(outputs, errors, references, counts)
        return {"wall_s": wall, "latencies_ms": latencies,
                "outputs": outputs, "counts": counts,
                "spans": (first_span, len(self.tracer.spans))}

    def _check(self, outputs: dict, errors: dict, references: list, counts: list) -> None:
        self.attempted += self.n_jobs + len(references)
        for jid, message in errors.items():
            self.failures.append(f"{jid}: raised {message}")
        backward = {job.id: checks.check_backward_error(c["backward_error"], c["n_dof"])
                    for job, c in counts}  # traced passes only
        for jid, out in outputs.items():
            reason = checks.compare(out, self.golden.get(jid)) or backward.get(jid)
            if reason is not None:
                self.failures.append(f"{jid}: {reason}")
        for t, ref in references:
            dev = checks.reference_deviation(ref, self.oracles[t])
            self.reference_devs.append(dev)
            if dev <= checks.REFERENCE_TOL:
                continue
            line = (f"ellipse_reference(t={t:g}) deviates {dev:.3e} from the "
                    f"virtual-work oracle (tol {checks.REFERENCE_TOL:g})")
            if checks.is_known_defect(t):
                self.known_defects.append(line + "; known defect, ROADMAP item 4")
            else:
                self.failures.append(line)

    def check_parity(self, plain: dict, traced: dict) -> None:
        """Traced outputs must equal the untraced ones bit for bit."""
        for jid, out in traced["outputs"].items():
            if jid in plain["outputs"] and out != plain["outputs"][jid]:
                self.failures.append(f"{jid}: traced output differs from untraced output")

    def layer_times(self, traced: dict) -> dict:
        """Self time per layer and counts of one traced pass."""
        lo, hi = traced["spans"]
        spans = self.tracer.spans[lo:hi]
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= lo:
                child[parent - lo] += t1 - t0
        self_s = dict.fromkeys(LAYERS, 0.0)
        ops_by_form = {form: 0.0 for form in FORMULATIONS}
        ops_by_mesh = {}
        calls = {"benchmarks.build": 0, "benchmarks.reference": 0}
        for (name, t0, t1, _, jid), inner in zip(spans, child):
            own = t1 - t0 - inner
            if name in self_s:
                self_s[name] += own
            if name in calls:
                calls[name] += 1
            if name == "formulations.ops":
                job = self.jobs[jid]
                ops_by_form[job.formulation] += own
                key = (job.problem, job.slenderness, job.n_elements)
                ops_by_mesh.setdefault(key, {})[job.formulation] = own
        pairs = [v for v in ops_by_mesh.values() if "cas" in v and "nurbs" in v]
        nurbs = sum(v["nurbs"] for v in pairs)
        counts = [c for _, c in traced["counts"]]
        return {
            "wall_s": traced["wall_s"],
            "self_s": self_s,
            "ops_by_form": ops_by_form,
            "cas_over_nurbs": sum(v["cas"] for v in pairs) / nurbs if nurbs else 0.0,
            "calls": calls,
            "n_dof": sum(c["n_dof"] for c in counts),
            "k_bytes": max((c["k_bytes"] for c in counts), default=0),
            "backward_error": max((c["backward_error"] for c in counts), default=0.0),
            "l2_points": sum(c["l2_points"] for c in counts),
            "fields_samples": sum(c["fields_samples"] for c in counts),
        }


def _metric(value, unit: str, samples: int, **extra) -> dict:
    return {"value": float(value), "unit": unit, "samples": samples, **extra}


def end_to_end(passes: list[dict]) -> dict:
    walls = [p["wall_s"] for p in passes]
    latencies = [x for p in passes for x in p["latencies_ms"]]
    p50 = statistics.median(statistics.median(p["latencies_ms"]) for p in passes)
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    return {
        "wall_s": _metric(statistics.median(walls), "s", len(walls)),
        "job_ms_p50": _metric(p50, "ms", len(latencies),
                              beyond=sum(x > p50 for x in latencies)),
        "job_ms_p90": _metric(p90, "ms", len(latencies),
                              beyond=sum(x > p90 for x in latencies)),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB", 1),
    }


def per_layer(run: Run, plain: list[dict], traced: list[dict]) -> dict:
    layers = [run.layer_times(t) for t in traced]
    n = len(layers)

    def med(get):
        return statistics.median(get(layer) for layer in layers)

    out = {}
    for stem in LAYERS:
        out[f"{stem}_ms"] = _metric(med(lambda l: l["self_s"][stem] * 1e3), "ms", n)
        out[f"{stem}_share"] = _metric(
            med(lambda l: l["self_s"][stem] / l["wall_s"]), "frac", n)
    out["benchmarks.build_calls"] = _metric(
        med(lambda l: l["calls"]["benchmarks.build"]), "count", n)
    out["benchmarks.reference_calls"] = _metric(
        med(lambda l: l["calls"]["benchmarks.reference"]), "count", n)
    out["benchmarks.reference_rel_dev_max"] = _metric(
        max(run.reference_devs, default=0.0), "frac", len(run.reference_devs))
    out["benchmarks.reference_known_defects"] = _metric(
        len(run.known_defects), "count", len(run.reference_devs))
    for form in FORMULATIONS:
        out[f"formulations.ops_ms.{form}"] = _metric(
            med(lambda l: l["ops_by_form"][form] * 1e3), "ms", n)
    out["formulations.cas_over_nurbs"] = _metric(med(lambda l: l["cas_over_nurbs"]), "ratio", n)
    out["assembly.n_dof"] = _metric(med(lambda l: l["n_dof"]), "count", n)
    out["assembly.k_bytes"] = _metric(med(lambda l: l["k_bytes"]), "B-computed", n)
    out["assembly.backward_error_max"] = _metric(
        max(l["backward_error"] for l in layers), "ratio", n)
    out["metrics.l2_points"] = _metric(med(lambda l: l["l2_points"]), "count", n)
    out["metrics.fields_samples"] = _metric(med(lambda l: l["fields_samples"]), "count", n)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    traced_wall = statistics.median(l["wall_s"] for l in layers)
    out["trace.overhead_frac"] = _metric(traced_wall / plain_wall - 1.0, "frac", n)
    return out


def measure(run: Run, seconds: float, traced: bool) -> tuple[list[dict], list[dict]]:
    """Whole passes (untraced, or untraced/traced pairs) for about `seconds`.

    An untimed, checked warm-up pass comes first: the first pass over a job
    list runs slower than the rest (casrod's caches, allocator growth), and
    which of its jobs pay for that depends on the seed. A pass (or pair) is
    not started when it would end after `seconds`, except to reach the
    minimum: untraced, two passes and MIN_LATENCY_SAMPLES job latencies;
    traced, one pair.
    """
    min_rounds = 1 if traced else max(2, math.ceil(MIN_LATENCY_SAMPLES / run.n_jobs))
    plain, traced_passes = [], []
    start = time.perf_counter()
    run.run_pass(traced=False)
    rounds = 0
    timed_start = time.perf_counter()
    while True:
        plain.append(run.run_pass(traced=False))
        if traced:
            traced_passes.append(run.run_pass(traced=True))
            run.check_parity(plain[0], traced_passes[-1])
        rounds += 1
        now = time.perf_counter()
        next_end = now + (now - timed_start) / rounds
        if rounds >= min_rounds and next_end - start > seconds:
            return plain, traced_passes


def write_spans(run: Run, path: Path) -> None:
    origin = run.tracer.spans[0][1] if run.tracer.spans else 0.0
    rows = [[name, t0 - origin, t1 - origin, parent, jid]
            for name, t0, t1, parent, jid in run.tracer.spans]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"columns": ["name", "start_s", "end_s", "parent", "job_id"],
                   "spans": rows}, handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", type=Path, default=None)
    args = parser.parse_args(argv)

    stages.run_plain(stages.WARM_UP)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    run = Run(args.workload, args.seed)
    plain, traced = measure(run, args.seconds, bool(args.trace))
    if args.trace:
        metrics = per_layer(run, plain, traced)
        if args.spans_out is not None:
            write_spans(run, args.spans_out)
    else:
        metrics = end_to_end(plain)
    result = {
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures,
        "known_defects": run.known_defects,
        "metrics": metrics,
        "environment": environment(),
        "job_order": [job.id for study in run.studies for job in study],
        "spans": len(run.tracer.spans),
        "pass_walls_s": {"plain": [p["wall_s"] for p in plain],
                         "traced": [p["wall_s"] for p in traced]},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
