"""casrod benchmark: one workload, end-to-end or per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload {sweep,large-mesh,ellipse} \
        --seed N --seconds S --trace {0,1}

Every casrod process this starts is fresh and pinned to one BLAS/OpenMP
thread. Set-up (process start through import and one warm-up job) is timed
in SETUP_PROBES set-up-only processes, half before and half after the
measuring process, and in the measuring process, and reported as their
median. The measuring process (worker.py) runs the
workload, checks every job against golden.json and every ellipse reference
against an independent oracle, and returns metrics with sample counts.

With --trace 0 the result holds the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. Lines before the last give each metric
with its unit and sample count, the environment, failures and known defects;
the last line is the JSON result. A record of the run (and, traced, its
spans) is written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_PROBES = 4
TIMEOUT_S = 170.0
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(PINNED_THREADS, "1"))
    env["PYTHONHASHSEED"] = "0"
    return env


def _start_worker(args: list[str], deadline: float) -> tuple[str, float]:
    """Run worker.py; return its output after `ready` and its set-up time."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted before starting a process")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT)
    watchdog = threading.Timer(remaining, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise BenchError(f"worker {' '.join(args)} failed with exit code {code}")
    return rest, setup_s


def _check_names(metrics: dict, spec: dict, trace: int) -> None:
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != wanted:
        raise BenchError(f"metrics {sorted(set(got.items()) ^ set(wanted.items()))} "
                         "do not match BENCHMARK.json")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if not (ROOT / "src" / "casrod" / "__init__.py").is_file():
        raise BenchError(f"casrod sources not found under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + TIMEOUT_S
    worker_args = ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]

    def probe() -> float:
        return _start_worker(worker_args + ["--setup-only"], deadline)[1]

    # probes before and after the measuring process sample the machine twice
    setup = [probe() for _ in range(SETUP_PROBES // 2)]
    tag = f"{workload}-seed{seed}-trace{trace}"
    spans = ["--spans-out", str(RESULTS / f"{tag}-spans.json")] if trace else []
    output, main_setup = _start_worker(worker_args + spans, deadline)
    setup.append(main_setup)
    setup += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    result = json.loads(output.strip().splitlines()[-1])
    metrics = result["metrics"]
    if not trace:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s",
                              "samples": len(setup)}
    _check_names(metrics, spec, trace)
    result["setup_samples_s"] = setup
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="casrod benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, ValueError, KeyError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    env = result["environment"]
    print(f"environment: nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} blas={env['blas']} "
          f"threads={env['threads']}")
    for name, m in result["metrics"].items():
        extra = f", {m['beyond']} beyond" if "beyond" in m else ""
        print(f"{name} = {m['value']:.6g} {m['unit']} (n={m['samples']}{extra})")
    # fail_rate is printed, not returned as a metric: it reads 0 on a correct
    # run, so no bound can be a share of its median.
    print(f"fail_rate = {result['failed'] / result['attempted']:.6g} "
          f"(n={result['attempted']} operations, {result['failed']} failed)")
    for line in sorted(set(result["known_defects"])):
        count = result["known_defects"].count(line)
        print(f"known defect ({count} checks): {line}")
    for line in result["failures"][:20]:
        print(f"FAILED: {line}")
    RESULTS.mkdir(exist_ok=True)
    record = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"args": vars(args), **result}, indent=1) + "\n")

    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
