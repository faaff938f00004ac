"""Write golden.json: every job's outputs and its reduced stiffness's condition.

Run from the repository root with `python3 perfbench/make_golden.py`. The
stored file pins the outputs of the commit that defined the benchmark; later
changes are checked against it, so regenerate it only in a change that alters
casrod's results on purpose and says so.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import stages  # noqa: E402
from workloads import WORKLOADS, all_jobs  # noqa: E402

STORED = ("n_dof", "u0", "u1", "e", "fields")


def main() -> int:
    jobs = {}
    for workload in WORKLOADS:
        for job in all_jobs(workload):
            out, counts, constrained = stages.run_traced(job, False, stages.Tracer())
            record = {key: out[key] for key in STORED if key in out}
            # 1-norm condition number of the job's constrained stiffness matrix
            record["kappa"] = float(np.linalg.cond(constrained.k, 1))
            jobs[job.id] = record
            backward = counts["backward_error"] / (counts["n_dof"] * checks.EPS)
            print(f"{job.id}: kappa {record['kappa']:.3e} "
                  f"tol {checks.tolerance(record['kappa']):.3e} "
                  f"backward error {backward:.3g} n*eps", flush=True)
    with open(checks.GOLDEN_PATH, "w") as handle:
        json.dump({"jobs": jobs}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
