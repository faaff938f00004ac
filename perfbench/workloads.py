"""Job lists of the three benchmark workloads.

A job is one `casrod converge` CSV row: one problem x formulation x mesh x
slenderness. A study is the mesh sequence of one problem x formulation x
slenderness, which is what one `casrod converge` invocation runs. The seed
permutes the order of the studies and of the jobs inside each study, except
that each study opens with its coarsest mesh, as `casrod converge` does (it
runs meshes in ascending order). That job pays the study's cold
`ellipse_reference`, so every seed charges the reference to the same jobs.
The seed never changes which jobs run, so every seed checks against the same
stored outputs.

Why these workloads:

* sweep -- the paper's ring and arch convergence studies at one slenderness
  each (the middle one of the paper's three), all six formulations, meshes
  2..128 with L2 errors and one field dump per study. Small meshes make
  per-point `metrics` callbacks and per-call overhead dominate; constraint
  elimination and the solve stay tiny. The slenderness changes results, not
  cost, so one value per problem, and no 256-element mesh (which alone took
  half a pass), keep a pass at about two seconds. A run then holds many
  passes even on a slow host, and its medians are taken over many samples.
  With seven meshes the median job lies inside the 16-element group, not on
  the edge between two mesh sizes.
* large-mesh -- a few 1024/2048-element solves with point errors only, where
  the O(n^2) dense `assembly` work and knot-insertion refinement dominate.
  Global B-bar at 512 elements keeps the dense path under measurement.
* ellipse -- the NURBS and CAS ellipse studies with reference checks. Each
  study starts with a cold `ellipse_reference` cache, as each
  `casrod converge --problem ellipse` process does, so reference generation
  dominates here and nowhere else.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

MESHES = (2, 4, 8, 16, 32, 64, 128, 256)
SWEEP_MESHES = MESHES[:-1]
FORMULATIONS = ("nurbs", "nurbs-reduced", "cas", "local-bbar", "local-ans",
                "global-bbar")
ELLIPSE_THICKNESS = (0.4, 0.04, 0.004, 0.0004, 0.00004)
SWEEP_SLENDERNESS = {"ring": 1e6, "arch": 0.01}
FIELD_SAMPLES = 101
FIELD_MESH = 16  # the sweep's one field dump per study runs on this mesh


@dataclass(frozen=True)
class Job:
    """One solve: build -> solve_problem -> error evaluation."""

    workload: str
    problem: str
    formulation: str
    slenderness: float
    n_elements: int
    stage: str            # "l2" (L2 errors) or "points" (point errors only)
    fields: bool = False  # also dump FIELD_SAMPLES sampled fields

    @property
    def study(self) -> tuple[str, str, float]:
        return self.problem, self.formulation, self.slenderness

    @property
    def id(self) -> str:
        return (f"{self.workload}/{self.problem}/{self.formulation}/"
                f"{self.slenderness:g}/{self.n_elements}")


def _sweep() -> list[Job]:
    return [Job("sweep", problem, form, s, n, "l2", fields=n == FIELD_MESH)
            for problem, s in SWEEP_SLENDERNESS.items()
            for form in FORMULATIONS
            for n in SWEEP_MESHES]


def _large_mesh() -> list[Job]:
    jobs = [Job("large-mesh", "arch", form, 0.01, n, "points")
            for n in (1024, 2048) for form in ("nurbs", "cas", "local-bbar")]
    jobs.append(Job("large-mesh", "ring", "cas", 1e6, 2048, "points"))
    jobs.append(Job("large-mesh", "arch", "global-bbar", 0.01, 512, "points"))
    return jobs


def _ellipse() -> list[Job]:
    return [Job("ellipse", "ellipse", form, t, n, "points")
            for form in ("nurbs", "cas")
            for t in ELLIPSE_THICKNESS
            for n in MESHES]


WORKLOADS = {"sweep": _sweep, "large-mesh": _large_mesh, "ellipse": _ellipse}


def all_jobs(workload: str) -> list[Job]:
    """The workload's jobs in canonical (unpermuted) order."""
    return WORKLOADS[workload]()


def job_list(workload: str, seed: int) -> list[list[Job]]:
    """The workload's studies in seed order.

    Each study is its coarsest job followed by the others in seed order.
    """
    studies: dict[tuple, list[Job]] = {}
    for job in all_jobs(workload):
        studies.setdefault(job.study, []).append(job)
    rng = random.Random(seed)
    order = [sorted(study, key=lambda job: job.n_elements) for study in studies.values()]
    rng.shuffle(order)
    for study in order:
        rest = study[1:]
        rng.shuffle(rest)
        study[1:] = rest
    return order
