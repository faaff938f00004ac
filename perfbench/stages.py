"""The calls into casrod that make up one job, untraced and traced.

Only public casrod calls are made. The traced job composes PatchOperators ->
assemble -> apply_constraints -> solve exactly as `solve_problem` does, with
one span around each call, so both paths compute bit-identical outputs.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager

import numpy as np

from casrod import (
    ElementFormulation,
    PatchOperators,
    RodSolution,
    apply_constraints,
    assemble,
    build_arch_half,
    build_ellipse_quarter,
    build_ring_quarter,
    ellipse_reference,
    l2_errors,
    sample_fields,
    solve,
    solve_problem,
)
from casrod.assembly import solution_backward_error
from casrod.metrics import point_errors

from workloads import FIELD_SAMPLES, Job

# Points per element of l2_errors' default error-integration rule.
L2_POINTS_PER_ELEMENT = 10

WARM_UP = Job("warm-up", "ring", "cas", 1e6, 8, "l2", fields=True)


class Tracer:
    """In-memory spans: [name, start, end, parent index, job id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, job_id: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, job_id])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()


def build(job: Job):
    if job.problem == "ring":
        return build_ring_quarter(job.n_elements, ea=job.slenderness)
    if job.problem == "arch":
        return build_arch_half(job.n_elements, t=job.slenderness)
    return build_ellipse_quarter(job.n_elements, t=job.slenderness,
                                 with_reference_checks=True)


def _digest(array: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(array).tobytes(), digest_size=16).hexdigest()


def _outputs(solution, points: dict, report=None, fields=None) -> dict:
    """What a job produced: checked against golden.json and across runs."""
    u = solution.u
    out = {
        "n_dof": int(solution.n_dof),
        "u0": [float(u[0, 0]), float(u[0, 1])],
        "u1": [float(u[-1, 0]), float(u[-1, 1])],
        "points": {k: float(v) for k, v in points.items()},
        "digest": _digest(u),
    }
    if report is not None:
        out["e"] = [None if e is None else float(e) for e in (report.e_u, report.e_n, report.e_m)]
    if fields is not None:
        out["fields"] = [float(v) for v in np.linalg.norm(fields[:, 2:6], axis=0)]
        out["fields_digest"] = _digest(fields)
    return out


def run_plain(job: Job) -> dict:
    """build -> solve_problem -> errors, as `casrod converge` runs one row."""
    problem = build(job)
    solution = solve_problem(problem, ElementFormulation(job.formulation))
    if job.stage == "l2":
        report = l2_errors(problem, solution)
        fields = sample_fields(problem, solution, FIELD_SAMPLES) if job.fields else None
        return _outputs(solution, report.point_errors, report, fields)
    return _outputs(solution, point_errors(problem, solution))


def run_traced(job: Job, fresh_reference: bool, tracer: Tracer):
    """The same job with a span around each public call.

    Returns the outputs, the per-job counts that need the intermediate
    systems (computed after the job span closes) and the constrained system.
    """
    formulation = ElementFormulation(job.formulation)
    jid = job.id
    report = fields = None
    with tracer.span("job", jid):
        if fresh_reference:
            with tracer.span("benchmarks.reference", jid):
                ellipse_reference(job.slenderness)
        with tracer.span("benchmarks.build", jid):
            problem = build(job)
        with tracer.span("formulations.ops", jid):
            ops = PatchOperators(problem.curve, problem.section, formulation, None)
        with tracer.span("assembly.assemble", jid):
            system = assemble(problem.curve, problem.section, formulation, problem.loads,
                              ops=ops)
        with tracer.span("assembly.constrain", jid):
            constrained = apply_constraints(system, problem.constraints)
        with tracer.span("assembly.solve", jid):
            displacements = solve(constrained)
        solution = RodSolution(curve=problem.curve, section=problem.section,
                               formulation=formulation, quad_points=ops.n_quad,
                               displacements=displacements, ops=ops,
                               n_dof=constrained.n_dof)
        if job.stage == "l2":
            with tracer.span("metrics.l2", jid):
                report = l2_errors(problem, solution)
            points = report.point_errors
            if job.fields:
                with tracer.span("metrics.fields", jid):
                    fields = sample_fields(problem, solution, FIELD_SAMPLES)
        else:
            with tracer.span("metrics.points", jid):
                points = point_errors(problem, solution)
        out = _outputs(solution, points, report, fields)
    u_free = displacements.u.reshape(-1)[constrained.free_dofs]
    counts = {
        "n_dof": constrained.n_dof,
        "k_bytes": system.k.nbytes + constrained.k.nbytes,
        "backward_error": solution_backward_error(constrained.k, u_free, constrained.f),
        "l2_points": job.n_elements * L2_POINTS_PER_ELEMENT if report is not None else 0,
        "fields_samples": FIELD_SAMPLES if fields is not None else 0,
    }
    return out, counts, constrained
