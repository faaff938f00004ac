"""Relative L2 error norms, point-value extraction, field sampling, rates.

The displacement, membrane-force, and bending-moment errors are relative L2
norms over the model domain; the membrane force of a solution is recovered
through its formulation's own strain representation (assumed strain for the
locking treatments, compatible strain for plain NURBS). `l2_errors` reports
every problem, with None where it has no exact field. A metric given the
solution of another problem (another curve object) raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import RodSolution
from .benchmarks import BenchmarkProblem
from .errors import InsufficientDataError
from .rod import frames_at
from .quadrature import _gauss_points, _legendre
from .splines import _find_spans, combine, nurbs_basis_many

__all__ = [
    "ErrorReport",
    "l2_errors",
    "point_errors",
    "sample_fields",
    "convergence_rate",
    "displacement_at",
    "FIELD_COLUMNS",
]

FIELD_COLUMNS = ("s", "phi", "u_x", "u_y", "N", "M", "N_exact", "M_exact")

_KNOT_OFFSET = 1e-9
_ARC_RULE_POINTS = 10  # Gauss points per arc-length segment


@dataclass
class ErrorReport:
    """Relative L2 errors (None where no exact field exists) and point errors."""

    e_u: float | None
    e_n: float | None
    e_m: float | None
    point_errors: dict[str, float]


def displacement_at(solution: RodSolution, xi) -> np.ndarray:
    """Displacement u^h(xi) of a solved discretization.

    Broadcasts over xi: a float gives a 2-vector, an array of shape S gives
    an array of shape S + (2,).
    """
    xi = np.asarray(xi, dtype=float)
    bb = nurbs_basis_many(solution.curve, xi.reshape(-1), max_deriv=0)
    return combine(solution.u, bb.first_active, bb.values.T).T.reshape(xi.shape + (2,))


def _check_pair(problem: BenchmarkProblem, solution: RodSolution) -> None:
    if solution.curve is not problem.curve:
        raise ValueError(f"the solution was not computed on problem {problem.name!r}'s curve")


def point_errors(problem: BenchmarkProblem, solution: RodSolution) -> dict[str, float]:
    """Relative displacement errors at the problem's reference points."""
    _check_pair(problem, solution)
    checks = problem.point_checks
    return _point_errors(checks, displacement_at(solution, [c.xi for c in checks]))


def _point_errors(checks, u: np.ndarray) -> dict[str, float]:  # u: one 2-vector per check
    return {c.label: abs(ux * c.direction[0] + uy * c.direction[1] - c.value) / abs(c.value)
            for c, (ux, uy) in zip(checks, u.tolist())}


def l2_errors(problem: BenchmarkProblem, solution: RodSolution,
              quad_pts_per_element: int = 10) -> ErrorReport:
    """Relative L2 errors of u, N, and M against the problem's exact fields.

    Uses a dedicated error-integration rule (default 10 points per element,
    saturation-verified). An error is None where the problem has no exact
    field; a problem with none at all gets only its point errors. One frame
    batch, the error points followed by the point-check abscissae, gives the
    Jacobians, the positions for `angle_map`, u^h, N^h, M^h and the point
    errors.
    """
    if not problem.has_exact_fields:
        return ErrorReport(e_u=None, e_n=None, e_m=None,
                           point_errors=point_errors(problem, solution))
    _check_pair(problem, solution)
    curve = solution.curve
    rule = _legendre(quad_pts_per_element)
    bp = np.asarray(curve.knot_vector.breakpoints, dtype=float)
    xis, halves = _gauss_points(bp[:-1], bp[1:], rule.points)
    checks, m = problem.point_checks, len(xis)
    batch = frames_at(curve, np.concatenate([xis, [c.xi for c in checks]]))
    fb = batch[:m]
    wds = (fb.jac.reshape(curve.n_elements, -1) * halves[:, None] * rule.weights).reshape(-1)
    phis = problem.angle_map(fb.x)

    def relative(approx, exact):  # of a field with one scalar or one 2-vector per point
        num, den = (float(np.sum(wds * (v**2).reshape(m, -1).sum(axis=1)))
                    for v in (approx - exact, exact))
        return np.sqrt(num / den)

    eps, kappa = solution.ops.strains(solution.u, fb)
    u_h = combine(solution.u, batch.first_active, batch.values.T).T
    e_u = e_n = e_m = None
    if problem.exact_u is not None:
        e_u = relative(u_h[:m], problem.exact_u(phis))
    if problem.exact_n is not None:
        e_n = relative(solution.ops.section.ea * eps, problem.exact_n(phis))
    if problem.exact_m is not None:
        e_m = relative(solution.ops.section.ei * kappa, problem.exact_m(phis))
    return ErrorReport(e_u=e_u, e_n=e_n, e_m=e_m, point_errors=_point_errors(checks, u_h[m:]))


def _nudge_off_knots(xis: np.ndarray, breakpoints: np.ndarray) -> np.ndarray:
    """Shift samples sitting on a knot into the element interior.

    The bending moment (and the local assumed strains) are discontinuous
    across knots, so sampling exactly on one is ambiguous.
    """
    k = np.clip(np.searchsorted(breakpoints, xis), 1, len(breakpoints) - 1)
    left, right = breakpoints[k - 1], breakpoints[k]
    nearest = np.where(xis - left <= right - xis, left, right)
    inward = np.where(nearest >= 1.0, nearest - _KNOT_OFFSET, nearest + _KNOT_OFFSET)
    return np.where(np.abs(nearest - xis) < _KNOT_OFFSET, inward, xis)


def sample_fields(problem: BenchmarkProblem, solution: RodSolution,
                  n_samples: int) -> np.ndarray:
    """Uniform-in-xi field samples: columns are FIELD_COLUMNS.

    Exact columns hold NaN where the problem has no exact field. One frame
    batch holds the samples, a 10-point Gauss rule on [element start, xi] of
    each sample and the same rule on each element: s sums jac x weights.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    _check_pair(problem, solution)
    curve = solution.curve
    bp = np.asarray(curve.knot_vector.breakpoints, dtype=float)
    xis = _nudge_off_knots(np.linspace(0.0, 1.0, n_samples), bp)
    rule = _legendre(_ARC_RULE_POINTS)
    e = _find_spans(curve.knot_vector, xis) - curve.degree  # the element of each sample
    partial, partial_halves = _gauss_points(bp[e], xis, rule.points)
    whole, whole_halves = _gauss_points(bp[:-1], bp[1:], rule.points)
    batch = frames_at(curve, np.concatenate([xis, partial, whole]))
    jac = batch.jac[n_samples:].reshape(-1, rule.n_points)
    boundary = np.concatenate([[0.0], np.cumsum(whole_halves * (jac[n_samples:] @ rule.weights))])
    s = boundary[e] + partial_halves * (jac[:n_samples] @ rule.weights)
    fb = batch[:n_samples]
    eps, kappa = solution.ops.strains(solution.u, fb)
    n_h, m_h = solution.ops.section.ea * eps, solution.ops.section.ei * kappa
    u_h = combine(solution.u, fb.first_active, fb.values.T)  # the u_x and u_y rows
    phi = problem.angle_map(fb.x)
    missing = np.full(n_samples, np.nan)
    n_ex = missing if problem.exact_n is None else problem.exact_n(phi)
    m_ex = missing if problem.exact_m is None else problem.exact_m(phi)
    return np.column_stack([s, phi, *u_h, n_h, m_h, n_ex, m_ex])


def convergence_rate(points: list[tuple[int, float]]) -> float:
    """Observed rate from the last 3 (n_elements, error) pairs.

    Least-squares slope of log(error) against log(n_elements), sign flipped
    so that a positive rate means the error decreases under refinement.
    """
    usable = [(n, e) for n, e in points if e > 0.0]
    if len(usable) < 3:
        raise InsufficientDataError(
            f"need at least 3 records with positive errors, got {len(usable)}")
    tail = usable[-3:]
    log_n = np.log([n for n, _ in tail])
    log_e = np.log([e for _, e in tail])
    slope = np.polyfit(log_n, log_e, 1)[0]
    return float(-slope)
