"""Relative L2 error norms, point-value extraction, field sampling, rates.

The displacement, membrane-force, and bending-moment errors are relative L2
norms over the model domain; the membrane force of a solution is recovered
through its formulation's own strain representation (assumed strain for the
locking treatments, compatible strain for plain NURBS).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import RodSolution
from .benchmarks import BenchmarkProblem
from .errors import InsufficientDataError, MissingExactFieldError
from .rod import frames_at
from .splines import arc_lengths_at, nurbs_basis_many

__all__ = [
    "ErrorReport",
    "ConvergenceRecord",
    "l2_errors",
    "point_errors",
    "sample_fields",
    "convergence_rate",
    "displacement_at",
    "FIELD_COLUMNS",
]

FIELD_COLUMNS = ("s", "phi", "u_x", "u_y", "N", "M", "N_exact", "M_exact")

_KNOT_OFFSET = 1e-9


@dataclass
class ErrorReport:
    """Relative L2 errors (None where no exact field exists) and point errors."""

    e_u: float | None
    e_n: float | None
    e_m: float | None
    point_errors: dict[str, float]


@dataclass
class ConvergenceRecord:
    """One mesh of a convergence study."""

    n_elements: int
    n_dof: int
    slenderness: float
    report: ErrorReport


def displacement_at(solution: RodSolution, xi) -> np.ndarray:
    """Displacement u^h(xi) of a solved discretization.

    Broadcasts over xi: a float gives a 2-vector, an array of shape S gives
    an array of shape S + (2,).
    """
    xi = np.asarray(xi, dtype=float)
    bb = nurbs_basis_many(solution.curve, xi.reshape(-1), max_deriv=0)
    return _interpolate(solution, bb).reshape(xi.shape + (2,))


def _interpolate(solution: RodSolution, basis) -> np.ndarray:
    """u^h at the points of a BasisBatch or FrameBatch, shape (m, 2)."""
    rows = solution.u[basis.first_active[:, None] + np.arange(solution.curve.degree + 1)]
    return np.einsum("mj,mjc->mc", basis.values, rows)


def point_errors(problem: BenchmarkProblem, solution: RodSolution) -> dict[str, float]:
    """Relative displacement errors at the problem's reference points."""
    checks = problem.point_checks
    u = displacement_at(solution, [c.xi for c in checks])
    directions = np.array([c.direction for c in checks], dtype=float).reshape(-1, 2)
    values = np.einsum("mc,mc->m", u, directions)
    return {c.label: abs(float(v) - c.value) / abs(c.value) for c, v in zip(checks, values)}


def l2_errors(problem: BenchmarkProblem, solution: RodSolution,
              quad_pts_per_element: int = 10) -> ErrorReport:
    """Relative L2 errors of u, N, and M against the problem's exact fields.

    Uses a dedicated error-integration rule (default 10 points per element,
    saturation-verified); raises MissingExactFieldError when the problem has
    no exact fields at all.
    """
    if not problem.has_exact_fields:
        raise MissingExactFieldError(
            f"problem {problem.name!r} defines no exact fields")
    curve = solution.curve
    pts, wts = np.polynomial.legendre.leggauss(quad_pts_per_element)
    bp = np.asarray(curve.knot_vector.breakpoints, dtype=float)
    halves = 0.5 * (bp[1:] - bp[:-1])
    mids = 0.5 * (bp[1:] + bp[:-1])
    xis = (mids[:, None] + halves[:, None] * pts).reshape(-1)
    fb = frames_at(curve, xis)  # shared by the Jacobian, u^h, N^h and M^h
    wds = (fb.jac.reshape(curve.n_elements, -1) * halves[:, None] * wts).reshape(-1)
    phis = problem.angle_map(xis)

    e_u = e_n = e_m = None
    if problem.exact_u is not None:
        u_h = _interpolate(solution, fb)
        u_ex = problem.exact_u(phis)
        num_u = float(np.sum(wds * np.sum((u_h - u_ex) ** 2, axis=1)))
        den_u = float(np.sum(wds * np.sum(u_ex**2, axis=1)))
        e_u = np.sqrt(num_u / den_u)
    if problem.exact_n is not None:
        n_h = solution.ops.membrane_force_profile(solution.u, xis, fb)
        n_ex = problem.exact_n(phis)
        num_n = float(np.sum(wds * (n_h - n_ex) ** 2))
        den_n = float(np.sum(wds * n_ex**2))
        e_n = np.sqrt(num_n / den_n)
    if problem.exact_m is not None:
        m_h = solution.ops.bending_moment_profile(solution.u, xis, fb)
        m_ex = problem.exact_m(phis)
        num_m = float(np.sum(wds * (m_h - m_ex) ** 2))
        den_m = float(np.sum(wds * m_ex**2))
        e_m = np.sqrt(num_m / den_m)
    return ErrorReport(e_u=e_u, e_n=e_n, e_m=e_m,
                       point_errors=point_errors(problem, solution))


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

    Exact columns hold NaN where the problem has no exact field.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    curve = solution.curve
    xis = _nudge_off_knots(np.linspace(0.0, 1.0, n_samples),
                           np.asarray(curve.knot_vector.breakpoints))
    s = arc_lengths_at(curve, xis)
    fb = frames_at(curve, xis)
    n_h = solution.ops.membrane_force_profile(solution.u, xis, fb)
    m_h = solution.ops.bending_moment_profile(solution.u, xis, fb)
    u_h = _interpolate(solution, fb)
    phi = problem.angle_map(xis)
    missing = np.full(n_samples, np.nan)
    n_ex = missing if problem.exact_n is None else problem.exact_n(phi)
    m_ex = missing if problem.exact_m is None else problem.exact_m(phi)
    return np.column_stack([s, phi, u_h, n_h, m_h, n_ex, m_ex])


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
