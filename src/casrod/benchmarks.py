"""The three benchmark problems with exact/reference solutions.

Geometry placement and curve orientation are pinned by requiring the
closed-form solutions (point displacements, membrane force, bending moment,
including signs) to be reproduced by the discretization:

* Pinched ring, quarter model in the fourth quadrant: curve runs from the
  loaded point A = (R, 0) to B = (0, -R); the other half of each pinch load
  acts on the mirror halves, so the quarter carries P/2 at A pointing inward
  along the x-axis. phi is the angle measured from B.
* Clamped-clamped semicircular arch, half model: curve runs from the clamped
  base (-R, 0) to the crown (0, R); phi is measured from the base, and the
  distributed load (0, -q y/R) = (0, -q sin phi) at the point (x, y) is the
  vertical load q per unit horizontal length converted to arc-length density.
* Clamped elliptical arch: quarter ellipse from the clamped end (-a, 0) to
  the free end (0, b), vertical point load at the free end. The arch is
  statically determinate, so its resultants are exact and the free-end
  reference displacements are a unit-load (virtual-work) integral of them;
  see `ellipse_reference`. No exact fields are attached.

Every mesh is built in one closed-form step from the single rational
quadratic Bezier segment of its conic (see `_refine_to`), so the geometry
stays the exact circle or ellipse. The problem callables are array callables:
`angle_map` and the arch's distributed load take curve positions x, so no
problem evaluates its curve; see `BenchmarkProblem` and `LoadSpec`.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .assembly import (
    LoadSpec,
    RodSolution,
    apply_constraints,
    assemble,
    clamped_end_constraints,
    solve,
    symmetry_end_constraints,
)
from .formulations import ElementFormulation, PatchOperators
from .quadrature import _gauss_points, _legendre
from .rod import CrossSection
from .splines import KnotVector, NurbsCurve

__all__ = [
    "BenchmarkProblem",
    "PointCheck",
    "SlendernessCase",
    "standard_slenderness_cases",
    "build_ring_quarter",
    "build_arch_half",
    "build_ellipse_quarter",
    "ellipse_reference",
    "solve_problem",
]

_RING_RADIUS = 1.0
_ARCH_RADIUS = 10.0
_ELLIPSE_AXES = (2.0, 1.0)  # semi-axes a (along x) and b (along y)
_ELLIPSE_YOUNG, _ELLIPSE_WIDTH = 7.0e10, 0.1


def _quarter_conic(start, corner, end) -> NurbsCurve:
    """The single rational quadratic Bezier segment of a quarter circle or
    ellipse: the corner of its control polygon gets weight sqrt(2)/2."""
    return NurbsCurve(KnotVector(2, [0, 0, 0, 1, 1, 1]), [start, corner, end],
                      [1.0, math.sqrt(2.0) / 2.0, 1.0])


# Each problem's base conic, built once; `_refine_to` splits it per mesh.
_RING_BASE = _quarter_conic((_RING_RADIUS, 0.0), (_RING_RADIUS, -_RING_RADIUS),
                            (0.0, -_RING_RADIUS))
_ARCH_BASE = _quarter_conic((-_ARCH_RADIUS, 0.0), (-_ARCH_RADIUS, _ARCH_RADIUS),
                            (0.0, _ARCH_RADIUS))
_ELLIPSE_BASE = _quarter_conic((-_ELLIPSE_AXES[0], 0.0), (-_ELLIPSE_AXES[0], _ELLIPSE_AXES[1]),
                               (0.0, _ELLIPSE_AXES[1]))


@dataclass(frozen=True)
class PointCheck:
    """A reference displacement value: u(xi) . direction == value."""

    label: str
    xi: float
    direction: tuple[float, float]
    value: float


@dataclass(frozen=True)
class SlendernessCase:
    """One slenderness setting of a benchmark (EA for the ring, t otherwise)."""

    label: str
    value: float


_STANDARD_CASES = {
    "ring": tuple(SlendernessCase(f"EA={v:g}", v) for v in (1e4, 1e6, 1e8)),
    "arch": tuple(SlendernessCase(f"t={v:g}", v) for v in (0.1, 0.01, 0.001)),
    "ellipse": tuple(SlendernessCase(f"t={v:g}", v)
                     for v in (0.4, 0.04, 0.004, 0.0004, 0.00004)),
}


def standard_slenderness_cases(problem: str) -> tuple[SlendernessCase, ...]:
    """The slenderness values each benchmark's studies sweep over."""
    try:
        return _STANDARD_CASES[problem]
    except KeyError:
        raise ValueError(f"unknown problem {problem!r}") from None


@dataclass
class BenchmarkProblem:
    """One benchmark: geometry, section, loads, constraints, exact solution.

    `angle_map` maps curve positions x, shape S + (2,), to phi, shape S. The
    `exact_*` fields broadcast over phi: a float gives a scalar, shape S gives
    shape S (S + (2,) for the displacement vector of `exact_u`). The metrics
    call each of them once per evaluation, with all points in one array.
    """

    name: str
    curve: NurbsCurve
    section: CrossSection
    loads: LoadSpec
    constraints: list
    angle_map: Callable[[np.ndarray], np.ndarray]  # position x -> phi
    slenderness: float                              # reporting value (EA or t)
    exact_u: Callable[[np.ndarray], np.ndarray] | None = None  # phi -> (ux, uy)
    exact_n: Callable[[np.ndarray], np.ndarray] | None = None
    exact_m: Callable[[np.ndarray], np.ndarray] | None = None
    point_checks: list[PointCheck] = field(default_factory=list)

    @property
    def has_exact_fields(self) -> bool:
        return self.exact_n is not None or self.exact_m is not None or self.exact_u is not None


def _refine_to(base: NurbsCurve, n_elements: int) -> NurbsCurve:
    """Split the single-element quadratic conic into n equal parametric spans.

    The refined control points are the polar form (blossom) of the base
    Bezier segment at consecutive knot pairs, in homogeneous coordinates:
    P_i = f(t_{i+1}, t_{i+2}) with
    f(u, v) = (1-u)(1-v) B0 + ((1-u)v + u(1-v)) B1 + uv B2.
    This is what inserting every interior knot would give, in one step, so
    the refined curve still represents the conic to machine precision.
    """
    if not isinstance(n_elements, numbers.Integral) or n_elements < 1:
        raise ValueError(f"n_elements must be an integer >= 1, got {n_elements!r}")
    assert base.degree == 2 and base.n_elements == 1
    knots = np.arange(-2, n_elements + 3) / n_elements
    knots[:3], knots[-3:] = 0.0, 1.0
    u, v = knots[1:-2, None], knots[2:-1, None]
    w = base.weights[:, None]
    b = np.concatenate((w * base.control_points, w), axis=1)
    cu, cv = 1 - u, 1 - v
    pw = cu * cv * b[0] + (cu * v + u * cv) * b[1] + u * v * b[2]
    return NurbsCurve(KnotVector(2, knots), pw[:, :2] / pw[:, 2:], pw[:, 2])


def build_ring_quarter(n_elements: int, ea: float) -> BenchmarkProblem:
    """Pinched circular ring, quarter model (P = R = EI = 1).

    Symmetry conditions at both ends; half of the pinch load, P/2 inward
    along x, acts at A = (R, 0). The section thickness entering the exact
    point values is estimated as t = sqrt(EI/EA).
    """
    if not 0.0 < ea < math.inf:
        raise ValueError(f"EA must be positive and finite, got {ea}")
    p_load, radius, ei = 1.0, _RING_RADIUS, 1.0
    curve = _refine_to(_RING_BASE, n_elements)
    section = CrossSection(ea=ea, ei=ei)
    loads = LoadSpec(point_loads=[("start", np.array([-p_load / 2, 0.0]))])
    constraints = (symmetry_end_constraints(curve, "start")
                   + symmetry_end_constraints(curve, "end"))

    t_over_r_sq = ei / (ea * radius**2)
    scale = p_load * radius**3 / ei
    u_xa = -scale * ((math.pi**2 - 8) / (8 * math.pi) + (math.pi / 8) * t_over_r_sq)
    u_yb = -scale * ((4 - math.pi) / (4 * math.pi) - 0.25 * t_over_r_sq)

    def angle_map(x):
        return np.arctan2(x[..., 0], -x[..., 1])

    def exact_n(phi):
        return -(p_load / 2) * np.cos(phi)

    def exact_m(phi):
        return (p_load * radius / 2) * (2 / math.pi - np.cos(phi))

    return BenchmarkProblem(
        name="ring",
        curve=curve,
        section=section,
        loads=loads,
        constraints=constraints,
        angle_map=angle_map,
        slenderness=ea,
        exact_n=exact_n,
        exact_m=exact_m,
        point_checks=[
            PointCheck("uxA", 0.0, (1.0, 0.0), u_xa),
            PointCheck("uyB", 1.0, (0.0, 1.0), u_yb),
        ],
    )


def _arch_exact(t: float):
    """Closed-form semicircular-arch solution callbacks and parameters."""
    radius, young, width = _ARCH_RADIUS, 2.1e11, 0.1
    q = 1e6 * t**3
    ea = young * t * width
    ei = young * t**3 * width / 12.0
    CrossSection(ea, ei)  # rejects a t whose EA or EI is not positive and finite
    c1 = 0.5 * (radius / ea + radius**3 / ei)
    c2 = radius**3 / ei
    c3 = radius**2 / ei
    a1 = ((8 * math.pi * q * (c1 - c2) + 3 * math.pi * q * radius * c3)
          / (6 * math.pi**2 * (c1 / radius) - 24 * c3))
    a2 = (q * radius**2 / 2
          - (16 * math.pi * q * radius * (c1 - c2) + 6 * math.pi * q * radius**2 * c3)
          / (6 * math.pi**3 * (c1 / radius) - 24 * math.pi * c3))
    a3 = -2 * q * radius * (c1 - c2) / 3 - 3 * q * radius**2 * c3 / 4

    def _trig(phi):  # all the trigonometry of u, evaluated once per exact_u call
        return np.sin(phi), np.cos(phi), np.sin(2 * phi), np.cos(2 * phi)

    def u_tangential(phi, trig=None):
        sin, cos, sin2, _ = _trig(phi) if trig is None else trig
        return (a1 * (c1 * phi * sin - c3 * radius * (1 - cos))
                - a2 * c3 * (phi - sin) + a3 * sin
                - q * radius * (sin2 * (2 / 3 * c1 - c2 / 6 - c3 * radius / 8)
                                - phi * c3 * radius / 2))

    def u_normal(phi, trig=None):
        sin, cos, _, cos2 = _trig(phi) if trig is None else trig
        return (a1 * (c1 * (phi * cos - sin)
                      + c2 * sin - c3 * radius * sin)
                - a2 * c3 * (1 - cos) + a3 * cos
                + q * radius * (c1 - c2 / 2 + c3 * radius / 2
                                - cos2 * (c1 / 3 + c2 / 6 - c3 * radius / 4)))

    def exact_u(phi):
        trig = sin, cos, _, _ = _trig(phi)
        ut, un = u_tangential(phi, trig), u_normal(phi, trig)
        return np.stack([ut * sin + un * cos, ut * cos - un * sin], axis=-1)

    def exact_n(phi):
        return a1 * np.sin(phi) - q * radius * np.cos(phi)**2

    def exact_m(phi):
        return a1 * radius * np.sin(phi) + a2 - q * radius**2 / 2 * (1 + 0.5 * np.cos(2 * phi))

    params = dict(radius=radius, q=q, ea=ea, ei=ei, c1=c1, c2=c2, c3=c3,
                  a1=a1, a2=a2, a3=a3)
    return u_tangential, u_normal, exact_u, exact_n, exact_m, params


def build_arch_half(n_elements: int, t: float) -> BenchmarkProblem:
    """Clamped-clamped semicircular arch under q per unit horizontal length,
    half model: clamped base at (-R, 0), symmetry at the crown (0, R)."""
    if not 0.0 < t < math.inf:
        raise ValueError(f"thickness must be positive and finite, got {t}")
    _, _, exact_u, exact_n, exact_m, params = _arch_exact(t)
    radius, q = params["radius"], params["q"]
    curve = _refine_to(_ARCH_BASE, n_elements)
    section = CrossSection(ea=params["ea"], ei=params["ei"])

    def distributed(x):
        y = np.asarray(x, dtype=float)[..., 1]
        return np.stack([np.zeros_like(y), -q * y / radius], axis=-1)

    loads = LoadSpec(distributed=distributed)
    constraints = (clamped_end_constraints(curve, "start")
                   + symmetry_end_constraints(curve, "end"))

    def angle_map(x):
        return np.arctan2(x[..., 1], -x[..., 0])

    crown_uy = float(exact_u(math.pi / 2)[1])
    return BenchmarkProblem(
        name="arch",
        curve=curve,
        section=section,
        loads=loads,
        constraints=constraints,
        angle_map=angle_map,
        slenderness=t,
        exact_u=exact_u,
        exact_n=exact_n,
        exact_m=exact_m,
        point_checks=[PointCheck("uyC", 1.0, (0.0, 1.0), crown_uy)],
    )


def build_ellipse_quarter(n_elements: int, t: float,
                          with_reference_checks: bool = False) -> BenchmarkProblem:
    """Clamped quarter elliptical arch (a=2, b=1) with a vertical point load
    P = 1e7 t^3 at the free end (0, b).

    Passing with_reference_checks=True attaches free-end point checks against
    `ellipse_reference` (computed once per thickness and cached).
    """
    if not 0.0 < t < math.inf:
        raise ValueError(f"thickness must be positive and finite, got {t}")
    a_ax, b_ax = _ELLIPSE_AXES
    p_load = 1e7 * t**3
    curve = _refine_to(_ELLIPSE_BASE, n_elements)
    section = CrossSection.rectangular(_ELLIPSE_YOUNG, t, _ELLIPSE_WIDTH)
    loads = LoadSpec(point_loads=[("end", np.array([0.0, -p_load]))])
    constraints = clamped_end_constraints(curve, "start")

    def angle_map(x):
        return np.arctan2(x[..., 1] / b_ax, -x[..., 0] / a_ax)

    point_checks = []
    if with_reference_checks:
        ref = ellipse_reference(t)
        point_checks = [PointCheck(key, 1.0, direction, ref[key]) for key, direction
                        in (("ux_free", (1.0, 0.0)), ("uy_free", (0.0, 1.0)))]
    return BenchmarkProblem(
        name="ellipse",
        curve=curve,
        section=section,
        loads=loads,
        constraints=constraints,
        angle_map=angle_map,
        slenderness=t,
        point_checks=point_checks,
    )


@functools.lru_cache(maxsize=None)
def ellipse_reference(t: float) -> dict:
    """Exact reference values for the elliptical arch at thickness t.

    The clamped-free arch is statically determinate: under the tip load F,
    N = F . a1 and M = (r_tip - r) x F. A unit tip load d gives N_d and M_d
    alike, so by virtual work the free-end displacement is
    u . d = integral of (N N_d / EA + M M_d / EI) ds, summed to machine
    precision by 10-point Gauss rules on 16 equal spans of the ellipse angle.
    The clamped-end resultant magnitudes follow from the same statics:
    |N| = P (the tangent at the clamp is vertical, like the load) and
    |M| = P*a (horizontal lever arm).
    """
    (a_ax, b_ax), p_load = _ELLIPSE_AXES, 1e7 * t**3
    section = CrossSection.rectangular(_ELLIPSE_YOUNG, t, _ELLIPSE_WIDTH)  # rejects a bad t
    rule, edges = _legendre(10), np.linspace(0.0, math.pi / 2, 17)
    phi, half = _gauss_points(edges[:-1], edges[1:], rule.points)
    sin, cos = np.sin(phi), np.cos(phi)
    dr = np.stack([a_ax * sin, b_ax * cos])  # dr/dphi of r = (-a cos, b sin)
    jac = np.hypot(*dr)
    ds = jac * (half[:, None] * rule.weights).reshape(-1)
    # N_d = d . a1 and M_d = (r_tip - r) x d for d = e_x, e_y; F = -P e_y
    n_d, m_d = dr / jac, np.stack([b_ax * (sin - 1.0), a_ax * cos])
    u_free = -p_load * (n_d * n_d[1] / section.ea + m_d * m_d[1] / section.ei) @ ds
    return {"ux_free": float(u_free[0]), "uy_free": float(u_free[1]),
            "n_clamp_abs": p_load, "m_clamp_abs": p_load * a_ax}


def solve_problem(problem: BenchmarkProblem, formulation: ElementFormulation,
                  quad_points: int | None = None) -> RodSolution:
    """Assemble, constrain, and solve one benchmark with one formulation."""
    ops = PatchOperators(problem.curve, problem.section, formulation, quad_points)
    system = assemble(problem.curve, problem.section, formulation, problem.loads,
                      ops=ops)
    constrained = apply_constraints(system, problem.constraints)
    displacements = solve(constrained)
    return RodSolution(
        curve=problem.curve,
        section=problem.section,
        formulation=formulation,
        quad_points=ops.n_quad,
        displacements=displacements,
        ops=ops,
        n_dof=constrained.n_dof,
    )
