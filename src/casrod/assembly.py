"""Global assembly, loads, constraint application, and symmetric solve.

Assembly scatters element blocks through contiguous dof maps (dof 2B+i is the
i-th Cartesian component of control variable B). Homogeneous constraints are
imposed by row/column elimination; a same-component tie between two control
variables (needed for the zero-rotation condition at symmetry ends, where the
end displacement itself stays free) is imposed by folding the slave dof into
its master. The constrained system is solved by a symmetric positive-definite
factorization, banded for element-local formulations and dense for the global
B-bar method.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import NonAxisAlignedRotationError, SingularSystemError
from .formulations import ElementFormulation, PatchOperators
from .quadrature import QuadratureRule, gauss_rule  # noqa: F401  (re-exported)
from .rod import ControlDisplacements, CrossSection, frame_at
from .splines import NurbsCurve, arc_lengths_at

__all__ = [
    "QuadratureRule",
    "gauss_rule",
    "LoadSpec",
    "FixedDof",
    "TieDof",
    "GlobalSystem",
    "ConstrainedSystem",
    "RodSolution",
    "assemble",
    "apply_constraints",
    "solve",
    "solution_backward_error",
    "clamped_end_constraints",
    "symmetry_end_constraints",
    "reaction_forces",
]

_AXIS_ALIGN_TOL = 1e-10
_RESIDUAL_TOL = 1e-10


@dataclass
class LoadSpec:
    """Point loads at the rod ends plus an optional distributed load.

    point_loads: list of ("start" | "end", force 2-vector).
    distributed: callable s -> force density per arc length, defined on
        [0, L]; None when absent. `assemble` calls it once, with the arc
        lengths of all quadrature points as an array of shape (m,), and
        broadcasts the result to (m, 2): return one 2-vector per point, or a
        single 2-vector for a constant load.
    """

    point_loads: list[tuple[str, np.ndarray]] = field(default_factory=list)
    distributed: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class FixedDof:
    """Prescribe component `component` of control variable `control_index` to zero."""

    control_index: int
    component: int


@dataclass(frozen=True)
class TieDof:
    """Equate one Cartesian component of two control variables (homogeneous tie)."""

    control_a: int
    control_b: int
    component: int


@dataclass
class GlobalSystem:
    """Assembled stiffness and load vector before constraint application."""

    k: np.ndarray
    f: np.ndarray
    banded: bool  # element-local formulations keep a narrow band


@dataclass
class ConstrainedSystem:
    """Reduced system after elimination, with bookkeeping to expand solutions."""

    k: np.ndarray
    f: np.ndarray
    free_dofs: np.ndarray          # full-system indices of the reduced unknowns
    slave_pairs: list[tuple[int, int]]  # (slave dof, master dof) ties
    n_full: int
    banded: bool

    @property
    def n_dof(self) -> int:
        return len(self.free_dofs)


@dataclass
class RodSolution:
    """A solved discretization: control displacements plus recovery operators."""

    curve: NurbsCurve
    section: CrossSection
    formulation: ElementFormulation
    quad_points: int
    displacements: ControlDisplacements
    ops: PatchOperators
    n_dof: int

    @property
    def u(self) -> np.ndarray:
        return self.displacements.u


def assemble(curve: NurbsCurve, section: CrossSection,
             formulation: ElementFormulation, loads: LoadSpec,
             quad_points: int | None = None,
             ops: PatchOperators | None = None) -> GlobalSystem:
    """Assemble the global stiffness matrix and consistent load vector.

    The distributed load is called once, on the arc lengths of all
    quadrature points (see `LoadSpec`).
    """
    if ops is None:
        ops = PatchOperators(curve, section, formulation, quad_points)
    n_dof = 2 * curve.n_basis
    k = np.zeros((n_dof, n_dof))
    f = np.zeros(n_dof)

    for e in range(curve.n_elements):
        em = ops.element_matrices(e)
        sl = slice(em.dof_map[0], em.dof_map[-1] + 1)
        k[sl, sl] += em.k
    if formulation is ElementFormulation.GLOBAL_BBAR:
        k += ops.patch_membrane_matrix()

    for end, force in loads.point_loads:
        if end not in ("start", "end"):
            raise ValueError(f"point load end must be 'start' or 'end', got {end!r}")
        b = 0 if end == "start" else curve.n_basis - 1
        f[2 * b:2 * b + 2] += np.asarray(force, dtype=float)

    if loads.distributed is not None:
        n_el, nq = ops.xi_q.shape
        s_q = arc_lengths_at(curve, ops.xi_q.reshape(-1))
        load = np.broadcast_to(np.asarray(loads.distributed(s_q), dtype=float),
                               (len(s_q), 2)).reshape(n_el, nq, 2)
        fe = np.zeros((n_el, curve.degree + 1, 2))
        for q in range(nq):  # ascending q, as in the element integral
            fe += (ops.wds[:, q, None] * ops.values[:, q])[:, :, None] * load[:, q, None, :]
        f_ctrl = f.reshape(-1, 2)
        for j in reversed(range(curve.degree + 1)):  # ascending element order per control
            f_ctrl[j:j + n_el] += fe[:, j]

    banded = formulation is not ElementFormulation.GLOBAL_BBAR
    return GlobalSystem(k=k, f=f, banded=banded)


def _rotation_component(curve: NurbsCurve, end: str) -> int:
    """Cartesian component of the normal a2 at an end, required axis-aligned."""
    fr = frame_at(curve, 0.0 if end == "start" else 1.0)
    comp = int(np.argmax(np.abs(fr.a2)))
    if abs(fr.a2[1 - comp]) > _AXIS_ALIGN_TOL:
        raise NonAxisAlignedRotationError(
            f"normal at {end} end is not axis-aligned: a2={fr.a2}")
    return comp


def _end_control_indices(curve: NurbsCurve, end: str) -> tuple[int, int]:
    """(end control point, its interior neighbor) for the given end."""
    if end == "start":
        return 0, 1
    return curve.n_basis - 1, curve.n_basis - 2


def clamped_end_constraints(curve: NurbsCurve, end: str) -> list:
    """Clamped end: both components of the end control variable are zero plus
    the zero-rotation condition, which then reduces to zeroing the a2-aligned
    component of the adjacent control variable."""
    b_end, b_adj = _end_control_indices(curve, end)
    comp = _rotation_component(curve, end)
    return [FixedDof(b_end, 0), FixedDof(b_end, 1), FixedDof(b_adj, comp)]


def symmetry_end_constraints(curve: NurbsCurve, end: str) -> list:
    """Symmetry end: the rod crosses the symmetry line perpendicularly, so the
    line is aligned with a2. Displacement perpendicular to the line (the
    a1-aligned component) is zero; zero rotation ties the a2-aligned component
    of the end control variable to its neighbor (the end value stays free)."""
    b_end, b_adj = _end_control_indices(curve, end)
    comp_tie = _rotation_component(curve, end)
    comp_fix = 1 - comp_tie
    return [FixedDof(b_end, comp_fix), TieDof(b_adj, b_end, comp_tie)]


def apply_constraints(system: GlobalSystem, constraints: list) -> ConstrainedSystem:
    """Eliminate fixed dofs and fold tied (slave) dofs into their masters."""
    n = len(system.f)
    k = system.k.copy()
    f = system.f.copy()
    removed = np.zeros(n, dtype=bool)
    slave_pairs: list[tuple[int, int]] = []

    for c in constraints:
        if isinstance(c, TieDof):
            slave = 2 * c.control_a + c.component
            master = 2 * c.control_b + c.component
            if not (0 <= slave < n and 0 <= master < n):
                raise ValueError(f"tie constraint out of range: {c}")
            slave_pairs.append((slave, master))

    for slave, master in slave_pairs:
        k[master, :] += k[slave, :]
        k[:, master] += k[:, slave]
        f[master] += f[slave]
        removed[slave] = True

    slaves = {slave for slave, _ in slave_pairs}
    for c in constraints:
        if isinstance(c, FixedDof):
            dof = 2 * c.control_index + c.component
            if not 0 <= dof < n:
                raise ValueError(f"fixed dof out of range: {c}")
            if dof in slaves:
                raise ValueError(f"dof of {c} is already tied; fix the master instead")
            removed[dof] = True
        elif not isinstance(c, TieDof):
            raise TypeError(f"unsupported constraint type: {type(c).__name__}")

    free = np.flatnonzero(~removed)
    k_red = k[np.ix_(free, free)]
    f_red = f[free]
    return ConstrainedSystem(k=k_red, f=f_red, free_dofs=free,
                             slave_pairs=slave_pairs, n_full=n, banded=system.banded)


def _half_bandwidth(k: np.ndarray) -> int:
    nz = np.nonzero(k)
    if len(nz[0]) == 0:
        return 0
    return int(np.max(np.abs(nz[0] - nz[1])))


def _to_banded_upper(k: np.ndarray, hb: int) -> np.ndarray:
    n = len(k)
    ab = np.zeros((hb + 1, n))
    for r in range(hb + 1):
        ab[hb - r, r:] = np.diagonal(k, offset=r)
    return ab


def solve(constrained: ConstrainedSystem, use_banded: bool | None = None) -> ControlDisplacements:
    """Solve the constrained SPD system and expand to full control displacements.

    Raises SingularSystemError when the factorization fails or when the
    normwise backward error ||Ku - f|| / (||K|| ||u|| + ||f||) exceeds 1e-10
    (insufficient constraints or a broken system). The backward error is used
    instead of ||Ku - f|| / ||f|| because for very slender sections the
    membrane terms of K u cancel to ~machine epsilon times their magnitude,
    which makes the plain relative residual unevaluable in double precision.
    """
    k, f = constrained.k, constrained.f
    if use_banded is None:
        use_banded = constrained.banded
    if len(f) == 0:
        u_full = np.zeros(constrained.n_full)
        return ControlDisplacements(u_full.reshape(-1, 2))
    try:
        if use_banded:
            hb = _half_bandwidth(k)
            u_red = scipy.linalg.solveh_banded(_to_banded_upper(k, hb), f)
        else:
            cho = scipy.linalg.cho_factor(k)
            u_red = scipy.linalg.cho_solve(cho, f)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"factorization failed: {exc}") from exc

    backward = solution_backward_error(k, u_red, f)
    if backward > _RESIDUAL_TOL:
        raise SingularSystemError(
            f"solver backward error {backward:.3e} exceeds {_RESIDUAL_TOL:.0e}")

    u_full = np.zeros(constrained.n_full)
    u_full[constrained.free_dofs] = u_red
    for slave, master in constrained.slave_pairs:
        u_full[slave] = u_full[master]
    return ControlDisplacements(u_full.reshape(-1, 2))


def solution_backward_error(k: np.ndarray, u: np.ndarray, f: np.ndarray) -> float:
    """Normwise backward error ||Ku - f|| / (||K|| ||u|| + ||f||)."""
    residual = float(np.linalg.norm(k @ u - f))
    scale = float(np.linalg.norm(k, 1) * np.linalg.norm(u) + np.linalg.norm(f))
    if scale == 0.0:
        return 0.0
    return residual / scale


def reaction_forces(system: GlobalSystem, displacements: ControlDisplacements) -> np.ndarray:
    """Residual K u - f of the unconstrained system (reactions at constrained dofs)."""
    u_flat = displacements.u.reshape(-1)
    return system.k @ u_flat - system.f
