"""Global assembly, loads, constraint application, and symmetric solve.

The stiffness is held in one storage from assembly to solve: the LAPACK
upper band of `banded`, column-major, so LAPACK and BLAS read it without a
copy. Element blocks sit on contiguous dof ranges (dof
2B+i is the i-th Cartesian component of control variable B), so
element-local formulations give half-bandwidth 2(p+1)-1 = 5; the dense
global B-bar membrane matrix fills the band. Homogeneous constraints are
imposed by row/column elimination on the band; a same-component tie between
two control variables (needed for the zero-rotation condition at symmetry
ends, where the end displacement itself stays free) is imposed by folding
the slave dof into its master, which widens the band by the distance between
the two dofs. The constrained system is solved by a banded Cholesky
factorization.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg.lapack import dpbsv

from . import banded
from .errors import (DegenerateParametrizationError, NonAxisAlignedRotationError,
                     SingularSystemError)
from .formulations import ElementFormulation, PatchOperators
from .rod import ControlDisplacements, CrossSection
from .splines import NurbsCurve

__all__ = [
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
]

_AXIS_ALIGN_TOL = 1e-10
_RESIDUAL_TOL = 1e-10


@dataclass
class LoadSpec:
    """Point loads at the rod ends plus an optional distributed load.

    point_loads: list of ("start" | "end", force of shape (2,), else a ValueError).
    distributed: callable x -> force density per arc length at the curve
        points x; None when absent. `assemble` calls it once, with the
        quadrature-point positions, shape (n_el, n_q, 2) (the points of
        `PatchOperators.xi_q`). It returns one 2-vector per point, that
        shape, or one 2-vector, shape (2,), for a constant load; any other
        shape, such as one scalar per point, is a ValueError.
    """

    point_loads: list[tuple[str, np.ndarray]] = field(default_factory=list)
    distributed: Callable[[np.ndarray], np.ndarray] | None = None


class _DofRecord:
    """Names dofs 2 * control + component: a bad index or component is a ValueError."""

    def __post_init__(self):
        values = [getattr(self, f.name) for f in fields(self)]  # the controls, then the component
        if not all(isinstance(v, numbers.Integral) and v >= 0 for v in values) or values[-1] > 1:
            raise ValueError(f"{self} names no dof: control indices must be integers "
                             ">= 0 and the component 0 or 1")


@dataclass(frozen=True)
class FixedDof(_DofRecord):
    """Prescribe component `component` of control variable `control_index` to zero."""

    control_index: int
    component: int


@dataclass(frozen=True)
class TieDof(_DofRecord):
    """Equate one Cartesian component of two control variables (homogeneous tie)."""

    control_a: int
    control_b: int
    component: int


class _BandStiffness:
    """Read-only views of a stiffness held as the upper band `ab`."""

    ab: np.ndarray

    @property
    def half_bandwidth(self) -> int:
        return self.ab.shape[0] - 1

    @property
    def k(self) -> np.ndarray:
        """The stiffness as a dense array, expanded on every access (for
        inspection and tests; the solve path never uses it)."""
        return banded.to_dense(self.ab)


@dataclass
class GlobalSystem(_BandStiffness):
    """Assembled stiffness (upper band `ab`) and load vector before constraints."""

    ab: np.ndarray
    f: np.ndarray


@dataclass
class ConstrainedSystem(_BandStiffness):
    """Reduced system after elimination, with bookkeeping to expand solutions."""

    ab: np.ndarray                 # reduced stiffness, upper band
    f: np.ndarray
    free_dofs: np.ndarray          # full-system indices of the reduced unknowns
    slave_pairs: list[tuple[int, int]]  # (slave dof, master dof) ties
    n_full: int

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
    """Assemble the global stiffness band and consistent load vector.

    The stiffness comes from `PatchOperators.stiffness_band`. The distributed
    load is called once, on the quadrature-point positions (see `LoadSpec`),
    which come from the basis values of `ops`: assembly evaluates no geometry.
    A given `ops` must be built from this curve object, this section and
    formulation, and `quad_points` (if given); otherwise it is a ValueError.
    """
    if ops is None:
        ops = PatchOperators(curve, section, formulation, quad_points)
    elif (ops.curve is not curve or ops.section != section or ops.formulation is not formulation
          or quad_points not in (None, ops.n_quad)):
        raise ValueError("ops was built for another curve, section, formulation or rule")
    f = np.zeros(2 * curve.n_basis)

    for end, force in loads.point_loads:
        if end not in ("start", "end"):
            raise ValueError(f"point load end must be 'start' or 'end', got {end!r}")
        force = np.asarray(force, dtype=float)
        if force.shape != (2,):
            raise ValueError(f"point load force has shape {force.shape}, not (2,)")
        b = 0 if end == "start" else curve.n_basis - 1
        f[2 * b:2 * b + 2] += force

    if loads.distributed is not None:
        n_el, nq = ops.xi_q.shape
        points, values = curve.control_points, ops.values
        x_q = values[:, :, 0, None] * points[:n_el, None]
        for j in range(1, curve.degree + 1):  # ascending j, as in the basis sum
            x_q += values[:, :, j, None] * points[j:j + n_el, None]
        load = np.asarray(loads.distributed(x_q), dtype=float)
        if load.shape not in ((2,), x_q.shape):
            raise ValueError(f"distributed load has shape {load.shape}, not (2,) or {x_q.shape}")
        load = np.broadcast_to(load, x_q.shape)
        weighted = ops.wds[:, :, None] * values
        fe = np.zeros((n_el, curve.degree + 1, 2))
        for q in range(nq):  # ascending q, as in the element integral
            fe += weighted[:, q, :, None] * load[:, q, None, :]
        f_ctrl = f.reshape(-1, 2)
        for j in reversed(range(curve.degree + 1)):  # ascending element order per control
            f_ctrl[j:j + n_el] += fe[:, j]

    return GlobalSystem(ab=ops.stiffness_band(), f=f)


def _end_controls(curve: NurbsCurve, end: str) -> tuple[int, int, int]:
    """(end control point, its neighbor, component of the axis-aligned end normal a2).

    With an open knot vector and positive weights the end tangent a1 is parallel
    to the end leg of the control net, so |a2| = (|a1_y|, |a1_x|) needs no curve
    evaluation."""
    b_end, b_adj = (0, 1) if end == "start" else (curve.n_basis - 1, curve.n_basis - 2)
    leg_x, leg_y = (curve.control_points[b_adj] - curve.control_points[b_end]).tolist()
    length = math.hypot(leg_x, leg_y)
    if length == 0.0:
        raise DegenerateParametrizationError(f"zero-length control leg at the {end} end")
    a2 = (abs(leg_y) / length, abs(leg_x) / length)
    comp = int(a2[1] > a2[0])
    if a2[1 - comp] > _AXIS_ALIGN_TOL:
        raise NonAxisAlignedRotationError(f"normal at {end} end is not axis-aligned: |a2|={a2}")
    return b_end, b_adj, comp


def clamped_end_constraints(curve: NurbsCurve, end: str) -> list:
    """Clamped end: both components of the end control variable are zero plus
    the zero-rotation condition, which then reduces to zeroing the a2-aligned
    component of the adjacent control variable."""
    b_end, b_adj, comp = _end_controls(curve, end)
    return [FixedDof(b_end, 0), FixedDof(b_end, 1), FixedDof(b_adj, comp)]


def symmetry_end_constraints(curve: NurbsCurve, end: str) -> list:
    """Symmetry end: the rod crosses the symmetry line perpendicularly, so the
    line is aligned with a2. Displacement perpendicular to the line (the
    a1-aligned component) is zero; zero rotation ties the a2-aligned component
    of the end control variable to its neighbor (the end value stays free)."""
    b_end, b_adj, comp_tie = _end_controls(curve, end)
    return [FixedDof(b_end, 1 - comp_tie), TieDof(b_adj, b_end, comp_tie)]


def apply_constraints(system: GlobalSystem, constraints: list) -> ConstrainedSystem:
    """Eliminate fixed dofs and fold tied (slave) dofs into their masters.

    Works on the band in O(n * hb). Each tie widens the working band by the
    distance between its dofs (2 for the end ties); the reduced band is then
    trimmed to its nonzero half-width. Chained ties fold each slave into the
    end of its chain; a self-tie, a slave tied twice or a cycle is a ValueError.
    """
    n = len(system.f)
    f = system.f.copy()
    removed = np.zeros(n, dtype=bool)
    masters: dict[int, int] = {}

    for c in constraints:
        if isinstance(c, TieDof):
            slave = 2 * c.control_a + c.component
            master = 2 * c.control_b + c.component
            if not (0 <= slave < n and 0 <= master < n):
                raise ValueError(f"tie constraint out of range: {c}")
            if slave == master:
                raise ValueError(f"tie constraint ties a dof to itself: {c}")
            if slave in masters:
                raise ValueError(f"slave dof of {c} is already tied to dof {masters[slave]}")
            masters[slave] = master
    slave_pairs = [(slave, _chain_end(masters, slave)) for slave in masters]

    for c in constraints:
        if isinstance(c, FixedDof):
            dof = 2 * c.control_index + c.component
            if not 0 <= dof < n:
                raise ValueError(f"fixed dof out of range: {c}")
            if dof in masters:
                raise ValueError(f"dof of {c} is already tied; fix the master instead")
            removed[dof] = True
        elif not isinstance(c, TieDof):
            raise TypeError(f"unsupported constraint type: {type(c).__name__}")

    hb = min(system.half_bandwidth + sum(abs(m - s) for s, m in slave_pairs), n - 1)
    padded = np.zeros((hb + 2, n), order="F")  # the working band below one zero row
    ab = padded[1:]
    ab[hb - system.half_bandwidth:] = system.ab
    for slave, master in slave_pairs:
        _fold(ab, slave, master)
        f[master] += f[slave]
        removed[slave] = True

    free = (~removed).nonzero()[0]
    ab = _drop(padded, free)
    top = next((r for r in range(len(ab) - 1) if ab[r].any()), len(ab) - 1)
    return ConstrainedSystem(ab=np.asfortranarray(ab[top:]), f=f[free], free_dofs=free,
                             slave_pairs=slave_pairs, n_full=n)


def _chain_end(masters: dict[int, int], dof: int) -> int:
    """The dof at the end of the tie chain that starts at `dof`."""
    for _ in range(len(masters) + 1):  # a chain has at most len(masters) links
        if dof not in masters:
            return dof
        dof = masters[dof]
    raise ValueError(f"tie constraints form a cycle through dof {dof}")


def _row_views(ab: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of K[i - hb:i, i] (band column i) and K[i, i:i + hb + 1]."""
    hb, n = ab.shape[0] - 1, ab.shape[1]
    s0, s1 = ab.strides
    right = as_strided(ab[hb, i:], (min(hb, n - 1 - i) + 1,), (s1 - s0,))  # ab[hb - d, i + d]
    return ab[:hb, i], right


def _fold(ab: np.ndarray, slave: int, master: int) -> None:
    """K[master, :] += K[slave, :], then K[:, master] += K[:, slave], in place.

    Only row (= column) master changes. Its diagonal becomes
    (K[m,m] + K[s,m]) + (K[m,s] + K[s,s]), as the two dense updates give.
    """
    hb = ab.shape[0] - 1
    w = hb + abs(slave - master)
    row = np.zeros(2 * w + 1)  # K[master, master - w:master + w + 1]
    for i in (master, slave):
        left, right = _row_views(ab, i)
        at = w + i - master
        row[at - hb:at] += left
        row[at:at + len(right)] += right
    row[w] += row[w + slave - master]
    left, right = _row_views(ab, master)
    left[:] = row[w - hb:w]
    right[:] = row[w:w + len(right)]


def _drop(padded: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Band of K restricted to the rows and columns of the `free` dofs.

    `padded` is a column-major band of half-width hb below one zero row. The
    result is column-major, of half-width w = min(hb, len(free) - 1): pairs
    farther apart lie outside the reduced matrix. Reduced entry (r, j) is
    K[free[j - w + r], free[j]], in band row hb - free[j] + free[j - w + r] of
    column free[j]. The source dof depends on j only through j + r, so the
    flat source indices are a strided view of one vector plus a column term:
    one gather, whatever the removed dofs, made transposed, (j, r), which is
    the column-major order of the result. A row below zero (a pair farther
    apart than hb, or above the reduced matrix, marked -n) is clamped to the
    zero row.
    """
    hb, n = padded.shape[0] - 2, padded.shape[1]
    w = max(0, min(hb, len(free) - 1))
    ext = np.concatenate([np.full(w, -n), free])
    src = as_strided(ext, (len(free), w + 1), (ext.strides[0],) * 2)  # [j, r]: source dof
    idx = np.maximum(src, (free - hb - 1)[:, None])
    idx += ((hb + 1) * free + hb + 1)[:, None]  # (hb + 2) free[j] + 1 + its band row
    return padded.T.reshape(-1).take(idx, mode="clip").T


def solve(constrained: ConstrainedSystem) -> ControlDisplacements:
    """Solve the constrained SPD system and expand to full control displacements.

    Factors the band directly with LAPACK `dpbsv` (the routine
    `scipy.linalg.solveh_banded` wraps). A non-finite band or load is a
    ValueError. Raises SingularSystemError when the factorization fails or
    when the normwise backward error ||Ku - f|| / (||K|| ||u|| + ||f||)
    exceeds 1e-10 (insufficient constraints or a broken system). The backward
    error is used instead of ||Ku - f|| / ||f|| because for very slender
    sections the membrane terms of K u cancel to ~machine epsilon times their
    magnitude, which makes the plain relative residual unevaluable in double
    precision.
    """
    ab, f = constrained.ab, constrained.f
    u_full = np.zeros(constrained.n_full)
    if len(f) == 0:
        return ControlDisplacements(u_full.reshape(-1, 2))
    if not (np.isfinite(ab).all() and np.isfinite(f).all()):
        raise ValueError("stiffness band or load vector contains infs or NaNs")
    u_red, info = dpbsv(ab, f)[1:]  # drop the factor at once: a full band for global B-bar
    if info > 0:
        raise SingularSystemError(
            f"factorization failed: {info}th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpbsv")

    backward = _band_backward_error(ab, u_red, f)
    if backward > _RESIDUAL_TOL:
        raise SingularSystemError(
            f"solver backward error {backward:.3e} exceeds {_RESIDUAL_TOL:.0e}")

    u_full[constrained.free_dofs] = u_red
    for slave, master in constrained.slave_pairs:
        u_full[slave] = u_full[master]
    return ControlDisplacements(u_full.reshape(-1, 2))


def _band_backward_error(ab: np.ndarray, u: np.ndarray, f: np.ndarray) -> float:
    """`solution_backward_error` for a stiffness held as the upper band ab."""
    return _backward_error(banded.matvec(ab, u) - f, banded.norm1(ab), u, f)


def _backward_error(residual: np.ndarray, k_norm1: float, u: np.ndarray,
                    f: np.ndarray) -> float:
    # sqrt(x . x) is what np.linalg.norm computes for a vector, without its dispatch
    scale = k_norm1 * math.sqrt(u.dot(u)) + math.sqrt(f.dot(f))
    if scale == 0.0:
        return 0.0
    return math.sqrt(residual.dot(residual)) / scale


def solution_backward_error(k: np.ndarray, u: np.ndarray, f: np.ndarray) -> float:
    """Normwise backward error ||Ku - f|| / (||K|| ||u|| + ||f||) of a dense k."""
    return _backward_error(k @ u - f, float(np.linalg.norm(k, 1)), u, f)
