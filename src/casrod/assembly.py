"""Global assembly, loads, constraint application, and symmetric solve.

The stiffness is held in one storage from assembly to solve: the LAPACK
upper band of `banded`, column-major, so LAPACK and BLAS read it without a
copy. Element blocks sit on contiguous dof ranges (dof
2B+i is the i-th Cartesian component of control variable B), so
element-local formulations give half-bandwidth 2(p+1)-1 = 5; the dense
global B-bar membrane matrix fills the band until its far entries underflow
to zero (from 562 arch elements on at t = 0.01). Homogeneous constraints are
imposed by row/column elimination on the band; a same-component tie between
two control variables (needed for the zero-rotation condition at symmetry
ends, where the end displacement itself stays free) is imposed by folding
the slave dof into its master, which widens the band by the distance between
the two dofs. The elimination works in one new band-sized buffer, so a
global B-bar solve holds at most two bands at a time. The constrained system
is solved by a banded Cholesky factorization.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import banded
from ._lapack import dpbsv
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
# Entries per block of a band compacted in place (`_compact`), 128 KiB: small
# beside a dense band, while an element band of a few thousand columns is one.
_BLOCK_ENTRIES = 2**14


@dataclass
class LoadSpec:
    """Point loads at the rod ends plus an optional distributed load.

    point_loads: list of ("start" | "end", force of shape (2,), else a ValueError).
    distributed: callable x -> force density per arc length at the curve
        points x; None when absent. `assemble` calls it once, with the
        read-only quadrature-point positions `PatchOperators.x_q`, shape
        (n_el, n_q, 2). It returns one 2-vector per point, that shape, or
        one 2-vector, shape (2,), for a constant load; any other shape,
        such as one scalar per point, is a ValueError.
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
    load is called once, on the quadrature-point positions `ops.x_q` (see
    `LoadSpec`): assembly evaluates no geometry.
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
        x_q = ops.x_q
        n_el, nq, _ = x_q.shape
        load = np.asarray(loads.distributed(x_q), dtype=float)
        if load.shape not in ((2,), x_q.shape):
            raise ValueError(f"distributed load has shape {load.shape}, not (2,) or {x_q.shape}")
        load = np.broadcast_to(load, x_q.shape)
        weighted = ops.wds[:, :, None] * ops.values
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
    trimmed to its nonzero half-width. The working band is the only new
    band-sized buffer: the reduced and the trimmed band are compacted into it
    in place, and it is then shrunk to the result, so the constrained band
    owns exactly its own bytes. `system` is left unchanged.
    Chained ties fold each slave into the end of its chain; a self-tie, a
    slave tied twice or a cycle is a ValueError.
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
    buf = np.zeros((hb + 2) * n)
    padded = buf.reshape((hb + 2, n), order="F")  # the working band below one zero row
    ab = padded[1:]
    ab[hb - system.half_bandwidth:] = system.ab
    for slave, master in slave_pairs:
        _fold(ab, slave, master)
        f[master] += f[slave]
        removed[slave] = True

    free = (~removed).nonzero()[0]
    rows, cols = _trim(_drop(padded, free))
    del padded, ab  # no view of buf may outlive the resize, which frees its tail
    buf.resize(rows * cols, refcheck=False)
    return ConstrainedSystem(ab=buf.reshape((rows, cols), order="F"), f=f[free],
                             free_dofs=free, slave_pairs=slave_pairs, n_full=n)


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


def _compact(band: np.ndarray, shape: tuple[int, int], gather: Callable) -> np.ndarray:
    """Write a column-major array of `shape` over the column-major `band`, from
    its first entry on, one block of columns at a time, left to right, and
    return it (a view of `band`).

    gather(j0, j1) gives the new columns j0 ... j1 - 1 and may read any column
    of `band` from j0 on: with at most as many rows as `band`, new column j
    ends before old column j + 1 starts, so no write reaches a column still to
    be read. gather may return a view of the block's own old columns: numpy
    copies an overlapping source before it writes. A band with few rows is
    one block.
    """
    rows, cols = shape
    out = band.T.reshape(-1)[:rows * cols].reshape(shape, order="F")
    step = max(1, _BLOCK_ENTRIES // rows)
    for j0 in range(0, cols, step):
        j1 = min(j0 + step, cols)
        out[:, j0:j1] = gather(j0, j1)
    return out


def _trim(ab: np.ndarray) -> tuple[int, int]:
    """Compact the band `ab` in place (`_compact`) without its all-zero far
    rows; return the shape of the result. The scan goes row by row from the
    top and stops at the first nonzero row: `any(axis=1)` on a column-major
    band runs one inner loop per column, over every row."""
    top = 0  # the first row to keep: the first nonzero one, else the diagonal
    while top < len(ab) - 1 and not ab[top].any():
        top += 1
    if top:
        _compact(ab, (len(ab) - top, ab.shape[1]), lambda j0, j1: ab[top:, j0:j1])
    return len(ab) - top, ab.shape[1]


def _drop(padded: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Band of K restricted to the rows and columns of the `free` dofs, written
    over `padded` in place (`_compact`).

    `padded` is a column-major band of half-width hb below one zero row. The
    result is column-major, of half-width w = min(hb, len(free) - 1): pairs
    farther apart lie outside the reduced matrix. Reduced entry (r, j) is
    K[free[j - w + r], free[j]], in band row hb - free[j] + free[j - w + r] of
    column free[j] >= j, so a block of reduced columns reads no earlier
    column. The source dof depends on j only through j + r, so the flat source
    indices of a block are a strided view of one vector plus a column term:
    one gather per block, whatever the removed dofs, made transposed, (j, r),
    which is the column-major order of the result. A row below zero (a pair
    farther apart than hb, or above the reduced matrix, marked -n) is clamped
    to the zero row.
    """
    hb, n = padded.shape[0] - 2, padded.shape[1]
    w = max(0, min(hb, len(free) - 1))
    ext = np.concatenate([np.full(w, -n), free])
    src = as_strided(ext, (len(free), w + 1), (ext.strides[0],) * 2)  # [j, r]: source dof
    low = (free - hb - 1)[:, None]
    shift = ((hb + 1) * free + hb + 1)[:, None]  # (hb + 2) free[j] + 1 + its band row
    flat = padded.T.reshape(-1)

    def gather(j0: int, j1: int) -> np.ndarray:
        idx = np.maximum(src[j0:j1], low[j0:j1])
        idx += shift[j0:j1]
        return flat.take(idx, mode="clip").T

    return _compact(padded, (w + 1, len(free)), gather)


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

    backward = _backward_error(banded.matvec(ab, u_red) - f, banded.norm1(ab), u_red, f)
    if backward > _RESIDUAL_TOL:
        raise SingularSystemError(
            f"solver backward error {backward:.3e} exceeds {_RESIDUAL_TOL:.0e}")

    u_full[constrained.free_dofs] = u_red
    for slave, master in constrained.slave_pairs:
        u_full[slave] = u_full[master]
    return ControlDisplacements(u_full.reshape(-1, 2))


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
