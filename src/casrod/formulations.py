"""Element stiffness construction for the six element formulations.

All formulations share the same bending stiffness; they differ only in how the
membrane strain enters the membrane energy:

    nurbs         compatible strain, full (p+1)-point integration
    nurbs-reduced compatible strain, 2-point integration
    cas           assumed strain = linear interpolant of the compatible strain
                  at the element's end knots (C0 across elements thanks to the
                  C1 displacement continuity of quadratic NURBS)
    local-bbar    assumed strain = element-local L2 projection onto linears
    local-ans     assumed strain = linear interpolant through the compatible
                  strain at the two 2-point Gauss abscissae of the element
    global-bbar   assumed strain = patch-level L2 projection onto C0
                  piecewise linears with nodes at the knots (dense stiffness)

This module also provides post-solve recovery of the membrane strain (through
the formulation's own strain representation) and of the bending strain.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ._lapack import daxpy, dpttrf, dpttrs
from .quadrature import _gauss_points, gauss_rule
from .rod import CrossSection, FrameBatch, frames_at
from .splines import NurbsCurve, combine

__all__ = ["ElementFormulation", "PatchOperators"]

_GAUSS2_NODE = 1.0 / math.sqrt(3.0)


class ElementFormulation(Enum):
    """Element formulation selector."""

    NURBS_FULL = "nurbs"
    NURBS_REDUCED = "nurbs-reduced"
    CAS = "cas"
    LOCAL_BBAR = "local-bbar"
    LOCAL_ANS = "local-ans"
    GLOBAL_BBAR = "global-bbar"

    def default_quad_points(self, degree: int = 2) -> int:
        """Default rule: p+1 points, except 2 for reduced integration."""
        return 2 if self is ElementFormulation.NURBS_REDUCED else degree + 1


def _membrane_rows(fb: FrameBatch, out: np.ndarray | None = None) -> np.ndarray:
    """Strain-displacement rows eps = row . u_e, interleaved (x, y) per function."""
    m = np.empty((len(fb), 2 * fb.dN_ds.shape[1])) if out is None else out
    np.multiply(fb.a1[:, 0:1], fb.dN_ds, out=m[:, 0::2])
    np.multiply(fb.a1[:, 1:2], fb.dN_ds, out=m[:, 1::2])
    return m


def _bending_rows(fb: FrameBatch) -> np.ndarray:
    """Strain-displacement rows kappa = row . u_e."""
    b = np.empty((len(fb), 2 * fb.dN_ds.shape[1]))
    b[:, 0::2] = fb.a2[:, 0:1] * fb.d2N_ds2 + fb.da2_ds[:, 0:1] * fb.dN_ds
    b[:, 1::2] = fb.a2[:, 1:2] * fb.d2N_ds2 + fb.da2_ds[:, 1:2] * fb.dN_ds
    return b


def _weighted_gram(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_q w[e, q] rows[e, q, i] rows[e, q, j] per element, by batched matmul."""
    return np.swapaxes(rows * w[:, :, None], 1, 2) @ rows


def _linear_pair(xhat, node: float) -> np.ndarray:
    """Values of the two linear Lagrange polynomials with nodes at -node, +node."""
    xhat = np.asarray(xhat, dtype=float)
    return np.stack([(node - xhat) / (2.0 * node), (node + xhat) / (2.0 * node)], axis=-1)


class PatchOperators:
    """Stiffness construction and strain recovery for one discretized patch.

    All quadrature-point data is evaluated in one vectorized pass; the only
    extra work of CAS elements over plain NURBS elements is the basis/tangent
    evaluation at the element boundaries. `blocks` holds the read-only element
    stiffness blocks, shape (n_el, 2(p+1), 2(p+1)): element e sits on dofs
    2e ... 2e + 2p + 1. The rule needs at least 2 points: with one, every
    element block is rank-deficient.
    """

    def __init__(self, curve: NurbsCurve, section: CrossSection,
                 formulation: ElementFormulation, quad_points: int | None = None):
        if curve.degree < 2:
            raise ValueError("Kirchhoff rod discretizations need C1 continuity "
                             f"(degree >= 2), got degree {curve.degree}")
        pair_rows = formulation in (ElementFormulation.CAS, ElementFormulation.LOCAL_ANS)
        if pair_rows and curve.degree != 2:  # their strain points are the quadratic choice
            raise ValueError(f"{formulation.value} elements are defined for degree 2 only, "
                             f"got degree {curve.degree}")
        self.curve = curve
        self.section = section
        self.formulation = formulation
        self.n_quad = (formulation.default_quad_points(curve.degree)
                       if quad_points is None else quad_points)
        self.quad = gauss_rule(self.n_quad)
        if self.quad.n_points < 2:
            raise ValueError(f"element rules need at least 2 points, got {self.n_quad}")

        p = curve.degree
        n_el = curve.n_elements
        nq = self.quad.n_points
        bp = np.asarray(curve.knot_vector.breakpoints, dtype=float)
        self._bp = bp
        xi_q, halves = _gauss_points(bp[:-1], bp[1:], self.quad.points)
        self.xi_q = xi_q.reshape(n_el, nq)

        # One frame batch: the quadrature points, then the strain points of
        # the pair formulations (element end knots for CAS, 2-point Gauss
        # abscissae for local ANS).
        form = formulation
        if form is ElementFormulation.CAS:
            extra = bp
        elif form is ElementFormulation.LOCAL_ANS:
            extra = _gauss_points(bp[:-1], bp[1:], np.array([-_GAUSS2_NODE, _GAUSS2_NODE]))[0]
        else:
            extra = bp[:0]
        m = n_el * nq
        fb = frames_at(curve, np.concatenate([xi_q, extra]))
        fq = fb[:m]
        self.values = np.array(fq.values, order="F").reshape(n_el, nq, p + 1)  # fb is freed below
        self.mrows = None if pair_rows else _membrane_rows(fq).reshape(n_el, nq, 2 * (p + 1))
        self.brows = _bending_rows(fq).reshape(n_el, nq, 2 * (p + 1))
        self.wds = fq.jac.reshape(n_el, nq) * halves[:, None] * self.quad.weights
        if form is ElementFormulation.CAS:
            rows = self._cas_pair_rows(fb[m:])
        elif form is ElementFormulation.LOCAL_ANS:
            assert np.array_equal(fb.first_active[m:], np.repeat(np.arange(n_el), 2))
            rows = _membrane_rows(fb[m:]).reshape(n_el, 2, -1)
        del fb, fq  # free the frames before the element blocks are formed

        kb = _weighted_gram(section.ei * self.wds, self.brows)
        km = None  # the membrane blocks of the element-local formulations
        self._pair = None  # (strain rows, node) of the assumed-strain pair forms
        self._projection = (self._global_projection()  # (d, l, gw), global B-bar only
                            if form is ElementFormulation.GLOBAL_BBAR else None)

        if form in (ElementFormulation.NURBS_FULL, ElementFormulation.NURBS_REDUCED):
            km = _weighted_gram(section.ea * self.wds, self.mrows)
        elif form is not ElementFormulation.GLOBAL_BBAR:
            node = _GAUSS2_NODE if form is ElementFormulation.LOCAL_ANS else 1.0
            mass = self._pair_mass(node)
            if form is ElementFormulation.LOCAL_BBAR:
                rows = self._local_projection(mass)
            self._pair = (rows, node)
            km = self._pair_stiffness(mass, rows)
        k = kb if km is None else np.add(km, kb, out=km)
        # the symmetric part, formed in kb's buffer, drops contraction-order roundoff
        self.blocks = np.multiply(np.add(k, np.swapaxes(k, 1, 2), out=kb), 0.5, out=kb)
        # read-only: the stiffness, the load and the global B-bar projection read them
        for a in (self.blocks, self.wds, self.mrows, self.brows, self.values, self.xi_q):
            if a is not None:
                a.setflags(write=False)

    # -- precomputation helpers ----------------------------------------------

    def _pair_mass(self, node: float) -> np.ndarray:
        """Per-element 2x2 arc-measure mass of the linear pair functions."""
        lvals = _linear_pair(self.quad.points, node)
        outer = lvals[:, :, None] * lvals[:, None, :]
        return (self.wds @ outer.reshape(len(lvals), 4)).reshape(-1, 2, 2)

    def _pair_moments(self) -> np.ndarray:
        """Per element, the integrals of the strain rows against the linear
        pair with nodes at the element ends: (n_el, 2, 2(p+1))."""
        lvals = _linear_pair(self.quad.points, 1.0)
        return (self.wds[:, None, :] * lvals.T) @ self.mrows

    def _pair_stiffness(self, mass: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """EA * rows^T M rows per element, for 2 x (2(p+1)) strain rows."""
        k = np.swapaxes(rows, 1, 2) @ (mass @ rows)
        return np.multiply(k, self.section.ea, out=k)

    def _local_projection(self, mass: np.ndarray) -> np.ndarray:
        """Element-local L2 projection of the strain rows onto the linear pair."""
        rhs = self._pair_moments()
        det = mass[:, 0, 0] * mass[:, 1, 1] - mass[:, 0, 1] * mass[:, 1, 0]
        assert np.all(det > 0.0), "singular element mass on a nonzero span"
        adjugate = np.stack([mass[:, 1, 1], -mass[:, 0, 1], -mass[:, 1, 0], mass[:, 0, 0]], 1)
        return (adjugate.reshape(-1, 2, 2) / det[:, None, None]) @ rhs

    def _cas_pair_rows(self, fb: FrameBatch) -> np.ndarray:
        """Membrane strain rows at both end knots of every element.

        `fb` holds the frames at the breakpoints. Each boundary row is
        evaluated once (in the span to its right, last span for the end),
        then shared by the two adjacent elements, which keeps the assumed
        strain exactly continuous across elements. The basis function
        dropped when re-aligning a row to the neighboring element has zero
        arc-length derivative at the shared knot.
        """
        n_el = self.curve.n_elements
        expected = np.minimum(np.arange(n_el + 1), n_el - 1)
        assert np.array_equal(fb.first_active, expected)
        # row 0 of entry e is the row at knot e; entry n_el only stages the end row
        pair = np.zeros((n_el + 1, 2, fb.dN_ds.shape[1] * 2))
        rows = _membrane_rows(fb, out=pair[:, 0])
        pair[:-2, 1, 2:] = rows[1:-1, :-2]
        pair[-2, 1] = rows[-1]
        return pair[:-1]

    # -- element blocks -------------------------------------------------------

    def stiffness_band(self) -> np.ndarray:
        """Patch stiffness in column-major upper-band storage (see `banded`).

        Element e's block sits on dofs 2e ... 2e + 2(p+1) - 1, so element-local
        formulations give half-bandwidth 2(p+1)-1. The blocks are added with
        one strided slice-add per upper-triangle entry (a, b), b descending:
        where blocks overlap, element e's entry is added before element
        e + 1's, so each band entry sums its elements in ascending order, as a
        dense scatter does. The global B-bar membrane matrix couples every dof
        pair and is held in a full band (half-width n-1); see `_membrane_band`
        for where its far entries underflow. The summed element blocks are
        added to it, as a dense sum of the two would.
        """
        n_dof = 2 * self.curve.n_basis
        m = 2 * (self.curve.degree + 1)
        ab = np.zeros((m, n_dof), order="F")
        blocks = self.blocks
        for b in reversed(range(m)):
            for a in range(b + 1):
                ab[m - 1 + a - b, b:b + 2 * len(blocks):2] += blocks[:, a, b]
        if self.formulation is not ElementFormulation.GLOBAL_BBAR:
            return ab
        full = self._membrane_band()
        full[n_dof - m:] += ab
        return full

    # -- patch-level membrane operator for the global B-bar method ------------

    def _global_projection(self):
        """The L D L^T factor (d, l) of the tridiagonal hat-function mass M
        (`dpttrf`) and the strain integral matrix G in window form: column
        2B + c of G (component c of control B) is nonzero only in rows
        B - p ... B + 1, and gw[B, c, t] = G[B - p + t, 2B + c]."""
        n_el, p = self.curve.n_elements, self.curve.degree
        gel = self._pair_moments()
        mel = self._pair_mass(node=1.0)
        gw = np.zeros((self.curve.n_basis, 2, p + 2))
        # G[e + l, 2(e + b) + c] += gel[e, l, 2b + c]: at most two terms
        # per entry, exact in any order
        for b in range(p + 1):
            for l in (0, 1):
                gw[b:b + n_el, :, p - b + l] += gel[:, l, 2 * b:2 * b + 2]
        diagonal = np.append(mel[:, 0, 0], 0.0)
        diagonal[1:] += mel[:, 1, 1]
        d, l, info = dpttrf(diagonal, mel[:, 0, 1])
        assert info == 0, f"dpttrf info {info}"
        return d, l, gw

    def _membrane_band(self) -> np.ndarray:
        """EA * G^T M^-1 G in column-major upper-band storage, half-width n - 1.

        The entries of M^-1 decay geometrically away from the diagonal. For
        the arch at t = 0.01 the matrix fills the band up to 561 elements; from
        562 on its far rows underflow to exactly zero, and the constrained
        half-bandwidth stays at 1125 (at 600 and at 1024 elements).

        Z = M^-1 G is one L D L^T sweep of the tridiagonal M over all columns
        at once, held row-major with p zero rows above and below it and n - 1
        zero columns before it. Band column j = 2B + c holds
        K[0..j, j] = EA * gw[B, c] @ Z[B - p ... B + 1, 0..j], after the zeros
        above the matrix; read through the buffer shifted by j columns, one
        product yields both. So the band is one batch of
        (1 x (p+2)) @ ((p+2) x n) products written straight into it: O(n^2)
        time and memory.
        """
        d, l, gw = self._projection
        n_el, p = self.curve.n_elements, self.curve.degree
        nb = len(gw)
        n = 2 * nb
        z = np.zeros((n_el + 1 + 2 * p, 2 * n - 1))
        s0, s1 = z.strides
        window = (2 * s1 + s0, s1, s0)  # (B, c, t) -> z[B + t, 2B + c]
        as_strided(z[:, n - 1:], gw.shape, window)[:] = gw  # G, column 2B + c at n - 1 + 2B + c
        rows = list(z[p:p + n_el + 1, n - 1:])
        for a in range(1, n_el + 1):  # L^-1
            daxpy(rows[a - 1], rows[a], a=-l[a - 1])
        z[p:p + n_el + 1, n - 1:] /= d[:, None]
        for a in reversed(range(n_el)):  # L^-T
            daxpy(rows[a + 1], rows[a], a=-l[a])
        ab = np.zeros((n, n), order="F")
        shifted = as_strided(z, (nb, 2, p + 2, n), window + (s1,))  # z[B + t, 2B + c + s]
        np.matmul(self.section.ea * gw[:, :, None, :], shifted,
                  out=ab.T.reshape(nb, 2, 1, n))
        return ab

    # -- post-solve field recovery ---------------------------------------------

    def strains(self, u: np.ndarray, frames: FrameBatch) -> tuple[np.ndarray, np.ndarray]:
        """Membrane strain eps and bending strain kappa at the points of `frames`.

        eps uses the formulation's own strain representation: the assumed
        strain for CAS / local B-bar / local ANS / global B-bar, the
        compatible strain for standard NURBS. kappa is the compatible
        curvature change. The element of each point is `frames.first_active`;
        N = EA eps and M = EI kappa. `frames` must come from this very curve.
        """
        if frames.curve is not self.curve:
            raise ValueError("frames were evaluated on another curve than these operators'")
        u_flat = np.asarray(u, dtype=float).reshape(-1)
        if u_flat.shape != (2 * self.curve.n_basis,):  # keeps the windows inside u
            raise ValueError(f"u has {u_flat.size} dofs, not {2 * self.curve.n_basis}")
        e = frames.first_active
        du, d2u = (combine(u_flat.reshape(-1, 2), e, r.T) for r in (frames.dN_ds, frames.d2N_ds2))
        kappa = (frames.a2.T * d2u + frames.da2_ds.T * du).sum(axis=0)  # kinematics as in `rod`
        form = self.formulation
        if form in (ElementFormulation.NURBS_FULL, ElementFormulation.NURBS_REDUCED):
            return (frames.a1.T * du).sum(axis=0), kappa

        if form is ElementFormulation.GLOBAL_BBAR:
            d, l, gw = self._projection
            p = self.curve.degree
            moments = np.einsum("bct,bc->bt", gw, u_flat.reshape(-1, 2))
            gu = np.zeros(len(gw) + p + 1)  # G u, between p zeros on each side
            for t in range(p + 2):
                gu[t:t + len(gw)] += moments[:, t]
            nodal = dpttrs(d, l, gu[p:len(gu) - p])[0]
            coeff = np.stack([nodal[:-1], nodal[1:]], axis=1)
            node = 1.0
        else:
            rows, node = self._pair
            s, shape = u_flat.strides[0], (self.curve.n_elements, 2 * self.curve.degree + 2)
            windows = as_strided(u_flat, shape, (2 * s, s), writeable=False)  # element e's dofs
            coeff = np.einsum("eli,ei->el", rows, windows)
        a = self._bp[e]
        xhat = 2.0 * (frames.xi - a) / (self._bp[e + 1] - a) - 1.0
        return np.einsum("ml,ml->m", _linear_pair(xhat, node), coeff[e]), kappa
