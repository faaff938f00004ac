"""Reference implementations the tests check the package against.

- Arc length by a separate 10-point Gauss rule per parametric interval: the
  oracle for the `s` column of `sample_fields`, which integrates the same rule
  inside its one frame batch.
- Pointwise membrane and bending strain from one frame (`fb[i]` of a
  `FrameBatch`): the oracle for the strain rows of `PatchOperators`.
- Sequential single-knot insertion: the oracle for the closed-form mesh
  refinement of `benchmarks._refine_to`.
- Greville abscissae, for exactly representable linear fields.
- The Cox-de Boor triangle with the degree-reduction derivative formula, one
  basis function per column and 0/0 read as 0: the oracle for the Piegl-Tiller
  kernel of `splines._basis_block`.
- The same Piegl-Tiller triangle, quotient rule and frame geometry with one
  fresh array per step (`unstacked_bspline_basis`, `unstacked_nurbs_basis`,
  `unstacked_frames`): the byte-for-byte oracle for the stacked block that
  `splines._basis_block` fills and `rod.frames_at` finishes in place.
- The global B-bar membrane matrix EA * Y^T Y with Y = U^-T G, from the
  banded Cholesky factor M = U^T U of the hat mass, a triangular band solve
  and a symmetric rank-k update (`dsyrk_membrane`): the O(n^3) formation that
  `PatchOperators._membrane_band` replaced, its normwise oracle.
- The consistent distributed load with the quadrature-point positions formed
  by one einsum over the element control nets (`einsum_distributed_load`):
  the byte-for-byte oracle for the load vector of `assembly.assemble`.
- The membrane constraint operator R of a patch, from the private arrays of
  its `PatchOperators` (`membrane_constraint_matrix`), and the map T from the
  free dofs of a constrained system to all dofs (`constraint_map`): ker(R T)
  holds the discrete inextensional displacements, those of zero membrane
  energy, counted in `tests/test_inextensional_modes.py`.
- The elliptical arch's free-end displacements from CAS solves on 512 and
  1024 elements with Richardson extrapolation (`fine_mesh_ellipse_free_end`):
  the former `benchmarks.ellipse_reference`, now an oracle for its closed
  form that does not evaluate the same integral.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.linalg import cholesky_banded
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dtbtrs

from casrod import ElementFormulation, build_ellipse_quarter, solve_problem
from casrod.errors import DegenerateParametrizationError
from casrod.rod import _MIN_JACOBIAN, ROT90, FrameBatch
from casrod.splines import BasisBatch, KnotVector, NurbsCurve, _find_spans, nurbs_basis_many

_GAUSS10 = np.polynomial.legendre.leggauss(10)


def _segment_lengths(curve: NurbsCurve, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Arc lengths of parametric intervals [a_i, b_i] by 10-point Gauss quadrature."""
    nodes, wts = _GAUSS10
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    pts = (mid[:, None] + half[:, None] * nodes).reshape(-1)
    bb = nurbs_basis_many(curve, pts, max_deriv=1)
    q = curve.control_points[bb.first_active[:, None] + np.arange(curve.degree + 1)]
    d1 = np.einsum("mj,mjc->mc", bb.d1, q)
    jac = np.hypot(d1[:, 0], d1[:, 1]).reshape(len(a), len(nodes))
    return half * (jac @ wts)


def element_arc_lengths(curve: NurbsCurve) -> np.ndarray:
    """Cumulative arc length at every element boundary (starts at 0)."""
    bp = np.asarray(curve.knot_vector.breakpoints, dtype=float)
    lengths = _segment_lengths(curve, bp[:-1], bp[1:])
    return np.concatenate([[0.0], np.cumsum(lengths)])


def arc_lengths_at(curve: NurbsCurve, xis,
                   boundary_lengths: np.ndarray | None = None) -> np.ndarray:
    """Arc length from xi=0 to each xi (vectorized)."""
    xis = np.atleast_1d(np.asarray(xis, dtype=float))
    kv = curve.knot_vector
    if boundary_lengths is None:
        boundary_lengths = element_arc_lengths(curve)
    e = _find_spans(kv, xis) - kv.degree
    a = np.asarray(kv.breakpoints, dtype=float)[e]
    s = boundary_lengths[e].copy()
    inside = xis > a
    if np.any(inside):
        s[inside] += _segment_lengths(curve, a[inside], xis[inside])
    return s


def arc_length_at(curve: NurbsCurve, xi: float,
                  boundary_lengths: np.ndarray | None = None) -> float:
    """Arc length from xi=0 to xi. Pass precomputed boundary lengths to amortize."""
    return float(arc_lengths_at(curve, [xi], boundary_lengths)[0])


def membrane_strain(frame, u_active: np.ndarray) -> float:
    """eps = a1 . sum_b dN_b/ds U_b for the active control displacements."""
    return float(frame.a1 @ (frame.dN_ds @ u_active))


def bending_strain(frame, u_active: np.ndarray) -> float:
    """kappa = a2 . sum_b d2N_b/ds2 U_b + da2/ds . sum_b dN_b/ds U_b."""
    return float(frame.a2 @ (frame.d2N_ds2 @ u_active) + frame.da2_ds @ (frame.dN_ds @ u_active))


def insert_knot(curve: NurbsCurve, u: float) -> NurbsCurve:
    """Insert a single knot at u (strictly inside a nonzero span).

    Geometry is unchanged; the control net is updated in homogeneous
    coordinates by the standard knot-insertion rule.
    """
    kv = curve.knot_vector
    p, t = kv.degree, kv.knots
    if not 0.0 < u < 1.0:
        raise ValueError(f"knot to insert must lie in (0, 1), got {u}")
    if np.any(t == u):
        raise ValueError(f"knot {u} already present (repeats are out of scope)")
    k = int(_find_spans(kv, np.array([u], dtype=float))[0])
    pw = np.column_stack([
        curve.weights[:, None] * curve.control_points,
        curve.weights,
    ])
    new_pw = np.empty((len(pw) + 1, 3))
    new_pw[:k - p + 1] = pw[:k - p + 1]
    for i in range(k - p + 1, k + 1):
        alpha = (u - t[i]) / (t[i + p] - t[i])
        new_pw[i] = alpha * pw[i] + (1.0 - alpha) * pw[i - 1]
    new_pw[k + 1:] = pw[k:]
    new_t = np.insert(t, k + 1, u)
    new_w = new_pw[:, 2]
    new_q = new_pw[:, :2] / new_w[:, None]
    return NurbsCurve(KnotVector(p, new_t), new_q, new_w)


def refine_uniform(curve: NurbsCurve) -> NurbsCurve:
    """Insert the midpoint of every nonzero span once (uniform h-refinement)."""
    midpoints = 0.5 * (curve.knot_vector.breakpoints[:-1] + curve.knot_vector.breakpoints[1:])
    refined = curve
    for u in midpoints:
        refined = insert_knot(refined, float(u))
    return refined


def greville_abscissae(kv: KnotVector) -> np.ndarray:
    """Characteristic parametric abscissa of each basis function."""
    p, t = kv.degree, kv.knots
    return np.array([t[b + 1:b + p + 1].mean() for b in range(kv.n_basis)])


def _masked_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num/den with the 0/0 convention: zero wherever the span width is zero."""
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=den > 0.0)
    return out


def _value_triangle(t: np.ndarray, p: int, k: np.ndarray, xis: np.ndarray) -> list[np.ndarray]:
    tri = [np.ones((len(xis), 1))]
    for d in range(1, p + 1):
        prev = tri[d - 1]
        cur = np.zeros((len(xis), d + 1))
        for j in range(d + 1):
            i = k - d + j
            acc = np.zeros(len(xis))
            if j >= 1:
                acc += _masked_ratio(xis - t[i], t[i + d] - t[i]) * prev[:, j - 1]
            if j <= d - 1:
                acc += _masked_ratio(t[i + d + 1] - xis, t[i + d + 1] - t[i + 1]) * prev[:, j]
            cur[:, j] = acc
        tri.append(cur)
    return tri


def _derivative_step(lower: np.ndarray, d: int, k: np.ndarray, t: np.ndarray) -> np.ndarray:
    out = np.zeros((lower.shape[0], d + 1))
    for j in range(d + 1):
        i = k - d + j
        acc = np.zeros(lower.shape[0])
        if j >= 1:
            acc += _masked_ratio(lower[:, j - 1], t[i + d] - t[i])
        if j <= d - 1:
            acc -= _masked_ratio(lower[:, j], t[i + d + 1] - t[i + 1])
        out[:, j] = d * acc
    return out


def bspline_basis_triangle(kv: KnotVector, xis, max_deriv: int = 2) -> BasisBatch:
    """Nonzero B-spline basis values and parametric derivatives at each xi,
    by the Cox-de Boor triangle and the degree-reduction derivative formula."""
    xis = np.atleast_1d(np.asarray(xis, dtype=float))
    p, t = kv.degree, kv.knots
    k = _find_spans(kv, xis)
    tri = _value_triangle(t, p, k, xis)
    d1 = d2 = None
    if max_deriv >= 1:
        d1 = _derivative_step(tri[p - 1], p, k, t)
    if max_deriv >= 2:
        if p >= 2:
            d2 = _derivative_step(_derivative_step(tri[p - 2], p - 1, k, t), p, k, t)
        else:
            d2 = np.zeros((len(xis), p + 1))
    return BasisBatch(k - p, tri[p], d1, d2)


def _difference_step(x: np.ndarray, scale: int) -> np.ndarray:
    """Rows scale * (x[j-1] - x[j]) for j = 0..n, with x[-1] = x[n] = 0."""
    out = np.zeros((x.shape[0] + 1, x.shape[1]))
    out[1:] = x
    out[:-1] -= x
    out *= scale
    return out


def unstacked_bspline_basis(kv: KnotVector, xis, max_deriv: int = 2) -> BasisBatch:
    """The Piegl-Tiller triangle with a fresh array per level and step."""
    xis = np.asarray(xis, dtype=float).reshape(-1)
    p, t, m = kv.degree, kv.knots, len(xis)
    k = _find_spans(kv, xis)
    win = t.take(k + np.arange(1 - p, p + 1)[:, None])  # rows t[k+1-p] .. t[k+p]
    left = xis - win[:p]                                 # xi - t[k+1-p+c]
    right = win[p:] - xis                                # t[k+1+c] - xi
    values, ratios = 1.0, []
    for j in range(1, p + 1):
        span = win[p:p + j] - win[p - j:p]
        ratio = values / span
        values = np.zeros((j + 1, m))
        np.multiply(right[:j], ratio, out=values[:j])
        values[1:] += left[p - j:] * ratio
        ratios.append(ratio)
    d1 = d2 = None
    if max_deriv >= 1:
        d1 = _difference_step(ratios[p - 1], p).T
    if max_deriv >= 2:
        d2 = np.zeros((m, p + 1))
        if p >= 2:  # span holds the top level's t[k+1+r] - t[k+1-p+r]
            d2 = _difference_step(_difference_step(ratios[p - 2], p - 1) / span, p).T
    return BasisBatch(k - p, values.T, d1, d2)


def unstacked_nurbs_basis(curve: NurbsCurve, xis, max_deriv: int = 2) -> BasisBatch:
    """The quotient rule on `unstacked_bspline_basis`, one array per row set."""
    bb = unstacked_bspline_basis(curve.knot_vector, xis, max_deriv)
    w = curve.weights.take(bb.first_active + np.arange(curve.degree + 1)[:, None])
    a = w * bb.values.T
    wsum = a.sum(axis=0)
    r = a / wsum
    r1 = r2 = None
    if max_deriv >= 1:
        r1 = w * bb.d1.T
        w1 = r1.sum(axis=0)
        r1 -= r * w1
        r1 /= wsum
        if max_deriv >= 2:
            r2 = w * bb.d2.T
            w2 = r2.sum(axis=0)
            r2 -= 2.0 * r1 * w1
            r2 -= r * w2
            r2 /= wsum
            r2 = r2.T
        r1 = r1.T
    return BasisBatch(bb.first_active, r.T, r1, r2)


def unstacked_frames(curve: NurbsCurve, xis) -> FrameBatch:
    """Frames from `unstacked_nurbs_basis`, one gather, one einsum per
    derivative and (m, 2) geometry."""
    xis = np.atleast_1d(np.asarray(xis, dtype=float))
    bb = unstacked_nurbs_basis(curve, xis, max_deriv=2)
    net = curve.control_points.take(bb.first_active + np.arange(curve.degree + 1)[:, None], axis=0)
    r1 = np.einsum("jm,jmc->mc", bb.d1.T, net)
    r2 = np.einsum("jm,jmc->mc", bb.d2.T, net)
    jac = np.hypot(r1[:, 0], r1[:, 1])
    if (jac < _MIN_JACOBIAN).any():
        raise DegenerateParametrizationError(
            f"zero parametric speed at xi={xis[np.argmax(jac < _MIN_JACOBIAN)]}")
    jac_col = jac[:, None]
    jac_sq = jac_col**2
    a1 = r1 / jac_col
    a2 = a1 @ ROT90.T
    proj = np.einsum("mc,mc->m", a1, r2)
    da1_ds = r2 - a1 * proj[:, None]
    da1_ds /= jac_sq
    da2_ds = da1_ds @ ROT90.T
    rdot = np.einsum("mc,mc->m", r1, r2)
    dn_ds = bb.d1 / jac_col
    d2n_ds2 = bb.d2 / jac_sq
    d2n_ds2 -= bb.d1 * (rdot / jac**4)[:, None]
    return FrameBatch(xis, bb.first_active, a1, a2, da2_ds, jac, dn_ds, d2n_ds2, bb.values,
                      curve=curve)


def dsyrk_membrane(ops) -> np.ndarray:
    """Dense EA * G^T M^-1 G of global B-bar operators `ops`, by dtbtrs + dsyrk.

    G is scattered from the element moments one element at a time; each of
    its entries sums at most two terms, so it is exact in any order.
    """
    n_el = ops.curve.n_elements
    gel = ops._pair_moments()
    g = np.zeros((n_el + 1, 2 * ops.curve.n_basis))
    for e in range(n_el):
        g[e:e + 2, 2 * e:2 * e + gel.shape[2]] += gel[e]
    mel = ops._pair_mass(1.0)
    mass = np.zeros((2, n_el + 1))  # upper band form: superdiagonal, diagonal
    mass[1, :-1] += mel[:, 0, 0]
    mass[1, 1:] += mel[:, 1, 1]
    mass[0, 1:] += mel[:, 0, 1]
    y, info = dtbtrs(cholesky_banded(mass), g, trans="T")
    assert info == 0, f"dtbtrs info {info}"
    low = dsyrk(ops.section.ea, y, trans=1, lower=1)
    return low + np.tril(low, -1).T


def einsum_distributed_load(curve: NurbsCurve, ops, distributed) -> np.ndarray:
    """Consistent load vector of the force density `distributed` (see `LoadSpec`)."""
    n_el, nq = ops.xi_q.shape
    net = curve.control_points[np.arange(n_el)[:, None] + np.arange(curve.degree + 1)]
    x_q = np.einsum("eqj,ejc->eqc", ops.values, net)
    load = np.broadcast_to(np.asarray(distributed(x_q), dtype=float), x_q.shape)
    fe = np.zeros((n_el, curve.degree + 1, 2))
    for q in range(nq):  # ascending q, as in the element integral
        fe += (ops.wds[:, q, None] * ops.values[:, q])[:, :, None] * load[:, q, None, :]
    f = np.zeros(2 * curve.n_basis)
    f_ctrl = f.reshape(-1, 2)
    for j in reversed(range(curve.degree + 1)):  # ascending element order per control
        f_ctrl[j:j + n_el] += fe[:, j]
    return f


def membrane_constraint_matrix(ops) -> np.ndarray:
    """R on all 2 n_basis dofs: R u = 0 exactly when the membrane energy of u is zero.

    - Plain NURBS, full and reduced: the compatible strain rows at the
      quadrature points (`ops.mrows`); the energy weighs the squared strains
      by positive arc measures.
    - CAS, local B-bar and local ANS: the two assumed-strain coefficient rows
      of each element (`ops._pair[0]`); the energy is EA c^T M c with the
      element's pair mass M positive definite.
    - Global B-bar: the strain integral matrix G (`ops._projection`, window
      form gw[B, c, t] = G[B - p + t, 2B + c]); the energy is EA (G u)^T M^-1 G u.
    """
    n_dof = 2 * ops.curve.n_basis
    if ops.formulation is ElementFormulation.GLOBAL_BBAR:
        gw = ops._projection[2]
        p, n_el = ops.curve.degree, ops.curve.n_elements
        g = np.zeros((n_el + 1 + 2 * p, n_dof))  # rows -p ... n_el + p of G
        b, c, t = np.indices(gw.shape)
        g[b + t, 2 * b + c] = gw
        assert not g[:p].any() and not g[p + n_el + 1:].any()
        return g[p:p + n_el + 1]
    rows = ops.mrows if ops._pair is None else ops._pair[0]
    n_el, k, width = rows.shape
    r = np.zeros((n_el, k, n_dof))
    for e in range(n_el):  # element e sits on dofs 2e ... 2e + 2p + 1
        r[e, :, 2 * e:2 * e + width] = rows[e]
    return r.reshape(-1, n_dof)


def constraint_map(constrained) -> np.ndarray:
    """T: all dofs from the free ones of `apply_constraints`' result; a fixed
    dof has a zero row, and a tied slave its master's row."""
    t = np.zeros((constrained.n_full, constrained.n_dof))
    t[constrained.free_dofs, np.arange(constrained.n_dof)] = 1.0
    for slave, master in constrained.slave_pairs:
        t[slave] = t[master]
    return t


@functools.lru_cache(maxsize=None)
def fine_mesh_ellipse_free_end(t: float) -> dict:
    """Free-end (u_x, u_y) of the elliptical arch at thickness t, Richardson-
    extrapolated (rate 2) from CAS solves on 512 and 1024 elements, and the
    relative mesh-to-mesh agreement of the two solves."""
    def free_end(n_el: int) -> np.ndarray:
        return solve_problem(build_ellipse_quarter(n_el, t), ElementFormulation.CAS).u[-1]

    coarse, fine = free_end(512), free_end(1024)
    extrapolated = fine + (fine - coarse) / 3.0
    return {"ux_free": float(extrapolated[0]), "uy_free": float(extrapolated[1]),
            "mesh_rel_diff": float(np.max(np.abs(fine - coarse) / np.abs(fine)))}
