"""Reference implementations the tests check the package against.

Arc length by a separate 10-point Gauss rule per parametric interval: the
oracle for the `s` column of `sample_fields`, which integrates the same rule
inside its one frame batch.
"""

from __future__ import annotations

import numpy as np

from casrod.splines import NurbsCurve, _find_spans, nurbs_basis_many

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
