"""B-spline/NURBS basis evaluation, open knot vectors and curve geometry.

The parametric domain is fixed to [0, 1]. Knot vectors are open with no repeated
interior knots, so the basis has maximal C^(p-1) continuity and every nonzero
knot span acts as one element. The basis kernel is Piegl & Tiller's triangle
(The NURBS Book, algorithms A2.2 and A2.3), vectorized over the points. It fills
one stacked (max_deriv+1, p+1, m) block and applies the rational quotient rule in
place on it; a `BasisBatch` holds transposed views of it: treat them as read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomainError

__all__ = [
    "KnotVector",
    "NurbsCurve",
    "BasisBatch",
    "make_open_uniform_knot_vector",
    "nurbs_basis_many",
    "combine",
    "evaluate_geometry",
]


@dataclass(frozen=True)
class KnotVector:
    """Open knot vector on [0, 1] with unrepeated interior knots.

    Attributes:
        degree: polynomial degree p >= 1.
        knots: non-decreasing knot values; first and last repeated exactly
            p+1 times, interior knots strictly increasing.
    """

    degree: int
    knots: np.ndarray

    def __post_init__(self):
        t = np.array(self.knots, dtype=float)  # own copy: the caller's stays writable
        object.__setattr__(self, "knots", t)
        p = self.degree
        if p < 1:
            raise ValueError(f"degree must be >= 1, got {p}")
        if t.ndim != 1 or len(t) < 2 * (p + 1):
            raise ValueError("knot vector must have at least 2(p+1) entries")
        d = t[1:] - t[:-1]
        if (d < 0.0).any():
            raise ValueError("knots must be non-decreasing")
        if t[0] != 0.0 or t[-1] != 1.0:
            raise ValueError("parametric domain must be [0, 1]")
        if d[:p].any() or d[-p:].any():  # given the two checks above
            raise ValueError("knot vector must be open (ends repeated p+1 times)")
        if not (d[p:-p] > 0.0).all():  # the steps between the distinct knots
            raise ValueError("interior knots must be strictly increasing (no repeats)")
        t.setflags(write=False)

    @property
    def n_basis(self) -> int:
        return len(self.knots) - self.degree - 1

    @property
    def breakpoints(self) -> np.ndarray:
        """Element boundaries: the distinct knot values, ends included."""
        return self.knots[self.degree:len(self.knots) - self.degree]

    @property
    def n_elements(self) -> int:
        return len(self.breakpoints) - 1



@dataclass(frozen=True)
class NurbsCurve:
    """Plane NURBS curve: knot vector, 2D control points, positive weights."""

    knot_vector: KnotVector
    control_points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        q = np.array(self.control_points, dtype=float)  # own copies: the caller's stay writable
        w = np.array(self.weights, dtype=float)
        n = self.knot_vector.n_basis
        if q.shape != (n, 2):
            raise ValueError(f"expected {n} control points of dimension 2, got {q.shape}")
        if w.shape != (n,):
            raise ValueError(f"expected {n} weights, got {w.shape}")
        if not (w > 0.0).all():
            raise ValueError("weights must be positive")
        object.__setattr__(self, "control_points", q)
        object.__setattr__(self, "weights", w)
        q.setflags(write=False)
        w.setflags(write=False)

    @property
    def degree(self) -> int:
        return self.knot_vector.degree

    @property
    def n_basis(self) -> int:
        return self.knot_vector.n_basis

    @property
    def n_elements(self) -> int:
        return self.knot_vector.n_elements


def make_open_uniform_knot_vector(degree: int, n_elements: int) -> KnotVector:
    """Open knot vector with n_elements equal nonzero spans on [0, 1]."""
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if n_elements < 1:
        raise ValueError(f"n_elements must be >= 1, got {n_elements}")
    interior = np.linspace(0.0, 1.0, n_elements + 1)
    knots = np.concatenate([np.zeros(degree), interior, np.ones(degree)])
    return KnotVector(degree, knots)


@dataclass
class BasisBatch:
    """Nonzero basis functions at each point of a batch: row i holds the
    p+1 functions first_active[i] .. first_active[i]+p at xis[i]; derivatives
    are parametric (d/dxi)."""

    first_active: np.ndarray          # (m,) int
    values: np.ndarray                # (m, p+1)
    d1: np.ndarray | None = None
    d2: np.ndarray | None = None


def _find_spans(kv: KnotVector, xis: np.ndarray) -> np.ndarray:
    """Knot span index k of each xi (t[k] <= xi < t[k+1], xi = 1 in the last
    nonzero span): p plus the number of interior knots at or below xi."""
    inside = (xis >= 0.0) & (xis <= 1.0)  # NaN compares false, so it is outside
    if not inside.all():
        raise OutOfDomainError(f"xi={xis[~inside][0]} outside parametric domain [0, 1]")
    p, t = kv.degree, kv.knots
    return t[p + 1:len(t) - p - 1].searchsorted(xis, side="right") + p


def _difference_step(x: np.ndarray, scale: int, out: np.ndarray) -> np.ndarray:
    """Rows scale * (x[j-1] - x[j]) for j = 0..n into out, with x[-1] = x[n] = 0."""
    out[0] = 0.0
    out[1:] = x
    out[:-1] -= x
    out *= scale
    return out


def _basis_block(kv: KnotVector, xis, max_deriv: int,
                 weights: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """First active function of each xi, and the block: block[d, r, i] is derivative
    d of function first_active[i] + r at xis[i], rational when weights are given.

    Level j of the triangle turns the j nonzero degree-(j-1) functions N
    into j+1 degree-j ones through the ratios N_r / (t[k+1+r] - t[k+1-j+r]).
    Every denominator contains the point's nonzero span [t[k], t[k+1]], so
    none is zero. Derivatives reuse the ratios of the top levels (the
    degree-reduction formula). Row r of each step holds function r at every
    point, so each step runs over all points at once.
    """
    xis = np.asarray(xis, dtype=float).reshape(-1)
    p, t, m = kv.degree, kv.knots, len(xis)
    k = _find_spans(kv, xis)
    win = t.take(k + np.arange(1 - p, p + 1)[:, None])  # rows t[k+1-p] .. t[k+p]
    left = xis - win[:p]                                 # xi - t[k+1-p+c]
    right = win[p:] - xis                                # t[k+1+c] - xi
    block = np.zeros((1 + min(max(max_deriv, 0), 2), p + 1, m))  # values, d1, d2 at most
    values, ratios = block[0], []
    values[0] = 1.0
    for j in range(1, p + 1):
        span = win[p:p + j] - win[p - j:p]
        ratio = values[:j] / span
        np.multiply(right[:j], ratio, out=values[:j])
        values[1:j + 1] += left[p - j:] * ratio
        ratios.append(ratio)
    if max_deriv >= 1:
        _difference_step(ratios[p - 1], p, block[1])
    if max_deriv >= 2 and p >= 2:  # span holds the top level's t[k+1+r] - t[k+1-p+r]
        _difference_step(ratios[p - 2], p - 1, ratios[p - 1])  # into the spent top ratios
        _difference_step(np.divide(ratios[p - 1], span, out=ratios[p - 1]), p, block[2])
    del win, left, right, ratios, ratio, span  # free the triangle's rows first
    if weights is not None:  # the quotient rule, in place on the weighted rows
        block *= weights.take(k - p + np.arange(p + 1)[:, None])
        wsum = block.sum(axis=1)  # W, W', W'' at every point
        block[0] /= wsum[0]
        if max_deriv >= 1:
            block[1] -= block[0] * wsum[1]
            block[1] /= wsum[0]
        if max_deriv >= 2:
            block[2] -= 2.0 * block[1] * wsum[1]
            block[2] -= block[0] * wsum[2]
            block[2] /= wsum[0]
    return k - p, block


def nurbs_basis_many(curve: NurbsCurve, xis, max_deriv: int = 2) -> BasisBatch:
    """Rational basis values and parametric derivatives at each xi.

    Quotient rule applied to the weighted B-spline sum; partition of unity
    holds for the values and the derivative rows sum to zero.
    """
    first, block = _basis_block(curve.knot_vector, xis, max_deriv, curve.weights)
    return BasisBatch(first, *np.swapaxes(block, 1, 2))


def combine(control: np.ndarray, first_active: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_j rows[..., j, i] control[first_active[i] + j] at every point i, from
    zero in ascending j: a curve quantity from control points, or a field from
    control displacements. rows take the basis kernel's layout (..., p+1, m), as
    `block[1:]` or `batch.values.T`; the result has shape (..., c, m)."""
    q = control.T.take(first_active + np.arange(rows.shape[-2])[:, None], axis=1)
    out = np.zeros(rows.shape[:-2] + (q.shape[0], q.shape[2]))
    for j in range(rows.shape[-2]):
        out += rows[..., j, None, :] * q[:, j]
    return out


def evaluate_geometry(curve: NurbsCurve, xi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Point r(xi) and parametric derivatives dr/dxi, d2r/dxi2 of the curve.

    Broadcasts over xi: a float gives three 2-vectors, an array of shape S
    gives three arrays of shape S + (2,).
    """
    xi = np.asarray(xi, dtype=float)
    first, block = _basis_block(curve.knot_vector, xi, 2, curve.weights)
    return tuple(r.T.reshape(xi.shape + (2,)) for r in combine(curve.control_points, first, block))
