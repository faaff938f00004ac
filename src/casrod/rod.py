"""Kirchhoff rod kinematics and constitutive law.

The rod axis is a plane NURBS curve reparametrized by arc length s. The local
frame is the unit tangent a1 and the unit normal a2 = rot90(a1) (counter-
clockwise pair). Membrane strain eps = a1 . du/ds and bending strain
kappa = a2 . d2u/ds2 + da2/ds . du/ds; stress resultants are N = EA*eps and
M = EI*kappa. `frames_at` finishes the basis block of `splines` in place; a
batch records its curve, and its arrays may be views: treat them as read-only.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, fields

import numpy as np

from .errors import DegenerateParametrizationError
from .splines import NurbsCurve, _basis_block, combine

__all__ = ["ROT90", "FrameBatch", "CrossSection", "ControlDisplacements", "frames_at"]

# 90-degree counterclockwise rotation; maps a1 to a2.
ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])

_MIN_JACOBIAN = 1e-14


@dataclass(frozen=True)
class CrossSection:
    """Axial stiffness EA and bending stiffness EI of the cross section."""

    ea: float
    ei: float

    def __post_init__(self):
        if not (0.0 < self.ea < np.inf and 0.0 < self.ei < np.inf):  # NaN fails too
            raise ValueError(f"EA and EI must be positive and finite, got {self.ea}, {self.ei}")

    @classmethod
    def rectangular(cls, young_modulus: float, thickness: float, width: float) -> CrossSection:
        """Rectangular section: A = t*d and I = t^3*d/12."""
        area = thickness * width
        inertia = thickness**3 * width / 12.0
        return cls(young_modulus * area, young_modulus * inertia)


@dataclass
class ControlDisplacements:
    """Displacement control variables, one 2-vector per basis function."""

    u: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        if self.u.ndim != 2 or self.u.shape[1] != 2:
            raise ValueError("expected an (n, 2) array of control displacements")


@dataclass
class FrameBatch:
    """Vectorized frames: row i of every array belongs to the i-th point.
    `curve`, the curve evaluated, is an attribute, not a per-point field."""

    xi: np.ndarray             # (m,) parametric coordinates of the points
    first_active: np.ndarray   # (m,) int, also the element of each point
    x: np.ndarray              # (m, 2) positions r
    a1: np.ndarray             # (m, 2)
    a2: np.ndarray             # (m, 2)
    da2_ds: np.ndarray         # (m, 2)
    jac: np.ndarray            # (m,)
    dN_ds: np.ndarray          # (m, p+1)
    d2N_ds2: np.ndarray        # (m, p+1)
    values: np.ndarray         # (m, p+1) basis values
    curve: InitVar[NurbsCurve | None] = None

    def __post_init__(self, curve):
        self.curve = curve

    def __len__(self) -> int:
        return len(self.jac)

    def __getitem__(self, index) -> FrameBatch:
        """The batch of the selected points (an index array or a slice); an
        integer index gives the unbatched rows of that one point."""
        return FrameBatch(*(getattr(self, f.name)[index] for f in fields(self)), curve=self.curve)


def frames_at(curve: NurbsCurve, xis) -> FrameBatch:
    """Evaluate the positions, local frames, basis values and arc-length
    basis derivatives at each xi.

    The chain rule from the parametric coordinate to arc length gives
    dN/ds = N' / jac and d2N/ds2 = N'' / jac^2 - N' (r' . r'') / jac^4,
    with jac = ||r'||. da2/ds is the rotated tangent rate, computed exactly
    from r'' rather than by numerical differentiation.
    """
    xis = np.atleast_1d(np.asarray(xis, dtype=float))
    first, block = _basis_block(curve.knot_vector, xis, 2, curve.weights)
    (x, r1, r2), (_, d1, d2) = combine(curve.control_points, first, block), block
    jac = np.hypot(*r1)
    if (jac < _MIN_JACOBIAN).any():
        raise DegenerateParametrizationError(
            f"zero parametric speed at xi={xis[np.argmax(jac < _MIN_JACOBIAN)]}")
    jac_sq = jac**2
    rdot = np.einsum("cm,cm->m", r1, r2)
    a1 = np.divide(r1, jac, out=r1)
    # da1/ds: normal projection of r'' scaled by jac^2.
    da1_ds = np.subtract(r2, a1 * np.einsum("cm,cm->m", a1, r2), out=r2)
    da1_ds /= jac_sq
    d2 /= jac_sq
    d2 -= d1 * (rdot / jac**4)
    d1 /= jac
    values, dn_ds, d2n_ds2 = np.swapaxes(block, 1, 2)
    return FrameBatch(xis, first, x.T, a1.T, (ROT90 @ a1).T, (ROT90 @ da1_ds).T, jac,
                      dn_ds, d2n_ds2, values, curve=curve)
