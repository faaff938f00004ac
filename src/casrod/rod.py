"""Kirchhoff rod kinematics and constitutive law.

The rod axis is a plane NURBS curve reparametrized by arc length s. The local
frame is the unit tangent a1 and the unit normal a2 = rot90(a1) (counter-
clockwise pair). Membrane strain eps = a1 . du/ds and bending strain
kappa = a2 . d2u/ds2 + da2/ds . du/ds; stress resultants are N = EA*eps and
M = EI*kappa.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateParametrizationError
from .splines import NurbsCurve, combine, nurbs_basis_many

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
    """Vectorized frames: row i of every array belongs to the i-th point."""

    xi: np.ndarray             # (m,) parametric coordinates of the points
    first_active: np.ndarray   # (m,) int, also the element of each point
    a1: np.ndarray             # (m, 2)
    a2: np.ndarray             # (m, 2)
    da2_ds: np.ndarray         # (m, 2)
    jac: np.ndarray            # (m,)
    dN_ds: np.ndarray          # (m, p+1)
    d2N_ds2: np.ndarray        # (m, p+1)
    values: np.ndarray         # (m, p+1) basis values

    def __len__(self) -> int:
        return len(self.jac)

    def __getitem__(self, index) -> FrameBatch:
        """The batch of the selected points (an index array or a slice); an
        integer index gives the unbatched rows of that one point."""
        return FrameBatch(*(getattr(self, f.name)[index] for f in fields(self)))



def frames_at(curve: NurbsCurve, xis) -> FrameBatch:
    """Evaluate the local frames, basis values and arc-length basis
    derivatives at each xi.

    The chain rule from the parametric coordinate to arc length gives
    dN/ds = N' / jac and d2N/ds2 = N'' / jac^2 - N' (r' . r'') / jac^4,
    with jac = ||r'||. da2/ds is the rotated tangent rate, computed exactly
    from r'' rather than by numerical differentiation.
    """
    xis = np.atleast_1d(np.asarray(xis, dtype=float))
    bb = nurbs_basis_many(curve, xis, max_deriv=2)
    r1 = combine(curve.control_points, bb.first_active, bb.d1)
    r2 = combine(curve.control_points, bb.first_active, bb.d2)
    jac = np.hypot(r1[:, 0], r1[:, 1])
    if (jac < _MIN_JACOBIAN).any():
        raise DegenerateParametrizationError(
            f"zero parametric speed at xi={xis[np.argmax(jac < _MIN_JACOBIAN)]}")
    jac_col = jac[:, None]
    jac_sq = jac_col**2
    a1 = r1 / jac_col
    a2 = a1 @ ROT90.T
    # da1/ds: normal projection of r'' scaled by jac^2.
    proj = np.einsum("mc,mc->m", a1, r2)
    da1_ds = r2 - a1 * proj[:, None]
    da1_ds /= jac_sq
    da2_ds = da1_ds @ ROT90.T
    rdot = np.einsum("mc,mc->m", r1, r2)
    dn_ds = bb.d1 / jac_col
    d2n_ds2 = bb.d2 / jac_sq
    d2n_ds2 -= bb.d1 * (rdot / jac**4)[:, None]
    return FrameBatch(xis, bb.first_active, a1, a2, da2_ds, jac, dn_ds, d2n_ds2, bb.values)

