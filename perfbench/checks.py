"""Correctness checks: stored per-job outputs and an independent ellipse oracle.

Per-job tolerance. `golden.json` holds each job's outputs and the 1-norm
condition number kappa of its reduced stiffness, both computed at the commit
that defined the benchmark (see make_golden.py). Two backward-stable solves of
the same system each sit within kappa*eps of the exact solution, so they may
differ by 2*kappa*eps; that is the job's tolerance, floored at 1e-12 (the
relative agreement the converge CSV is held to). Displacement point values are
compared normwise against the largest stored one, relative L2 errors (already
relative quantities) absolutely below 1 and relatively above, field-sample
norms relatively.

Ellipse oracle. The clamped-free quarter ellipse is statically determinate:
N = F.a1 and M = (r_tip - r) x F. The free-end displacement in direction d is
the unit-load integral of (N N_d / EA + M M_d / EI) ds, exact for the linear
Kirchhoff rod, evaluated here by composite Gauss quadrature independently of
casrod.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
EPS = float(np.finfo(float).eps)
TOL_FLOOR = 1e-12

# A backward-stable solve leaves a normwise backward error of order n*eps,
# whatever the conditioning (see check_backward_error).
BACKWARD_ERROR_FACTOR = 10.0

# `ellipse_reference` calls itself converged at a 1e-4 mesh-to-mesh agreement.
REFERENCE_TOL = 1e-4
# ROADMAP item 4: at t = 4e-5 (R/t ~ 1e5) the fine-mesh reference is off by
# about 0.5%. A deviation at this thickness is reported as that known defect,
# not counted as a failed operation.
KNOWN_DEFECT_THICKNESSES = (4e-5,)

# Problem data of the clamped quarter ellipse (casrod README).
_A_AX, _B_AX, _YOUNG, _WIDTH = 2.0, 1.0, 7.0e10, 0.1


def load_golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)["jobs"]


def tolerance(kappa: float) -> float:
    return max(TOL_FLOOR, 2.0 * kappa * EPS)


def compare(out: dict, gold: dict | None) -> str | None:
    """None when a job's outputs match the stored ones, else the reason."""
    if gold is None:
        return "no stored outputs for this job"
    if out["n_dof"] != gold["n_dof"]:
        return f"n_dof {out['n_dof']} != {gold['n_dof']}"
    tol = tolerance(gold["kappa"])
    points, ref_points = np.array(out["u0"] + out["u1"]), np.array(gold["u0"] + gold["u1"])
    dev = float(np.max(np.abs(points - ref_points)) / np.max(np.abs(ref_points)))
    if not dev <= tol:
        return f"end displacements deviate {dev:.3e} > tol {tol:.3e}"
    for name, value, ref in zip(("e_u", "e_N", "e_M"), out.get("e", ()), gold.get("e", ())):
        if (value is None) != (ref is None):
            return f"{name} is {value}, stored {ref}"
        if ref is not None and not abs(value - ref) <= tol * max(1.0, abs(ref)):
            return f"{name} {value:.12e} != {ref:.12e} (tol {tol:.3e})"
    if ("fields" in out) != ("fields" in gold):
        return "field dump present in only one of output and stored output"
    for value, ref in zip(out.get("fields", ()), gold.get("fields", ())):
        if not abs(value - ref) <= tol * abs(ref):
            return f"field norm {value:.12e} != {ref:.12e} (tol {tol:.3e})"
    return None


def check_backward_error(backward_error: float, n_dof: int) -> str | None:
    """None when a traced solve's backward error is at most BACKWARD_ERROR_FACTOR*n*eps.

    The stored-output tolerance grows with kappa and reaches O(1) on the
    thinnest ellipse jobs, where it cannot catch a wrong solve; this bound
    does not depend on the conditioning.
    """
    limit = BACKWARD_ERROR_FACTOR * n_dof * EPS
    if backward_error <= limit:
        return None
    return f"backward error {backward_error:.3e} > {limit:.3e} ({BACKWARD_ERROR_FACTOR:g}*n*eps)"


def ellipse_free_end_oracle(t: float, segments: int = 200, points: int = 10) -> np.ndarray:
    """Free-end (u_x, u_y) of the clamped quarter ellipse by virtual work."""
    p_load = 1e7 * t**3
    ea = _YOUNG * t * _WIDTH
    ei = _YOUNG * _WIDTH * t**3 / 12.0
    x, w = np.polynomial.legendre.leggauss(points)
    edges = np.linspace(0.0, math.pi / 2, segments + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    phi = (mid[:, None] + half[:, None] * x).ravel()
    weight = (half[:, None] * w).ravel()
    r = np.stack([-_A_AX * np.cos(phi), _B_AX * np.sin(phi)], axis=1)
    dr = np.stack([_A_AX * np.sin(phi), _B_AX * np.cos(phi)], axis=1)
    jac = np.hypot(dr[:, 0], dr[:, 1])
    a1 = dr / jac[:, None]
    arm = np.array([0.0, _B_AX]) - r

    def resultants(force):
        return a1 @ force, arm[:, 0] * force[1] - arm[:, 1] * force[0]

    n, m = resultants(np.array([0.0, -p_load]))
    out = []
    for direction in np.eye(2):
        n_d, m_d = resultants(direction)
        out.append(float(np.sum(weight * jac * (n * n_d / ea + m * m_d / ei))))
    return np.array(out)


def reference_deviation(reference: dict, oracle: np.ndarray) -> float:
    """Largest relative deviation of an `ellipse_reference` result from the oracle."""
    ref = np.array([reference["ux_free"], reference["uy_free"]])
    return float(np.max(np.abs(ref - oracle) / np.abs(oracle)))


def is_known_defect(t: float) -> bool:
    return any(math.isclose(t, k, rel_tol=1e-12) for k in KNOWN_DEFECT_THICKNESSES)
