"""Shared geometry fixtures."""

import numpy as np
import pytest

import casrod.rod
import casrod.splines
from casrod import KnotVector, NurbsCurve, make_open_uniform_knot_vector
from casrod.rod import frames_at
from oracles import greville_abscissae

CONIC_W = np.sqrt(2.0) / 2.0


@pytest.fixture
def quarter_circle():
    """Unit quarter circle (first quadrant), one quadratic element."""
    return NurbsCurve(KnotVector(2, [0, 0, 0, 1, 1, 1]),
                      [[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
                      [1.0, CONIC_W, 1.0])


@pytest.fixture
def quarter_ellipse():
    """Quarter ellipse with semi-axes 2 and 1, one quadratic element."""
    return NurbsCurve(KnotVector(2, [0, 0, 0, 1, 1, 1]),
                      [[-2.0, 0.0], [-2.0, 1.0], [0.0, 1.0]],
                      [1.0, CONIC_W, 1.0])


def straight_rod(n_elements: int, length: float = 1.0) -> NurbsCurve:
    """Uniformly parametrized straight rod along x."""
    kv = make_open_uniform_knot_vector(2, n_elements)
    x = length * greville_abscissae(kv)
    pts = np.column_stack([x, np.zeros_like(x)])
    return NurbsCurve(kv, pts, np.ones(kv.n_basis))


def strains_at(ops, u, xis):
    """(eps, kappa) of `ops.strains` on the frame batch of the points xis."""
    return ops.strains(u, frames_at(ops.curve, xis))


@pytest.fixture
def straight_rod_4():
    return straight_rod(4)


@pytest.fixture
def basis_calls(monkeypatch):
    """List that grows by one per basis evaluation. `splines._basis_block` is
    the one basis kernel: nurbs_basis_many, frames_at, evaluate_geometry and
    displacement_at each fill one block through it, and so does a test that
    calls it as `casrod.splines._basis_block` for the plain B-spline basis."""
    calls = []
    original = casrod.splines._basis_block

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(casrod.splines, "_basis_block", counted)
    monkeypatch.setattr(casrod.rod, "_basis_block", counted)
    return calls
