"""Gauss-Legendre quadrature rules on the parent domain [-1, 1]."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["QuadratureRule", "gauss_rule"]


@dataclass(frozen=True)
class QuadratureRule:
    """Abscissae and weights on [-1, 1]; weights sum to 2."""

    points: np.ndarray
    weights: np.ndarray

    @property
    def n_points(self) -> int:
        return len(self.points)


@functools.lru_cache(maxsize=None, typed=True)
def _legendre(n_pts: int) -> QuadratureRule:
    """The n-point rule, built once per process and shared read-only. Invalid
    counts raise what `leggauss` raises; `typed` keeps 3.0 off the entry of 3."""
    pts, wts = np.polynomial.legendre.leggauss(n_pts)
    pts.setflags(write=False)
    wts.setflags(write=False)
    return QuadratureRule(pts, wts)


def gauss_rule(n_pts: int) -> QuadratureRule:
    """Standard Gauss-Legendre rule with 1..10 points (exactness degree 2n-1)."""
    if not 1 <= n_pts <= 10:
        raise ValueError(f"n_pts must be between 1 and 10, got {n_pts}")
    return _legendre(n_pts)


def _gauss_points(a: np.ndarray, b: np.ndarray, nodes: np.ndarray):
    """The rule `nodes` mapped onto each [a_i, b_i], flat, and the half-widths."""
    half = 0.5 * (b - a)
    return (0.5 * (a + b)[:, None] + half[:, None] * nodes).reshape(-1), half
