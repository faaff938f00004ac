"""Symmetric matrices in LAPACK upper-band storage (the `solveh_banded` form).

A symmetric n x n matrix K of half-bandwidth hb is held as an (hb+1, n)
array ab with ab[hb + i - j, j] = K[i, j] for max(0, j - hb) <= i <= j. The
entries ab[hb - r, :r] lie outside the matrix and stay zero. casrod builds
ab column-major (LAPACK's own layout: column j holds K[j - hb..j, j]
contiguously), so LAPACK and BLAS take it without a transposing copy; these
functions also accept a row-major band. Only `to_dense` touches an n x n
array; the rest costs O(n * hb).
"""

from __future__ import annotations

import numpy as np

from ._lapack import dsbmv

__all__ = ["to_dense", "matvec", "norm1"]


def to_dense(ab: np.ndarray) -> np.ndarray:
    """The full symmetric matrix of an upper band."""
    hb, n = ab.shape[0] - 1, ab.shape[1]
    k = np.zeros((n, n))
    flat = k.reshape(-1)
    for r in range(hb + 1):
        flat[r::n + 1][:n - r] = ab[hb - r, r:]  # K[i, i + r]
        flat[r * n::n + 1] = ab[hb - r, r:]      # K[i + r, i]
    return k


def matvec(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """K @ x for the symmetric matrix K held as the upper band ab."""
    return dsbmv(ab.shape[0] - 1, 1.0, ab, x)


def norm1(ab: np.ndarray) -> float:
    """1-norm (largest absolute column sum) of the symmetric matrix."""
    return float(matvec(np.abs(ab), np.ones(ab.shape[1])).max())
