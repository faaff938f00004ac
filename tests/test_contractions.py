"""Element contractions of `PatchOperators` against an einsum oracle.

The operators form every element block with batched matmul and the global
B-bar membrane matrix with one tridiagonal sweep and windowed products. The
oracle below recomputes the same blocks from the same quadrature data with
three-operand einsum contractions and a dense solve, so only the summation
order differs. The membrane matrix is also checked against the dtbtrs +
dsyrk formation it replaced.
"""

import numpy as np
import pytest

from casrod import (
    ElementFormulation,
    PatchOperators,
    banded,
    build_arch_half,
    build_ellipse_quarter,
    build_ring_quarter,
)
from casrod.formulations import _linear_pair

from oracles import dsyrk_membrane

F = ElementFormulation
BUILDERS = {
    "ring": lambda n: build_ring_quarter(n, 1e6),
    "arch": lambda n: build_arch_half(n, 0.01),
    "ellipse": lambda n: build_ellipse_quarter(n, 0.04),
}
RTOL = 1e-14


def _oracle(ops: PatchOperators):
    """Element blocks, and the dense global B-bar membrane matrix (or None)."""
    ea, ei, wds, form = ops.section.ea, ops.section.ei, ops.wds, ops.formulation
    blocks = np.einsum("eq,eqi,eqj->eij", ei * wds, ops.brows, ops.brows)
    if form in (F.NURBS_FULL, F.NURBS_REDUCED):
        return blocks + np.einsum("eq,eqi,eqj->eij", ea * wds, ops.mrows, ops.mrows), None
    ends = _linear_pair(ops.quad.points, 1.0)
    if form in (F.LOCAL_BBAR, F.GLOBAL_BBAR):  # CAS and local ANS keep no mrows
        moments = np.einsum("eq,ql,eqi->eli", wds, ends, ops.mrows)
    if form is F.GLOBAL_BBAR:
        n_el = ops.curve.n_elements
        mass = np.einsum("eq,ql,qm->elm", wds, ends, ends)
        m = np.zeros((n_el + 1, n_el + 1))
        g = np.zeros((n_el + 1, 2 * ops.curve.n_basis))
        for e in range(n_el):
            m[e:e + 2, e:e + 2] += mass[e]
            g[e:e + 2, 2 * e:2 * e + moments.shape[2]] += moments[e]
        return blocks, ea * g.T @ np.linalg.solve(m, g)
    rows, node = ops._pair
    pair = _linear_pair(ops.quad.points, node)
    mass = np.einsum("eq,ql,qm->elm", wds, pair, pair)
    if form is F.LOCAL_BBAR:
        rows = np.linalg.solve(mass, moments)
        np.testing.assert_allclose(ops._pair[0], rows, rtol=0,
                                   atol=RTOL * np.abs(rows).max())
    return blocks + ea * np.einsum("eli,elm,emj->eij", rows, mass, rows), None


def _close(got, want):
    return np.abs(got - want).max() <= RTOL * np.abs(want).max()


@pytest.mark.parametrize("problem", sorted(BUILDERS))
@pytest.mark.parametrize("form", list(F), ids=[f.value for f in F])
def test_blocks_and_band_match_einsum_oracle(form, problem):
    for n in (1, 2, 7, 32):
        built = BUILDERS[problem](n)
        for quad_points in (2, 3):
            ops = PatchOperators(built.curve, built.section, form, quad_points)
            # read-only: the stiffness, the load and the projection read them
            for name in ("blocks", "wds", "mrows", "brows", "values", "xi_q"):
                array = getattr(ops, name)
                if array is not None:
                    with pytest.raises(ValueError, match="read-only"):
                        array[(0,) * array.ndim] = 0.0
            blocks, membrane = _oracle(ops)
            dense = np.zeros((2 * ops.curve.n_basis,) * 2)
            for e in range(n):
                k = ops.blocks[e]
                assert np.array_equal(k, k.T)
                assert _close(k, blocks[e]), (n, quad_points, e)
                dofs = slice(2 * e, 2 * e + len(k))  # element e's dofs
                dense[dofs, dofs] += blocks[e]
            if membrane is not None:
                k = banded.to_dense(ops._membrane_band())
                assert np.array_equal(k, k.T)  # the full matrix, not one triangle
                assert _close(k, membrane), (n, quad_points)
                dense += membrane
            assert _close(banded.to_dense(ops.stiffness_band()), dense), (n, quad_points)


def _normwise(got, want):
    return np.linalg.norm(got - want, 1) / np.linalg.norm(want, 1)


@pytest.mark.parametrize("problem", sorted(BUILDERS))
def test_membrane_band_matches_dsyrk_formation(problem):
    # normwise only: entries formed with cancellation differ between the two
    # formations by far more than the norm does
    for n in (1, 2, 7, 32, 128):
        built = BUILDERS[problem](n)
        for quad_points in (2, 3):
            ops = PatchOperators(built.curve, built.section, F.GLOBAL_BBAR, quad_points)
            band = ops._membrane_band()
            assert band.flags.f_contiguous
            assert _normwise(banded.to_dense(band), dsyrk_membrane(ops)) <= 1e-14, (n, quad_points)


def test_membrane_band_is_full():
    # the projection couples every dof pair: criterion 9's cost contrast
    # rests on a band with no zero inside the matrix
    built = BUILDERS["arch"](128)
    ops = PatchOperators(built.curve, built.section, F.GLOBAL_BBAR)
    band = ops._membrane_band()
    n = band.shape[1]
    assert band.shape == (n, n)
    upper = banded.to_dense(band)[np.triu_indices(n)]
    assert np.count_nonzero(upper) == upper.size
    assert 0.0 < np.abs(upper).min() < 1e-30  # the far corner has decayed, not vanished
