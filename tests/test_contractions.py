"""Element contractions of `PatchOperators` against an einsum oracle.

The operators form every element block with batched matmul and the global
B-bar membrane matrix with a banded Cholesky factor, a triangular band solve
and a symmetric rank-k update. The oracle below recomputes the same blocks
from the same quadrature data with three-operand einsum contractions and a
dense solve, so only the summation order differs.
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
            with pytest.raises(ValueError):  # read-only: stiffness_band reads them
                ops.blocks[0, 0, 0] = 0.0
            blocks, membrane = _oracle(ops)
            dense = np.zeros((2 * ops.curve.n_basis,) * 2)
            for e in range(n):
                k = ops.blocks[e]
                assert np.array_equal(k, k.T)
                assert _close(k, blocks[e]), (n, quad_points, e)
                dofs = slice(2 * e, 2 * e + len(k))  # element e's dofs
                dense[dofs, dofs] += blocks[e]
            if membrane is not None:
                low = ops._membrane_lower()
                k = low + np.tril(low, -1).T
                assert np.array_equal(k, k.T)  # the full matrix, not one triangle
                assert _close(k, membrane), (n, quad_points)
                dense += membrane
            assert _close(banded.to_dense(ops.stiffness_band()), dense), (n, quad_points)
