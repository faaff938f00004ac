"""The load-free locking test: count the discrete inextensional modes.

As EA grows, a discrete solution is confined to ker(R T): R maps the
displacements to the quantities whose vanishing makes the membrane energy
zero, and T maps the free dofs of the constrained system to all dofs
(`oracles.membrane_constraint_matrix`, `oracles.constraint_map`). A
discretization whose kernel stays empty (or fixed) as the mesh grows must give
u -> 0 there: it locks. One that cannot lock keeps a kernel that grows with
the mesh. The count is constrained dofs - rank(R T), by SVD.

Measured on the meshes below: every dropped singular value is at most 1.8e-16
of the largest, and every kept one at least 7.1e-8 of it. The smallest kept
one of the locking formulations falls about as h^3 (1.9e-5 at 16 elements),
so a cutoff of 1e-4 would miscount from 16 elements on. The counts depend
only on the mesh and the constraints, not on the slenderness.
"""

import numpy as np
import pytest

from casrod import (ElementFormulation, PatchOperators, apply_constraints, assemble,
                    build_arch_half, build_ellipse_quarter, build_ring_quarter, solve)
from casrod.benchmarks import standard_slenderness_cases

from oracles import constraint_map, membrane_constraint_matrix

F = ElementFormulation
BUILDERS = {"ring": build_ring_quarter, "arch": build_arch_half, "ellipse": build_ellipse_quarter}
MESHES = (2, 3, 4, 7, 8, 16, 33, 64)
CUTOFFS = (1e-12, 1e-9)  # relative to the largest singular value; both give the count


def expected_dimension(name: str, form, n: int) -> int:
    """The README table: dim ker(R T) of problem `name` on n elements."""
    if form in (F.CAS, F.GLOBAL_BBAR):
        return {"ring": n - 1, "arch": n - 2, "ellipse": n}[name]
    if form is F.NURBS_FULL:
        return 0
    return int(name == "ellipse")  # NURBS reduced, local B-bar, local ANS


def constrain(problem, form):
    """The operators and the constrained system of one problem and formulation."""
    ops = PatchOperators(problem.curve, problem.section, form)
    system = assemble(problem.curve, problem.section, form, problem.loads, ops=ops)
    return ops, apply_constraints(system, problem.constraints)


def kernel_dimensions(problem, form) -> list[int]:
    """dim ker(R T) of one problem and formulation, once per cutoff."""
    ops, constrained = constrain(problem, form)
    rt = membrane_constraint_matrix(ops) @ constraint_map(constrained)
    sigma = np.linalg.svd(rt, compute_uv=False)
    return [rt.shape[1] - int(np.sum(sigma > cutoff * sigma[0])) for cutoff in CUTOFFS]


@pytest.mark.parametrize("form", list(F), ids=lambda f: f.value)
@pytest.mark.parametrize("name", list(BUILDERS))
def test_kernel_dimension_matches_table(name, form):
    cases = standard_slenderness_cases(name)
    for case in (cases[0], cases[-1]):  # both ends of the standard range
        for n in MESHES:
            want = expected_dimension(name, form, n)
            got = kernel_dimensions(BUILDERS[name](n, case.value), form)
            assert got == [want] * len(CUTOFFS), (case.label, n, got, want)


def test_constraint_map_expands_the_reduced_solution():
    _, constrained = constrain(build_ring_quarter(8, 1e6), F.CAS)
    assert constrained.slave_pairs  # the symmetry ends tie dofs as well as fix them
    u = solve(constrained).u.reshape(-1)
    np.testing.assert_array_equal(constraint_map(constrained) @ u[constrained.free_dofs], u)
