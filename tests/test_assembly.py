"""Tests for quadrature, assembly, loads, constraints, and the solver."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from casrod import (
    CrossSection,
    ElementFormulation,
    FixedDof,
    GlobalSystem,
    LoadSpec,
    NurbsCurve,
    PatchOperators,
    TieDof,
    apply_constraints,
    assemble,
    build_arch_half,
    build_ellipse_quarter,
    build_ring_quarter,
    clamped_end_constraints,
    gauss_rule,
    make_open_uniform_knot_vector,
    solve,
    solve_problem,
    symmetry_end_constraints,
)
from casrod import assembly, banded, evaluate_geometry
from casrod.assembly import (
    ConstrainedSystem,
    _backward_error,
    _end_controls,
    solution_backward_error,
)
from casrod.quadrature import _legendre
from casrod.errors import (
    DegenerateParametrizationError,
    NonAxisAlignedRotationError,
    SingularSystemError,
)
from casrod.rod import frames_at
from casrod.splines import nurbs_basis_many

from conftest import straight_rod
from oracles import einsum_distributed_load, greville_abscissae, insert_knot


class TestGaussRule:
    def test_two_points(self):
        rule = gauss_rule(2)
        np.testing.assert_allclose(rule.points, [-1 / np.sqrt(3), 1 / np.sqrt(3)])
        np.testing.assert_allclose(rule.weights, [1.0, 1.0])

    def test_three_points(self):
        rule = gauss_rule(3)
        np.testing.assert_allclose(rule.points, [-np.sqrt(3 / 5), 0.0, np.sqrt(3 / 5)])
        np.testing.assert_allclose(rule.weights, [5 / 9, 8 / 9, 5 / 9])

    def test_exactness_degree_five(self):
        rule = gauss_rule(3)
        integral = rule.weights @ rule.points**4
        assert abs(integral - 2 / 5) < 1e-14

    @pytest.mark.parametrize("n", range(1, 11))
    def test_weights_sum_to_two(self, n):
        assert gauss_rule(n).weights.sum() == pytest.approx(2.0, abs=1e-14)

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            gauss_rule(0)
        with pytest.raises(ValueError):
            gauss_rule(11)

    def test_rules_are_cached_and_read_only(self):
        rule = gauss_rule(3)
        assert gauss_rule(3) is rule
        for array in (rule.points, rule.weights):
            with pytest.raises(ValueError):
                array[0] = 0.0
        np.testing.assert_array_equal(rule.points, np.polynomial.legendre.leggauss(3)[0])

    def test_uncached_counts_raise_what_leggauss_raises(self):
        # the cached builder behind gauss_rule and the error rule of l2_errors
        assert _legendre(20) is _legendre(20)
        for bad in (0, -1):
            with pytest.raises(ValueError):
                _legendre(bad)
        _legendre(3)
        for bad in (2.5, 3.0):
            with pytest.raises(TypeError):
                _legendre(bad)
        with pytest.raises(TypeError):
            gauss_rule(2.5)


class TestAssemble:
    @pytest.mark.parametrize("quad_points", [2, 3])
    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_distributed_load_equals_einsum_oracle_bit_for_bit(self, n, quad_points):
        problem = build_arch_half(n, 0.01)
        form = ElementFormulation.CAS
        ops = PatchOperators(problem.curve, problem.section, form, quad_points)
        system = assemble(problem.curve, problem.section, form, problem.loads, ops=ops)
        want = einsum_distributed_load(problem.curve, ops, problem.loads.distributed)
        assert want.any()
        assert system.f.tobytes() == want.tobytes()

    def test_zero_loads(self):
        rod = straight_rod(3)
        system = assemble(rod, CrossSection(1.0, 1.0), ElementFormulation.NURBS_FULL,
                          LoadSpec())
        np.testing.assert_array_equal(system.f, 0.0)

    def test_uniform_load_consistency(self):
        # partition of unity under the integral: total assembled x-load is 1
        rod = straight_rod(4)
        loads = LoadSpec(distributed=lambda s: np.array([1.0, 0.0]))
        system = assemble(rod, CrossSection(1.0, 1.0), ElementFormulation.NURBS_FULL,
                          loads)
        assert system.f[0::2].sum() == pytest.approx(1.0, rel=1e-12)
        assert system.f[1::2].sum() == pytest.approx(0.0, abs=1e-14)

    def test_arch_total_vertical_load(self):
        # integral of -q sin(phi) over the half arch equals -q R (the load is
        # q per unit of horizontal length and the projected span is R)
        problem = build_arch_half(8, 0.1)
        q = 1e6 * 0.1**3
        system = assemble(problem.curve, problem.section, ElementFormulation.CAS,
                          problem.loads)
        assert system.f[1::2].sum() == pytest.approx(-q * 10.0, rel=1e-9)

    @pytest.mark.parametrize("result", [lambda x: 1.0, lambda x: np.array([5.0]),
                                        lambda x: np.ones(x.shape[:-1]),
                                        lambda x: x.reshape(-1, 2)],
                             ids=["scalar", "shape-1", "scalar-per-point", "flat"])
    def test_distributed_load_shape_rejected(self, result):
        # one element with the 2-point rule has m = 2 points: a scalar per
        # point laid out flat would have the shape (2,) of a constant load
        rod = straight_rod(1)
        with pytest.raises(ValueError, match="distributed load has shape"):
            assemble(rod, CrossSection(1.0, 1.0), ElementFormulation.NURBS_REDUCED,
                     LoadSpec(distributed=result))

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_distributed_load_gets_quadrature_positions(self, n):
        problem = build_arch_half(n, 0.01)
        ops = PatchOperators(problem.curve, problem.section, ElementFormulation.CAS)
        seen = []

        def load(x):
            seen.append(x)
            return problem.loads.distributed(x)

        assemble(problem.curve, problem.section, ElementFormulation.CAS,
                 LoadSpec(distributed=load), ops=ops)
        expected = evaluate_geometry(problem.curve, ops.xi_q)[0]
        assert len(seen) == 1 and seen[0].shape == expected.shape
        np.testing.assert_allclose(seen[0], expected, rtol=0, atol=1e-14 * 10.0)  # R = 10

    def test_assemble_evaluates_no_geometry(self, basis_calls):
        problem = build_arch_half(16, 0.01)
        ops = PatchOperators(problem.curve, problem.section, ElementFormulation.CAS)
        basis_calls.clear()
        assemble(problem.curve, problem.section, ElementFormulation.CAS, problem.loads,
                 ops=ops)
        assert basis_calls == []

    def test_point_load_end_selector(self):
        rod = straight_rod(2)
        system = assemble(rod, CrossSection(1.0, 1.0), ElementFormulation.NURBS_FULL,
                          LoadSpec(point_loads=[("start", np.array([3.0, 0.0])),
                                                ("end", np.array([0.0, -2.0]))]))
        assert system.f[0] == 3.0
        assert system.f[-1] == -2.0
        with pytest.raises(ValueError, match="start.*end|end.*start"):
            assemble(rod, CrossSection(1.0, 1.0), ElementFormulation.NURBS_FULL,
                     LoadSpec(point_loads=[("tip", np.array([1.0, 0.0]))]))

    @pytest.mark.parametrize("force", [1.0, [1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]],
                             ids=["scalar", "shape-1", "shape-3", "shape-1x2"])
    def test_point_load_shape_rejected(self, force):
        # a scalar or one entry used to be spread over both components
        with pytest.raises(ValueError, match="point load force has shape"):
            assemble(straight_rod(2), CrossSection(1.0, 1.0), ElementFormulation.NURBS_FULL,
                     LoadSpec(point_loads=[("start", force)]))

    def test_ops_must_match_the_other_arguments(self):
        coarse, fine = build_arch_half(4, 0.01), build_arch_half(8, 0.01)
        form = ElementFormulation.CAS
        ops = PatchOperators(coarse.curve, coarse.section, form)
        mismatched = [
            # a 4-element ops with the 8-element curve gave a (6, 12) band and a load of 20
            (fine.curve, coarse.section, form, None),
            (coarse.curve, CrossSection(1.0, 1.0), form, None),
            (coarse.curve, coarse.section, ElementFormulation.NURBS_FULL, None),
            (coarse.curve, coarse.section, form, 2),
        ]
        for curve, section, formulation, quad_points in mismatched:
            with pytest.raises(ValueError, match="ops was built for another"):
                assemble(curve, section, formulation, coarse.loads, quad_points, ops=ops)
        want = assemble(coarse.curve, coarse.section, form, coarse.loads)
        got = assemble(coarse.curve, coarse.section, form, coarse.loads, ops.n_quad, ops=ops)
        np.testing.assert_array_equal(got.ab, want.ab)
        np.testing.assert_array_equal(got.f, want.f)

    def test_bandwidth_flag(self):
        rod = straight_rod(3)
        for form, narrow in [(ElementFormulation.CAS, True),
                             (ElementFormulation.GLOBAL_BBAR, False)]:
            system = assemble(rod, CrossSection(1.0, 1.0), form, LoadSpec())
            assert (system.half_bandwidth < len(system.f) - 1) is narrow


class TestConstraints:
    def test_cantilever_tip_deflection(self):
        # Euler-Bernoulli closed form: delta = P L^3 / (3 EI)
        rod = straight_rod(16, length=2.0)
        section = CrossSection(ea=1e4, ei=2.0)
        p = 0.75
        loads = LoadSpec(point_loads=[("end", np.array([0.0, -p]))])
        system = assemble(rod, section, ElementFormulation.NURBS_FULL, loads)
        u = solve(apply_constraints(system, clamped_end_constraints(rod, "start")))
        tip = u.u[-1, 1]
        exact = -p * 2.0**3 / (3 * section.ei)
        assert tip == pytest.approx(exact, rel=1e-3)

    def test_curved_cantilever_unit_load_oracle(self):
        # quarter-circle cantilever with a vertical tip load: the unit-load
        # method gives the exact tip deflections of this rod model (bending
        # plus membrane flexibility, no shear):
        #   u_y = -(pi/4) (P R^3/EI + P R/EA),  u_x = P R^3/(2EI) - P R/(2EA)
        # checked at a stubby section so the membrane term matters
        from casrod import CrossSection, KnotVector, NurbsCurve

        radius, p_load = 1.0, 1.0
        curve = NurbsCurve(KnotVector(2, [0, 0, 0, 1, 1, 1]),
                           [[-radius, 0.0], [-radius, radius], [0.0, radius]],
                           [1.0, np.sqrt(2) / 2, 1.0])
        for j in range(1, 64):
            curve = insert_knot(curve, j / 64)
        for ea, ei in [(1e4, 1.0), (20.0, 2.0)]:
            section = CrossSection(ea=ea, ei=ei)
            loads = LoadSpec(point_loads=[("end", np.array([0.0, -p_load]))])
            system = assemble(curve, section, ElementFormulation.CAS, loads)
            u = solve(apply_constraints(system, clamped_end_constraints(curve, "start")))
            u_y_exact = -(np.pi / 4) * (p_load * radius**3 / ei + p_load * radius / ea)
            u_x_exact = p_load * radius**3 / (2 * ei) - p_load * radius / (2 * ea)
            assert u.u[-1, 1] == pytest.approx(u_y_exact, rel=1e-3)
            assert u.u[-1, 0] == pytest.approx(u_x_exact, rel=1e-3)

    def test_half_parabola_matches_full_model(self):
        # symmetry-constraint oracle: a full parabolic arch under a uniform
        # vertical load versus its half model with symmetry conditions at the
        # crown; the discrete solutions coincide on the shared half. (A half
        # circle would need a repeated interior knot, which is out of scope,
        # so the oracle uses an exactly representable symmetric geometry.)
        section = CrossSection(ea=1e4, ei=1.0)
        loads = LoadSpec(distributed=lambda s: np.array([0.0, -0.6]))

        def parabola(n_elements, x_of):
            kv = make_open_uniform_knot_vector(2, n_elements)
            t = kv.knots
            x = x_of(greville_abscissae(kv))
            y = np.array([1.0 - x_of(t[b + 1]) * x_of(t[b + 2])
                          for b in range(kv.n_basis)])
            return NurbsCurve(kv, np.column_stack([x, y]), np.ones(kv.n_basis))

        # full arch y = 1 - x^2, x in [-1, 1], pinned at both (oblique) ends
        # (the blossom of x(u)x(v) gives the control ordinates exactly)
        full = parabola(2, lambda u: 2.0 * u - 1.0)
        n_full = full.n_basis
        full_cons = [FixedDof(0, 0), FixedDof(0, 1),
                     FixedDof(n_full - 1, 0), FixedDof(n_full - 1, 1)]
        sys_full = assemble(full, section, ElementFormulation.NURBS_FULL, loads)
        u_full = solve(apply_constraints(sys_full, full_cons))

        # right half, x in [0, 1]: symmetry at the crown (horizontal tangent),
        # pinned at the base
        half = parabola(1, lambda u: u)
        half_cons = (symmetry_end_constraints(half, "start")
                     + [FixedDof(half.n_basis - 1, 0), FixedDof(half.n_basis - 1, 1)])
        sys_half = assemble(half, section, ElementFormulation.NURBS_FULL, loads)
        u_half = solve(apply_constraints(sys_half, half_cons))

        # shared physical points: the full model's right element reproduces
        # the half model (xi_full = (1 + xi_half) / 2 maps to the same x)
        xi_half = np.linspace(0, 1, 9)
        bb_h = nurbs_basis_many(half, xi_half, max_deriv=0)
        bb_f = nurbs_basis_many(full, 0.5 + 0.5 * xi_half, max_deriv=0)
        for i in range(len(xi_half)):
            uh = bb_h.values[i] @ u_half.u[bb_h.first_active[i]:bb_h.first_active[i] + 3]
            uf = bb_f.values[i] @ u_full.u[bb_f.first_active[i]:bb_f.first_active[i] + 3]
            np.testing.assert_allclose(uh, uf, rtol=0, atol=1e-8 * np.abs(u_full.u).max())

    def test_constrain_all_dofs_gives_zero(self):
        rod = straight_rod(2)
        loads = LoadSpec(point_loads=[("end", np.array([1.0, 1.0]))])
        system = assemble(rod, CrossSection(1.0, 1.0), ElementFormulation.NURBS_FULL,
                          loads)
        cons = [FixedDof(b, c) for b in range(rod.n_basis) for c in (0, 1)]
        u = solve(apply_constraints(system, cons))
        np.testing.assert_array_equal(u.u, 0.0)

    def test_rotation_constraint_requires_axis_alignment(self):
        # 45-degree rotated cantilever: a2 at the clamp is oblique
        rot = np.array([[np.cos(np.pi / 4), -np.sin(np.pi / 4)],
                        [np.sin(np.pi / 4), np.cos(np.pi / 4)]])
        rod = straight_rod(3)
        tilted = NurbsCurve(rod.knot_vector, rod.control_points @ rot.T,
                            rod.weights)
        with pytest.raises(NonAxisAlignedRotationError):
            clamped_end_constraints(tilted, "start")

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    @pytest.mark.parametrize("make", [lambda n: build_ring_quarter(n, 1e6),
                                      lambda n: build_arch_half(n, 0.01),
                                      lambda n: build_ellipse_quarter(n, 0.04)],
                             ids=["ring", "arch", "ellipse"])
    def test_end_normal_from_control_leg_matches_frame(self, make, n):
        curve = make(n).curve
        ends = frames_at(curve, [0.0, 1.0]).a2
        for end, a2 in zip(("start", "end"), ends):
            assert _end_controls(curve, end)[2] == int(np.argmax(np.abs(a2)))

    def test_zero_length_end_leg_raises(self):
        rod = straight_rod(3)
        for end, (i, j) in (("start", (0, 1)), ("end", (-1, -2))):
            pts = rod.control_points.copy()
            pts[i] = pts[j]
            curve = NurbsCurve(rod.knot_vector, pts, rod.weights)
            with pytest.raises(DegenerateParametrizationError):
                clamped_end_constraints(curve, end)
            with pytest.raises(DegenerateParametrizationError):
                frames_at(curve, [0.0 if end == "start" else 1.0])

    def test_tie_of_a_dof_to_itself_rejected(self):
        # it used to delete the dof: u[2, 0] became 0 instead of -0.0406
        problem = build_ring_quarter(4, 1e6)
        system = assemble(problem.curve, problem.section, ElementFormulation.CAS,
                          problem.loads)
        with pytest.raises(ValueError, match="itself"):
            apply_constraints(system, problem.constraints + [TieDof(2, 2, 0)])

    @pytest.mark.parametrize("make", [
        lambda: FixedDof(0, 2),     # used to fix control 1's x dof
        lambda: FixedDof(1, -1),    # used to fix control 0's y dof
        lambda: TieDof(2, 3, 2),    # used to tie controls 3 and 4
        lambda: FixedDof(1.5, 0),   # used to raise IndexError
    ], ids=["component-2", "component-minus-1", "tie-component-2", "fractional-index"])
    def test_record_naming_no_dof_rejected(self, make):
        # dof = 2 * control + component: any other component or a non-integral
        # index named another dof, or none, without an error
        problem = build_arch_half(4, 0.01)
        system = assemble(problem.curve, problem.section, ElementFormulation.CAS,
                          problem.loads)
        with pytest.raises(ValueError, match="names no dof"):
            apply_constraints(system, problem.constraints + [make()])

    def test_duplicate_tie_rejected(self):
        # folding the symmetry tie twice moved the solution by 0.070 (max |u| 0.073)
        problem = build_ring_quarter(4, 1e6)
        system = assemble(problem.curve, problem.section, ElementFormulation.CAS,
                          problem.loads)
        tie = next(c for c in problem.constraints if isinstance(c, TieDof))
        with pytest.raises(ValueError, match="already tied"):
            apply_constraints(system, problem.constraints + [tie])

    def test_slave_tied_to_two_masters_rejected(self):
        problem = build_ring_quarter(4, 1e6)
        system = assemble(problem.curve, problem.section, ElementFormulation.CAS,
                          problem.loads)
        with pytest.raises(ValueError, match="already tied"):
            apply_constraints(system, [TieDof(2, 1, 0), TieDof(2, 3, 0)])

    def test_tie_cycle_rejected(self):
        problem = build_ring_quarter(4, 1e6)
        system = assemble(problem.curve, problem.section, ElementFormulation.CAS,
                          problem.loads)
        with pytest.raises(ValueError, match="cycle"):
            apply_constraints(system, [TieDof(2, 3, 0), TieDof(3, 4, 0), TieDof(4, 2, 0)])

    @pytest.mark.parametrize("order", [1, -1], ids=["master-tie-first", "slave-tie-first"])
    def test_chained_ties_fold_into_the_chain_end(self, order):
        # 5 -> 4 -> 3 in either order is 5 -> 3 and 4 -> 3; both orders used
        # to lose either the folded stiffness or the expanded displacement
        problem = build_ring_quarter(6, 1e4)
        system = assemble(problem.curve, problem.section, ElementFormulation.CAS,
                          problem.loads)
        chain = [TieDof(4, 3, 0), TieDof(5, 4, 0)][::order]
        direct = [TieDof(4, 3, 0), TieDof(5, 3, 0)][::order]
        con = apply_constraints(system, problem.constraints + chain)
        k_ref, f_ref = _dense_elimination(system.k, system.f, problem.constraints + direct)
        np.testing.assert_array_equal(con.k, k_ref)
        np.testing.assert_array_equal(con.f, f_ref)
        u = solve(con).u
        np.testing.assert_array_equal(
            u, solve(apply_constraints(system, problem.constraints + direct)).u)
        assert u[3, 0] == u[4, 0] == u[5, 0] != 0.0

    @pytest.mark.parametrize("form", [ElementFormulation.CAS, ElementFormulation.GLOBAL_BBAR],
                             ids=lambda f: f.value)
    def test_fixed_dofs_anywhere_equal_dense_elimination(self, form):
        # removals away from the rod ends, next to each other and at both ends
        problem = build_arch_half(7, 0.01)
        system = assemble(problem.curve, problem.section, form, problem.loads)
        rng = np.random.default_rng(3)
        n = len(system.f)
        for trial in range(20):
            dofs = np.flatnonzero(rng.random(n) < (0.1, 0.4, 0.8, 0.95)[trial % 4])
            cons = [FixedDof(int(d) // 2, int(d) % 2) for d in dofs]
            con = apply_constraints(system, cons)
            k_ref, f_ref = _dense_elimination(system.k, system.f, cons)
            np.testing.assert_array_equal(con.k, k_ref)
            np.testing.assert_array_equal(con.f, f_ref)

    @pytest.mark.parametrize("constraints, error, match", [
        ([TieDof(6, 0, 0)], ValueError, "tie constraint out of range"),
        ([TieDof(0, 6, 1)], ValueError, "tie constraint out of range"),
        ([FixedDof(6, 0)], ValueError, "fixed dof out of range"),
        ([TieDof(2, 3, 0), FixedDof(2, 0)], ValueError, "fix the master instead"),
        ([(0, 0)], TypeError, "unsupported constraint type: tuple"),
    ], ids=["tie-slave-out-of-range", "tie-master-out-of-range", "fixed-out-of-range",
            "fixed-tied-slave", "not-a-constraint"])
    def test_constraint_the_system_cannot_take_rejected(self, constraints, error, match):
        rod = straight_rod(4)  # 6 controls: dofs 0 ... 11
        system = assemble(rod, CrossSection(1.0, 1.0), ElementFormulation.NURBS_FULL,
                          LoadSpec())
        with pytest.raises(error, match=match):
            apply_constraints(system, constraints)

    def test_tie_constraint_bookkeeping(self):
        rod = straight_rod(2)
        system = assemble(rod, CrossSection(1.0, 1.0), ElementFormulation.NURBS_FULL,
                          LoadSpec())
        con = apply_constraints(system, [FixedDof(0, 0), TieDof(1, 0, 1)])
        assert con.n_dof == 2 * rod.n_basis - 2
        assert con.slave_pairs == [(3, 1)]


class TestSolve:
    def test_diagonal_system_direct_quotient(self):
        con = ConstrainedSystem(ab=np.array([[2.0, 4.0]]), f=np.array([2.0, 8.0]),
                                free_dofs=np.array([0, 1]), slave_pairs=[],
                                n_full=2)
        u = solve(con)
        np.testing.assert_allclose(u.u.reshape(-1), [1.0, 2.0], rtol=1e-14)

    def test_floating_rod_is_singular(self):
        rod = straight_rod(4)
        loads = LoadSpec(point_loads=[("end", np.array([0.0, 1.0]))])
        system = assemble(rod, CrossSection(1.0, 1.0), ElementFormulation.NURBS_FULL,
                          loads)
        with pytest.raises(SingularSystemError):
            solve(apply_constraints(system, []))

    @pytest.mark.parametrize("build", [lambda: build_ring_quarter(4, 1e6),
                                       lambda: build_arch_half(4, 0.01)],
                             ids=["ring", "arch"])
    def test_backward_error_above_the_tolerance_is_singular(self, monkeypatch, build):
        # no well-posed benchmark reaches 1e-10; a zero tolerance trips on roundoff
        problem = build()
        system = assemble(problem.curve, problem.section, ElementFormulation.CAS,
                          problem.loads)
        constrained = apply_constraints(system, problem.constraints)
        monkeypatch.setattr(assembly, "_RESIDUAL_TOL", 0.0)
        with pytest.raises(SingularSystemError, match=r"solver backward error \S+ exceeds 0e\+00"):
            solve(constrained)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("form", list(ElementFormulation), ids=lambda f: f.value)
    @pytest.mark.parametrize("build", [lambda: build_ring_quarter(4, 1e6),
                                       lambda: build_arch_half(4, 0.01)],
                             ids=["ring", "arch"])
    def test_zero_load_solves_to_zero(self, build, form):
        # u = 0 and f = 0 make the backward error's scale zero: no division,
        # no warning, and u comes back exactly zero
        problem = dataclasses.replace(build(), loads=LoadSpec())
        solution = solve_problem(problem, form)
        assert solution.n_dof > 0
        assert not solution.u.any()

    def test_banded_and_dense_paths_agree(self):
        # solver-path check on a well-conditioned system (for the very slender
        # sections the factorization difference is bounded by cond(K)*eps
        # instead, which exceeds 1e-12 for EA >= 1e6)
        problem = build_ring_quarter(16, 1e2)
        system = assemble(problem.curve, problem.section, ElementFormulation.CAS,
                          problem.loads)
        con = apply_constraints(system, problem.constraints)
        u_banded = solve(con).u
        u_red = scipy.linalg.cho_solve(scipy.linalg.cho_factor(con.k), con.f)
        u_dense = np.zeros(con.n_full)
        u_dense[con.free_dofs] = u_red
        for slave, master in con.slave_pairs:
            u_dense[slave] = u_dense[master]
        u_dense = u_dense.reshape(-1, 2)
        np.testing.assert_allclose(u_dense, u_banded,
                                   rtol=1e-12, atol=1e-12 * np.abs(u_banded).max())

    def test_ring_fine_mesh_point_value(self):
        # 128-element CAS solve reproduces the closed-form u_yB to 0.1%
        problem = build_ring_quarter(128, 1e6)
        sol = solve_problem(problem, ElementFormulation.CAS)
        exact = problem.point_checks[1].value
        assert sol.u[-1, 1] == pytest.approx(exact, rel=1e-3)

    def test_backward_error_small(self):
        problem = build_ring_quarter(32, 1e8)
        system = assemble(problem.curve, problem.section, ElementFormulation.CAS,
                          problem.loads)
        con = apply_constraints(system, problem.constraints)
        u = solve(con)
        u_red = u.u.reshape(-1)[con.free_dofs]
        assert solution_backward_error(con.k, u_red, con.f) < 1e-10


_BENCHMARKS = {"ring": lambda n: build_ring_quarter(n, 1e6),
               "arch": lambda n: build_arch_half(n, 0.01),
               "ellipse": lambda n: build_ellipse_quarter(n, 0.004)}


def _constrained(problem, form=ElementFormulation.CAS) -> ConstrainedSystem:
    system = assemble(problem.curve, problem.section, form, problem.loads)
    return apply_constraints(system, problem.constraints)


class TestSolveContract:
    """`solve` calls LAPACK dpbsv itself; these pin what `solveh_banded` gave."""

    @pytest.mark.parametrize("form", list(ElementFormulation), ids=lambda f: f.value)
    @pytest.mark.parametrize("name", sorted(_BENCHMARKS))
    def test_matches_solveh_banded_bit_for_bit(self, name, form):
        for n in (2, 3, 16, 64):
            con = _constrained(_BENCHMARKS[name](n), form)
            u = solve(con).u.reshape(-1)
            want = scipy.linalg.solveh_banded(con.ab, con.f)
            assert u[con.free_dofs].tobytes() == want.tobytes(), (name, n)

    def test_tridiagonal_band_agrees_with_solveh_banded(self):
        # solveh_banded sends a half-bandwidth of 1 to the LDL^T routine
        # dptsv; the Cholesky solve agrees to roundoff
        con = _constrained(build_ring_quarter(1, 1e6))
        assert con.half_bandwidth == 1
        want = scipy.linalg.solveh_banded(con.ab, con.f)
        np.testing.assert_allclose(solve(con).u.reshape(-1)[con.free_dofs], want,
                                   rtol=1e-15, atol=0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["band", "load"])
    def test_non_finite_system_is_a_value_error(self, where, value):
        con = _constrained(build_ring_quarter(4, 1e6))
        if where == "band":
            con.ab = con.ab.copy()
            con.ab[-1, 3] = value
        else:
            con.f = con.f.copy()
            con.f[2] = value
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve(con)

    def test_indefinite_band_is_singular(self):
        con = ConstrainedSystem(ab=np.array([[2.0, -1.0]]), f=np.array([1.0, 1.0]),
                                free_dofs=np.array([0, 1]), slave_pairs=[], n_full=2)
        with pytest.raises(SingularSystemError, match="2th leading minor not positive definite"):
            solve(con)

    def test_zero_dof_system_returns_zeros(self):
        con = ConstrainedSystem(ab=np.zeros((1, 0)), f=np.zeros(0),
                                free_dofs=np.zeros(0, dtype=int), slave_pairs=[], n_full=6)
        u = solve(con).u
        assert u.shape == (3, 2) and not u.any()

    @pytest.mark.parametrize("damage, code, prefix", [
        (lambda ab: np.where(ab != 0.0, np.nan, ab), 1, "casrod: error: "),
        (lambda ab: -ab, 2, "casrod: numerical failure: "),
    ], ids=["non-finite", "indefinite"])
    def test_cli_exit_codes(self, monkeypatch, capsys, damage, code, prefix):
        from casrod.cli import main

        band = PatchOperators.stiffness_band
        monkeypatch.setattr(PatchOperators, "stiffness_band", lambda ops: damage(band(ops)))
        assert main(["converge", "--problem", "ring", "--formulation", "cas",
                     "--slenderness", "1e6", "--refinements", "0"]) == code
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1


class TestReactions:
    def test_cantilever_reaction_balance(self):
        rod = straight_rod(8)
        section = CrossSection(1e3, 1.0)
        load = np.array([0.4, -1.1])
        loads = LoadSpec(point_loads=[("end", load)])
        system = assemble(rod, section, ElementFormulation.NURBS_FULL, loads)
        cons = clamped_end_constraints(rod, "start")
        u = solve(apply_constraints(system, cons))
        r = banded.matvec(system.ab, u.u.reshape(-1)) - system.f
        total = r.reshape(-1, 2).sum(axis=0)
        np.testing.assert_allclose(total + load, 0.0, atol=1e-8 * np.abs(load).max())

    def test_arch_reaction_balance(self):
        problem = build_arch_half(16, 0.1)
        sol = solve_problem(problem, ElementFormulation.CAS)
        system = assemble(problem.curve, problem.section, ElementFormulation.CAS,
                          problem.loads)
        r = banded.matvec(system.ab, sol.u.reshape(-1)) - system.f
        total = r.reshape(-1, 2).sum(axis=0)
        applied = system.f.reshape(-1, 2).sum(axis=0)
        # reactions at the constrained dofs balance the total applied load
        np.testing.assert_allclose(total + applied, 0.0,
                                   atol=1e-8 * np.abs(applied).max())


def _dense_scatter(ops):
    """Dense global stiffness from the element blocks, one block at a time."""
    n = 2 * ops.curve.n_basis
    k = np.zeros((n, n))
    for e, block in enumerate(ops.blocks):
        k[2 * e:2 * e + len(block), 2 * e:2 * e + len(block)] += block
    if ops.formulation is ElementFormulation.GLOBAL_BBAR:
        k += banded.to_dense(ops._membrane_band())
    return k


def _peak_in(band_bytes, call):
    """call()'s result and its traced peak above what is alive before it, in bands."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    out = call()
    return out, (tracemalloc.get_traced_memory()[1] - before) / band_bytes


def _dense_elimination(k, f, constraints):
    """Reference elimination on a dense matrix: fold ties, then drop rows/columns."""
    k, f = k.copy(), f.copy()
    removed = np.zeros(len(f), dtype=bool)
    for c in constraints:
        if isinstance(c, TieDof):
            slave, master = 2 * c.control_a + c.component, 2 * c.control_b + c.component
            k[master, :] += k[slave, :]
            k[:, master] += k[:, slave]
            f[master] += f[slave]
            removed[slave] = True
        else:
            removed[2 * c.control_index + c.component] = True
    free = np.flatnonzero(~removed)
    return k[np.ix_(free, free)], f[free]


BAND_PROBLEMS = [lambda: build_ring_quarter(9, 1e6), lambda: build_arch_half(7, 0.01),
                 lambda: build_ellipse_quarter(6, 0.04)]


class TestBandStorage:
    @pytest.mark.parametrize("form", list(ElementFormulation), ids=lambda f: f.value)
    def test_assembled_band_equals_dense_scatter(self, form):
        problem = build_arch_half(7, 0.01)
        ops = PatchOperators(problem.curve, problem.section, form)
        system = assemble(problem.curve, problem.section, form, problem.loads, ops=ops)
        expected = _dense_scatter(ops)
        n = len(system.f)
        assert system.half_bandwidth == (n - 1 if form is ElementFormulation.GLOBAL_BBAR else 5)
        # each entry sums its element blocks in ascending element order, as
        # the dense scatter does, so the two agree bit for bit
        np.testing.assert_array_equal(system.k, expected)
        # the band holds every nonzero: nothing lies outside it
        offsets = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        assert not np.any(expected[offsets > system.half_bandwidth])

    @pytest.mark.parametrize("make", BAND_PROBLEMS, ids=["ring", "arch", "ellipse"])
    @pytest.mark.parametrize("form", [ElementFormulation.CAS, ElementFormulation.NURBS_FULL,
                                      ElementFormulation.GLOBAL_BBAR], ids=lambda f: f.value)
    def test_constrained_band_equals_dense_elimination(self, make, form):
        problem = make()
        system = assemble(problem.curve, problem.section, form, problem.loads)
        con = apply_constraints(system, problem.constraints)
        k_ref, f_ref = _dense_elimination(system.k, system.f, problem.constraints)
        np.testing.assert_array_equal(con.k, k_ref)
        np.testing.assert_array_equal(con.f, f_ref)
        assert con.n_dof == len(f_ref)

    @pytest.mark.parametrize("make", BAND_PROBLEMS, ids=["ring", "arch", "ellipse"])
    def test_in_place_compaction_does_not_depend_on_its_blocks(self, make, monkeypatch):
        # one column per block puts every write right next to the columns
        # still to be read; the band must come out the same
        problem = make()
        for form in ElementFormulation:
            system = assemble(problem.curve, problem.section, form, problem.loads)
            want = apply_constraints(system, problem.constraints)
            with monkeypatch.context() as patch:
                patch.setattr(assembly, "_BLOCK_ENTRIES", 1)
                got = apply_constraints(system, problem.constraints)
            assert got.ab.shape == want.ab.shape and got.ab.tobytes() == want.ab.tobytes()

    def test_far_and_chained_ties_equal_dense_elimination(self):
        # ties more than two dofs apart and a tie onto an already folded master
        problem = build_ring_quarter(6, 1e4)
        system = assemble(problem.curve, problem.section, ElementFormulation.CAS,
                          problem.loads)
        cons = [TieDof(5, 1, 0), TieDof(3, 1, 0), FixedDof(0, 1), FixedDof(7, 0),
                TieDof(2, 6, 1)]
        con = apply_constraints(system, cons)
        k_ref, f_ref = _dense_elimination(system.k, system.f, cons)
        np.testing.assert_array_equal(con.k, k_ref)
        np.testing.assert_array_equal(con.f, f_ref)
        offsets = np.abs(np.subtract.outer(np.arange(len(f_ref)), np.arange(len(f_ref))))
        assert not np.any(k_ref[offsets > con.half_bandwidth])

    @pytest.mark.parametrize("make", BAND_PROBLEMS, ids=["ring", "arch", "ellipse"])
    def test_banded_backward_error_equals_dense_oracle(self, make):
        problem = make()
        for form in (ElementFormulation.CAS, ElementFormulation.GLOBAL_BBAR):
            system = assemble(problem.curve, problem.section, form, problem.loads)
            con = apply_constraints(system, problem.constraints)
            u_red = solve(con).u.reshape(-1)[con.free_dofs]
            # at the computed solution both residuals are rounding noise, so
            # they agree to n*eps; away from it they agree to many digits
            rng = np.random.default_rng(1)
            for u in (u_red, u_red * (1.0 + 1e-6 * rng.standard_normal(len(u_red)))):
                dense = solution_backward_error(con.k, u, con.f)
                band = _backward_error(banded.matvec(con.ab, u) - con.f,  # as `solve` does
                                       banded.norm1(con.ab), u, con.f)
                assert band == pytest.approx(dense, rel=1e-9,
                                             abs=len(u) * np.finfo(float).eps)
            k_norm = np.linalg.norm(con.k, 1)
            np.testing.assert_allclose(banded.matvec(con.ab, u_red), con.k @ u_red, rtol=0,
                                       atol=len(u_red) * np.finfo(float).eps * k_norm
                                       * np.abs(u_red).max())
            assert banded.norm1(con.ab) == pytest.approx(k_norm, rel=1e-14)

    def test_solve_allocates_no_dense_matrix(self):
        # one dense n x n matrix at 2048 arch elements is 128 MiB
        problem = build_arch_half(2048, 0.01)
        tracemalloc.start()
        try:
            solve_problem(problem, ElementFormulation.CAS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("form", list(ElementFormulation), ids=lambda f: f.value)
    def test_bands_are_column_major(self, form):
        # LAPACK's own layout: dpbsv and dsbmv take it without a transposing copy
        problem = build_arch_half(7, 0.01)
        system = assemble(problem.curve, problem.section, form, problem.loads)
        con = apply_constraints(system, problem.constraints)
        assert system.ab.flags.f_contiguous and con.ab.flags.f_contiguous

    @pytest.mark.parametrize("form", list(ElementFormulation), ids=lambda f: f.value)
    @pytest.mark.parametrize("make", BAND_PROBLEMS[:2], ids=["ring", "arch"])
    def test_constraints_leave_the_input_alone(self, make, form):
        # the constrained band is compacted in place, inside a working copy:
        # the assembled system keeps its bytes and shares no memory with it
        problem = make()
        system = assemble(problem.curve, problem.section, form, problem.loads)
        ab, f = system.ab.tobytes(), system.f.tobytes()
        con = apply_constraints(system, problem.constraints)
        assert system.ab.tobytes() == ab and system.f.tobytes() == f
        assert not np.shares_memory(con.ab, system.ab)
        assert not np.shares_memory(con.f, system.f)

    def test_global_bbar_peak_memory_in_bands(self):
        # peak of each call above what is alive before it, in units of one
        # n x n band: the output band plus one buffer of Z = M^-1 G in
        # assembly, one working band in the constraint step, one copy for the
        # factor in the solve. solve_problem frees the assembled band before
        # the solve, so it holds two bands at most.
        problem = build_arch_half(256, 0.01)
        form = ElementFormulation.GLOBAL_BBAR
        ops = PatchOperators(problem.curve, problem.section, form)
        band_bytes = 8.0 * (2 * ops.curve.n_basis) ** 2

        tracemalloc.start()
        try:
            system, assemble_peak = _peak_in(band_bytes, lambda: assemble(
                problem.curve, problem.section, form, problem.loads, ops=ops))
            con, constrain_peak = _peak_in(
                band_bytes, lambda: apply_constraints(system, problem.constraints))
            _, solve_peak = _peak_in(band_bytes, lambda: solve(con))
            del system, con
            _, solve_problem_peak = _peak_in(band_bytes, lambda: solve_problem(problem, form))
        finally:
            tracemalloc.stop()
        assert assemble_peak <= 3.0, assemble_peak
        assert constrain_peak <= 1.2, constrain_peak
        assert solve_peak <= 1.1, solve_peak
        assert solve_problem_peak <= 2.3, solve_problem_peak

    def test_wide_band_with_zero_far_rows_is_trimmed_in_place(self):
        # a dense band whose far rows are exactly zero, as global B-bar's are
        # once its far membrane entries underflow: the reduced band is
        # trimmed to its nonzero half-width inside the working band, which is
        # then shrunk to the trimmed band
        n, reach = 600, 400
        rng = np.random.default_rng(5)
        ab = np.zeros((n, n), order="F")
        for r in range(reach + 1):
            ab[n - 1 - r, r:] = rng.standard_normal(n - r)  # K[i, i + r]
        system = GlobalSystem(ab=ab, f=rng.standard_normal(n))
        cons = [FixedDof(0, 0), FixedDof(0, 1), TieDof(2, 1, 0), FixedDof(150, 1),
                FixedDof(n // 2 - 1, 0), TieDof(n // 2 - 2, n // 2 - 1, 1)]

        tracemalloc.start()
        try:
            con, peak = _peak_in(8.0 * n**2, lambda: apply_constraints(system, cons))
        finally:
            tracemalloc.stop()
        assert peak <= 1.2, peak
        k_ref, f_ref = _dense_elimination(system.k, system.f, cons)
        np.testing.assert_array_equal(con.k, k_ref)
        np.testing.assert_array_equal(con.f, f_ref)
        offsets = np.abs(np.subtract.outer(np.arange(con.n_dof), np.arange(con.n_dof)))
        assert con.half_bandwidth == offsets[k_ref != 0].max() < con.n_dof - 1
        assert con.ab.flags.f_contiguous
        assert con.ab.base.nbytes == con.ab.nbytes  # the working band's tail is freed

    def test_solve_peak_memory_below_8_mib(self):
        # the band, the patch operators and the load vector at 2048 arch
        # elements take a few MiB; an arc-length quadrature per load point
        # took another 13.6
        problem = build_arch_half(2048, 0.01)
        tracemalloc.start()
        try:
            solve_problem(problem, ElementFormulation.CAS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
