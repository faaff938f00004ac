"""Tests for the six element formulations and post-solve field recovery."""

import numpy as np
import pytest
from scipy.linalg.lapack import dpttrf

from casrod import (
    CrossSection,
    ElementFormulation,
    LoadSpec,
    NurbsCurve,
    PatchOperators,
    assemble,
    banded,
    build_arch_half,
    build_ellipse_quarter,
    build_ring_quarter,
    evaluate_geometry,
    make_open_uniform_knot_vector,
    solve_problem,
)
from casrod.formulations import (_GAUSS2_NODE, _bending_rows, _linear_pair, _membrane_rows,
                                 _weighted_gram)
from casrod.rod import frames_at

from conftest import straight_rod, strains_at
from oracles import greville_abscissae

ALL_FORMS = list(ElementFormulation)
ELEMENT_FORMS = [f for f in ALL_FORMS if f is not ElementFormulation.GLOBAL_BBAR]

UNIT_SECTION = CrossSection(ea=1.0, ei=1.0)


class TestStandardElement:
    def test_straight_element_kernel_dimensions(self):
        # single quadratic element on a straight rod: exactly 3 zero-energy
        # modes; removing the 4 dofs of the first two control points leaves a
        # nonsingular block (eigen-decomposition oracle)
        rod = straight_rod(1)
        k = PatchOperators(rod, UNIT_SECTION, ElementFormulation.NURBS_FULL,
                           quad_points=3).blocks[0]
        eigvals = np.linalg.eigvalsh(k)
        tol = 1e-9 * eigvals.max()
        assert np.sum(np.abs(eigvals) < tol) == 3
        constrained = np.delete(np.delete(k, range(4), axis=0), range(4), axis=1)
        assert np.sum(np.abs(np.linalg.eigvalsh(constrained)) < tol) == 0

    def test_translation_in_kernel(self, quarter_circle):
        k = PatchOperators(quarter_circle, CrossSection(1e4, 1.0),
                           ElementFormulation.NURBS_FULL, quad_points=3).blocks[0]
        for mode in ([1, 0, 1, 0, 1, 0], [0, 1, 0, 1, 0, 1]):
            residual = k @ np.asarray(mode, dtype=float)
            assert np.abs(residual).max() < 1e-9 * np.abs(k).max()

    def test_ring_two_elements_locks(self):
        # coarse standard-NURBS discretization of the ring responds far below
        # the exact deflections
        problem = build_ring_quarter(2, 1e4)
        sol = solve_problem(problem, ElementFormulation.NURBS_FULL)
        u_xa = sol.u[0, 0]
        exact = problem.point_checks[0].value
        assert abs(u_xa) < 0.1 * abs(exact)


class TestElementInvariants:
    @pytest.mark.parametrize("form", ELEMENT_FORMS, ids=lambda f: f.value)
    def test_symmetry_and_psd(self, form):
        problem = build_arch_half(5, 0.01)
        ops = PatchOperators(problem.curve, problem.section, form)
        for e in range(problem.curve.n_elements):
            k = ops.blocks[e]
            np.testing.assert_allclose(k, k.T, rtol=0, atol=1e-10 * np.abs(k).max())
            eigvals = np.linalg.eigvalsh(k)
            assert eigvals.min() > -1e-9 * eigvals.max()

    @pytest.mark.parametrize("form", ELEMENT_FORMS, ids=lambda f: f.value)
    def test_translation_nullity(self, form):
        problem = build_ring_quarter(4, 1e6)
        ops = PatchOperators(problem.curve, problem.section, form)
        modes = np.array([[1, 0, 1, 0, 1, 0], [0, 1, 0, 1, 0, 1]], dtype=float)
        for e in range(4):
            k = ops.blocks[e]
            for mode in modes:
                assert np.abs(k @ mode).max() < 1e-9 * np.abs(k).max()

    def test_bending_block_shared(self, quarter_circle):
        # at a common quadrature rule the bending block is identical across
        # all formulations (only the membrane treatment differs)
        section = CrossSection(1e6, 1.0)
        patches = [PatchOperators(quarter_circle, section, f, quad_points=3) for f in ALL_FORMS]
        blocks = [_weighted_gram(section.ei * ops.wds, ops.brows) for ops in patches]
        for other in blocks[1:]:
            np.testing.assert_array_equal(other, blocks[0])


class TestCas:
    def test_assumed_strain_is_endpoint_interpolant(self):
        # the assumed strain at the element midpoint is the mean of the end
        # knot strains (0.1 and 0.3 -> 0.2 scaled into the actual field)
        problem = build_ring_quarter(4, 1e4)
        ops = PatchOperators(problem.curve, problem.section, ElementFormulation.CAS)
        rng = np.random.default_rng(0)
        u = rng.normal(size=(problem.curve.n_basis, 2))
        bp = problem.curve.knot_vector.breakpoints
        for e in range(4):
            ends = strains_at(ops, u, [bp[e] + 1e-12, bp[e + 1] - 1e-12])[0]
            mid = strains_at(ops, u, [0.5 * (bp[e] + bp[e + 1])])[0][0]
            assert mid == pytest.approx(0.5 * (ends[0] + ends[1]), rel=1e-9)

    def test_reproduces_constant_strain_energy(self):
        # uniform stretch of a straight rod: linear interpolation reproduces
        # the (constant) strain, so CAS and standard membrane energies agree
        rod = straight_rod(3)
        greville = greville_abscissae(rod.knot_vector)
        u = np.column_stack([greville, np.zeros_like(greville)]).reshape(-1)
        section = CrossSection(ea=123.0, ei=1.0)
        cas = PatchOperators(rod, section, ElementFormulation.CAS, quad_points=3)
        std = PatchOperators(rod, section, ElementFormulation.NURBS_FULL, quad_points=3)
        for e in range(3):
            k_cas = cas.blocks[e]
            k_std = std.blocks[e]
            ue = u[2 * e:2 * e + 6]
            assert ue @ k_cas @ ue == pytest.approx(ue @ k_std @ ue, rel=1e-10)

    def test_interelement_continuity(self):
        # evaluating the assumed strain from the left and the right element at
        # a shared knot uses the same precomputed row: values agree to 1e-14
        problem = build_ring_quarter(8, 1e6)
        sol = solve_problem(problem, ElementFormulation.CAS)
        bp = problem.curve.knot_vector.breakpoints
        for knot in bp[1:-1]:
            left = strains_at(sol.ops, sol.u, [knot - 1e-16])[0][0]
            right = strains_at(sol.ops, sol.u, [knot + 1e-16])[0][0]
            assert right == pytest.approx(left, rel=1e-14, abs=1e-16)

    def test_ring_32_elements_slender_accuracy(self):
        # EA=1e8: CAS deflection errors stay below 1% while standard NURBS
        # errors remain near 100%
        problem = build_ring_quarter(32, 1e8)
        sol_cas = solve_problem(problem, ElementFormulation.CAS)
        sol_std = solve_problem(problem, ElementFormulation.NURBS_FULL)
        exact_uxa = problem.point_checks[0].value
        exact_uyb = problem.point_checks[1].value
        assert abs(sol_cas.u[0, 0] - exact_uxa) < 0.01 * abs(exact_uxa)
        assert abs(sol_cas.u[-1, 1] - exact_uyb) < 0.01 * abs(exact_uyb)
        assert abs(sol_std.u[0, 0] - exact_uxa) > 0.5 * abs(exact_uxa)


class TestLocalBbar:
    def test_projection_reproduces_linear_strain(self):
        # on a straight uniform rod, u_x quadratic in s gives a strain linear
        # in the parent coordinate; the L2 projection returns it unchanged
        rod = straight_rod(3)
        t = rod.knot_vector.knots
        coeff = np.array([t[b + 1] * t[b + 2] for b in range(rod.n_basis)]) / 2
        u = np.column_stack([coeff, np.zeros_like(coeff)])
        ops = PatchOperators(rod, UNIT_SECTION, ElementFormulation.LOCAL_BBAR)
        std = PatchOperators(rod, UNIT_SECTION, ElementFormulation.NURBS_FULL)
        xis = np.linspace(1e-9, 1 - 1e-9, 23)
        np.testing.assert_allclose(strains_at(ops, u, xis)[0],
                                   strains_at(std, u, xis)[0],
                                   rtol=1e-12, atol=1e-14)

    def test_projection_preserves_element_integral(self):
        problem = build_arch_half(4, 0.1)
        ops = PatchOperators(problem.curve, problem.section, ElementFormulation.LOCAL_BBAR)
        std = PatchOperators(problem.curve, problem.section, ElementFormulation.NURBS_FULL)
        rng = np.random.default_rng(4)
        u = rng.normal(size=(problem.curve.n_basis, 2))
        for e in range(4):
            xi_q = ops.xi_q[e]
            eps_bar = strains_at(ops, u, xi_q)[0]
            eps_h = strains_at(std, u, xi_q)[0]
            int_bar = ops.wds[e] @ eps_bar
            int_h = ops.wds[e] @ eps_h
            assert int_bar == pytest.approx(int_h, rel=1e-12, abs=1e-15)

    def test_discontinuous_across_knots(self):
        problem = build_arch_half(8, 0.1)
        sol = solve_problem(problem, ElementFormulation.LOCAL_BBAR)
        bp = problem.curve.knot_vector.breakpoints
        jumps = []
        for knot in bp[1:-1]:
            left = strains_at(sol.ops, sol.u, [knot - 1e-13])[0][0]
            right = strains_at(sol.ops, sol.u, [knot + 1e-13])[0][0]
            jumps.append(abs(left - right))
        assert max(jumps) > 0.0


class TestLocalAns:
    def test_linear_pair_quadratic_collocation(self):
        # xi-hat^2 sampled at +-1/sqrt(3) is 1/3 at both nodes: the linear
        # interpolant through the collocation values is the constant 1/3
        for xh in np.linspace(-1, 1, 11):
            lv = _linear_pair(xh, _GAUSS2_NODE)
            assert lv @ [1 / 3, 1 / 3] == pytest.approx(1 / 3)

    def test_reproduces_linear_strain(self):
        rod = straight_rod(3)
        t = rod.knot_vector.knots
        coeff = np.array([t[b + 1] * t[b + 2] for b in range(rod.n_basis)]) / 2
        u = np.column_stack([coeff, np.zeros_like(coeff)])
        ops = PatchOperators(rod, UNIT_SECTION, ElementFormulation.LOCAL_ANS)
        std = PatchOperators(rod, UNIT_SECTION, ElementFormulation.NURBS_FULL)
        xis = np.linspace(1e-9, 1 - 1e-9, 23)
        np.testing.assert_allclose(strains_at(ops, u, xis)[0],
                                   strains_at(std, u, xis)[0],
                                   rtol=1e-12, atol=1e-14)

    def test_discontinuous_across_knots(self):
        problem = build_arch_half(8, 0.1)
        sol = solve_problem(problem, ElementFormulation.LOCAL_ANS)
        bp = problem.curve.knot_vector.breakpoints
        jumps = [abs(strains_at(sol.ops, sol.u, [k - 1e-13])[0][0]
                     - strains_at(sol.ops, sol.u, [k + 1e-13])[0][0])
                 for k in bp[1:-1]]
        assert max(jumps) > 0.0

    def test_convergence_deteriorates_versus_cas(self):
        # arch at R/t = 1e3: the discontinuous collocated strain still locks
        from casrod.metrics import l2_errors

        problem = build_arch_half(16, 0.01)
        e_ans = l2_errors(problem, solve_problem(problem, ElementFormulation.LOCAL_ANS)).e_u
        e_cas = l2_errors(problem, solve_problem(problem, ElementFormulation.CAS)).e_u
        assert e_ans > 10 * e_cas


class TestGlobalBbar:
    def test_single_element_patch_equals_local_bbar(self, quarter_circle):
        section = CrossSection(1e4, 1.0)
        k_patch = banded.to_dense(PatchOperators(
            quarter_circle, section, ElementFormulation.GLOBAL_BBAR, quad_points=3).stiffness_band())
        k_local = PatchOperators(quarter_circle, section, ElementFormulation.LOCAL_BBAR,
                                 quad_points=3).blocks[0]
        np.testing.assert_allclose(k_patch, k_local, rtol=0,
                                   atol=1e-12 * np.abs(k_local).max())

    def test_dense_membrane_coupling(self):
        # the projected membrane stiffness couples distant control points,
        # which share no element block
        problem = build_ring_quarter(8, 1e6)
        ops = PatchOperators(problem.curve, problem.section,
                             ElementFormulation.GLOBAL_BBAR)
        k = banded.to_dense(ops.stiffness_band())
        assert abs(k[0, -1]) > 0.0

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_projection_equals_element_loop(self, n):
        # every entry sums at most two element terms, and a two-term sum does
        # not depend on the order, so the slice-adds equal this loop bit for bit
        # (the element integrals themselves are checked in test_contractions.py)
        problem = build_arch_half(n, 0.01)
        ops = PatchOperators(problem.curve, problem.section,
                             ElementFormulation.GLOBAL_BBAR)
        gel = ops._pair_moments()
        mel = ops._pair_mass(node=1.0)
        g = np.zeros((n + 1, 2 * ops.curve.n_basis))
        main = np.zeros(n + 1)
        upper = np.zeros(n + 1)
        for e in range(n):
            g[e:e + 2, 2 * e:2 * e + gel.shape[2]] += gel[e]
            main[e] += mel[e, 0, 0]
            main[e + 1] += mel[e, 1, 1]
            upper[e + 1] += mel[e, 0, 1]
        d, l, gw = ops._projection
        # gw[B, c, t] = G[B - p + t, 2B + c]: scattered back, with p zero rows
        # above and below, it gives every entry of G and nothing else
        p = ops.curve.degree
        scattered = np.zeros((n + 1 + 2 * p, g.shape[1]))
        for b, c, t in np.ndindex(gw.shape):
            scattered[b + t, 2 * b + c] = gw[b, c, t]
        assert not scattered[:p].any() and not scattered[n + 1 + p:].any()
        assert scattered[p:n + 1 + p].tobytes() == g.tobytes()
        # the stored factor is the L D L^T factor of this very hat mass
        d_ref, l_ref, info = dpttrf(main, upper[1:])
        assert info == 0
        assert d.tobytes() == d_ref.tobytes() and l.tobytes() == l_ref.tobytes()

    def test_matches_cas_deflections_on_fine_mesh(self):
        problem = build_ring_quarter(64, 1e6)
        s_gb = solve_problem(problem, ElementFormulation.GLOBAL_BBAR)
        exact = problem.point_checks[0].value
        assert abs(s_gb.u[0, 0] - exact) < 0.01 * abs(exact)

    def test_cas_more_accurate_on_coarse_meshes(self):
        # both treatments remove locking, but on coarse meshes the CAS
        # deflections are the more accurate ones
        from casrod.metrics import l2_errors

        for n in (2, 4):
            problem = build_ring_quarter(n, 1e6)
            p_cas = max(l2_errors(problem, solve_problem(
                problem, ElementFormulation.CAS)).point_errors.values())
            p_gb = max(l2_errors(problem, solve_problem(
                problem, ElementFormulation.GLOBAL_BBAR)).point_errors.values())
            assert p_cas < p_gb


class TestStraightRodEquivalence:
    def test_all_formulations_agree(self):
        # no membrane-bending coupling on a straight rod: identical solutions
        from casrod.assembly import (LoadSpec, apply_constraints, assemble,
                                     clamped_end_constraints, solve)

        rod = straight_rod(4)
        section = CrossSection(ea=100.0, ei=1.0)
        loads = LoadSpec(point_loads=[("end", np.array([0.3, -1.0]))])
        cons = clamped_end_constraints(rod, "start")
        solutions = []
        for form in ALL_FORMS:
            system = assemble(rod, section, form, loads)
            u = solve(apply_constraints(system, cons))
            solutions.append(u.u)
        for other in solutions[1:]:
            np.testing.assert_allclose(other, solutions[0], rtol=1e-10, atol=1e-12)


class TestFieldRecovery:
    def test_zero_displacement_zero_force(self, quarter_circle):
        u = np.zeros((3, 2))
        ops = PatchOperators(quarter_circle, UNIT_SECTION, ElementFormulation.CAS)
        n = ops.section.ea * strains_at(ops, u, np.linspace(0, 1, 7))[0]
        np.testing.assert_array_equal(n, 0.0)

    def test_rigid_translation_zero_moment(self, quarter_circle):
        u = np.tile([0.4, 0.7], (3, 1))
        ops = PatchOperators(quarter_circle, UNIT_SECTION, ElementFormulation.NURBS_FULL)
        m = ops.section.ei * strains_at(ops, u, [0.3, 0.6])[1]
        np.testing.assert_allclose(m, 0.0, atol=1e-12)

    def test_frames_of_another_curve_rejected(self):
        # the frames of an 8-element arch at the same points used to give the
        # 16-element CAS solution's eps up to 25% off, without an error
        solution = solve_problem(build_arch_half(16, 0.01), ElementFormulation.CAS)
        xis = np.linspace(0.1, 0.9, 5)
        for curve in (build_arch_half(8, 0.01).curve, build_arch_half(16, 0.01).curve):
            with pytest.raises(ValueError, match="another curve"):
                solution.ops.strains(solution.u, frames_at(curve, xis))
        own = frames_at(solution.ops.curve, xis)
        assert own.curve is solution.ops.curve and own[1:3].curve is own.curve
        solution.ops.strains(solution.u, own[1:3])

    def test_displacements_of_another_size_rejected(self):
        ops = PatchOperators(build_arch_half(4, 0.01).curve, UNIT_SECTION, ElementFormulation.CAS)
        frames = frames_at(ops.curve, [0.2, 0.9])
        for n in (ops.curve.n_basis - 1, ops.curve.n_basis + 1):
            with pytest.raises(ValueError, match="dofs, not"):
                ops.strains(np.zeros((n, 2)), frames)

    @pytest.mark.parametrize("form", ALL_FORMS, ids=lambda f: f.value)
    @pytest.mark.parametrize("build", [
        lambda n: build_ring_quarter(n, 1e6), lambda n: build_arch_half(n, 0.01),
        lambda n: build_ellipse_quarter(n, 0.04)], ids=["ring", "arch", "ellipse"])
    def test_strains_match_strain_displacement_rows(self, build, form):
        # strains sums u' and u'' first; the rows of the stiffness sum the same
        # products in another order. Both stay within 7 roundings of the sum
        # of the absolute products, so they agree to 8 eps times that sum
        problem = build(16)
        sol = solve_problem(problem, form)
        frames = frames_at(problem.curve, np.random.default_rng(3).random(200))
        e = frames.first_active
        win = sol.u.reshape(-1)[2 * e[:, None] + np.arange(2 * problem.curve.degree + 2)]
        uw = np.abs(win).reshape(len(e), -1, 2)  # |u| per active function and component

        def products(basis_rows, frame_rows):  # sum over j, c of |N_j f_c u_jc|
            return np.einsum("mj,mc,mjc->m", np.abs(basis_rows), np.abs(frame_rows), uw)

        eps, kappa = sol.ops.strains(sol.u, frames)
        checks = [(kappa, _bending_rows(frames), products(frames.d2N_ds2, frames.a2)
                   + products(frames.dN_ds, frames.da2_ds))]
        if form in (ElementFormulation.NURBS_FULL, ElementFormulation.NURBS_REDUCED):
            checks.append((eps, _membrane_rows(frames), products(frames.dN_ds, frames.a1)))
        for got, rows, scale in checks:
            assert np.all(np.abs(got - (rows * win).sum(axis=1))
                          <= 8 * np.finfo(float).eps * scale)

    def test_tip_moment_gives_constant_moment_field(self):
        # beam-theory oracle: u_y = M0 s^2 / (2 EI) is the exact cantilever
        # response to a tip moment M0; it is exactly representable, and the
        # recovered bending moment is the constant M0
        rod = straight_rod(5, length=2.0)
        section = CrossSection(ea=7.0, ei=3.0)
        m0 = 1.7
        t = rod.knot_vector.knots * 2.0  # knots scaled to arc length
        coeff = np.array([t[b + 1] * t[b + 2] for b in range(rod.n_basis)])
        u = np.column_stack([np.zeros_like(coeff), coeff * m0 / (2 * section.ei)])
        ops = PatchOperators(rod, section, ElementFormulation.NURBS_FULL)
        m = ops.section.ei * strains_at(ops, u, np.linspace(1e-9, 1 - 1e-9, 21))[1]
        np.testing.assert_allclose(m, m0, rtol=1e-9)

    def test_cas_ring_membrane_force_accuracy(self):
        # 16 elements, R/t = 1e3: pointwise deviation stays a few percent and
        # standard NURBS oscillates beyond 10x the exact maximum
        problem = build_ring_quarter(16, 1e6)
        sol_cas = solve_problem(problem, ElementFormulation.CAS)
        sol_std = solve_problem(problem, ElementFormulation.NURBS_FULL)
        xis = np.linspace(1e-9, 1 - 1e-9, 301)
        phis = np.array([problem.angle_map(evaluate_geometry(problem.curve, float(x))[0])
                         for x in xis])
        n_exact = np.array([problem.exact_n(p) for p in phis])
        n_cas = sol_cas.ops.section.ea * strains_at(sol_cas.ops, sol_cas.u, xis)[0]
        n_std = sol_std.ops.section.ea * strains_at(sol_std.ops, sol_std.u, xis)[0]
        assert np.abs(n_cas - n_exact).max() < 0.06 * 0.5
        assert np.abs(n_std).max() > 10 * 0.5

    def test_cas_ring_element_mean_moment(self):
        # 32 elements: element-mean M matches the element-mean exact M within 1%
        problem = build_ring_quarter(32, 1e6)
        sol = solve_problem(problem, ElementFormulation.CAS)
        bp = problem.curve.knot_vector.breakpoints
        pts, wts = np.polynomial.legendre.leggauss(6)
        worst = 0.0
        for e in range(32):
            mid, half = 0.5 * (bp[e] + bp[e + 1]), 0.5 * (bp[e + 1] - bp[e])
            xi_q = mid + half * pts
            m_h = sol.ops.section.ei * strains_at(sol.ops, sol.u, xi_q)[1]
            m_ex = np.array([problem.exact_m(problem.angle_map(
                evaluate_geometry(problem.curve, float(x))[0])) for x in xi_q])
            mean_h = wts @ m_h
            mean_ex = wts @ m_ex
            worst = max(worst, abs(mean_h - mean_ex) / 0.5)
        assert worst < 0.01


class TestEnergyConsistency:
    # the stiffness and the strain recovery describe one energy:
    # u.K.u = sum over the element rule of wds (EA eps^2 + EI kappa^2)
    @pytest.mark.parametrize("form", ALL_FORMS, ids=lambda f: f.value)
    @pytest.mark.parametrize("build", [
        lambda n: build_ring_quarter(n, 1e6), lambda n: build_arch_half(n, 0.01),
        lambda n: build_ellipse_quarter(n, 0.04)], ids=["ring", "arch", "ellipse"])
    def test_stiffness_energy_equals_recovered_energy(self, build, form):
        rng = np.random.default_rng(20)
        for n in (1, 2, 7, 32):
            problem = build(n)
            curve = problem.curve
            for quad_points in (None, 2, 3):
                ops = PatchOperators(curve, problem.section, form, quad_points)
                u = rng.standard_normal(2 * curve.n_basis)
                eps, kappa = ops.strains(u, frames_at(curve, ops.xi_q.ravel()))
                wds = ops.wds.ravel()
                recovered = np.sum(wds * (ops.section.ea * eps**2 + ops.section.ei * kappa**2))
                stiffness = u @ banded.matvec(ops.stiffness_band(), u)
                assert stiffness == pytest.approx(recovered, rel=1e-12), (n, quad_points)


class TestFormulationDefaults:
    def test_default_quadrature_counts(self):
        for form in ALL_FORMS:
            expected = 2 if form is ElementFormulation.NURBS_REDUCED else 3
            assert form.default_quad_points(2) == expected

    def test_zero_quad_points_rejected(self, quarter_circle):
        # 0 is an invalid rule, not a request for the default one; a 1-point
        # rule leaves every element block rank-deficient
        from casrod import LoadSpec, assemble

        for form in ALL_FORMS:
            with pytest.raises(ValueError, match="at least 2 points"):
                PatchOperators(quarter_circle, UNIT_SECTION, form, 1)
        with pytest.raises(ValueError, match="n_pts"):
            PatchOperators(quarter_circle, UNIT_SECTION, ElementFormulation.CAS, 0)
        with pytest.raises(ValueError, match="n_pts"):
            assemble(quarter_circle, UNIT_SECTION, ElementFormulation.CAS, LoadSpec(), 0)
        with pytest.raises(ValueError, match="n_pts"):
            solve_problem(build_ring_quarter(2, 1e4), ElementFormulation.CAS, 0)

    def test_rejects_c0_discretizations(self):
        from casrod import NurbsCurve, make_open_uniform_knot_vector

        kv = make_open_uniform_knot_vector(1, 4)
        pts = np.column_stack([np.linspace(0, 1, kv.n_basis), np.zeros(kv.n_basis)])
        curve = NurbsCurve(kv, pts, np.ones(kv.n_basis))
        with pytest.raises(ValueError, match="C1"):
            PatchOperators(curve, UNIT_SECTION, ElementFormulation.CAS)


class TestOperatorArrays:
    @pytest.mark.parametrize("form", ALL_FORMS, ids=lambda f: f.value)
    def test_values_own_their_memory(self, form):
        # the basis values are a copy: a view would keep the constructor's
        # whole (3, p+1, m) frame block alive with every RodSolution
        ops = PatchOperators(build_arch_half(64, 0.01).curve, UNIT_SECTION, form)
        owner = ops.values
        while isinstance(owner.base, np.ndarray):
            owner = owner.base
        assert owner.nbytes == ops.values.nbytes


class TestDegreeThree:
    """CAS interpolates the strain at the element end knots and local ANS at
    the 2-point Gauss abscissae: both are quadratic constructions, so a cubic
    curve is rejected. The other four formulations still build on it."""

    @staticmethod
    def _cubic_arc():
        kv = make_open_uniform_knot_vector(3, 4)
        x = greville_abscissae(kv)
        return NurbsCurve(kv, np.column_stack([x, 0.3 * np.sin(np.pi * x)]), np.ones(kv.n_basis))

    @pytest.mark.parametrize("form", [ElementFormulation.CAS, ElementFormulation.LOCAL_ANS],
                             ids=lambda f: f.value)
    def test_quadratic_only_formulations_rejected(self, form):
        with pytest.raises(ValueError, match="degree 2 only, got degree 3"):
            PatchOperators(self._cubic_arc(), UNIT_SECTION, form)
        with pytest.raises(ValueError, match="degree 2 only, got degree 3"):
            assemble(self._cubic_arc(), UNIT_SECTION, form, LoadSpec())

    @pytest.mark.parametrize("form", [f for f in ALL_FORMS if f not in (
        ElementFormulation.CAS, ElementFormulation.LOCAL_ANS)], ids=lambda f: f.value)
    def test_other_formulations_build(self, form):
        ops = PatchOperators(self._cubic_arc(), UNIT_SECTION, form)
        assert ops.blocks.shape == (4, 8, 8)
        k = banded.to_dense(ops.stiffness_band())
        assert np.isfinite(k).all() and np.array_equal(k, k.T)
