"""Tests for L2 error norms, field sampling, and convergence rates."""

import dataclasses

import numpy as np
import pytest
from scipy.optimize import brentq

from casrod import (
    ElementFormulation,
    PatchOperators,
    assemble,
    build_arch_half,
    build_ellipse_quarter,
    build_ring_quarter,
    convergence_rate,
    displacement_at,
    evaluate_geometry,
    l2_errors,
    sample_fields,
    solve_problem,
)
from casrod.errors import InsufficientDataError
from casrod.metrics import FIELD_COLUMNS, _nudge_off_knots, point_errors
from casrod.rod import ROT90, frames_at
from casrod.splines import NurbsCurve

from conftest import strains_at
from oracles import arc_lengths_at, element_arc_lengths


def phi_at(problem, xi):
    """The angle phi of the curve point at xi (angle_map takes positions)."""
    return problem.angle_map(evaluate_geometry(problem.curve, xi)[0])


def xi_of_angle(problem, phi):
    """Numerical inverse of the (monotone) angle map."""
    lo = phi_at(problem, 0.0)
    hi = phi_at(problem, 1.0)
    if lo > hi:
        lo, hi = hi, lo
    phi = min(max(phi, lo), hi)
    return brentq(lambda x: phi_at(problem, x) - phi, 0.0, 1.0, xtol=1e-15)


class TestL2Errors:
    def test_injected_solution_has_zero_errors(self):
        # zero-residual case: make the problem's "exact" callbacks evaluate
        # the discrete solution itself; all errors collapse to ~0
        problem = build_arch_half(4, 0.1)
        sol = solve_problem(problem, ElementFormulation.CAS)

        def xis_of(phi):
            return np.array([xi_of_angle(problem, float(p)) for p in np.ravel(phi)])

        def u_from_solution(phi):
            return displacement_at(sol, xis_of(phi)).reshape(np.shape(phi) + (2,))

        def n_from_solution(phi):
            eps = strains_at(sol.ops, sol.u, xis_of(phi))[0]
            return (sol.ops.section.ea * eps).reshape(np.shape(phi))

        def m_from_solution(phi):
            kappa = strains_at(sol.ops, sol.u, xis_of(phi))[1]
            return (sol.ops.section.ei * kappa).reshape(np.shape(phi))

        injected = dataclasses.replace(problem, exact_u=u_from_solution,
                                       exact_n=n_from_solution,
                                       exact_m=m_from_solution, point_checks=[])
        report = l2_errors(injected, sol)
        assert report.e_u < 1e-12
        assert report.e_n < 1e-12
        assert report.e_m < 1e-12

    def test_quadrature_saturation(self):
        problem = build_arch_half(8, 0.1)
        sol = solve_problem(problem, ElementFormulation.CAS)
        r10 = l2_errors(problem, sol, quad_pts_per_element=10)
        r20 = l2_errors(problem, sol, quad_pts_per_element=20)
        assert r20.e_u == pytest.approx(r10.e_u, rel=1e-3)
        assert r20.e_n == pytest.approx(r10.e_n, rel=1e-3)
        assert r20.e_m == pytest.approx(r10.e_m, rel=1e-3)

    def test_ring_standard_nurbs_membrane_error_exceeds_one(self):
        problem = build_ring_quarter(16, 1e6)
        report = l2_errors(problem, solve_problem(problem, ElementFormulation.NURBS_FULL))
        assert report.e_n > 1.0

    def test_ring_has_no_displacement_error(self):
        problem = build_ring_quarter(8, 1e4)
        report = l2_errors(problem, solve_problem(problem, ElementFormulation.CAS))
        assert report.e_u is None
        assert report.e_n is not None
        assert set(report.point_errors) == {"uxA", "uyB"}

    def test_ellipse_reports_point_errors_only(self):
        problem = build_ellipse_quarter(8, 0.04, with_reference_checks=True)
        sol = solve_problem(problem, ElementFormulation.CAS)
        report = l2_errors(problem, sol)
        assert (report.e_u, report.e_n, report.e_m) == (None, None, None)
        assert report.point_errors == point_errors(problem, sol)
        assert set(report.point_errors) == {"ux_free", "uy_free"}

    def test_absolute_homogeneity(self):
        # scaling both the numerical and the exact fields by c > 0 leaves the
        # relative errors unchanged
        problem = build_arch_half(8, 0.1)
        sol = solve_problem(problem, ElementFormulation.CAS)
        c = 37.5
        scaled_problem = dataclasses.replace(
            problem,
            exact_u=lambda phi: c * problem.exact_u(phi),
            exact_n=lambda phi: c * problem.exact_n(phi),
            exact_m=lambda phi: c * problem.exact_m(phi),
            point_checks=[dataclasses.replace(pc, value=c * pc.value)
                          for pc in problem.point_checks],
        )
        scaled_sol = dataclasses.replace(
            sol, displacements=dataclasses.replace(sol.displacements, u=c * sol.u))
        base = l2_errors(problem, sol)
        scaled = l2_errors(scaled_problem, scaled_sol)
        assert scaled.e_u == pytest.approx(base.e_u, rel=1e-12)
        assert scaled.e_n == pytest.approx(base.e_n, rel=1e-12)
        assert scaled.e_m == pytest.approx(base.e_m, rel=1e-12)

    def test_rotation_invariance(self):
        # rotating geometry, loads, and exact solution by 90 degrees leaves
        # every reported error unchanged
        from casrod.assembly import LoadSpec, symmetry_end_constraints

        problem = build_ring_quarter(8, 1e4)
        sol = solve_problem(problem, ElementFormulation.CAS)
        base = l2_errors(problem, sol)

        rot_curve = NurbsCurve(problem.curve.knot_vector,
                               problem.curve.control_points @ ROT90.T,
                               problem.curve.weights)
        rot_loads = LoadSpec(point_loads=[(end, ROT90 @ f)
                                          for end, f in problem.loads.point_loads])
        rotated = dataclasses.replace(
            problem,
            curve=rot_curve,
            loads=rot_loads,
            constraints=(symmetry_end_constraints(rot_curve, "start")
                         + symmetry_end_constraints(rot_curve, "end")),
            angle_map=lambda x: problem.angle_map(x @ ROT90),  # un-rotate the positions
            point_checks=[dataclasses.replace(pc, direction=tuple(
                ROT90 @ np.asarray(pc.direction))) for pc in problem.point_checks],
        )
        rot_sol = solve_problem(rotated, ElementFormulation.CAS)
        rot = l2_errors(rotated, rot_sol)
        assert rot.e_n == pytest.approx(base.e_n, rel=1e-8)
        assert rot.e_m == pytest.approx(base.e_m, rel=1e-8)
        for key in base.point_errors:
            assert rot.point_errors[key] == pytest.approx(base.point_errors[key], rel=1e-6)


class TestBatchedCallbacks:
    def test_problem_callables_called_once_per_evaluation(self):
        # angle map, exact fields and distributed load are array callables:
        # each evaluation hands them all its points in one call
        problem = build_arch_half(8, 0.01)
        sol = solve_problem(problem, ElementFormulation.CAS)
        calls = {}

        def counted(name, fn):
            def wrapper(x):
                calls[name] = calls.get(name, 0) + 1
                return fn(x)
            return wrapper

        names = ("angle_map", "exact_u", "exact_n", "exact_m")
        counted_problem = dataclasses.replace(
            problem, **{name: counted(name, getattr(problem, name)) for name in names},
            loads=dataclasses.replace(problem.loads, distributed=counted(
                "distributed", problem.loads.distributed)))

        l2_errors(counted_problem, sol)
        assert calls == {name: 1 for name in names}
        calls.clear()
        sample_fields(counted_problem, sol, 101)
        assert calls == {"angle_map": 1, "exact_n": 1, "exact_m": 1}
        calls.clear()
        assemble(problem.curve, problem.section, ElementFormulation.CAS, counted_problem.loads)
        assert calls == {"distributed": 1}


    @pytest.mark.parametrize("form", [ElementFormulation.NURBS_FULL, ElementFormulation.CAS,
                                      ElementFormulation.LOCAL_ANS], ids=lambda f: f.value)
    def test_one_frame_batch_per_evaluation(self, monkeypatch, form):
        # the error quadrature, the field samples and the patch operators
        # each evaluate their frames in a single frames_at call
        import casrod.formulations
        import casrod.metrics

        problem = build_arch_half(8, 0.01)
        sol = solve_problem(problem, form)
        calls = []

        def counted(curve, xis):
            calls.append(len(np.atleast_1d(xis)))
            return frames_at(curve, xis)

        monkeypatch.setattr(casrod.metrics, "frames_at", counted)
        monkeypatch.setattr(casrod.formulations, "frames_at", counted)
        l2_errors(problem, sol)
        assert calls == [80 + 1]  # 10 error points per element, then the point check
        calls.clear()
        sample_fields(problem, sol, 101)
        assert calls == [101 + 1010 + 80]  # samples, arc-length rules per sample, per element
        calls.clear()
        PatchOperators(problem.curve, problem.section, form)
        assert len(calls) == 1
        # sharing the batch leaves the recovered fields bit for bit unchanged
        xis = np.linspace(0.01, 0.99, 37)
        fb = frames_at(problem.curve, xis)
        shared = frames_at(problem.curve, np.concatenate([xis, [0.5, 1.0]]))[:len(xis)]
        for got, want in zip(sol.ops.strains(sol.u, shared), sol.ops.strains(sol.u, fb)):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(casrod.splines.combine(sol.u, fb.first_active, fb.values.T).T,
                                      displacement_at(sol, xis))


class TestOneBatch:
    def test_one_basis_evaluation_per_call(self, basis_calls):
        problem = build_arch_half(8, 0.01)
        sol = solve_problem(problem, ElementFormulation.CAS)
        basis_calls.clear()
        l2_errors(problem, sol)
        assert len(basis_calls) == 1
        basis_calls.clear()
        sample_fields(problem, sol, 101)
        assert len(basis_calls) == 1

    @pytest.mark.parametrize("form", list(ElementFormulation), ids=lambda f: f.value)
    @pytest.mark.parametrize("make", [lambda: build_ring_quarter(8, 1e6),
                                      lambda: build_arch_half(8, 0.01),
                                      lambda: build_ellipse_quarter(8, 0.04)],
                             ids=["ring", "arch", "ellipse"])
    def test_recovery_builds_no_strain_rows(self, monkeypatch, make, form):
        # recovery sums u' and u'' through combine: the strain-displacement
        # rows serve only the stiffness
        import casrod.formulations

        problem = make()
        sol = solve_problem(problem, form)

        def refused(*args, **kwargs):
            raise AssertionError("recovery built strain-displacement rows")

        monkeypatch.setattr(casrod.formulations, "_membrane_rows", refused)
        monkeypatch.setattr(casrod.formulations, "_bending_rows", refused)
        sol.ops.strains(sol.u, frames_at(problem.curve, np.linspace(0.0, 1.0, 9)))
        l2_errors(problem, sol)
        sample_fields(problem, sol, 33)

    def test_one_displacement_sum_per_l2_call(self, monkeypatch):
        # u^h at the error points and at the point checks come from one combine
        import casrod.metrics

        problem = build_arch_half(8, 0.01)
        sol = solve_problem(problem, ElementFormulation.CAS)
        controls = []
        original = casrod.metrics.combine
        monkeypatch.setattr(casrod.metrics, "combine",
                            lambda control, *args: controls.append(control) or
                            original(control, *args))
        l2_errors(problem, sol)
        assert sum(control is sol.u for control in controls) == 1

    def test_warm_calls_build_no_gauss_rule(self, monkeypatch):
        problem = build_arch_half(8, 0.01)
        sol = solve_problem(problem, ElementFormulation.CAS)

        def calls():
            PatchOperators(problem.curve, problem.section, ElementFormulation.CAS)
            l2_errors(problem, sol)
            l2_errors(problem, sol, quad_pts_per_element=20)
            sample_fields(problem, sol, 101)

        calls()  # warm: every rule is built once per process
        counted = []
        original = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            lambda *a: counted.append(a) or original(*a))
        calls()
        assert counted == []

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    @pytest.mark.parametrize("make", [lambda n: build_ring_quarter(n, 1e6),
                                      lambda n: build_arch_half(n, 0.01),
                                      lambda n: build_ellipse_quarter(n, 0.04)],
                             ids=["ring", "arch", "ellipse"])
    def test_arc_length_column_matches_oracle(self, make, n):
        # 4n + 1 samples put one on every knot, so these are nudged off it
        problem = make(n)
        sol = solve_problem(problem, ElementFormulation.CAS)
        n_samples = 4 * n + 1
        rows = sample_fields(problem, sol, n_samples)
        bp = np.asarray(problem.curve.knot_vector.breakpoints)
        xis = _nudge_off_knots(np.linspace(0.0, 1.0, n_samples), bp)
        assert np.count_nonzero(xis != np.linspace(0.0, 1.0, n_samples)) == n + 1
        s_ref = arc_lengths_at(problem.curve, xis)
        np.testing.assert_allclose(rows[:, 0], s_ref, rtol=1e-14, atol=1e-14 * s_ref[-1])

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    @pytest.mark.parametrize("make, radius", [(lambda n: build_ring_quarter(n, 1e6), 1.0),
                                              (lambda n: build_arch_half(n, 0.01), 10.0),
                                              (lambda n: build_ellipse_quarter(n, 0.04), 2.0)],
                             ids=["ring", "arch", "ellipse"])
    def test_angle_map_receives_curve_positions(self, make, radius, n):
        problem = make(n)
        sol = solve_problem(problem, ElementFormulation.CAS)
        seen = []

        def angle_map(x):
            seen.append(x)
            return problem.angle_map(x)

        recorded = dataclasses.replace(problem, angle_map=angle_map,
                                       exact_m=problem.exact_m or (lambda phi: np.ones_like(phi)))
        l2_errors(recorded, sol)
        bp = np.asarray(problem.curve.knot_vector.breakpoints)
        pts = np.polynomial.legendre.leggauss(10)[0]
        xis = (0.5 * (bp[1:] + bp[:-1])[:, None] + 0.5 * (bp[1:] - bp[:-1])[:, None] * pts)
        sample_fields(recorded, sol, 33)
        samples = _nudge_off_knots(np.linspace(0.0, 1.0, 33), bp)
        assert len(seen) == 2
        for x, at in zip(seen, (xis.reshape(-1), samples)):
            expected = evaluate_geometry(problem.curve, at)[0]
            assert x.shape == expected.shape
            np.testing.assert_allclose(x, expected, rtol=0, atol=1e-14 * radius)


class TestSampleFields:
    def test_two_samples_are_the_ends(self):
        problem = build_ring_quarter(4, 1e4)
        sol = solve_problem(problem, ElementFormulation.CAS)
        rows = sample_fields(problem, sol, 2)
        total = element_arc_lengths(problem.curve)[-1]
        assert rows.shape == (2, len(FIELD_COLUMNS))
        assert rows[0, 0] == pytest.approx(0.0, abs=1e-6)
        assert rows[1, 0] == pytest.approx(total, rel=1e-6)

    @pytest.mark.parametrize("n_samples", [1, 0])
    def test_fewer_than_two_samples_rejected(self, n_samples):
        problem = build_ring_quarter(4, 1e4)
        sol = solve_problem(problem, ElementFormulation.CAS)
        with pytest.raises(ValueError, match="n_samples must be at least 2"):
            sample_fields(problem, sol, n_samples)

    def test_ring_exact_columns(self):
        problem = build_ring_quarter(8, 1e6)
        sol = solve_problem(problem, ElementFormulation.CAS)
        rows = sample_fields(problem, sol, 33)
        assert not np.any(np.isnan(rows[:, 6]))  # N_exact present
        assert not np.any(np.isnan(rows[:, 7]))  # M_exact present

    def test_ellipse_exact_columns_empty(self):
        problem = build_ellipse_quarter(8, 0.04)
        sol = solve_problem(problem, ElementFormulation.CAS)
        rows = sample_fields(problem, sol, 9)
        assert np.all(np.isnan(rows[:, 6]))
        assert np.all(np.isnan(rows[:, 7]))

    def test_cas_field_tracks_exact(self):
        problem = build_ring_quarter(16, 1e6)
        sol = solve_problem(problem, ElementFormulation.CAS)
        rows = sample_fields(problem, sol, 301)
        dev = np.abs(rows[:, 4] - rows[:, 6]).max()
        assert dev < 0.06 * 0.5

    def test_nurbs_field_oscillates(self):
        problem = build_ring_quarter(16, 1e6)
        sol = solve_problem(problem, ElementFormulation.NURBS_FULL)
        rows = sample_fields(problem, sol, 301)
        assert np.abs(rows[:, 4]).max() > 10 * 0.5


class TestSolutionOfAnotherProblem:
    # a ring solved at EA = 1e6 must not be scored against the EA = 1e4 closed forms
    @pytest.mark.parametrize("metric", [
        l2_errors, point_errors, lambda problem, sol: sample_fields(problem, sol, 5)],
        ids=["l2_errors", "point_errors", "sample_fields"])
    def test_rejected(self, metric):
        sol = solve_problem(build_ring_quarter(4, 1e6), ElementFormulation.CAS)
        with pytest.raises(ValueError, match="problem 'ring'.s curve"):
            metric(build_ring_quarter(8, 1e4), sol)
        with pytest.raises(ValueError, match="problem 'ring'.s curve"):
            metric(build_ring_quarter(4, 1e4), sol)  # same mesh, another curve object

    def test_rejected_without_exact_fields(self):
        problem = build_ellipse_quarter(4, 0.04)
        sol = solve_problem(build_ellipse_quarter(4, 0.04), ElementFormulation.CAS)
        with pytest.raises(ValueError, match="problem 'ellipse'.s curve"):
            l2_errors(problem, sol)


class TestConvergenceRate:
    def test_synthetic_rate_two(self):
        points = [(n, 0.5 * n**-2.0) for n in (2, 4, 8, 16, 32)]
        assert convergence_rate(points) == pytest.approx(2.0, abs=1e-12)

    def test_uses_last_three_points(self):
        # early pre-asymptotic meshes do not pollute the fit
        points = [(2, 5.0), (4, 4.9), (8, 1e-1), (16, 2.5e-2), (32, 6.25e-3)]
        assert convergence_rate(points) == pytest.approx(2.0, abs=1e-10)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            convergence_rate([(2, 0.1), (4, 0.05)])
        with pytest.raises(InsufficientDataError):
            convergence_rate([(2, 0.1), (4, 0.0), (8, 0.0)])
