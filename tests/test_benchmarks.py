"""Tests for the benchmark problems and their exact/reference solutions."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

import casrod.benchmarks
from casrod import (
    ElementFormulation,
    build_arch_half,
    build_ellipse_quarter,
    build_ring_quarter,
    ellipse_reference,
    evaluate_geometry,
    solve_problem,
    standard_slenderness_cases,
)
from casrod.benchmarks import _arch_exact, _refine_to
from casrod.errors import MissingExactFieldError
from casrod.metrics import l2_errors
from casrod.rod import frames_at

from conftest import strains_at
from oracles import fine_mesh_ellipse_free_end, insert_knot

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402  (perfbench's virtual-work oracle)


def five_point_derivative(f, x, h):
    return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)


def five_point_second_derivative(f, x, h):
    return (-f(x - 2 * h) + 16 * f(x - h) - 30 * f(x)
            + 16 * f(x + h) - f(x + 2 * h)) / (12 * h * h)


class TestRingProblem:
    def test_exact_point_values_printed_forms(self):
        problem = build_ring_quarter(4, 1e4)
        assert problem.point_checks[0].value == pytest.approx(-7.44283e-2, rel=1e-5)
        assert problem.point_checks[1].value == pytest.approx(-6.82849e-2, rel=1e-5)

    def test_exact_moment_at_symmetry_point(self):
        problem = build_ring_quarter(4, 1e4)
        assert problem.exact_m(0.0) == pytest.approx(0.5 * (2 / math.pi - 1.0), abs=1e-12)
        assert problem.exact_m(0.0) == pytest.approx(-0.18169, rel=1e-4)

    def test_exact_membrane_force_vanishes_at_load_point(self):
        problem = build_ring_quarter(4, 1e4)
        assert problem.exact_n(math.pi / 2) == pytest.approx(0.0, abs=1e-15)

    def test_geometry_is_exact_circle(self):
        problem = build_ring_quarter(16, 1e6)
        for xi in np.linspace(0, 1, 100):
            point = evaluate_geometry(problem.curve, float(xi))[0]
            assert abs(np.hypot(*point) - 1.0) < 1e-12

    def test_angle_map_monotone_and_arc_consistent(self):
        # the curve runs from the loaded point A (phi = pi/2) to B (phi = 0),
        # so phi decreases monotonically along xi and |dphi/ds| = 1/R
        problem = build_ring_quarter(8, 1e4)
        xis = np.linspace(0, 1, 41)
        def phi_at(xi):
            return problem.angle_map(evaluate_geometry(problem.curve, xi)[0])

        phis = np.array([phi_at(float(x)) for x in xis])
        assert np.all(np.diff(phis) < 0)
        assert phis[0] == pytest.approx(math.pi / 2, abs=1e-12)
        assert phis[-1] == pytest.approx(0.0, abs=1e-12)
        jac = frames_at(problem.curve, [0.2, 0.5, 0.8]).jac
        for xi, jac_xi in zip((0.2, 0.5, 0.8), jac):
            d = 1e-7
            dphi = (phi_at(xi + d) - phi_at(xi - d)) / (2 * d)
            assert abs(dphi) / jac_xi == pytest.approx(1.0, rel=1e-6)

    def test_invalid_ea(self):
        with pytest.raises(ValueError, match="EA"):
            build_ring_quarter(4, -1.0)

    def test_slenderness_values_reported(self):
        assert build_ring_quarter(2, 1e6).slenderness == 1e6


class TestArchProblem:
    def test_constants_printed_forms(self):
        # direct arithmetic evaluation of the printed constant A3
        _, _, _, _, _, params = _arch_exact(0.1)
        q, radius = params["q"], params["radius"]
        c1, c2, c3 = params["c1"], params["c2"], params["c3"]
        a3 = -2 * q * radius * (c1 - c2) / 3 - 3 * q * radius**2 * c3 / 4
        assert params["a3"] == pytest.approx(a3, rel=1e-15)

    def test_exact_solution_satisfies_clamped_bc(self):
        u_t, u_n, exact_u, _, _, params = _arch_exact(0.01)
        scale = abs(u_n(math.pi / 4)) + abs(u_t(math.pi / 4))
        assert abs(u_t(0.0)) < 1e-9 * scale
        assert abs(u_n(0.0)) < 1e-9 * scale
        # rotation ~ (u_t + du_n/dphi)/R vanishes at the clamp
        dun = five_point_derivative(u_n, 0.0, 1e-3)
        assert abs(u_t(0.0) + dun) < 1e-9 * scale

    def test_exact_solution_symmetric_at_crown(self):
        # u_x(crown) = u_t(pi/2) = 0 and the shear dM/dphi vanishes there
        for t in (0.1, 0.01, 0.001):
            u_t, _, _, _, exact_m, params = _arch_exact(t)
            scale = abs(u_t(math.pi / 4)) + 1e-30
            assert abs(u_t(math.pi / 2)) < 1e-9 * scale
            dm = five_point_derivative(exact_m, math.pi / 2, 1e-3)
            m_scale = abs(exact_m(math.pi / 2))
            assert abs(dm) < 1e-6 * m_scale

    @pytest.mark.parametrize("t", [0.1, 0.01, 0.001])
    def test_exact_solution_constitutive_self_consistency(self, t):
        # EA*eps and EI*kappa obtained by numerically differentiating the
        # printed displacement field reproduce the printed N and M: the
        # strongest guard against transcription errors. The membrane strain is
        # inextensionally tiny (N/EA ~ 1e-10 of the rotation scale at the
        # smallest thickness), so the first derivative uses the complex-step
        # formula, which has no subtractive cancellation.
        _, _, exact_u, exact_n, exact_m, params = _arch_exact(t)
        radius, ea, ei = params["radius"], params["ea"], params["ei"]
        h = 1e-3
        hc = 1e-20
        n_scale = max(abs(exact_n(p)) for p in np.linspace(0, math.pi / 2, 20))
        m_scale = max(abs(exact_m(p)) for p in np.linspace(0, math.pi / 2, 20))
        for phi in np.linspace(0.05, math.pi / 2 - 0.05, 50):
            du = np.imag(exact_u(phi + 1j * hc)) / hc / radius
            d2u = five_point_second_derivative(exact_u, phi, h) / radius**2
            a1 = np.array([math.sin(phi), math.cos(phi)])
            a2 = np.array([-math.cos(phi), math.sin(phi)])
            da2_ds = a1 / radius
            eps = a1 @ du
            kappa = a2 @ d2u + da2_ds @ du
            assert ea * eps == pytest.approx(exact_n(phi), rel=1e-6, abs=1e-6 * n_scale)
            assert ei * kappa == pytest.approx(exact_m(phi), rel=1e-6, abs=1e-6 * m_scale)

    def test_geometry_is_exact_circle(self):
        problem = build_arch_half(8, 0.1)
        for xi in np.linspace(0, 1, 100):
            point = evaluate_geometry(problem.curve, float(xi))[0]
            assert abs(np.hypot(*point) - 10.0) < 1e-11

    def test_fine_mesh_errors_small(self):
        # oracle-computed targets for the 256-element CAS solve at t=0.1:
        # e_u and e_N are far below 1e-4; e_M converges at rate 1 and sits
        # near 9e-3 (frozen with margin from the self-consistency run)
        problem = build_arch_half(256, 0.1)
        report = l2_errors(problem, solve_problem(problem, ElementFormulation.CAS))
        assert report.e_u < 1e-4
        assert report.e_n < 1e-4
        assert report.e_m < 1.2e-2

    def test_exact_fields_available(self):
        problem = build_arch_half(4, 0.1)
        assert problem.exact_u(0.3).shape == (2,)
        assert all(np.isfinite([problem.exact_n(0.3), problem.exact_m(0.3)]))

    def test_invalid_thickness(self):
        with pytest.raises(ValueError, match="thickness"):
            build_arch_half(4, 0.0)


class TestEllipseProblem:
    def test_curvature_radii(self):
        problem = build_ellipse_quarter(4, 0.04)
        da2_start, da2_end = frames_at(problem.curve, [0.0, 1.0]).da2_ds
        assert 1.0 / np.hypot(*da2_start) == pytest.approx(0.5, abs=1e-10)
        assert 1.0 / np.hypot(*da2_end) == pytest.approx(4.0, abs=1e-10)

    def test_geometry_residual(self):
        problem = build_ellipse_quarter(8, 0.04)
        for xi in np.linspace(0, 1, 100):
            x, y = evaluate_geometry(problem.curve, float(xi))[0]
            assert abs(x**2 / 4 + y**2 - 1.0) < 1e-12

    def test_no_exact_fields(self):
        problem = build_ellipse_quarter(4, 0.04)
        assert (problem.exact_u, problem.exact_n, problem.exact_m) == (None, None, None)
        with pytest.raises(MissingExactFieldError):
            l2_errors(problem, solve_problem(problem, ElementFormulation.CAS))

    def test_reference_values(self):
        ref = ellipse_reference(0.04)
        fine = fine_mesh_ellipse_free_end(0.04)
        assert fine["mesh_rel_diff"] < 1e-4
        assert max(abs(ref[k] - fine[k]) / abs(ref[k]) for k in ("ux_free", "uy_free")) < 1e-4
        # static equilibrium magnitudes
        p_load = 1e7 * 0.04**3
        assert ref["n_clamp_abs"] == pytest.approx(p_load)
        assert ref["m_clamp_abs"] == pytest.approx(2.0 * p_load)

    def test_clamp_resultants_match_statics_on_fine_mesh(self):
        # |N| = P and |M| = P*a at the clamped end by whole-arch equilibrium
        t = 0.04
        p_load = 1e7 * t**3
        problem = build_ellipse_quarter(256, t)
        sol = solve_problem(problem, ElementFormulation.CAS)
        n0 = sol.ops.section.ea * strains_at(sol.ops, sol.u, [1e-9])[0][0]
        m0 = sol.ops.section.ei * strains_at(sol.ops, sol.u, [1e-9])[1][0]
        assert abs(n0) == pytest.approx(p_load, rel=5e-3)
        assert abs(m0) == pytest.approx(2.0 * p_load, rel=5e-3)

    def test_reference_checks_attached(self):
        problem = build_ellipse_quarter(4, 0.04, with_reference_checks=True)
        labels = [c.label for c in problem.point_checks]
        assert labels == ["ux_free", "uy_free"]

    def test_invalid_thickness(self):
        with pytest.raises(ValueError, match="thickness"):
            build_ellipse_quarter(4, -0.1)


class TestEllipseReference:
    """The closed-form reference against two references that are not itself."""

    @pytest.mark.parametrize("t", [0.4, 0.04, 0.004, 4e-4])
    def test_agrees_with_fine_mesh_cas(self, t):
        # the CAS solve the reference used to be; at t = 4e-5 it is 4e-4 off
        ref, fine = ellipse_reference(t), fine_mesh_ellipse_free_end(t)
        assert max(abs(ref[k] - fine[k]) / abs(ref[k]) for k in ("ux_free", "uy_free")) < 1e-4

    @pytest.mark.parametrize("t", [c.value for c in standard_slenderness_cases("ellipse")])
    def test_agrees_with_virtual_work_oracle(self, t):
        # the same integral, summed by perfbench on 200 spans of its own
        oracle = checks.ellipse_free_end_oracle(t)
        assert checks.reference_deviation(ellipse_reference(t), oracle) <= 1e-14

    def test_assembles_and_solves_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ellipse_reference assembled or solved a mesh")

        for name in ("solve_problem", "assemble", "PatchOperators"):
            monkeypatch.setattr(casrod.benchmarks, name, refuse)
        ellipse_reference.cache_clear()
        try:
            ref = ellipse_reference(0.04)
        finally:
            ellipse_reference.cache_clear()
        assert set(ref) == {"ux_free", "uy_free", "n_clamp_abs", "m_clamp_abs"}

    @pytest.mark.parametrize("t", [0.0, -0.1, math.nan, math.inf, 1e-300])
    def test_invalid_thickness(self, t):
        with pytest.raises(ValueError, match="positive and finite"):
            ellipse_reference(t)


@pytest.mark.parametrize("build, value", [
    (build_ring_quarter, np.nan), (build_ring_quarter, np.inf),
    (build_arch_half, np.nan), (build_arch_half, np.inf), (build_arch_half, 1e-300),
    (build_ellipse_quarter, np.nan), (build_ellipse_quarter, np.inf),
    (build_ellipse_quarter, 1e-300),
], ids=lambda v: getattr(v, "__name__", repr(v)))
def test_non_finite_or_underflowing_slenderness_rejected(build, value):
    # 1e-300 is positive, but t^3 underflows to 0, so EI would be 0
    with pytest.raises(ValueError, match="positive and finite"):
        build(4, value)
    if build is build_arch_half:
        with pytest.raises(ValueError, match="positive and finite"):
            _arch_exact(value)  # before any closed-form arithmetic divides by EA or EI


class TestSlendernessCases:
    def test_standard_case_lists(self):
        from casrod import standard_slenderness_cases

        assert [c.value for c in standard_slenderness_cases("ring")] == [1e4, 1e6, 1e8]
        assert [c.value for c in standard_slenderness_cases("arch")] == [0.1, 0.01, 0.001]
        ellipse = standard_slenderness_cases("ellipse")
        assert len(ellipse) == 5
        assert ellipse[0].label == "t=0.4"
        with pytest.raises(ValueError):
            standard_slenderness_cases("plate")


class TestExactFields:
    def test_ring_has_no_exact_displacement_field(self):
        problem = build_ring_quarter(4, 1e4)
        assert problem.exact_u is None
        assert np.isfinite(problem.exact_n(0.5)) and np.isfinite(problem.exact_m(0.5))


class TestProblemSetup:
    def test_builds_evaluate_no_geometry(self, basis_calls):
        # the end constraints read the end legs of the control net
        for n in (1, 2, 7, 64):
            build_ring_quarter(n, 1e6)
            build_arch_half(n, 0.01)
            build_ellipse_quarter(n, 0.04)
        assert basis_calls == []

    @pytest.mark.parametrize("build, point", [
        (lambda: build_ring_quarter(4, 1e6), lambda phi: (np.sin(phi), -np.cos(phi))),
        (lambda: build_arch_half(4, 0.01), lambda phi: (-10 * np.cos(phi), 10 * np.sin(phi))),
        (lambda: build_ellipse_quarter(4, 0.04), lambda phi: (-2 * np.cos(phi), np.sin(phi))),
    ], ids=["ring", "arch", "ellipse"])
    def test_angle_map_inverts_the_conic_parametrization(self, build, point):
        # angle_map takes positions, shape S + (2,), and returns phi, shape S
        phis = np.linspace(0.0, math.pi / 2, 13).reshape(13, 1)
        x = np.stack(point(phis), axis=-1)
        got = build().angle_map(x)
        assert got.shape == phis.shape
        np.testing.assert_allclose(got, phis, rtol=0, atol=1e-15)


class TestRefinement:
    @pytest.mark.parametrize("build", [lambda: build_ring_quarter(1, 1e6),
                                       lambda: build_arch_half(1, 0.01),
                                       lambda: build_ellipse_quarter(1, 0.04)],
                             ids=["ring", "arch", "ellipse"])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64])
    def test_closed_form_matches_sequential_insertion(self, build, n):
        base = build().curve
        oracle = base
        for j in range(1, n):
            oracle = insert_knot(oracle, j / n)
        refined = _refine_to(base, n)
        np.testing.assert_array_equal(refined.knot_vector.knots, oracle.knot_vector.knots)
        for got, want in [(refined.control_points, oracle.control_points),
                          (refined.weights, oracle.weights)]:
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_rejects_fewer_than_one_element(self):
        with pytest.raises(ValueError, match="n_elements"):
            _refine_to(build_ring_quarter(1, 1e6).curve, 0)

    @pytest.mark.parametrize("build", [lambda n: build_ring_quarter(n, 1e6),
                                       lambda n: build_arch_half(n, 0.01),
                                       lambda n: build_ellipse_quarter(n, 0.04)],
                             ids=["ring", "arch", "ellipse"])
    def test_element_count_must_be_an_integer(self, build):
        # 2.5 used to build 3 elements with knots at 0, 0.4, 0.8 and 1
        for n in (2.5, 3.0):
            with pytest.raises(ValueError, match="n_elements must be an integer"):
                build(n)
        want = build(3).curve
        for n in (np.int64(3), np.int32(3)):
            got = build(n).curve
            np.testing.assert_array_equal(got.knot_vector.knots, want.knot_vector.knots)
            np.testing.assert_array_equal(got.control_points, want.control_points)
