"""Tests for rod kinematics, local frames, strains, and stress resultants."""

import numpy as np
import pytest

from casrod import (
    CrossSection,
    ElementFormulation,
    KnotVector,
    LoadSpec,
    NurbsCurve,
    PatchOperators,
    assemble,
    build_arch_half,
    build_ellipse_quarter,
    build_ring_quarter,
    evaluate_geometry,
    make_open_uniform_knot_vector,
)
from casrod.errors import DegenerateParametrizationError
from casrod.rod import ROT90, ControlDisplacements, frames_at

from conftest import straight_rod
from oracles import bending_strain, greville_abscissae, membrane_strain


def rigid_rotation_controls(curve, theta=1e-3, center=(0.3, -0.2)):
    """Control displacements of the linearized rigid rotation about `center`.

    The rotation field theta * rot90(r - c) has components in the rational
    space, so assigning it at the control points represents it exactly.
    """
    offset = curve.control_points - np.asarray(center)
    return theta * offset @ ROT90.T


class TestFrame:
    def test_circle_curvature(self, quarter_circle):
        fb = frames_at(quarter_circle, np.linspace(0, 1, 25))
        for i in range(len(fb)):
            assert abs(np.hypot(*fb.da2_ds[i]) - 1.0) < 1e-10

    def test_straight_rod_frame(self, straight_rod_4):
        fr = frames_at(straight_rod_4, [0.4])[0]
        np.testing.assert_allclose(fr.a1, [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(fr.a2, [0.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(fr.da2_ds, 0.0, atol=1e-13)

    def test_ellipse_end_curvature_radius(self, quarter_ellipse):
        # at the end touching the y-axis the radius of curvature is a^2/b = 4
        fb = frames_at(quarter_ellipse, [1.0, 0.0])
        fr, fr0 = fb[0], fb[1]
        assert abs(1.0 / np.hypot(*fr.da2_ds) - 4.0) < 1e-10
        assert abs(1.0 / np.hypot(*fr0.da2_ds) - 0.5) < 1e-10

    def test_orthonormality_random_points(self, quarter_ellipse):
        rng = np.random.default_rng(11)
        xis = rng.uniform(0, 1, 1000)
        fb = frames_at(quarter_ellipse, xis)
        np.testing.assert_allclose(np.hypot(fb.a1[:, 0], fb.a1[:, 1]), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.hypot(fb.a2[:, 0], fb.a2[:, 1]), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.einsum("mc,mc->m", fb.a1, fb.a2), 0.0, atol=1e-12)
        # a2 is the CCW rotation of a1
        np.testing.assert_allclose(fb.a2, fb.a1 @ ROT90.T, atol=1e-15)
        # da2/ds stays orthogonal to a2
        np.testing.assert_allclose(np.einsum("mc,mc->m", fb.da2_ds, fb.a2), 0.0, atol=1e-12)

    def test_second_arc_derivative_matches_finite_differences(self, quarter_ellipse):
        from oracles import arc_lengths_at, element_arc_lengths

        curve = quarter_ellipse
        total = element_arc_lengths(curve)[-1]
        step_s = 1e-5 * total
        xis = np.array([0.2, 0.5, 0.8])
        centre = frames_at(curve, xis)
        dxis = step_s / centre.jac
        plus_b = frames_at(curve, xis + dxis)
        minus_b = frames_at(curve, xis - dxis)
        for i, (xi, dxi) in enumerate(zip(xis, dxis)):
            fr, plus, minus = centre[i], plus_b[i], minus_b[i]
            s_plus, s_minus = arc_lengths_at(curve, [xi + dxi, xi - dxi])
            fd = (plus.dN_ds - minus.dN_ds) / (s_plus - s_minus)
            np.testing.assert_allclose(fr.d2N_ds2, fd, rtol=1e-4, atol=1e-4 * abs(fd).max())

    def test_degenerate_parametrization(self):
        kv = make_open_uniform_knot_vector(2, 1)
        curve = NurbsCurve(kv, [[0, 0], [0, 0], [1, 0]], [1, 1, 1])
        with pytest.raises(DegenerateParametrizationError):
            frames_at(curve, [0.0])


def _position_curves():
    """The three benchmark curves, then random NURBS curves of degree 1-4."""
    yield from (build_ring_quarter(7, 1e6).curve, build_arch_half(16, 0.01).curve,
                build_ellipse_quarter(5, 0.004).curve)
    rng = np.random.default_rng(31)
    for p in (1, 2, 3, 4):
        interior = np.sort(rng.random(9))
        kv = KnotVector(p, np.concatenate([np.zeros(p + 1), interior, np.ones(p + 1)]))
        yield NurbsCurve(kv, rng.standard_normal((kv.n_basis, 2)), 0.5 + rng.random(kv.n_basis))


class TestPositions:
    """A frame batch carries the positions r of its points, and the operators
    keep those of their quadrature points: neither the load nor recovery sums
    the control net again."""

    @pytest.mark.parametrize("curve", list(_position_curves()),
                             ids=["ring", "arch", "ellipse", "p1", "p2", "p3", "p4"])
    def test_positions_match_evaluate_geometry(self, curve):
        rng = np.random.default_rng(32)
        xis = np.concatenate([rng.random(200), curve.knot_vector.breakpoints])
        x = frames_at(curve, xis).x
        assert x.shape == (len(xis), 2)
        assert x.tobytes() == evaluate_geometry(curve, xis)[0].tobytes()
        assert frames_at(curve, xis[5:6])[0].x.tobytes() == x[5].tobytes()

    @pytest.mark.parametrize("form", list(ElementFormulation), ids=lambda f: f.value)
    def test_operators_keep_read_only_quadrature_positions(self, form):
        problem = build_arch_half(8, 0.01)
        ops = PatchOperators(problem.curve, problem.section, form)
        n_el, nq = ops.xi_q.shape
        assert ops.x_q.shape == (n_el, nq, 2)
        want = frames_at(problem.curve, ops.xi_q.reshape(-1)).x.reshape(n_el, nq, 2)
        assert ops.x_q.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            ops.x_q[0, 0, 0] = 0.0
        seen = []
        assemble(problem.curve, problem.section, form,
                 LoadSpec(distributed=lambda x: seen.append(x) or np.zeros(2)), ops=ops)
        assert len(seen) == 1 and seen[0] is ops.x_q


class TestStrains:
    def test_rigid_translation_zero_strain(self, quarter_circle):
        u = np.tile([0.37, -1.2], (quarter_circle.n_basis, 1))
        fb = frames_at(quarter_circle, np.linspace(0, 1, 15))
        for i in range(len(fb)):
            fr = fb[i]
            ua = u[fr.first_active:fr.first_active + 3]
            assert abs(membrane_strain(fr, ua)) < 1e-12
            assert abs(bending_strain(fr, ua)) < 1e-12

    def test_straight_rod_unit_stretch(self):
        rod = straight_rod(4)
        greville = greville_abscissae(rod.knot_vector)
        u = np.column_stack([greville, np.zeros_like(greville)])  # u_x = s
        fb = frames_at(rod, np.linspace(0, 1, 9))
        for i in range(len(fb)):
            fr = fb[i]
            ua = u[fr.first_active:fr.first_active + 3]
            assert abs(membrane_strain(fr, ua) - 1.0) < 1e-12

    def test_straight_rod_quadratic_deflection(self):
        # u_y = s^2/2 has control coefficients from the blossom of s^2
        rod = straight_rod(4)
        t = rod.knot_vector.knots
        coeff = np.array([t[b + 1] * t[b + 2] for b in range(rod.n_basis)]) / 2
        u = np.column_stack([np.zeros_like(coeff), coeff])
        fb = frames_at(rod, np.linspace(0, 1, 9))
        for i in range(len(fb)):
            fr = fb[i]
            ua = u[fr.first_active:fr.first_active + 3]
            assert abs(bending_strain(fr, ua) - 1.0) < 1e-11

    def test_rigid_rotation_nullity(self, quarter_circle):
        u = rigid_rotation_controls(quarter_circle)
        fb = frames_at(quarter_circle, greville_abscissae(quarter_circle.knot_vector))
        for i in range(len(fb)):
            fr = fb[i]
            ua = u[fr.first_active:fr.first_active + 3]
            assert abs(membrane_strain(fr, ua)) < 1e-10
            assert abs(bending_strain(fr, ua)) < 1e-10

    def test_rigid_nullity_on_benchmark_geometries(self):
        problems = [build_ring_quarter(8, 1e4), build_arch_half(8, 0.1),
                    build_ellipse_quarter(8, 0.04)]
        pts, _ = np.polynomial.legendre.leggauss(3)
        for problem in problems:
            curve = problem.curve
            bp = curve.knot_vector.breakpoints
            mid, half = 0.5 * (bp[1:] + bp[:-1]), 0.5 * (bp[1:] - bp[:-1])
            fb = frames_at(curve, (mid[:, None] + half[:, None] * pts).reshape(-1))
            for mode in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
                u = np.tile(mode, (curve.n_basis, 1))
                scale = max(np.abs(problem.curve.control_points).max(), 1.0)
                for i in range(len(fb)):
                    fr = fb[i]
                    ua = u[fr.first_active:fr.first_active + 3]
                    assert abs(membrane_strain(fr, ua)) < 1e-9 * scale
                    assert abs(bending_strain(fr, ua)) < 1e-9 * scale


class TestConstitutive:
    def test_rectangular_section(self):
        section = CrossSection.rectangular(young_modulus=2.1e11, thickness=0.1, width=0.1)
        assert section.ea == pytest.approx(2.1e11 * 0.1 * 0.1)
        assert section.ei == pytest.approx(2.1e11 * 0.1**3 * 0.1 / 12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CrossSection(ea=0.0, ei=1.0)
        with pytest.raises(ValueError):
            CrossSection(ea=1.0, ei=-2.0)

    @pytest.mark.parametrize("ea, ei", [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0),
                                        (1.0, np.inf)])
    def test_rejects_non_finite(self, ea, ei):
        with pytest.raises(ValueError, match="positive and finite"):
            CrossSection(ea, ei)

    @pytest.mark.parametrize("u", [np.zeros(3), np.zeros((3, 3)), np.zeros((2, 3, 2))],
                             ids=["flat", "three-columns", "three-dims"])
    def test_control_displacements_shape_rejected(self, u):
        with pytest.raises(ValueError, match=r"expected an \(n, 2\) array"):
            ControlDisplacements(u)

    def test_ring_membrane_force_at_symmetry_point(self):
        # exact section force at phi=0 of the pinched ring: N = -P/2
        problem = build_ring_quarter(4, 1e4)
        assert problem.exact_n(0.0) == pytest.approx(-0.5)
