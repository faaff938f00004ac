"""Tests for B-spline/NURBS basis evaluation, knot insertion, and geometry."""

import re
from dataclasses import fields

import numpy as np
import pytest

from casrod import (ElementFormulation, KnotVector, NurbsCurve, build_arch_half,
                    build_ellipse_quarter, build_ring_quarter, evaluate_geometry,
                    make_open_uniform_knot_vector, solve_problem)
from casrod.errors import OutOfDomainError
from casrod.metrics import displacement_at
from casrod.rod import frames_at
from casrod.splines import _basis_block, combine, nurbs_basis_many

from conftest import CONIC_W
from oracles import (arc_length_at, arc_lengths_at, bspline_basis_triangle,
                     element_arc_lengths, greville_abscissae, insert_knot, refine_uniform,
                     unstacked_bspline_basis, unstacked_frames, unstacked_nurbs_basis)


def naive_cox_de_boor(t, p, i, xi):
    """Independent straightforward recursion (0/0 replaced by 0)."""
    if p == 0:
        return 1.0 if t[i] <= xi < t[i + 1] else 0.0
    left = 0.0
    if t[i + p] - t[i] > 0:
        left = (xi - t[i]) / (t[i + p] - t[i]) * naive_cox_de_boor(t, p - 1, i, xi)
    right = 0.0
    if t[i + p + 1] - t[i + 1] > 0:
        right = (t[i + p + 1] - xi) / (t[i + p + 1] - t[i + 1]) * naive_cox_de_boor(t, p - 1, i + 1, xi)
    return left + right


class TestKnotVector:
    def test_single_element(self):
        kv = make_open_uniform_knot_vector(2, 1)
        np.testing.assert_array_equal(kv.knots, [0, 0, 0, 1, 1, 1])

    def test_two_elements(self):
        kv = make_open_uniform_knot_vector(2, 2)
        np.testing.assert_array_equal(kv.knots, [0, 0, 0, 0.5, 1, 1, 1])

    def test_counting_identity(self):
        kv = make_open_uniform_knot_vector(2, 4)
        spans = np.diff(kv.breakpoints)
        np.testing.assert_allclose(spans, 0.25)
        assert kv.n_basis == 4 + 2
        assert kv.n_elements == 4

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="degree"):
            make_open_uniform_knot_vector(0, 4)
        with pytest.raises(ValueError, match="n_elements"):
            make_open_uniform_knot_vector(2, 0)

    def test_rejects_non_open(self):
        with pytest.raises(ValueError, match="open"):
            KnotVector(2, [0, 0, 0.2, 0.5, 1, 1, 1])

    def test_rejects_repeated_interior(self):
        with pytest.raises(ValueError, match="interior"):
            KnotVector(2, [0, 0, 0, 0.5, 0.5, 1, 1, 1])

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            KnotVector(2, [0, 0, 0, 0.6, 0.4, 1, 1, 1])

    @pytest.mark.parametrize("degree, knots, match", [
        (0, [0, 1], "degree must be >= 1, got 0"),
        (2, [0, 0, 0, 1, 1], "at least 2(p+1) entries"),
        (2, [[0, 0, 0], [1, 1, 1]], "at least 2(p+1) entries"),
        (2, [0, 0, 0, 2, 2, 2], "parametric domain must be [0, 1]"),
        (2, [-1, -1, -1, 1, 1, 1], "parametric domain must be [0, 1]"),
    ], ids=["degree-0", "too-few-knots", "not-a-vector", "domain-0-2", "domain-minus-1-1"])
    def test_rejects_bad_degree_length_or_domain(self, degree, knots, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            KnotVector(degree, knots)

    def test_find_span_right_end(self):
        # xi = 1 belongs to the last nonzero span
        kv = make_open_uniform_knot_vector(2, 4)
        first = _basis_block(kv, [1.0, 0.99], 0)[0]
        assert first[0] == first[1] == kv.n_basis - 3


class TestNurbsCurveArguments:
    @pytest.mark.parametrize("points, weights, match", [
        ([[0, 0], [1, 0]], [1, 1, 1], "expected 3 control points of dimension 2, got (2, 2)"),
        ([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [1, 1, 1],
         "expected 3 control points of dimension 2, got (3, 3)"),
        ([[0, 0], [1, 0], [2, 0]], [1, 1], "expected 3 weights, got (2,)"),
        ([[0, 0], [1, 0], [2, 0]], [[1, 1, 1]], "expected 3 weights, got (1, 3)"),
        ([[0, 0], [1, 0], [2, 0]], [1, 0, 1], "weights must be positive"),
        ([[0, 0], [1, 0], [2, 0]], [1, -0.5, 1], "weights must be positive"),
    ], ids=["two-points", "three-dimensional", "two-weights", "weight-matrix",
            "zero-weight", "negative-weight"])
    def test_rejected(self, points, weights, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            NurbsCurve(KnotVector(2, [0, 0, 0, 1, 1, 1]), points, weights)


class TestCallerArrays:
    def test_construction_leaves_caller_arrays_writable(self):
        # the curve freezes copies of its arrays, not the caller's
        knots = np.array([0, 0, 0, 0.5, 1, 1, 1.0])
        points = np.array([[1.0, 0.0], [1.0, 0.5], [0.5, 1.0], [0.0, 1.0]])
        weights = np.array([1.0, 0.9, 0.9, 1.0])
        curve = NurbsCurve(KnotVector(2, knots), points, weights)
        for caller, own in [(knots, curve.knot_vector.knots),
                            (points, curve.control_points), (weights, curve.weights)]:
            assert caller.flags.writeable and not own.flags.writeable
            before = own.copy()
            caller *= 2.0
            np.testing.assert_array_equal(own, before)


class TestBsplineBasis:
    def test_bernstein_midpoint(self):
        kv = make_open_uniform_knot_vector(2, 1)
        block = _basis_block(kv, [0.5], 0)[1]
        np.testing.assert_allclose(block[0, :, 0], [0.25, 0.5, 0.25], atol=1e-15)

    def test_bernstein_endpoint_derivatives(self):
        kv = make_open_uniform_knot_vector(2, 1)
        block = _basis_block(kv, [0.0], 1)[1]
        np.testing.assert_allclose(block[0, :, 0], [1.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(block[1, :, 0], [-2.0, 2.0, 0.0], atol=1e-15)

    def test_against_naive_recursion(self):
        kv = KnotVector(2, [0, 0, 0, 0.5, 1, 1, 1])
        xi = 0.25
        first, block = _basis_block(kv, [xi], 1)
        first, values, d1 = first[0], block[0, :, 0], block[1, :, 0]
        expected = [naive_cox_de_boor(kv.knots, 2, i, xi) for i in range(first, first + 3)]
        np.testing.assert_allclose(values, expected, atol=1e-14)
        assert abs(values.sum() - 1.0) < 1e-14
        assert abs(d1.sum()) < 1e-13

    def test_against_naive_recursion_many_points(self):
        kv = make_open_uniform_knot_vector(3, 5)
        rng = np.random.default_rng(7)
        xis = rng.uniform(0, 0.999, 25)
        firsts, block = _basis_block(kv, xis, 0)
        for xi, first, values in zip(xis, firsts, block[0].T):
            expected = [naive_cox_de_boor(kv.knots, 3, i, xi) for i in range(first, first + 4)]
            np.testing.assert_allclose(values, expected, atol=1e-13)

    @pytest.mark.parametrize("spacing", ["uniform", "graded"])
    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_matches_cox_de_boor_triangle(self, p, n, spacing):
        rng = np.random.default_rng(1000 * p + n)
        if spacing == "uniform":
            kv = make_open_uniform_knot_vector(p, n)
        else:  # random interior knots: spans of very different widths
            interior = np.sort(rng.uniform(0.0, 1.0, n - 1))
            kv = KnotVector(p, np.concatenate([np.zeros(p + 1), interior, np.ones(p + 1)]))
        xis = np.concatenate([rng.uniform(0.0, 1.0, 200), kv.breakpoints, [0.0, 1.0]])
        for max_deriv in (0, 1, 2):
            first, block = _basis_block(kv, xis, max_deriv)
            want = bspline_basis_triangle(kv, xis, max_deriv)
            np.testing.assert_array_equal(first, want.first_active)
            for d, name in enumerate(("values", "d1", "d2")[:max_deriv + 1]):
                g, w = block[d].T, getattr(want, name)
                scale = np.abs(w).max(axis=1, keepdims=True)
                assert np.all(np.abs(g - w) <= 1e-14 * scale), name
            assert len(block) == max_deriv + 1  # no derivative rows beyond those asked for
        if p == 1:
            assert not np.any(block[2])

    def test_derivatives_match_finite_differences(self):
        kv = make_open_uniform_knot_vector(2, 4)
        h = 1e-6
        xis = np.array([0.1, 0.33, 0.62, 0.9])
        plus = _basis_block(kv, xis + h, 0)[1][0].T
        minus = _basis_block(kv, xis - h, 0)[1][0].T
        d1 = _basis_block(kv, xis, 1)[1][1].T
        for i in range(len(xis)):
            np.testing.assert_allclose(d1[i], (plus[i] - minus[i]) / (2 * h),
                                       rtol=1e-6, atol=1e-6)

    def test_second_derivative_matches_finite_differences(self):
        kv = make_open_uniform_knot_vector(2, 4)
        h = 1e-6
        xis = np.array([0.1, 0.33, 0.62, 0.9])
        plus = _basis_block(kv, xis + h, 1)[1][1].T
        minus = _basis_block(kv, xis - h, 1)[1][1].T
        d2 = _basis_block(kv, xis, 2)[1][2].T
        for i in range(len(xis)):
            np.testing.assert_allclose(d2[i], (plus[i] - minus[i]) / (2 * h),
                                       rtol=1e-5, atol=1e-5)

    def test_out_of_domain(self):
        kv = make_open_uniform_knot_vector(2, 2)
        with pytest.raises(OutOfDomainError):
            _basis_block(kv, [1.2], 2)
        with pytest.raises(OutOfDomainError):
            _basis_block(kv, [-0.1], 2)

    @pytest.mark.parametrize("xi", [np.nan, np.inf, -np.inf, 1.2, -0.1])
    @pytest.mark.parametrize("evaluate", [
        lambda curve, xi: _basis_block(curve.knot_vector, [xi], 2),
        lambda curve, xi: nurbs_basis_many(curve, [0.5, xi]),
        lambda curve, xi: frames_at(curve, [xi]),
        lambda curve, xi: arc_lengths_at(curve, [0.5, xi]),
    ], ids=["bspline_basis", "nurbs_basis_many", "frame_at", "arc_lengths_at"])
    def test_non_finite_and_out_of_domain_rejected(self, quarter_ellipse, evaluate, xi):
        with pytest.raises(OutOfDomainError):
            evaluate(refine_uniform(quarter_ellipse), xi)

    def test_batch_matches_scalar(self):
        # each row of a mixed batch equals the batch of that one point
        kv = make_open_uniform_knot_vector(2, 6)
        rng = np.random.default_rng(3)
        xis = np.concatenate([rng.uniform(0, 1, 40), [0.0, 1.0], kv.breakpoints[1:-1]])
        first, batch = _basis_block(kv, xis, 2)
        for i, xi in enumerate(xis):
            first_one, one = _basis_block(kv, [xi], 2)
            assert first[i] == first_one[0]
            for d in range(3):  # values, d1, d2
                np.testing.assert_array_equal(batch[d, :, i], one[d, :, 0])


class TestNurbsBasis:
    def test_equal_weights_reduce_to_bspline(self, quarter_circle):
        curve = NurbsCurve(quarter_circle.knot_vector, quarter_circle.control_points,
                           np.full(3, 2.5))
        xis = [0.0, 0.3, 0.75, 1.0]
        rational = nurbs_basis_many(curve, xis)
        poly = _basis_block(curve.knot_vector, xis, 2)[1]
        for i in range(len(xis)):
            np.testing.assert_allclose(rational.values[i], poly[0, :, i], atol=1e-15)
            np.testing.assert_allclose(rational.d1[i], poly[1, :, i], atol=1e-13)
            np.testing.assert_allclose(rational.d2[i], poly[2, :, i], atol=1e-12)

    def test_quarter_circle_midpoint_values(self, quarter_circle):
        # hand evaluation of the rational quotient at xi = 0.5
        values = nurbs_basis_many(quarter_circle, [0.5]).values[0]
        denom = 0.25 + 0.5 * CONIC_W + 0.25
        np.testing.assert_allclose(
            values, [0.25 / denom, 0.5 * CONIC_W / denom, 0.25 / denom], atol=1e-14)
        assert abs(values.sum() - 1.0) < 1e-14

    def test_partition_of_unity_random_weights(self):
        rng = np.random.default_rng(42)
        kv = make_open_uniform_knot_vector(2, 5)
        for _ in range(5):
            weights = rng.uniform(0.2, 3.0, kv.n_basis)
            pts = rng.uniform(0.2, 1.2, (kv.n_basis, 2))
            curve = NurbsCurve(kv, pts, weights)
            bb = nurbs_basis_many(curve, rng.uniform(0, 1, 200))
            for values, d1, d2 in zip(bb.values, bb.d1, bb.d2):
                assert abs(values.sum() - 1.0) < 1e-12
                assert abs(d1.sum()) < 1e-12
                assert abs(d2.sum()) < 1e-10

    def test_batch_matches_scalar(self, quarter_ellipse):
        rng = np.random.default_rng(5)
        xis = rng.uniform(0, 1, 30)
        batch = nurbs_basis_many(quarter_ellipse, xis)
        for i, xi in enumerate(xis):
            one = nurbs_basis_many(quarter_ellipse, [xi])
            np.testing.assert_array_equal(batch.values[i], one.values[0])
            np.testing.assert_array_equal(batch.d1[i], one.d1[0])
            np.testing.assert_array_equal(batch.d2[i], one.d2[0])


class TestGeometry:
    def test_ellipse_midpoint(self, quarter_ellipse):
        point, _, _ = evaluate_geometry(quarter_ellipse, 0.5)
        np.testing.assert_allclose(point, [-np.sqrt(2), np.sqrt(2) / 2], atol=1e-14)

    def test_ellipse_on_conic(self, quarter_ellipse):
        for xi in np.linspace(0, 1, 100):
            x, y = evaluate_geometry(quarter_ellipse, float(xi))[0]
            assert abs(x**2 / 4 + y**2 - 1.0) < 1e-12

    def test_circle_radius(self, quarter_circle):
        for xi in np.linspace(0, 1, 100):
            point, _, _ = evaluate_geometry(quarter_circle, float(xi))
            assert abs(np.hypot(*point) - 1.0) < 1e-12

    def test_straight_segment_zero_normal_curvature(self, straight_rod_4):
        for xi in np.linspace(0.05, 0.95, 10):
            _, d1, d2 = evaluate_geometry(straight_rod_4, float(xi))
            tangent = d1 / np.hypot(*d1)
            normal_component = d2 - tangent * (tangent @ d2)
            np.testing.assert_allclose(normal_component, 0.0, atol=1e-12)


class TestRefinement:
    def test_geometry_preserved(self, quarter_circle):
        refined = refine_uniform(quarter_circle)
        assert refined.n_elements == 2
        for xi in np.linspace(0, 1, 100):
            before = evaluate_geometry(quarter_circle, float(xi))[0]
            after = evaluate_geometry(refined, float(xi))[0]
            np.testing.assert_allclose(after, before, atol=1e-12)

    def test_counting(self, quarter_ellipse):
        refined = refine_uniform(refine_uniform(quarter_ellipse))
        assert refined.n_elements == 4
        assert refined.n_basis == quarter_ellipse.n_basis + 1 + 2

    def test_seven_refinements_reach_256(self, quarter_circle):
        curve = refine_uniform(quarter_circle)  # the studies start from 2 elements
        for _ in range(7):
            curve = refine_uniform(curve)
        assert curve.n_elements == 256

    def test_knots_nested(self, quarter_circle):
        refined = refine_uniform(refine_uniform(quarter_circle))
        old = set(np.round(refine_uniform(quarter_circle).knot_vector.knots, 15))
        new = set(np.round(refined.knot_vector.knots, 15))
        assert old <= new

    def test_insert_existing_knot_rejected(self, quarter_circle):
        refined = refine_uniform(quarter_circle)
        with pytest.raises(ValueError, match="already present"):
            insert_knot(refined, 0.5)


class TestArcLength:
    def test_quarter_circle_length(self, quarter_circle):
        lengths = element_arc_lengths(quarter_circle)
        np.testing.assert_allclose(lengths[-1], np.pi / 2, rtol=1e-12)

    def test_cumulative_consistency(self, quarter_ellipse):
        curve = refine_uniform(refine_uniform(quarter_ellipse))
        boundary = element_arc_lengths(curve)
        xis = np.linspace(0, 1, 17)
        s = arc_lengths_at(curve, xis, boundary)
        assert np.all(np.diff(s) > 0)
        assert abs(s[0]) < 1e-15
        np.testing.assert_allclose(s[-1], boundary[-1], rtol=1e-12)
        # scalar wrapper agrees
        assert arc_length_at(curve, 0.37, boundary) == pytest.approx(
            float(arc_lengths_at(curve, [0.37], boundary)[0]))


class TestGreville:
    def test_linear_precision(self):
        kv = make_open_uniform_knot_vector(2, 5)
        greville = greville_abscissae(kv)
        xis = np.linspace(0, 1, 20)
        firsts, block = _basis_block(kv, xis, 0)
        for xi, first, values in zip(xis, firsts, block[0].T):
            active = greville[first:first + 3]
            assert abs(values @ active - xi) < 1e-13


class TestBatchSizeIndependence:
    """A point gives the same bits alone as inside a 4097-point batch, so no
    kernel takes a size-dependent path (e.g. an einsum or BLAS kernel that
    reorders its sums for long rows)."""

    @staticmethod
    def _batch(curve, rng):
        xis = np.concatenate([rng.random(4097 - len(curve.knot_vector.breakpoints)),
                              curve.knot_vector.breakpoints])
        rng.shuffle(xis)
        return xis

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_elements", [1, 16, 1024])
    def test_basis_and_frames(self, p, n_elements):
        rng = np.random.default_rng(1000 * p + n_elements)
        if p == 2:
            curve = build_ellipse_quarter(n_elements, 0.004).curve
        else:
            interior = np.sort(rng.random(n_elements - 1))
            kv = KnotVector(p, np.concatenate([np.zeros(p + 1), interior, np.ones(p + 1)]))
            curve = NurbsCurve(kv, rng.standard_normal((kv.n_basis, 2)),
                               0.5 + rng.random(kv.n_basis))
        xis = self._batch(curve, rng)
        batches = (nurbs_basis_many(curve, xis), frames_at(curve, xis))
        for i in [0, 4096, *rng.choice(4097, 60, replace=False)]:
            singles = (nurbs_basis_many(curve, xis[i:i + 1]), frames_at(curve, xis[i]))
            for one, many in zip(singles, batches):
                for f in fields(one):
                    got, want = getattr(one, f.name), getattr(many, f.name)
                    assert got[0].tobytes() == want[i].tobytes(), (f.name, i)

    @pytest.mark.parametrize("name", ["ring", "arch", "ellipse"])
    def test_displacement_at(self, name):
        build = {"ring": lambda: build_ring_quarter(16, 1e6),
                 "arch": lambda: build_arch_half(16, 0.01),
                 "ellipse": lambda: build_ellipse_quarter(16, 0.004)}[name]
        solution = solve_problem(build(), ElementFormulation.CAS)
        rng = np.random.default_rng(7)
        xis = self._batch(solution.curve, rng)
        many = displacement_at(solution, xis)
        for i in [0, 4096, *rng.choice(4097, 60, replace=False)]:
            assert displacement_at(solution, xis[i]).tobytes() == many[i].tobytes()

    @pytest.mark.parametrize("form", list(ElementFormulation), ids=lambda f: f.value)
    def test_strains(self, form):
        solution = solve_problem(build_arch_half(16, 0.01), form)
        rng = np.random.default_rng(11)
        xis = self._batch(solution.curve, rng)
        many = solution.ops.strains(solution.u, frames_at(solution.curve, xis))
        for i in [0, 4096, *rng.choice(4097, 60, replace=False)]:
            one = solution.ops.strains(solution.u, frames_at(solution.curve, xis[i]))
            for got, want in zip(one, many):
                assert got.tobytes() == want[i].tobytes(), i


class TestStackedBlockOracle:
    """The stacked basis block and the in-place frame geometry give the bytes
    of the per-array kernels they replaced (`oracles.unstacked_*`), field by
    field, for whole batches and for single points."""

    @staticmethod
    def _curves(p, n_elements, rng):
        if p == 2:
            yield build_ellipse_quarter(n_elements, 0.004).curve
        interior = np.sort(rng.random(n_elements - 1))
        kv = KnotVector(p, np.concatenate([np.zeros(p + 1), interior, np.ones(p + 1)]))
        yield NurbsCurve(kv, rng.standard_normal((kv.n_basis, 2)), 0.5 + rng.random(kv.n_basis))

    @staticmethod
    def _assert_same_bytes(got, want):
        for f in fields(want):
            g, w = getattr(got, f.name), getattr(want, f.name)
            if w is None:
                assert g is None, f.name
            else:
                assert g.shape == w.shape and g.tobytes() == w.tobytes(), f.name

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_elements", [1, 16, 1024])
    def test_fields_match_byte_for_byte(self, p, n_elements):
        rng = np.random.default_rng(100 * p + n_elements)
        for curve in self._curves(p, n_elements, rng):
            bp = curve.knot_vector.breakpoints
            xis = np.concatenate([rng.random(300), bp, [0.0, 1.0]])
            singles = [xis[i:i + 1] for i in [*range(300, len(xis))[:40], -2, -1, 0, 1, 2]]
            for batch in [xis, *singles]:
                for max_deriv in (0, 1, 2):
                    first, block = _basis_block(curve.knot_vector, batch, max_deriv)
                    want = unstacked_bspline_basis(curve.knot_vector, batch, max_deriv)
                    rows = np.stack([want.values, want.d1, want.d2][:max_deriv + 1])
                    assert first.tobytes() == want.first_active.tobytes()
                    got = np.swapaxes(block, 1, 2)  # one (m, p+1) array per derivative
                    assert got.shape == rows.shape and got.tobytes() == rows.tobytes()
                    self._assert_same_bytes(nurbs_basis_many(curve, batch, max_deriv),
                                            unstacked_nurbs_basis(curve, batch, max_deriv))
                frames = frames_at(curve, batch)
                self._assert_same_bytes(frames, unstacked_frames(curve, batch))
                assert frames.curve is curve and frames[1:].curve is curve


class TestCombine:
    """`combine` sums rows in the basis kernel's layout, (..., p+1, m): a stack
    of row sets gives the bytes of one call per set, and each call the bytes
    of a sum from zero over ascending j, point by point."""

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_stacked_rows_match_per_row_calls(self, p):
        rng = np.random.default_rng(500 + p)
        interior = np.sort(rng.random(6))
        kv = KnotVector(p, np.concatenate([np.zeros(p + 1), interior, np.ones(p + 1)]))
        weights = 0.5 + rng.random(kv.n_basis)
        xis = np.concatenate([rng.random(200), kv.breakpoints])
        first, block = _basis_block(kv, xis, 2, weights)
        for control in (rng.standard_normal((kv.n_basis, 2)), rng.standard_normal((kv.n_basis, 3))):
            stacked = combine(control, first, block[1:])
            assert stacked.shape == (2, control.shape[1], len(xis))
            for d in (1, 2):
                single = combine(control, first, block[d])
                assert stacked[d - 1].tobytes() == single.tobytes(), d
                for i in [0, 7, len(xis) - 1]:
                    want = [0.0] * control.shape[1]
                    for j in range(p + 1):
                        want = [w + block[d, j, i] * x for w, x in zip(want, control[first[i] + j])]
                    assert single[:, i].tobytes() == np.array(want).tobytes(), (d, i)
