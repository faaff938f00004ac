"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here exactly as stated in the criteria; the
reported detail strings carry the measured numbers so near-misses are
visible. Shared studies are computed once per session.
"""

import math
import statistics
import time

import numpy as np
import pytest

from casrod import (
    ElementFormulation,
    PatchOperators,
    apply_constraints,
    assemble,
    banded,
    build_arch_half,
    build_ellipse_quarter,
    build_ring_quarter,
    convergence_rate,
    ellipse_reference,
    evaluate_geometry,
    l2_errors,
    sample_fields,
    solve,
    solve_problem,
)
from casrod.assembly import solution_backward_error
from casrod.benchmarks import _arch_exact
from casrod.metrics import point_errors
from casrod.rod import frames_at

from conftest import strains_at
from oracles import bending_strain, fine_mesh_ellipse_free_end, membrane_strain

F = ElementFormulation
MESHES = [2 * 2**k for k in range(8)]  # 2 .. 256
RING_EAS = (1e4, 1e6, 1e8)
ELLIPSE_GATED_T = (0.4, 0.04, 0.004, 0.0004)   # R_max/t = 10 .. 1e4
ELLIPSE_EXTREME_T = 0.00004                     # R_max/t = 1e5, reported only


@pytest.fixture
def announce(capsys):
    def _announce(number, label, ok, detail=""):
        with capsys.disabled():
            status = "PASS" if ok else "FAIL"
            suffix = f"  [{detail}]" if detail else ""
            print(f"\nacceptance {number} ({label}): {status}{suffix}")
    return _announce


@pytest.fixture(scope="module")
def ring_cas_study():
    """(n_elements -> ErrorReport) per EA for the CAS ring studies."""
    out = {}
    for ea in RING_EAS:
        records = []
        for n in MESHES:
            problem = build_ring_quarter(n, ea)
            report = l2_errors(problem, solve_problem(problem, F.CAS))
            records.append((n, report))
        out[ea] = records
    return out


@pytest.fixture(scope="module")
def arch_cas_study():
    """Reports for the t=0.1 arch with CAS at 3 and 2 Gauss points."""
    out = {}
    for quad in (3, 2):
        records = []
        for n in MESHES:
            problem = build_arch_half(n, 0.1)
            report = l2_errors(problem, solve_problem(problem, F.CAS, quad_points=quad))
            records.append((n, report))
        out[quad] = records
    return out


def max_sampled_field_ratio(problem, formulation, n_samples=400, quad_points=None):
    """(max |N^h| / max |N_exact|, max |N^h - N_exact| / max |N_exact|)."""
    sol = solve_problem(problem, formulation, quad_points)
    rows = sample_fields(problem, sol, n_samples)
    n_h, n_ex = rows[:, 4], rows[:, 6]
    scale = np.abs(n_ex).max()
    return np.abs(n_h).max() / scale, np.abs(n_h - n_ex).max() / scale


class TestCriterion1RingPointConvergence:
    def test_cas_point_values_and_slenderness_overlap(self, ring_cas_study, announce):
        worst_128 = 0.0
        for ea in RING_EAS:
            report = dict(ring_cas_study[ea])[128]
            worst_128 = max(worst_128, report.point_errors["uxA"],
                            report.point_errors["uyB"])
        curves = {ea: [max(rep.point_errors["uxA"], rep.point_errors["uyB"])
                       for _, rep in ring_cas_study[ea]] for ea in RING_EAS}
        ratios = [max(curves[ea][i] for ea in RING_EAS)
                  / min(curves[ea][i] for ea in RING_EAS)
                  for i in range(len(MESHES))]
        ok = worst_128 < 0.005 and max(ratios) <= 2.0
        announce(1, "ring CAS point convergence, slenderness-independent", ok,
                 f"worst point error @128 el = {worst_128:.2e}, "
                 f"max EA-curve ratio = {max(ratios):.3f}")
        assert worst_128 < 0.005
        assert max(ratios) <= 2.0


class TestCriterion2ConvergenceRates:
    def test_asymptotic_rates(self, ring_cas_study, arch_cas_study, announce):
        rate_m = convergence_rate([(n, rep.e_m) for n, rep in ring_cas_study[1e6]])
        rate_n = convergence_rate([(n, rep.e_n) for n, rep in ring_cas_study[1e6]])
        rate_u = convergence_rate([(n, rep.e_u) for n, rep in arch_cas_study[3]])
        ok = (abs(rate_m - 1.0) <= 0.2 and abs(rate_n - 1.5) <= 0.2
              and abs(rate_u - 2.0) <= 0.2)
        announce(2, "asymptotic rates e_M/e_N/e_u", ok,
                 f"ring e_M {rate_m:.3f} (1.0±0.2), ring e_N {rate_n:.3f} (1.5±0.2), "
                 f"arch e_u {rate_u:.3f} (2.0±0.2)")
        assert abs(rate_m - 1.0) <= 0.2
        assert abs(rate_n - 1.5) <= 0.2
        assert abs(rate_u - 2.0) <= 0.2


class TestCriterion3LockingDemonstration:
    def test_nurbs_near_zero_response_and_membrane_error(self, announce):
        ratios = {}
        for n in (2, 4, 8, 16, 32):
            problem = build_ring_quarter(n, 1e8)
            sol = solve_problem(problem, F.NURBS_FULL)
            exact_a = problem.point_checks[0].value
            exact_b = problem.point_checks[1].value
            ratios[n] = max(abs(sol.u[0, 0] / exact_a), abs(sol.u[-1, 1] / exact_b))
        n_locked = sum(1 for r in ratios.values() if r < 0.10)
        over_unity = 0
        for n in MESHES:
            problem = build_ring_quarter(n, 1e6)
            report = l2_errors(problem, solve_problem(problem, F.NURBS_FULL))
            over_unity += report.e_n > 1.0
        ok = n_locked == 5 and over_unity >= 4
        announce(3, "NURBS locking: near-zero response and e_N > 1", ok,
                 f"response/exact at 2..32 el: "
                 + ", ".join(f"{n}:{r:.3f}" for n, r in ratios.items())
                 + f"; e_N>1 on {over_unity}/8 meshes")
        assert over_unity >= 4
        # near-zero response (< 10% of exact) on every mesh up to 32 elements
        assert n_locked == 5, (
            f"response ratios {ratios}: locking releases at 32 elements "
            "(26% of exact), see decisions ledger")


class TestCriterion4OscillationContrast:
    def test_ring_contrast(self, announce):
        problem = build_ring_quarter(16, 1e6)
        nurbs_max, _ = max_sampled_field_ratio(problem, F.NURBS_FULL)
        _, cas_dev = max_sampled_field_ratio(problem, F.CAS)
        ok = nurbs_max > 10.0 and cas_dev < 0.05
        announce(4, "ring oscillation contrast (NURBS vs CAS)", ok,
                 f"max|N_nurbs| = {nurbs_max:.1f}x max exact, "
                 f"CAS max deviation = {cas_dev * 100:.2f}% (gate 5%)")
        assert nurbs_max > 10.0
        # CAS deviation: the excess over 5% is a rate-1 boundary-layer offset
        # at the loaded end knot, not an oscillation (decisions ledger)
        assert cas_dev < 0.05, f"CAS max pointwise deviation {cas_dev:.4f} >= 0.05"

    def test_arch_local_forms_oscillate(self, announce):
        problem = build_arch_half(16, 0.1)
        bbar_max, _ = max_sampled_field_ratio(problem, F.LOCAL_BBAR)
        ans_max, _ = max_sampled_field_ratio(problem, F.LOCAL_ANS)
        ok = bbar_max > 4.0 and ans_max > 4.0
        announce(4, "arch local B-bar / local ANS oscillation > 4x", ok,
                 f"local B-bar {bbar_max:.2f}x, local ANS {ans_max:.2f}x")
        assert bbar_max > 4.0
        assert ans_max > 4.0


class TestCriterion5GlobalBbarEquivalence:
    def test_membrane_force_overlap(self, announce):
        worst = 0.0
        for ea in RING_EAS:
            problem = build_ring_quarter(16, ea)
            sol_cas = solve_problem(problem, F.CAS)
            sol_gb = solve_problem(problem, F.GLOBAL_BBAR)
            xis = np.linspace(1e-9, 1 - 1e-9, 400)
            n_cas = sol_cas.ops.section.ea * strains_at(sol_cas.ops, sol_cas.u, xis)[0]
            n_gb = sol_gb.ops.section.ea * strains_at(sol_gb.ops, sol_gb.u, xis)[0]
            worst = max(worst, np.abs(n_cas - n_gb).max() / 0.5)
        ok = worst <= 0.02
        announce(5, "global B-bar and CAS membrane forces overlap", ok,
                 f"max |N_cas - N_gbar| = {worst * 100:.2f}% of max exact (gate 2%)")
        assert worst <= 0.02


class TestCriterion6ReducedIntegration:
    def test_cas_2gp_equals_3gp(self, arch_cas_study, announce):
        worst = 0.0
        for (n3, r3), (n2, r2) in zip(arch_cas_study[3], arch_cas_study[2]):
            assert n3 == n2
            for a, b in ((r3.e_u, r2.e_u), (r3.e_n, r2.e_n), (r3.e_m, r2.e_m)):
                worst = max(worst, abs(b - a) / a)
        ok = worst <= 0.10
        announce(6, "arch CAS errors with 2GP vs 3GP within 10%", ok,
                 f"worst per-mesh relative difference = {worst * 100:.2f}%")
        assert worst <= 0.10

    def test_nurbs_2gp_still_oscillates(self, announce):
        problem = build_arch_half(64, 0.01)
        nurbs_max, _ = max_sampled_field_ratio(problem, F.NURBS_REDUCED,
                                               n_samples=600)
        ok = nurbs_max > 10.0
        announce(6, "arch NURBS 2GP oscillation > 10x at 64 elements", ok,
                 f"max|N_nurbs2gp| = {nurbs_max:.1f}x max exact")
        assert nurbs_max > 10.0


class TestCriterion7Ellipse:
    def test_free_end_displacements_and_clamp_moment(self, announce):
        worst_cas = 0.0
        clamp_worst = 0.0
        for t in ELLIPSE_GATED_T:
            problem = build_ellipse_quarter(16, t, with_reference_checks=True)
            sol = solve_problem(problem, F.CAS)
            errs = point_errors(problem, sol)
            worst_cas = max(worst_cas, errs["ux_free"], errs["uy_free"])
            m_clamp = abs(sol.ops.section.ei * strains_at(sol.ops, sol.u, [1e-9])[1][0])
            m_ref = ellipse_reference(t)["m_clamp_abs"]
            clamp_worst = max(clamp_worst, abs(m_clamp - m_ref) / m_ref)
        problem4 = build_ellipse_quarter(16, 0.0004, with_reference_checks=True)
        sol_nurbs = solve_problem(problem4, F.NURBS_FULL)
        nurbs_err = max(point_errors(problem4, sol_nurbs).values())
        ok = worst_cas < 0.02 and nurbs_err > 0.5 and clamp_worst < 0.02
        announce(7, "ellipse: CAS within 2%, NURBS off >50%, clamp M statics", ok,
                 f"CAS worst free-end error {worst_cas * 100:.2f}%, NURBS at 1e4 "
                 f"{nurbs_err * 100:.0f}%, clamp-M error {clamp_worst * 100:.2f}%")
        assert worst_cas < 0.02
        assert nurbs_err > 0.5
        assert clamp_worst < 0.02

    def test_extreme_slenderness_reported_not_gated(self, announce):
        # R_max/t = 1e5: reported for completeness; CAS is expected to degrade
        ref = ellipse_reference(ELLIPSE_EXTREME_T)
        problem = build_ellipse_quarter(16, ELLIPSE_EXTREME_T)
        sol_cas = solve_problem(problem, F.CAS)
        sol_gb = solve_problem(problem, F.GLOBAL_BBAR)
        err_cas = abs(sol_cas.u[-1, 1] - ref["uy_free"]) / abs(ref["uy_free"])
        err_gb = abs(sol_gb.u[-1, 1] - ref["uy_free"]) / abs(ref["uy_free"])
        fine = fine_mesh_ellipse_free_end(ELLIPSE_EXTREME_T)
        fine_dev = abs(fine["uy_free"] - ref["uy_free"]) / abs(ref["uy_free"])
        announce(7, "ellipse at R_max/t = 1e5 (reported, not gated)", True,
                 f"uy_free error: CAS {err_cas * 100:.1f}%, global B-bar "
                 f"{err_gb * 100:.1f}%, fine-mesh CAS {fine_dev:.1e}")


class TestCriterion8PropertySuites:
    def test_arch_exact_solution_self_consistency(self, announce):
        worst = 0.0
        for t in (0.1, 0.01, 0.001):
            _, exact_u, exact_n, exact_m, params = _arch_exact(t)
            radius, ea, ei = params["radius"], params["ea"], params["ei"]
            h, hc = 1e-3, 1e-20
            n_scale = max(abs(exact_n(p)) for p in np.linspace(0, math.pi / 2, 20))
            m_scale = max(abs(exact_m(p)) for p in np.linspace(0, math.pi / 2, 20))
            for phi in np.linspace(0.05, math.pi / 2 - 0.05, 50):
                du = np.imag(exact_u(phi + 1j * hc)) / hc / radius
                d2u = (-exact_u(phi - 2 * h) + 16 * exact_u(phi - h)
                       - 30 * exact_u(phi) + 16 * exact_u(phi + h)
                       - exact_u(phi + 2 * h)) / (12 * h * h) / radius**2
                a1 = np.array([math.sin(phi), math.cos(phi)])
                a2 = np.array([-math.cos(phi), math.sin(phi)])
                eps = a1 @ du
                kappa = a2 @ d2u + (a1 / radius) @ du
                worst = max(worst,
                            abs(ea * eps - exact_n(phi)) / n_scale,
                            abs(ei * kappa - exact_m(phi)) / m_scale)
        ok = worst < 1e-6
        announce(8, "arch exact-solution constitutive self-consistency", ok,
                 f"worst residual {worst:.2e} (gate 1e-6)")
        assert worst < 1e-6

    def test_rigid_body_nullity(self, announce):
        worst = 0.0
        problems = [build_ring_quarter(8, 1e6), build_arch_half(8, 0.01),
                    build_ellipse_quarter(8, 0.004)]
        for problem in problems:
            curve = problem.curve
            scale = max(np.abs(curve.control_points).max(), 1.0)
            ops = PatchOperators(curve, problem.section, F.NURBS_FULL)
            fb = frames_at(curve, ops.xi_q.reshape(-1))
            for mode in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
                u = np.tile(mode, (curve.n_basis, 1))
                for i in range(len(fb)):
                    fr = fb[i]
                    ua = u[fr.first_active:fr.first_active + 3]
                    worst = max(worst, abs(membrane_strain(fr, ua)) / scale,
                                abs(bending_strain(fr, ua)) / scale)
        ok = worst < 1e-9
        announce(8, "rigid-body strain nullity at quadrature points", ok,
                 f"worst |strain| = {worst:.2e} (gate 1e-9)")
        assert worst < 1e-9

    def test_stiffness_symmetry_and_psd(self, announce):
        worst_asym = 0.0
        worst_neg = 0.0
        problem = build_arch_half(6, 0.01)
        for form in F:
            ops = PatchOperators(problem.curve, problem.section, form)
            blocks = list(ops.blocks)
            if form is F.GLOBAL_BBAR:
                blocks.append(banded.to_dense(ops._membrane_band()))
            for k in blocks:
                worst_asym = max(worst_asym,
                                 np.abs(k - k.T).max() / np.abs(k).max())
                eigvals = np.linalg.eigvalsh(k)
                worst_neg = max(worst_neg, -eigvals.min() / eigvals.max())
        ok = worst_asym < 1e-10 and worst_neg < 1e-9
        announce(8, "stiffness symmetry and positive semidefiniteness", ok,
                 f"asymmetry {worst_asym:.1e} (1e-10), "
                 f"negative-eigenvalue ratio {worst_neg:.1e} (1e-9)")
        assert worst_asym < 1e-10
        assert worst_neg < 1e-9

    def test_geometry_exactness(self, announce):
        worst = 0.0
        ring = build_ring_quarter(16, 1e6)
        arch = build_arch_half(16, 0.1)
        ellipse = build_ellipse_quarter(16, 0.04)
        for xi in np.linspace(0, 1, 100):
            x, y = evaluate_geometry(ring.curve, float(xi))[0]
            worst = max(worst, abs(np.hypot(x, y) - 1.0))
            x, y = evaluate_geometry(arch.curve, float(xi))[0]
            worst = max(worst, abs(np.hypot(x, y) / 10.0 - 1.0))
            x, y = evaluate_geometry(ellipse.curve, float(xi))[0]
            worst = max(worst, abs(x**2 / 4 + y**2 - 1.0))
        ok = worst < 1e-12
        announce(8, "conic geometry exact to machine precision", ok,
                 f"worst residual {worst:.1e} (gate 1e-12)")
        assert worst < 1e-12

    def test_cas_strain_continuity(self, announce):
        problem = build_ring_quarter(16, 1e8)
        sol = solve_problem(problem, F.CAS)
        worst = 0.0
        for knot in problem.curve.knot_vector.breakpoints[1:-1]:
            left = strains_at(sol.ops, sol.u, [knot - 1e-16])[0][0]
            right = strains_at(sol.ops, sol.u, [knot + 1e-16])[0][0]
            worst = max(worst, abs(left - right) / max(abs(left), 1e-300))
        ok = worst < 1e-14
        announce(8, "CAS assumed strain continuous across elements", ok,
                 f"worst relative jump {worst:.1e} (gate 1e-14)")
        assert worst < 1e-14

    def test_solver_backward_error(self, announce):
        worst = 0.0
        for problem, form in [(build_ring_quarter(128, 1e8), F.CAS),
                              (build_arch_half(64, 0.001), F.CAS),
                              (build_ring_quarter(32, 1e6), F.GLOBAL_BBAR)]:
            system = assemble(problem.curve, problem.section, form, problem.loads)
            con = apply_constraints(system, problem.constraints)
            u = solve(con)
            u_red = u.u.reshape(-1)[con.free_dofs]
            worst = max(worst, solution_backward_error(con.k, u_red, con.f))
        ok = worst < 1e-10
        announce(8, "solver backward error", ok,
                 f"worst {worst:.1e} (gate 1e-10)")
        assert worst < 1e-10


class TestCriterion9Performance:
    def test_assembly_solve_timing(self, announce):
        def run_once(form):
            problem = build_ring_quarter(128, 1e6)
            start = time.perf_counter()
            solve_problem(problem, form)
            return time.perf_counter() - start

        reps = 100
        forms = (F.NURBS_FULL, F.CAS, F.GLOBAL_BBAR)
        for form in forms:  # warm caches
            run_once(form)
        # interleaved, so a load change on the host hits all three alike
        times = {form: [] for form in forms}
        for _ in range(reps):
            for form in forms:
                times[form].append(run_once(form))
        med = {form: statistics.median(times[form]) for form in forms}
        cas_ratio = med[F.CAS] / med[F.NURBS_FULL]
        gb_vs_nurbs = med[F.GLOBAL_BBAR] / med[F.NURBS_FULL]
        gb_vs_cas = med[F.GLOBAL_BBAR] / med[F.CAS]
        ok = cas_ratio <= 1.5 and gb_vs_nurbs > 1.0 and gb_vs_cas > 1.0
        announce(9, "timing: CAS within 1.5x NURBS, global B-bar slower", ok,
                 f"medians over {reps} reps: NURBS {med[F.NURBS_FULL] * 1e3:.1f} ms, "
                 f"CAS {cas_ratio:.2f}x, global B-bar {gb_vs_nurbs:.2f}x NURBS / "
                 f"{gb_vs_cas:.2f}x CAS")
        assert cas_ratio <= 1.5
        assert gb_vs_nurbs > 1.0
        assert gb_vs_cas > 1.0
