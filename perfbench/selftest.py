"""Self-tests of the benchmark: `python3 perfbench/selftest.py` from the root.

Checks that job lists are reproducible from the seed, that a run prints
exactly the metrics BENCHMARK.json names, that the stored-output check fails
on a small perturbation, that the ellipse oracle separates good from bad
references, and that a checkout without the casrod sources gives no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import stages  # noqa: E402
from workloads import WORKLOADS, all_jobs, job_list  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


class JobListTest(unittest.TestCase):
    def test_same_seed_same_jobs(self):
        for workload in WORKLOADS:
            self.assertEqual(job_list(workload, 7), job_list(workload, 7))
            flat = [job for study in job_list(workload, 7) for job in study]
            self.assertCountEqual(flat, all_jobs(workload))

    def test_seed_permutes_order(self):
        self.assertNotEqual(job_list("sweep", 1), job_list("sweep", 2))

    def test_study_opens_with_coarsest_mesh(self):
        # that job pays the study's cold ellipse_reference, whatever the seed
        for seed in range(5):
            studies = job_list("ellipse", seed)
            self.assertTrue(all(s[0].n_elements == min(j.n_elements for j in s)
                                for s in studies))
        self.assertNotEqual([s[1:] for s in job_list("ellipse", 1)],
                            [s[1:] for s in job_list("ellipse", 2)])

    def test_every_job_has_stored_outputs(self):
        golden = checks.load_golden()
        ids = [job.id for workload in WORKLOADS for job in all_jobs(workload)]
        self.assertEqual(len(set(ids)), len(ids))
        self.assertEqual(set(ids), set(golden))


class StoredOutputTest(unittest.TestCase):
    def setUp(self):
        golden = checks.load_golden()
        # well-conditioned job with L2 errors and a field dump
        self.jid = "sweep/ring/cas/1e+06/16"
        self.gold = golden[self.jid]
        self.assertLess(checks.tolerance(self.gold["kappa"]), 1e-7)

    def _output(self, scale_key=None, factor=1.0):
        out = json.loads(json.dumps(self.gold))
        if scale_key is not None:
            out[scale_key] = [None if v is None else v * factor for v in out[scale_key]]
        return out

    def test_unperturbed_matches(self):
        self.assertIsNone(checks.compare(self._output(), self.gold))

    def test_relative_perturbation_fails(self):
        for key in ("u0", "u1", "e", "fields"):
            with self.subTest(output=key):
                self.assertIsNotNone(checks.compare(self._output(key, 1 + 1e-6), self.gold))

    def test_n_dof_and_missing_job_fail(self):
        out = self._output()
        out["n_dof"] += 1
        self.assertIsNotNone(checks.compare(out, self.gold))
        self.assertIsNotNone(checks.compare(self._output(), None))


class BackwardErrorTest(unittest.TestCase):
    def test_perturbed_solve_fails(self):
        from casrod.assembly import solution_backward_error
        # thinnest ellipse, finest mesh: the stored-output tolerance is O(1)
        job = next(j for j in all_jobs("ellipse")
                   if j.id == "ellipse/ellipse/cas/4e-05/256")
        self.assertGreater(checks.tolerance(checks.load_golden()[job.id]["kappa"]), 0.1)
        _, counts, constrained = stages.run_traced(job, False, stages.Tracer())
        self.assertIsNone(checks.check_backward_error(counts["backward_error"],
                                                      counts["n_dof"]))
        u = np.linalg.solve(constrained.k, constrained.f)
        noise = np.random.default_rng(0).standard_normal(u.shape)
        perturbed = u * (1.0 + 1e-6 * noise)
        error = solution_backward_error(constrained.k, perturbed, constrained.f)
        self.assertIsNotNone(checks.check_backward_error(error, counts["n_dof"]))


class EllipseOracleTest(unittest.TestCase):
    def test_oracle_separates_references(self):
        from casrod import ellipse_reference
        good = checks.reference_deviation(ellipse_reference(0.4),
                                          checks.ellipse_free_end_oracle(0.4))
        self.assertLess(good, checks.REFERENCE_TOL)
        bad = checks.reference_deviation(ellipse_reference(4e-5),
                                         checks.ellipse_free_end_oracle(4e-5))
        self.assertGreater(bad, checks.REFERENCE_TOL)
        self.assertTrue(checks.is_known_defect(4e-5))
        self.assertFalse(checks.is_known_defect(4e-4))

    def test_oracle_quadrature_converged(self):
        coarse = checks.ellipse_free_end_oracle(0.004)
        fine = checks.ellipse_free_end_oracle(0.004, segments=400, points=12)
        self.assertLess(max(abs(fine - coarse) / abs(fine)), 1e-13)


class RunTest(unittest.TestCase):
    def _result(self, trace: int) -> dict:
        proc = _run("--workload", "ellipse", "--seed", "5", "--seconds", "1",
                    "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_printed_metrics_match_spec(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(trace=trace):
                result = self._result(trace)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                wanted = {m["name"]: m["unit"] for m in SPEC[section]}
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(got, wanted)

    def test_recorded_job_order_follows_seed(self):
        self._result(0)
        record = json.loads((HERE / "results" / "ellipse-seed5-trace0.json").read_text())
        expected = [job.id for study in job_list("ellipse", 5) for job in study]
        self.assertEqual(record["job_order"], expected)

    def test_fails_without_sources(self):
        bare = HERE / "results" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
            proc = _run("--workload", "sweep", "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
