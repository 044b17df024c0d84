"""Self-checks of the benchmark: every output check rejects a corrupted
result, the tracer patches every namespace and changes no output, and
BENCHMARK.json names exactly the metrics the benchmark prints.

    python3 perfbench/selfcheck.py
"""

import json
import math
import shutil
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

CONFIGS = ROOT / "src" / "wavekam" / "configs"


class SweepCheck(unittest.TestCase):
    gammas = [0.02, 0.01, 0.005, 0.0025]
    fractions = [0.2, 0.1, 0.05, 0.026]
    fit = {"degenerate": False, "slope": 10.1, "intercept": 2e-4, "r2": 0.9999}

    def test_good(self):
        self.assertEqual(
            checks.check_sweep(self.gammas, self.fractions, self.fit), [])

    def test_each_corruption_fails(self):
        self.assertTrue(checks.check_sweep(self.gammas, [0.2, 0.1, 0.12, 0.02],
                                           self.fit))
        for key, value in (("degenerate", True), ("slope", -1.0),
                           ("slope", math.nan), ("r2", 0.8)):
            fit = dict(self.fit, **{key: value})
            self.assertTrue(checks.check_sweep(self.gammas, self.fractions, fit))

    def test_agreement(self):
        self.assertEqual(checks.check_agreement([True, False], [True, False]), [])
        self.assertTrue(checks.check_agreement([True, False], [True, True]))
        self.assertTrue(checks.check_agreement([True], [True, True]))


class CliCheck(unittest.TestCase):
    """A real eps0 run, and kirchhoff-lin outputs written by wavekam's own
    writers, each passed through the check intact and then corrupted."""

    @classmethod
    def setUpClass(cls):
        from wavekam import cli

        cls.cli = cli
        (HERE / "out").mkdir(exist_ok=True)
        cls.tmp = Path(tempfile.mkdtemp(dir=HERE / "out"))
        cls.cfgs = {n: cli.load_config(CONFIGS / f"{n}.yaml")
                    for n in worker.CLI_CONFIGS}
        cls.eps0 = cls.tmp / "eps0"
        rc = cli.main(["run", "--config", str(CONFIGS / "eps0.yaml"),
                       "--seed", "3", "--out", str(cls.eps0)])
        assert rc == 0
        cls.kirch = cls.tmp / "kirchhoff"
        cls.kirch.mkdir()
        for name in checks.expected_cli_outputs(cls.cfgs["kirchhoff-lin"]):
            (cls.kirch / name).write_text("{}\n")
        for i in range(2):
            cls.write_convergence(cls.kirch, i, "converged")
        cls.write_summary(cls.kirch, [1.0032, 1.0031])

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    @staticmethod
    def write_convergence(outdir, i, verdict, r_lows=(1e-2, 1e-6),
                          residual=1e-14):
        from wavekam.reporting import write_convergence_table

        hist = [{"k": k, "N_k": 4 * 2**k, "r_low": r, "r_high": 10 * r,
                 "psi_norm": r, "tail_vanished": k > 0}
                for k, r in enumerate(r_lows)]
        write_convergence_table(outdir / f"kam_convergence_{i}.csv", i, hist,
                                residual, verdict)

    @staticmethod
    def write_summary(outdir, sups, conj=(1e-13, 4e-14)):
        from wavekam import cli

        manifest = {"config_sha256": "0", "seed": 0, "wall_time": 1.0}
        kam = [{"omega_index": i, "verdict": "converged", "steps": 2,
                "residual": c, "conjugation_residual": c}
               for i, c in enumerate(conj)]
        rows = [{"omega_index": i, "sup_ratio": s, "trajectory_residual": 1e-11}
                for i, s in enumerate(sups)]
        cli._write_summary_md(outdir / "summary.md", manifest,
                              {"kam": kam, "dynamics": rows})

    def copy(self, src):
        dst = Path(tempfile.mkdtemp(dir=self.tmp))
        shutil.copytree(src, dst, dirs_exist_ok=True)
        return dst

    def check(self, name, outdir, rc=0):
        return checks.check_cli_run(name, self.cfgs[name], rc, outdir)

    def test_good(self):
        self.assertEqual(self.check("eps0", self.eps0), [])
        self.assertEqual(self.check("kirchhoff-lin", self.kirch), [])

    def test_exit_code(self):
        self.assertTrue(self.check("eps0", self.eps0, rc=3))

    def test_missing_output(self):
        for name, src, gone in (("eps0", self.eps0, "trajectory_0.csv"),
                                ("kirchhoff-lin", self.kirch,
                                 "measure_sweep.csv")):
            out = self.copy(src)
            (out / gone).unlink()
            self.assertTrue(self.check(name, out), gone)

    def test_eps0_nonzero_remainder(self):
        out = self.copy(self.eps0)
        text = (out / "r4_norms.csv").read_text().splitlines()
        text[2] = "2.0,3e-13,0.0"
        (out / "r4_norms.csv").write_text("\n".join(text) + "\n")
        self.assertTrue(self.check("eps0", out))

    def test_kirchhoff_verdict(self):
        out = self.copy(self.kirch)
        self.write_convergence(out, 1, "resonance")
        self.assertTrue(self.check("kirchhoff-lin", out))

    def test_kam_criterion_4(self):
        for corrupt in (dict(residual=2e-12), dict(r_lows=(1e-2, 2e-2)),
                        dict(r_lows=(1e-2, 1e-16)),
                        dict(r_lows=[10.0**-k for k in range(1, 10)])):
            out = self.copy(self.kirch)
            self.write_convergence(out, 0, "converged", **corrupt)
            self.assertTrue(self.check("kirchhoff-lin", out), corrupt)
        out = self.copy(self.kirch)
        self.write_summary(out, [1.0, 1.0], conj=(1e-13, 2e-8))
        self.assertTrue(self.check("kirchhoff-lin", out))
        self.write_summary(out, [1.0, 1.0], conj=(1e-13,))
        self.assertTrue(self.check("kirchhoff-lin", out))

    def test_kirchhoff_unbounded(self):
        out = self.copy(self.kirch)
        self.write_summary(out, [1.0, 12.5])
        self.assertTrue(self.check("kirchhoff-lin", out))
        self.write_summary(out, [])
        self.assertTrue(self.check("kirchhoff-lin", out))

    def test_digest_ignores_only_timed_outputs(self):
        out = self.copy(self.eps0)
        ref = checks.numeric_digest(out)
        (out / "run_manifest.json").write_text("{}")
        (out / "summary.md").write_text("")
        self.assertEqual(checks.numeric_digest(out), ref)
        with open(out / "trajectory_0.csv", "a") as fh:
            fh.write("0.0,0.0,0.0,0.0\n")
        self.assertNotEqual(checks.numeric_digest(out), ref)


class Reproducibility(unittest.TestCase):
    class Flaky:
        """Operation whose output changes on its second call."""

        def __init__(self):
            self.calls = 0

        def operations(self):
            def op():
                self.calls += 1
                time.sleep(0.06)
                return 0.06, self.calls

            def verify(result):
                return [], "same" if result == 1 else "changed", None

            while True:
                yield "x", op, verify

    def test_changed_output_fails(self):
        ops = worker.run_operations(self.Flaky(), seconds=0.0, tracer=None)
        self.assertEqual(len(ops), 1)
        recs = worker.run_operations(self.Flaky(), seconds=0.2, tracer=None)
        self.assertTrue(recs[0]["ok"])
        self.assertFalse(recs[1]["ok"])

    def test_array_digest_is_bitwise(self):
        a = np.array([1.0, 2.0])
        self.assertEqual(checks.array_digest(a), checks.array_digest(a.copy()))
        self.assertNotEqual(checks.array_digest(a),
                            checks.array_digest(np.nextafter(a, 3.0)))


class TracerCheck(unittest.TestCase):
    def setUp(self):
        import wavekam.blockop  # noqa: F401
        import wavekam.cli  # noqa: F401

        self.t = tracer.Tracer().install()
        self.addCleanup(self.t.uninstall)

    def test_every_namespace_patched(self):
        import wavekam.blockop as blockop
        import wavekam.cli as cli
        import wavekam.hamiltonian as hamiltonian
        import wavekam.kam as kam
        import wavekam.regularization as regularization
        import wavekam.spectrum as spectrum

        for mod, name in ((blockop, "compose"), (hamiltonian, "compose"),
                          (kam, "operator_exponential"),
                          (kam, "smoothing_projector"), (kam, "push_forward")):
            self.assertTrue(hasattr(getattr(mod, name), "__wrapped__"),
                            f"{mod.__name__}.{name}")
        self.assertIs(cli.run_pipeline, regularization.run_pipeline)
        self.assertTrue(hasattr(cli.run_pipeline, "__wrapped__"))
        for name in ("kam_run", "measure_sweep", "classify_omega",
                     "evolve_original"):
            self.assertTrue(hasattr(getattr(cli, name), "__wrapped__"), name)
        self.assertTrue(hasattr(kam._melnikov_scan, "__wrapped__"))
        self.assertTrue(hasattr(spectrum.AngleFunction.eval_at, "__wrapped__"))
        self.assertEqual(self.t.missing, {})
        self.t.uninstall()
        self.assertFalse(hasattr(hamiltonian.compose, "__wrapped__"))
        self.assertFalse(hasattr(spectrum.AngleFunction.eval_at, "__wrapped__"))

    def test_self_time_and_outputs(self):
        from wavekam.hamiltonian import ExpMap
        from wavekam.spectrum import enumerate_clusters
        from wavekam.blockop import PairedBlockOperator

        lat = enumerate_clusters(2, 2)
        psi = PairedBlockOperator.identity(lat, 2, 2) * 0.01
        self.t.op = 0
        phi = ExpMap.from_generator(psi)
        self.t.uninstall()
        ref = ExpMap.from_generator(psi)
        self.assertEqual((phi.forward - ref.forward).decay_norm(0.0), 0.0)
        spans = [s for s in self.t.spans if s[4] == 0]
        names = [s[0] for s in spans]
        self.assertEqual(names[0], "hamiltonian.ExpMap.from_generator")
        self.assertIn("blockop.operator_exponential", names)
        metrics, info = self.t.report(1)
        top = spans[0]
        self.assertAlmostEqual(
            sum(metrics[f"{layer}.self_s"] for layer in tracer.SELF_LAYERS)
            + sum(s[2] - s[1] - s[5] for s in spans
                  if s[0].split(".")[0] not in tracer.SELF_LAYERS),
            top[2] - top[1], places=9)
        self.assertEqual(metrics["blockop.operator_exponential.calls"], 2)

    def test_renamed_target_is_missing_not_zero(self):
        self.t.uninstall()
        saved = tracer.EXTRA_TARGETS
        tracer.EXTRA_TARGETS = tuple(
            "kam._scan_renamed" if t == "kam._melnikov_scan" else t
            for t in saved)
        try:
            t = tracer.Tracer().install()
            t.uninstall()
        finally:
            tracer.EXTRA_TARGETS = saved
        metrics, info = t.report(1)
        for m in ("kam.melnikov_scan.s", "kam.melnikov_scan.ells"):
            self.assertIsNone(metrics[m])
            self.assertIn("_melnikov_scan", info["missing"][m])

    def test_ell_count(self):
        for n_cut, nu in ((0, 2), (1, 2), (2.5, 2), (23, 2), (4, 3), (5, 1)):
            r = int(math.floor(n_cut))
            grid = np.stack(np.meshgrid(*[np.arange(-r, r + 1)] * nu), -1)
            expected = int(np.sum(np.linalg.norm(grid.reshape(-1, nu), axis=1)
                                  <= n_cut))
            self.assertEqual(tracer.count_ells(n_cut, nu), expected)


class Definition(unittest.TestCase):
    def test_benchmark_json_names_the_printed_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"] for m in spec["end_to_end"]},
                         {"setup_s", "solve_s", "peak_rss_mb"})
        units = tracer.metric_units()
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, units)
        import run

        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(run.WORKLOADS))
        self.assertEqual(set(run.WORKLOADS), set(worker.WORKLOADS))

    def test_desk_problem_matches_acceptance_suite(self):
        tests = ROOT / "tests"
        if not (tests / "test_acceptance.py").is_file():
            self.skipTest("no acceptance suite in this tree")
        sys.path.insert(0, str(tests))
        try:
            import test_acceptance as acc
        finally:
            sys.path.remove(str(tests))
        np.testing.assert_array_equal(acc.OMEGA_REF, worker.OMEGA_REF)
        mine, theirs = worker.desk_problem(1e-3), acc.desk_problem(1e-3)
        for key in ("d", "nu", "epsilon", "j_max", "ell_max", "q", "M",
                    "gamma", "tau", "dd"):
            self.assertEqual(getattr(mine, key), getattr(theirs, key), key)
        np.testing.assert_array_equal(mine.a.coeffs, theirs.a.coeffs)
        for (b1, c1), (b2, c2) in zip(mine.rank_pairs, theirs.rank_pairs,
                                      strict=True):
            self.assertEqual(b1.to_rows(), b2.to_rows())
            self.assertEqual(c1.to_rows(), c2.to_rows())


if __name__ == "__main__":
    unittest.main()
