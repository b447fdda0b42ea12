"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

A one-round smoke run of every workload, untraced and traced (on
rum-solve the LP solver has the largest self time, on rum-wide there is
no LP solve), a run without the program (it must fail without a
result), and negative tests of the answer checker: a scalar off by
1/1000, an altered tag or a changed certificate must each count as a
failed op.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction as F

from check import check_op
from harness import Harness, decode
from run import HERE, ROOT, load_nrb
from workloads import WORKLOADS

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TMP = ROOT / ".perfbench_tmp" / "selftest"


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class SmokeRuns(unittest.TestCase):
    def test_each_workload_one_round(self):
        names = {m["name"] for m in BENCHMARK["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                out = _run("--workload", workload, "--seed", "0",
                           "--seconds", "0.1", "--trace", "0")
                self.assertEqual(out.returncode, 0, out.stderr)
                result = json.loads(out.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], out.stderr)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result["metrics"]), names)

    def test_traced_runs_report_every_layer_metric(self):
        names = {m["name"] for m in BENCHMARK["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                out = _run("--workload", workload, "--seed", "0",
                           "--seconds", "0.1", "--trace", "1")
                self.assertEqual(out.returncode, 0, out.stderr)
                result = json.loads(out.stdout.strip().splitlines()[-1])
                self.assertTrue(result["correct"], out.stderr)
                self.assertEqual(set(result["metrics"]), names)
                value = {k: m["value"] for k, m in result["metrics"].items()}
                self_ms = {k: v for k, v in value.items() if k.endswith("_ms")}
                if workload == "credal-pool":
                    self.assertGreater(value["simplex.solve_calls"], 0)
                elif workload == "rum-solve":
                    self.assertEqual(max(self_ms, key=self_ms.get),
                                     "simplex.solve_self_ms")
                else:
                    self.assertEqual(value["simplex.solve_calls"], 0)

    def test_fails_without_the_program(self):
        shutil.rmtree(TMP, ignore_errors=True)
        try:
            TMP.mkdir(parents=True)
            shutil.copy(ROOT / "BENCHMARK.json", TMP)
            shutil.copytree(HERE, TMP / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = _run("--workload", "rum-wide", "--seed", "0",
                       "--seconds", "1", "--trace", "0", cwd=TMP)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)
        finally:
            shutil.rmtree(TMP, ignore_errors=True)


class CheckerCatchesWrongAnswers(unittest.TestCase):
    """Each case runs one real operation, then corrupts its report."""

    @classmethod
    def setUpClass(cls):
        cls.nrb = load_nrb()
        cls.expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
        cls.bench = Harness(cls.nrb, TMP / "checker", cls.expected)
        cls.instances = {}
        for workload in ("credal-pool", "rum-solve"):
            cls.instances.update(cls.bench.prepare(workload))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(TMP, ignore_errors=True)

    def _run_op(self, key, op):
        stratum, index = key.split("/")
        inst = self.instances[(stratum, int(index))]
        code, report = self.bench.execute(inst, op)
        return inst, code, decode(report)

    def _problems(self, inst, op, code, report):
        return check_op(inst.doc, inst.levels, op, code, report,
                        self.expected["ops"][f"{inst.key}/{op}"])

    def test_untouched_reports_pass(self):
        for key, op in (("credal-5/0", "distance"), ("rum-3-random/0", "rum-check-lo"),
                        ("pool-6/0", "check-c-lo"), ("rum-3-near/0", "rum-residual")):
            inst, code, report = self._run_op(key, op)
            self.assertEqual(self._problems(inst, op, code, report), [], f"{key}/{op}")

    def test_scalar_off_by_a_thousandth_fails(self):
        for key, op, field in (("credal-5/0", "distance", "value"),
                               ("rum-3-random/0", "rum-min-eps", "epsilon_min"),
                               ("pool-4/0", "pool-genest", "epsilon_min")):
            inst, code, report = self._run_op(key, op)
            report[field] = str(F(report[field]) + F(1, 1000))
            self.assertTrue(self._problems(inst, op, code, report), f"{key}/{op}")

    def test_altered_tag_fails(self):
        inst, code, report = self._run_op("rum-3-random/0", "rum-check-lo")
        self.assertEqual(report["verdict"], "violated")
        tags = report["certificate"]["tags"]
        first = sorted(tags)[0]
        tags[first] += 1
        self.assertTrue(self._problems(inst, "rum-check-lo", code, report))

    def test_changed_certificate_fails(self):
        inst, code, report = self._run_op("pool-6/0", "check-c-lo")
        self.assertEqual(report["verdict"], "violated")
        bad = copy.deepcopy(report)
        bad["certificate"]["f"][0] = str(F(bad["certificate"]["f"][0]) + 1)
        self.assertTrue(self._problems(inst, "check-c-lo", code, bad))
        inst, code, report = self._run_op("credal-5/0", "distance")
        bad = copy.deepcopy(report)
        stakes = bad["representation"]["stakes"]
        stakes[0] = str(F(stakes[0]) + 3)
        self.assertTrue(self._problems(inst, "distance", code, bad))

    def test_wrong_exit_code_fails(self):
        inst, code, report = self._run_op("credal-5/0", "gordan-lo")
        self.assertTrue(self._problems(inst, "gordan-lo", 0, report))


if __name__ == "__main__":
    unittest.main()
