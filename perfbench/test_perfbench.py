"""Self-test of the benchmark, on its smoke configuration.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFINITIONS = json.loads((HERE / "metrics.json").read_text())
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def run_bench(workload, seed, trace=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0", "--trace",
         str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def run_ok(workload, seed, trace=0):
    """(stdout, last-line result, report file) of a run that must succeed."""
    proc = run_bench(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    report = json.loads((ROOT / ".perfbench_out" / (
        f"report-{workload}-seed{seed}-trace{trace}.json")).read_text())
    return proc.stdout, result, report


def behaviour(report):
    return [(p["workload"], p["fingerprint"], p["attempted"], p["failed"],
             p["searches_per_pass"], p["inputs_sha256"])
            for p in report["parts"]]


class SmokeRuns(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.stdout, *cls.first = run_ok("all", 0)
        _, *cls.second = run_ok("all", 0)
        _, *cls.other = run_ok("all", 1)

    def test_every_named_metric_is_printed_with_its_unit(self):
        result, _ = self.first
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        lines = self.stdout.splitlines()
        for d in DEFINITIONS["report"]:
            self.assertEqual(result["metrics"][d["name"]]["unit"], d["unit"])
            self.assertTrue(any(line.split()[:1] == [d["name"]]
                                and line.split()[-1] == d["unit"]
                                for line in lines), d["name"])

    def test_same_seed_gives_same_fingerprints_and_counts(self):
        self.assertEqual(behaviour(self.first[1]), behaviour(self.second[1]))
        self.assertEqual(self.first[0]["attempted"],
                         self.second[0]["attempted"])

    def test_other_seed_changes_the_generated_inputs(self):
        for mine, theirs in zip(self.first[1]["parts"],
                                self.other[1]["parts"]):
            self.assertNotEqual(mine["inputs_sha256"],
                                theirs["inputs_sha256"], mine["workload"])


class ContractOutput(unittest.TestCase):

    def test_untraced_line_carries_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            _, result, _ = run_ok(workload, 0)
            self.assertTrue(result["correct"], workload)
            self.assertGreaterEqual(result["attempted"], 1)
            expected = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, expected, workload)
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, (workload, name))

    def test_traced_line_carries_every_layer_metric_and_full_coverage(self):
        _, result, report = run_ok("all", 0, trace=1)
        self.assertTrue(result["correct"])
        self.assertEqual(report["coverage_gaps"], {})
        expected = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, expected)
        for part in report["parts"]:
            self.assertTrue(part["trace_overhead"], part["workload"])

    def test_refuses_to_run_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, tmp / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench(WORKLOADS[0], 0, cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


class Definitions(unittest.TestCase):

    def test_benchmark_json_matches_the_metric_definitions(self):
        layers = [{k: d[k] for k in ("name", "unit", "better")}
                  for d in DEFINITIONS["per_layer"]]
        self.assertEqual(CONTRACT["per_layer"], layers)
        contract = {m["name"] for m in CONTRACT["end_to_end"]}
        carried = {d["contract"] for d in DEFINITIONS["report"]
                   if d["contract"]}
        self.assertEqual(carried, contract)
        for d in DEFINITIONS["per_layer"]:
            self.assertTrue(set(d["on"]) <= set(WORKLOADS), d["name"])


if __name__ == "__main__":
    unittest.main()
