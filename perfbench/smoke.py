"""Smoke tests of the benchmark itself, on the tiny tree; seconds each.

Run from the repository root::

    python3 perfbench/smoke.py            # or: python3 -m pytest perfbench/smoke.py

* every workload runs and prints every named metric with its unit;
* an armed journal failpoint shows up in ``failed_frac`` and the
  benchmark still finishes;
* a tampered decision sequence or recovered state fails its check.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spec  # noqa: E402
from common import ROOT  # noqa: E402

SECONDS = "2"


def run_bench(*args: str) -> tuple:
    """Run the benchmark command; returns (exit code, report, result line)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "tiny", "--seconds", SECONDS, *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    report = next(json.loads(l)["report"] for l in lines if l.startswith('{"report"'))
    return proc.returncode, report, json.loads(lines[-1]), proc.stdout


class EveryWorkloadReports(unittest.TestCase):
    def test_untraced_metrics(self) -> None:
        for workload in spec.WORKLOADS:
            with self.subTest(workload=workload):
                code, report, line, stdout = run_bench("--workload", workload, "--trace", "0")
                self.assertEqual(code, 0, stdout)
                self.assertTrue(line["correct"])
                self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
                self.assertEqual(set(line["metrics"]), set(spec.GATED))
                for name, entry in line["metrics"].items():
                    self.assertEqual(entry["unit"], spec.GATED[name][0])
                    self.assertIn(f"  {name} = ", stdout)
                for name in ("failed_frac", "reject_frac"):
                    self.assertIn(name, report["metrics"])
                if workload == "churn-fsync":
                    self.assertIn("resize_p50_ms", report["metrics"])
                    self.assertIn("recovery_s", report["metrics"])

    def test_traced_metrics(self) -> None:
        for workload in spec.WORKLOADS:
            with self.subTest(workload=workload):
                code, report, line, stdout = run_bench("--workload", workload, "--trace", "1")
                self.assertEqual(code, 0, stdout)
                self.assertEqual(set(line["metrics"]), set(spec.PER_LAYER))
                self.assertLessEqual(
                    line["metrics"]["trace.unattributed_share"]["value"],
                    spec.UNATTRIBUTED_BOUND,
                )


class FailpointShowsUp(unittest.TestCase):
    def test_journal_errors_count_as_failed(self) -> None:
        code, report, line, stdout = run_bench(
            "--workload", "churn-fsync", "--failpoints", "journal.write=error:p=0.05"
        )
        self.assertIn(code, (0, 1), stdout)
        self.assertGreater(line["failed"], 0)
        if line["correct"]:
            self.assertGreater(report["metrics"]["failed_frac"], 0.0)


class TamperingIsCaught(unittest.TestCase):
    def test_tampered_decision_fails(self) -> None:
        decisions = [["admitted", 1], ["rejected", None], ["admitted", 3]]
        self.assertTrue(checks.decisions_match(decisions, [list(d) for d in decisions]).ok)
        tampered = [list(d) for d in decisions]
        tampered[1] = ["admitted", 2]
        self.assertFalse(checks.decisions_match(decisions, tampered).ok)

    def test_tampered_recovery_fails(self) -> None:
        level = {"level": 0, "label": "machine", "links": 16, "mean_occupancy": 0.25,
                 "max_occupancy": 0.5}
        state = {"active_tenancies": 3, "slots": {"used": 12},
                 "occupancy": {"by_level": [level]}}
        self.assertTrue(all(c.ok for c in checks.recovery_matches(state, state, [1, 2, 3], [1, 2, 3])))
        lost = json.loads(json.dumps(state))
        lost["occupancy"]["by_level"][0]["mean_occupancy"] = 0.2
        self.assertFalse(all(c.ok for c in checks.recovery_matches(state, lost, [1, 2, 3], [1, 2, 3])))
        self.assertFalse(all(c.ok for c in checks.recovery_matches(state, state, [1, 2, 3], [1, 2])))


if __name__ == "__main__":
    unittest.main()
