#!/usr/bin/env python3
"""The benchmark's own test: smoke mode on tiny inputs.

    python3 perfbench/test_run.py

Runs every workload once, traced and untraced, and fails unless every
metric of BENCHMARK.json is emitted with its unit, every output check
passes, and BENCHMARK.json matches the tables in run.py.
"""

import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent


class SmokeTest(unittest.TestCase):
    def test_smoke_mode_emits_every_metric(self):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--smoke"],
            cwd=HERE.parent, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(proc.stdout.strip().splitlines()[-1],
                         "perfbench smoke: ok")


if __name__ == "__main__":
    unittest.main()
