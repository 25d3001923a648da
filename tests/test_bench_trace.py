"""The benchmark's traced run must stay clean on the current kernel.

bench/tracer.py wraps named kernel functions and reports a problem when a
workload stops calling one of them (for example Scalar.__mul__ in
charp-powers).  A kernel change that routes around those functions breaks
the per-layer metrics; this test catches it in the ordinary test run.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "bench", "worker.py")


@pytest.mark.skipif(not os.path.exists(WORKER), reason="bench/worker.py is absent")
@pytest.mark.parametrize("workload", ["charp-powers", "cli-mix", "cylinder"])
def test_traced_run_has_no_problems(workload):
    proc = subprocess.run(
        [sys.executable, WORKER, "--workload", workload, "--seed", "1", "--trace"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["problems"] == []
    assert result["failed"] == 0, result["reasons"]
