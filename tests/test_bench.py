"""The benchmark runs each workload at toy size and passes its own output checks.

This pins the package surface that `bench/` imports (dataset and model I/O,
the CLI) and the benchmark's byte-identity, oracle and round-trip checks.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


@pytest.mark.parametrize("workload", ["fit-large", "certify", "multiclass"])
def test_bench_workload_is_correct_at_toy_size(workload):
    argv = [
        sys.executable, str(RUN), "--workload", workload,
        "--toy", "--seconds", "1", "--trace", "0",
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
