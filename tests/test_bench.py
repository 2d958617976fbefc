"""The benchmark runs each workload at toy size and passes its own output checks.

This pins the package surface that `bench/` imports (dataset and model I/O,
the CLI) and the benchmark's byte-identity, oracle and round-trip checks.
Each workload runs untraced and traced: only the traced run binds the
arguments of the wrapped package functions by name, e.g. `solver.solve`'s
`problem`.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


CASES = [
    pytest.param(workload, trace, id=workload + ("-traced" if trace else ""))
    for trace in (0, 1)
    for workload in ("fit-large", "certify", "multiclass")
]


@pytest.mark.parametrize("workload, trace", CASES)
def test_bench_workload_is_correct_at_toy_size(workload, trace):
    argv = [
        sys.executable, str(RUN), "--workload", workload,
        "--toy", "--seconds", "1", "--trace", str(trace),
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
