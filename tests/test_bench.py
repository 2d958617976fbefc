"""The benchmark runs each workload at toy size and passes its own output checks.

This pins the package surface that `bench/` imports (dataset and model I/O,
the CLI) and the benchmark's byte-identity, oracle and round-trip checks.
Each workload runs untraced and traced: only the traced run binds the
arguments of the wrapped package functions by name, e.g. `solver.solve`'s
`problem`.

The harness writes its reports into `out/` beside itself, so each run works
on a copy of `bench/` in a temporary directory, next to a link to `src/`,
and leaves the reports of the checkout alone.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


CASES = [
    pytest.param(workload, trace, id=workload + ("-traced" if trace else ""))
    for trace in (0, 1)
    for workload in ("fit-large", "certify", "multiclass")
]


@pytest.mark.parametrize("workload, trace", CASES)
def test_bench_workload_is_correct_at_toy_size(tmp_path, workload, trace):
    (tmp_path / "bench").mkdir()
    for script in (ROOT / "bench").glob("*.py"):
        shutil.copy(script, tmp_path / "bench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    argv = [
        sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", workload,
        "--toy", "--seconds", "1", "--trace", str(trace),
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
