#!/usr/bin/env python3
"""Smoke check of the benchmark: every workload at toy size, untraced and traced.

    python3 bench/smoke.py

Asserts that each run exits 0 with correct outputs, that its JSON line holds
exactly the metrics BENCHMARK.json names for that mode, and that every other
metric the report promises is printed with its unit. Takes under a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (pins BLAS threads; imports no numpy)


def main() -> int:
    spec = run.SPEC
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected, extra in (
            (0, end_to_end, dict(run.END_TO_END_EXTRA)),
            (1, per_layer, dict(run.PER_LAYER_EXTRA)),
        ):
            argv = [
                sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                "--seed", "5", "--seconds", "1", "--trace", str(trace), "--toy",
            ]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=180)
            label = f"{workload} --trace {trace}"
            assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
            assert result["correct"] and result["failed"] == 0, f"{label}: {proc.stderr}"
            assert result["attempted"] >= 1, label
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, f"{label}: metrics {sorted(set(got) ^ set(expected))}"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), f"{label}: {name}"
            printed = {line.split()[0]: line.split()[2] for line in lines[2:-1]}
            for name, unit in {**expected, **extra}.items():
                if name == "generate_s" and workload != "fit-large":
                    continue  # only fit-large runs `generate`
                assert printed.get(name) == unit, f"{label}: {name} not printed in {unit}"
            print(f"ok  {label}: {len(got)} metrics, {result['attempted']} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
