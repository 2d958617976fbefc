#!/usr/bin/env python3
"""discwave benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

One workload in this process:

    python3 bench/run.py --workload certify --seed 3 --seconds 30 --trace 0

runs the workload's CLI chain in-process through `discwave.cli.main` for
--seconds, checks every output, prints each metric with its unit and ends
with one JSON line {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics of an untraced run. --trace 1 runs untraced
for the first half of the time and traced for the second, and reports the
per-layer metrics and the tracing overhead between the two halves.

Every workload, each in a fresh process, untraced then traced:

    python3 bench/run.py [--seed N] [--seconds S]

writes bench/out/results.json. bench/README.md describes the metrics.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is first imported, here or in a child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"

SETUP_REPEATS = 3
MAX_PRINTED_PROBLEMS = 20
MIN_ITERATIONS = 2  # the artifact comparison needs a second iteration
BATCH_SECONDS = 0.25  # a command faster than this is timed in batches this long
REPEAT_SHARE = 0.15  # share of a chain pass spent on batches of each cheap command
DEFAULT_SECONDS = 30

# Metric names, units and bounds are those of BENCHMARK.json: its
# end_to_end metrics make the JSON line of --trace 0, its per_layer ones
# that of --trace 1. The *_EXTRA metrics are printed and written to the
# report but left out of the JSON line.
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
# generate_s exists on fit-large only; basis_s had the widest run-to-run
# spread of every time metric (up to 0.23 against the 0.25 cap on bounds);
# test_error and ops_failed can be exactly 0 (ops_failed is also carried by
# "failed"/"attempted").
END_TO_END_EXTRA = (
    ("generate_s", "s"), ("basis_s", "s"), ("test_error", "fraction"),
    ("ops_failed", "fraction"),
)
# Each is a time that is exactly 0 on a workload that never makes the call.
PER_LAYER_EXTRA = (
    ("datasets.save_csv_s", "s"),
    ("datasets.generate_s", "s"),
    ("transform.save_features_s", "s"),
    ("evaluation.permutation_test_s", "s"),
    ("evaluation.one_against_one_s", "s"),
    ("evaluation.fit_raw_psvm_s", "s"),
    ("core.make_rng_s", "s"),
    ("cli.generate_self_s", "s"),
)

LAYERS = ("datasets", "solver", "transform", "evaluation", "core", "cli")
# Calls too frequent for one span each: aggregated into counts and times.
HOT = (
    "core.make_rng", "core.validate_labels", "core.index_window", "core.split",
    "core.interleave", "core.is_power_of_two",
    "datasets.shape_envelope", "datasets.waveform_mixture",
    "datasets.h1", "datasets.h2", "datasets.h3",
    "solver.solve", "solver.solve_regularised", "solver.solve_nonregularised",
    "solver.solve_constrained", "solver.smw_solve", "solver.vandermonde_constraints",
    "solver.window_knots",
    "evaluation.predict_values", "evaluation.classifier_values",
    "evaluation.fit_threshold", "evaluation.psvm_predict",
)
SOLVE_ENTRIES = (
    "solver.solve", "solver.solve_regularised", "solver.solve_nonregularised",
    "solver.solve_constrained",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default=None, help="one workload; default: all, in subprocesses")
    p.add_argument("--seed", type=int, default=1, help="seed of the generated inputs (>= 0)")
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="tiny inputs, for the smoke check")
    p.add_argument("--prepare", default=None, help=argparse.SUPPRESS)  # set-up child: input dir
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def summarise(samples) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n, "tail": None}
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            out["tail"] = {"percentile": p, "value": xs[math.ceil(p / 100.0 * n) - 1]}
            break
    return out


# ---------------------------------------------------------------- tracing


def make_tracer():
    from discwave import cli, core, datasets, evaluation, solver, transform
    from tracing import Tracer

    modules = dict(zip(LAYERS, (datasets, solver, transform, evaluation, core, cli)))
    tracer = Tracer(modules, hot=HOT)

    def solve_hook(tr, arguments, result, seconds, outer):
        if not outer:  # solve_constrained -> solve_nonregularised is one solve
            return
        problem = arguments["problem"]
        l, cols = problem.A.shape
        if problem.variant == "regularised":
            r = cols + 1
        elif problem.B is not None:
            r = cols - problem.B.shape[0]
        else:
            r = cols
        tr.counters["solver.solve_calls"] += 1
        tr.counters["solver.solve_s"] += seconds
        tr.counters["solver.gram_flops"] += 2 * l * r * r  # computed: H^T H with H l x r
        tr.counters["solver.bytes_in"] += 8 * l * (cols + 1)  # computed: A and labels

    def load_csv_hook(tr, arguments, result, seconds, outer):
        if result is not None:
            labels = 0 if result.class_ids is None else result.class_ids.size
            tr.counters["datasets.load_csv_cells"] += result.signals.size + labels

    def permutation_hook(tr, arguments, result, seconds, outer):
        tr.counters["evaluation.permutations_drawn"] += int(arguments["B"])

    for key in SOLVE_ENTRIES:
        tracer.on_call(key, solve_hook)
    tracer.on_call("datasets.load_csv", load_csv_hook)
    tracer.on_call("evaluation.permutation_test", permutation_hook)
    return tracer


def layer_metrics(tracer) -> dict:
    """Every per-layer metric (reported and extra) of the calls since `reset`."""
    from workloads import COMMANDS

    inc, calls, c = tracer.inclusive, tracer.calls, tracer.counters
    solve_calls = c["solver.solve_calls"]
    m = {
        "datasets.load_csv_s": inc["datasets.load_csv"],
        "datasets.load_csv_cells": c["datasets.load_csv_cells"],
        "datasets.save_csv_s": inc["datasets.save_csv"],
        "datasets.generate_s": inc["datasets.generate_shape"] + inc["datasets.generate_waveform"],
        "transform.save_model_s": inc["transform.save_model"],
        "transform.load_model_s": inc["transform.load_model"],
        "transform.save_features_s": inc["transform.save_features"],
        "transform.fit_calls": calls["transform.fit"],
        "transform.fit_s": inc["transform.fit"],
        "transform.fit_self_s": inc["transform.fit"] - tracer.solver_in["transform.fit"],
        "transform.apply_calls": calls["transform.apply"],
        "transform.apply_s": inc["transform.apply"],
        "transform.reconstruct_s": inc["transform.reconstruct"],
        "transform.base_vectors_s": inc["transform.base_vectors"],
        "solver.solve_calls": solve_calls,
        "solver.solve_s": c["solver.solve_s"],
        "solver.solve_us_per_call": 1e6 * c["solver.solve_s"] / solve_calls if solve_calls else 0.0,
        "solver.gram_flops": c["solver.gram_flops"],
        "solver.bytes_in": c["solver.bytes_in"],
        "evaluation.permutation_test_calls": calls["evaluation.permutation_test"],
        "evaluation.permutation_test_s": inc["evaluation.permutation_test"],
        "evaluation.permutations_drawn": c["evaluation.permutations_drawn"],
        "evaluation.make_local_classifiers_s": inc["evaluation.make_local_classifiers"],
        "evaluation.vote_s": inc["evaluation.vote"],
        "evaluation.one_against_one_s": inc["evaluation.one_against_one"],
        "evaluation.fit_raw_psvm_s": inc["evaluation.fit_raw_psvm"],
        "core.make_rng_calls": calls["core.make_rng"],
        "core.make_rng_s": inc["core.make_rng"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = tracer.layer_self[layer]
    for command in COMMANDS:  # CLI code outside every wrapped call, per command
        m[f"cli.{command}_self_s"] = tracer.command_self[command]["cli"]
    return m


# ---------------------------------------------------------------- one workload


class Run:
    """One workload in this process: set-up, timed chain passes, output checks."""

    def __init__(self, args):
        import workloads

        self.args = args
        self.workload = workloads.WORKLOADS[args.workload]
        self.work = OUT / f"work-{args.workload}-{os.getpid()}"
        self.inputs = workloads.Inputs(self.workload, args.seed, args.toy, self.work / "inputs")
        self.iter_dir = self.work / "iteration"
        self.iterations = []  # per chain pass: {command: seconds, "pipeline": seconds}
        self.samples = {}  # command: seconds per execution, one per batch
        self.batch = {}  # command: executions per batch
        self.attempted = 0  # command executions
        self.last = {}  # command: index of its latest execution
        self.failed = set()  # indices of failed executions
        self.problems = []
        self.reference = {}  # command: artifact digests of its first execution

    def fail(self, n, command, message) -> None:
        self.problems.append(f"{command} (execution {n}): {message}")
        self.failed.add(n)

    def setup(self) -> list:
        """Seconds for each of SETUP_REPEATS fresh interpreters to import
        discwave and numpy and write the seeded inputs."""
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--prepare", str(self.inputs.root),
            "--workload", self.workload.name, "--seed", str(self.args.seed),
        ] + (["--toy"] if self.args.toy else [])
        samples = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
            samples.append(time.perf_counter() - t0)
        return samples

    def run_command(self, command, argv, tracer=None) -> float:
        """Run one CLI command in-process, time it, then check its outputs."""
        from discwave import cli

        n = self.attempted
        self.attempted += 1
        shutil.rmtree(self.iter_dir / command, ignore_errors=True)
        if tracer is not None:
            tracer.command = command
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
            except Exception:  # noqa: BLE001 - a crash fails the command, not the benchmark
                traceback.print_exc()
                code = None
        seconds = time.perf_counter() - t0
        self.last[command] = n
        if code != 0:
            self.fail(n, command, f"exited {code}: {buf.getvalue()[-2000:]}")
        self.check_command(n, command)
        return seconds

    def iteration(self, tracer=None, repeat=False) -> None:
        """One pass of the chain. With `repeat`, also time every command that
        takes under BATCH_SECONDS in batches of that length, whose mean per
        execution is one sample, so cheap commands get steady samples."""
        import workloads

        shutil.rmtree(self.iter_dir, ignore_errors=True)
        steps = workloads.chain(self.inputs, self.iter_dir)
        times = {command: self.run_command(command, argv, tracer) for command, argv in steps}
        times["pipeline"] = sum(times.values())
        self.iterations.append(times)
        if not repeat:
            return
        for command, argv in steps:
            size = self.batch.setdefault(command, max(1, round(BATCH_SECONDS / times[command])))
            if size == 1:
                self.samples.setdefault(command, []).append(times[command])
                continue
            batches = max(1, int(REPEAT_SHARE * times["pipeline"] / (size * times[command])))
            for _ in range(batches):
                mean = statistics.fmean(self.run_command(command, argv) for _ in range(size))
                self.samples.setdefault(command, []).append(mean)

    def check_command(self, n, command) -> None:
        """Outputs equal the first execution's byte for byte, p-values included."""
        import workloads

        found = workloads.digests(self.iter_dir / command)
        reference = self.reference.setdefault(command, found)
        if reference is found:
            for message in workloads.check_first(command, self.inputs, self.iter_dir):
                self.fail(n, command, message)
        elif found != reference:
            differ = sorted(k for k in found.keys() | reference.keys()
                            if found.get(k) != reference.get(k))
            self.fail(n, command, f"{', '.join(differ)} differ from the first execution")

    def check_outputs(self) -> float:
        """Checks on the last fit's model and basis; returns the test error."""
        import workloads

        for command, check in (
            ("fit", workloads.check_weights), ("fit", workloads.check_reconstruct),
            ("basis", workloads.check_basis),
        ):
            try:
                messages = check(self.inputs, self.iter_dir)
            except Exception as exc:  # noqa: BLE001 - a missing or broken artifact fails it
                messages = [f"check raised {exc!r}"]
            for message in messages:
                self.fail(self.last[command], command, message)
        try:
            return workloads.test_error(self.inputs, self.iter_dir)
        except (OSError, KeyError, ValueError) as exc:
            self.fail(self.last["eval"], "eval", f"no test error ({exc!r})")
            return float("nan")

    def timed(self, deadline, minimum, tracer=None, after=None, repeat=False) -> list:
        """Run iterations until the next would end after `deadline`, and at
        least `minimum` of them; returns their pipeline seconds."""
        first = len(self.iterations)
        walls = []
        while True:
            t0 = time.perf_counter()
            if tracer is not None:
                tracer.reset()
            self.iteration(tracer, repeat)
            if after is not None:
                after()
            walls.append(time.perf_counter() - t0)
            if len(walls) >= minimum and time.perf_counter() + statistics.median(walls) > deadline:
                return [times["pipeline"] for times in self.iterations[first:]]

    def untraced(self, start, setup) -> dict:
        pipelines = self.timed(start + self.args.seconds, MIN_ITERATIONS, repeat=True)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        error = self.check_outputs()
        samples = {"pipeline_s": pipelines, "setup_s": setup}
        samples.update((f"{command}_s", xs) for command, xs in self.samples.items())
        summaries = {name: summarise(xs) for name, xs in samples.items()}
        values = {name: s["median"] for name, s in summaries.items()}
        values.update(
            peak_rss_mb=rss_mb, test_error=error, ops_failed=len(self.failed) / self.attempted
        )
        return {"summaries": summaries, "values": values}

    def traced(self, start) -> dict:
        untraced = self.timed(start + self.args.seconds / 2, 1)
        tracer = make_tracer()
        per_iteration, spans = [], []

        def collect():
            per_iteration.append(layer_metrics(tracer))
            if not spans:
                spans.extend(tracer.spans)

        tracer.install()
        try:
            traced = self.timed(start + self.args.seconds, 1, tracer, collect)
        finally:
            tracer.uninstall()
        self.check_outputs()
        values = {
            name: statistics.median(it[name] for it in per_iteration)
            if isinstance(value, float)
            else statistics.median_low(it[name] for it in per_iteration)
            for name, value in per_iteration[0].items()
        }
        values["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced) / statistics.median(untraced) - 1.0
        )
        OUT.mkdir(exist_ok=True)
        (OUT / f"spans-{self.workload.name}-seed{self.args.seed}.json").write_text(json.dumps(
            {"fields": ["id", "parent", "name", "start", "end", "command"], "spans": spans}
        ))
        return {
            "values": values, "untraced_pipeline_s": untraced, "traced_pipeline_s": traced,
            "per_iteration": per_iteration,
        }

    def execute(self) -> dict:
        setup = self.setup()
        start = time.perf_counter()
        if self.args.trace:
            result = self.traced(start)
            reported, extra = SPEC["per_layer"], PER_LAYER_EXTRA
        else:
            result = self.untraced(start, setup)
            reported, extra = SPEC["end_to_end"], END_TO_END_EXTRA
        values = result.pop("values")
        return {
            "workload": self.workload.name, "seed": self.args.seed,
            "seconds": self.args.seconds, "trace": self.args.trace, "toy": self.args.toy,
            "environment": environment(), "iterations": self.iterations,
            "problems": self.problems,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in reported},
            "extra_metrics": {n: {"value": values[n], "unit": u} for n, u in extra if n in values},
            **result,
        }


def run_one(args) -> int:
    run = Run(args)
    try:
        report = run.execute()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    OUT.mkdir(exist_ok=True)
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(run.iterations)} iterations")
    print(f"  environment: {json.dumps(report['environment'])}")
    summaries = report.get("summaries", {})
    for name, entry in {**report["metrics"], **report["extra_metrics"]}.items():
        line = f"  {name:<38} {entry['value']:.6g} {entry['unit']}"
        s = summaries.get(name)
        if s is not None:
            tail = "no percentile has >= 10 samples beyond it"
            if s["tail"]:
                tail = f"p{s['tail']['percentile']:g} {s['tail']['value']:.6g} {entry['unit']}"
            line += f" (median of {s['n']}; {tail})"
        print(line)
    for problem in run.problems[:MAX_PRINTED_PROBLEMS]:
        print(f"  CHECK FAILED: {problem}", file=sys.stderr)
    if len(run.problems) > MAX_PRINTED_PROBLEMS:
        print(f"  ... {len(run.problems) - MAX_PRINTED_PROBLEMS} more in the report",
              file=sys.stderr)
    correct = not run.failed
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failed),
        "metrics": report["metrics"],
    }))
    return 0 if correct else 1


# ---------------------------------------------------------------- all workloads


def run_all(args) -> int:
    from workloads import WORKLOADS

    results, status = {}, 0
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ] + (["--toy"] if args.toy else [])
            code = subprocess.run(argv).returncode
            status = status or code
            path = OUT / f"report-{name}-seed{args.seed}-trace{trace}.json"
            results.setdefault(name, {})[f"trace{trace}"] = (
                json.loads(path.read_text()) if code == 0 and path.exists() else None
            )
    doc = {
        "seed": args.seed,
        "seconds": args.seconds,
        "toy": args.toy,
        "thread_pinning": {var: os.environ[var] for var in THREAD_VARS},
        "environment": environment(),
        **{key: SPEC[key] for key in ("workloads", "end_to_end", "per_layer")},
        "results": results,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / "results.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {OUT / 'results.json'}; exit status {status}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "discwave" / "__init__.py").is_file():
        print(f"error: discwave sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.prepare:
        workloads.prepare(workloads.Inputs(
            workloads.WORKLOADS[args.workload], args.seed, args.toy, Path(args.prepare)
        ))
        return 0
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
