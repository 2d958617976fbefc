"""Seeded workloads of the discwave benchmark: inputs, CLI chains, output checks.

Each workload is a chain of `discwave` subcommands (fit, eval, basis, with
generate first on fit-large) over shape-cbf data drawn from the run's seed.
`prepare` writes the seeded input CSVs; `chain` lists the argv of every
command of one pass; `check_*` verify what the commands wrote. Every command
writes into its own directory under the pass directory, so an artifact
belongs to exactly one command.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from discwave import datasets, solver, transform as tf
from discwave.core import NONREGULARISED, index_window, split

COMMANDS = ("generate", "fit", "eval", "basis")  # in chain order
TEST_SEED_OFFSET = 1_000_000  # test data come from seed + offset, never overlapping train
PERMUTATION_SEED = 7
RECONSTRUCT_RTOL = 1e-9
WEIGHTS_RTOL = 1e-8
ORACLE_MAX_EXAMPLES = 2000  # solver.kkt_oracle refuses larger problems
BIORTHOGONALITY_ATOL = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    train_per_class: int
    test_per_class: int
    toy_train_per_class: int
    toy_test_per_class: int
    fit_args: tuple
    eval_args: tuple
    multiclass: bool = False  # eval on all three classes; model fit on pair (1, 2)
    permutations: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fit-large",
            train_per_class=2000,
            test_per_class=500,
            toy_train_per_class=40,
            toy_test_per_class=20,
            fit_args=("--window", "8", "--nu", "1.0", "--levels", "4"),
            eval_args=("--top-t", "3,15"),
        ),
        Workload(
            name="certify",
            train_per_class=200,
            test_per_class=500,
            toy_train_per_class=20,
            toy_test_per_class=20,
            fit_args=(
                "--window", "4", "--nu", "1.0", "--levels", "3",
                "--variant", "regularised",
            ),
            eval_args=("--top-t", "3,15"),
            permutations=999,
        ),
        Workload(
            name="multiclass",
            train_per_class=500,
            test_per_class=200,
            toy_train_per_class=20,
            toy_test_per_class=10,
            fit_args=(
                "--window", "8", "--nu", "1.0", "--levels", "4",
                "--constraint-degree", "2",
            ),
            eval_args=("--top-t", "3,15", "--raw-baseline"),
            multiclass=True,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Paths and sizes of one workload's prepared input CSVs."""

    workload: Workload
    seed: int
    toy: bool
    root: Path

    @property
    def train_per_class(self) -> int:
        w = self.workload
        return w.toy_train_per_class if self.toy else w.train_per_class

    @property
    def test_per_class(self) -> int:
        w = self.workload
        return w.toy_test_per_class if self.toy else w.test_per_class

    @property
    def permutations(self) -> int:
        # 100 is the smallest count the CLI accepts.
        return min(self.workload.permutations, 100) if self.toy else self.workload.permutations

    @property
    def train_all(self) -> Path:
        """Three-class training CSV (multiclass only)."""
        return self.root / "train_all.csv"

    @property
    def train_pair(self) -> Path:
        """Classes 1 and 2 of the training set: what `fit` learns from."""
        return self.root / "train_pair.csv"

    @property
    def test(self) -> Path:
        """Held-out CSV: pair (1, 2) for binary workloads, all classes otherwise."""
        return self.root / "test.csv"


def prepare(inputs: Inputs) -> None:
    """Generate and write the workload's seeded input CSVs."""
    inputs.root.mkdir(parents=True, exist_ok=True)
    train = datasets.generate_shape(
        datasets.ShapeSpec(per_class_count=inputs.train_per_class, seed=inputs.seed)
    )
    test = datasets.generate_shape(
        datasets.ShapeSpec(
            per_class_count=inputs.test_per_class, seed=inputs.seed + TEST_SEED_OFFSET
        )
    )
    if inputs.workload.multiclass:
        datasets.save_csv(train, inputs.train_all)
    else:
        test = test.restrict_pair(1, 2)
    datasets.save_csv(train.restrict_pair(1, 2), inputs.train_pair)
    datasets.save_csv(test, inputs.test)


def chain(inputs: Inputs, out: Path) -> list:
    """(command, argv) for one iteration; every command writes under out/<command>/."""
    w = inputs.workload
    model = str(out / "fit" / "model.json")
    steps = []
    fit = ["fit", "--train", str(inputs.train_pair), *w.fit_args, "--out-model", model]
    if w.name == "fit-large":
        steps.append((
            "generate",
            [
                "generate", "--generator", "shape-cbf",
                "--per-class", str(inputs.train_per_class), "--seed", str(inputs.seed),
                "--out", str(out / "generate" / "train.csv"),
            ],
        ))
        fit += ["--out-features", str(out / "fit" / "features.csv")]
    eval_train = inputs.train_all if w.multiclass else inputs.train_pair
    ev = [
        "eval", "--model", model, "--train", str(eval_train), "--test", str(inputs.test),
        *w.eval_args, "--permutations", str(inputs.permutations),
    ]
    if inputs.permutations:
        ev += ["--seed", str(PERMUTATION_SEED)]
    ev += ["--out-dir", str(out / "eval")]
    steps += [
        ("fit", fit),
        ("eval", ev),
        ("basis", ["basis", "--model", model, "--out-dir", str(out / "basis")]),
    ]
    return steps


def digests(out: Path) -> dict:
    """SHA-256 of every non-manifest file under `out`: {relative path: hex digest}.

    Files are hashed in chunks, so the check holds no whole artifact in memory
    and leaves the process's peak RSS to the program.
    """
    found = {}
    for path in sorted(out.rglob("*")):
        if path.is_file() and not path.name.endswith("manifest.json"):
            with open(path, "rb") as fh:
                found[str(path.relative_to(out))] = hashlib.file_digest(fh, "sha256").hexdigest()
    return found


def test_error(inputs: Inputs, out: Path) -> float:
    """Held-out error: top-3 ensemble (binary) or one-against-one at t=3."""
    if not inputs.workload.multiclass:
        doc = json.loads((out / "eval" / "ensemble_t3.json").read_text())
        return float(doc["misclassification"])
    doc = json.loads((out / "eval" / "summary.json").read_text())
    return float(doc["one_against_one"]["3"]["overall_error"])


def p_values(out: Path) -> list:
    """The p_value column of coefficients.csv, as written (empty if it is missing)."""
    path = out / "eval" / "coefficients.csv"
    if not path.exists():
        return []
    with open(path, newline="") as fh:
        return [row.get("p_value", "") for row in csv.DictReader(fh)]


def _is_p_value(cell: str) -> bool:
    try:
        return 0.0 < float(cell) <= 1.0
    except ValueError:
        return False


def check_first(command: str, inputs: Inputs, out: Path) -> list:
    """Checks on the first execution of a command (later ones must match it)."""
    if command == "generate":
        return check_generated(inputs, out)
    if command == "eval" and inputs.permutations:
        pv = p_values(out)
        if not pv or not all(_is_p_value(p) for p in pv):
            return [f"coefficients.csv lacks p-values in (0, 1]: {pv[:3]}"]
    return []


def check_generated(inputs: Inputs, out: Path) -> list:
    """`generate` wrote the seeded training set: its class 1 and 2 rows are the fit input.

    Compares line by line, so no whole file is held in memory.
    """
    path = out / "generate" / "train.csv"
    if not path.exists():
        return [f"{path.name} was not written"]
    with open(path, "rb") as generated, open(inputs.train_pair, "rb") as pair:
        same = all(a == b for a, b in itertools.zip_longest(
            itertools.islice(generated, 1 + 2 * inputs.train_per_class), pair
        ))
        rest = sum(1 for _ in generated)
    if not same or rest != inputs.train_per_class:
        return ["output differs from the seeded training set"]
    return []


def check_reconstruct(inputs: Inputs, out: Path) -> list:
    """reconstruct(apply(test)) returns the test signals (nonregularised fit)."""
    fitted = tf.load_model(out / "fit" / "model.json")
    x = datasets.load_csv(inputs.test).signals
    back = tf.reconstruct(fitted, tf.apply(fitted, x))
    rel = float(np.max(np.abs(back - x)) / np.max(np.abs(x)))
    if not rel <= RECONSTRUCT_RTOL:
        return [f"reconstruct(apply(test)) relative error {rel:.3e} > {RECONSTRUCT_RTOL}"]
    return []


def normal_equations(problem: solver.PredictProblem) -> np.ndarray:
    """(w, gamma) of an unconstrained nonregularised window problem, solved
    directly from its (L+1) x (L+1) normal equations

        (I/nu + H^T H) z = H^T b,  H = Y [At, -e],  b = e - y * a0,

    for problems larger than `kkt_oracle` accepts (it refuses l > 2000).
    """
    if problem.variant != NONREGULARISED or problem.B is not None:
        raise ValueError("normal_equations covers unconstrained nonregularised problems only")
    A, y = problem.A, problem.labels
    e = np.ones(len(y))
    H = np.column_stack([A[:, 1:], -e]) * y[:, None]
    inner = np.eye(H.shape[1]) / problem.nu + H.T @ H
    return np.linalg.solve(inner, H.T @ (e - y * A[:, 0]))


def check_weights(inputs: Inputs, out: Path) -> list:
    """Fitted window weights and offsets agree with an independent solve.

    Rebuilds the window problems from the training CSV at the first, a
    middle and the last position of every level, which covers all three
    cases of the window rule. The model's (w, gamma) is compared with
    `solver.kkt_oracle` where l <= 2000 and with `normal_equations` above.
    """
    fitted = tf.load_model(out / "fit" / "model.json")
    train = datasets.load_csv(inputs.train_pair)
    config = fitted.config
    y = train.require_labels()
    errors = []
    A = train.signals
    for m, records in enumerate(fitted.levels, start=1):
        A_o, A_e = split(A)
        C = 0.5 * (A_o + A_e)
        half = C.shape[1]
        for k in sorted({1, half // 2, half}):
            window = index_window(k, half, config.window)
            B = None
            if config.constraint_degree:
                B = solver.vandermonde_constraints(window, config.constraint_degree)
            problem = solver.PredictProblem(
                A=np.column_stack([A_e[:, k - 1], -C[:, window.as_zero_based()]]),
                labels=y, nu=config.nu, variant=config.variant, B=B,
            )
            if problem.n_examples <= ORACLE_MAX_EXAMPLES:
                oracle = solver.kkt_oracle(problem)
                expected, reference = np.append(oracle.w, oracle.gamma), "kkt_oracle"
            else:
                expected, reference = normal_equations(problem), "normal equations"
            record = records[k - 1]
            got = np.append(record.weights, record.gamma)
            rel = float(np.linalg.norm(got - expected) / np.linalg.norm(expected))
            if not rel <= WEIGHTS_RTOL:
                errors.append(f"level {m} k={k} (w, gamma) differ from {reference} by {rel:.3e}")
        A = C
    return errors


def check_basis(inputs: Inputs, out: Path) -> list:
    """The exported analysis and synthesis matrices are biorthogonal."""
    doc = json.loads((out / "basis" / "manifest.json").read_text())
    residual = float(doc["config"]["biorthogonality_residual"])
    if not residual <= BIORTHOGONALITY_ATOL:
        return [f"biorthogonality residual {residual:.3e} > {BIORTHOGONALITY_ATOL}"]
    return []
