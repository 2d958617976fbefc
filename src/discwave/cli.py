"""Command-line front end: generate, fit, eval, basis.

Every command writes a run manifest (JSON) next to its outputs recording the
resolved configuration, seeds, input and output paths, tool version, and wall
clock time. Reruns with the same arguments reproduce every output byte for
byte; only the timing fields of the manifest vary.

Exit codes: 0 success, 2 configuration error (bad flags or parameters),
3 data error (missing or malformed input files), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    ConfigError,
    DataError,
    NumericalError,
    SignalDataset,
    TransformConfig,
)
from . import datasets, evaluation, transform as tf
from .io import write_csv, write_json

GENERATORS = ("waveform", "shape-cbf")


def _write_manifest(path: Path, command, config, seeds, inputs, outputs, t0) -> None:
    write_json(
        path,
        {
            "command": command,
            "config": config,
            "seeds": seeds,
            "inputs": inputs,
            "outputs": outputs,
            "tool_version": __version__,
            "wall_clock_seconds": time.perf_counter() - t0,
        },
    )


def _manifest_beside(out_path: str) -> Path:
    return Path(out_path).with_suffix(".manifest.json")


def _read(load, path: str):
    """load(path), with an unreadable file as a DataError."""
    try:
        return load(path)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _read_labelled(path: str, fitted: tf.FittedTransform) -> SignalDataset:
    """A labelled signal CSV whose signals fit the model."""
    ds = _read(datasets.load_csv, path)
    if ds.class_ids is None:
        raise DataError(f"{path} has no label column")
    if ds.signal_length != fitted.signal_length:
        raise DataError(
            f"{path}: signals have length {ds.signal_length}, "
            f"model expects {fitted.signal_length}"
        )
    return ds


def cmd_generate(args) -> int:
    t0 = time.perf_counter()
    if args.generator == "waveform":
        ds = datasets.generate_waveform(
            datasets.WaveformSpec(per_class_count=args.per_class, seed=args.seed)
        )
    else:
        ds = datasets.generate_shape(
            datasets.ShapeSpec(per_class_count=args.per_class, seed=args.seed)
        )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    datasets.save_csv(ds, out, header=not args.no_header)
    print(
        f"wrote {ds.n_examples} signals of length {ds.signal_length} "
        f"({args.generator}, {args.per_class} per class) to {out}"
    )
    _write_manifest(
        _manifest_beside(args.out),
        "generate",
        {
            "generator": args.generator,
            "per_class": args.per_class,
            "header": not args.no_header,
        },
        {"seed": args.seed},
        {},
        {"data": str(out)},
        t0,
    )
    return 0


def cmd_fit(args) -> int:
    t0 = time.perf_counter()
    config = TransformConfig(
        levels=args.levels,
        window=args.window,
        nu=args.nu,
        variant=args.variant,
        constraint_degree=args.constraint_degree,
    )
    train = _read(datasets.load_csv, args.train)

    def progress(level, n_positions, seconds):
        print(f"level {level}: {n_positions} positions, {seconds:.3f}s")

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fitted, table = tf.fit(train, config, progress=progress)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)

    print(f"fitted {fitted.effective_levels} of {config.levels} requested levels")
    residual = tf.constraint_residual(fitted)
    if residual is not None:
        print(f"constraint residual: {residual:.3e}")

    out_model = Path(args.out_model)
    out_model.parent.mkdir(parents=True, exist_ok=True)
    tf.save_model(fitted, out_model)
    outputs = {"model": str(out_model)}
    if args.out_features:
        out_features = Path(args.out_features)
        out_features.parent.mkdir(parents=True, exist_ok=True)
        tf.save_features(table, out_features)
        outputs["features"] = str(out_features)
    _write_manifest(
        _manifest_beside(args.out_model),
        "fit",
        {
            "window": config.window,
            "nu": config.nu,
            "levels": config.levels,
            "effective_levels": fitted.effective_levels,
            "variant": config.variant,
            "constraint_degree": config.constraint_degree,
            "constraint_residual": residual,
        },
        {},
        {"train": args.train},
        outputs,
        t0,
    )
    return 0


def _parse_top_t(text: str):
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"--top-t must be comma-separated integers, got {text!r}") from exc
    if not values or any(v < 1 for v in values):
        raise ConfigError(f"--top-t entries must be >= 1, got {text!r}")
    return list(dict.fromkeys(values))  # first occurrences, in order


def _pair_labels(class_ids: np.ndarray, lo: int, hi: int) -> np.ndarray:
    extra = set(int(c) for c in np.unique(class_ids)) - {lo, hi}
    if extra:
        raise DataError(
            f"test classes {sorted(extra)} absent from training classes [{lo}, {hi}]"
        )
    return np.where(class_ids == lo, -1.0, 1.0)


COEFFICIENT_COLUMNS = [
    "name", "level", "position", "mode", "b", "s",
    "train_accuracy", "test_accuracy", "p_value",
    "support_first", "support_last", "support_size",
]


def _coefficient_rows(c: evaluation.ClassifierSet):
    """One coefficients.csv row per classifier of the set, in its order."""
    blank = [""] * len(c)
    return zip(
        c.names, c.level.tolist(), c.k.tolist(), [c.mode] * len(c), c.b.tolist(),
        c.s.tolist(), c.train_accuracy.tolist(),
        blank if c.test_accuracy is None else c.test_accuracy.tolist(),
        blank if c.p_value is None else c.p_value.tolist(),
        (c.support.argmax(axis=1) + 1).tolist(),
        (c.support.shape[1] - c.support[:, ::-1].argmax(axis=1)).tolist(),
        c.support.sum(axis=1).tolist(),
    )


def _eval_binary(args, fitted, train, test, out_dir):
    lo, hi = train.classes
    train_table = tf.apply(
        fitted, train.signals, labels=train.labels, class_ids=train.class_ids
    )
    classifiers = evaluation.make_local_classifiers(train_table, fitted, args.mode)

    evaluated_on, eval_table = "train", train_table
    if test is not None:
        y_test = _pair_labels(test.class_ids, lo, hi)
        eval_table = tf.apply(fitted, test.signals, labels=y_test, class_ids=test.class_ids)
        classifiers = evaluation.evaluate_classifiers(classifiers, eval_table)
        evaluated_on = "test"

    if args.permutations > 0:
        p_values = evaluation.permutation_test(
            classifiers, train_table, train_table.labels, args.permutations, args.seed
        )
        classifiers = replace(classifiers, p_value=p_values)

    ranked = evaluation.rank_classifiers(classifiers)
    selected = ranked[
        evaluation.select_significant(ranked, min_accuracy=args.min_accuracy, alpha=args.alpha)
    ]
    write_csv(out_dir / "coefficients.csv", COEFFICIENT_COLUMNS, _coefficient_rows(ranked))
    write_csv(out_dir / "selected.csv", COEFFICIENT_COLUMNS, _coefficient_rows(selected))

    hist = evaluation.support_histogram(selected)  # levels ascending
    per_sample = np.reshape(list(hist.values()), (len(hist), fitted.signal_length)).T
    header = ["sample", *(f"level_{m}" for m in hist), "total"]
    rows = [[i, *per, sum(per)] for i, per in enumerate(per_sample.tolist(), start=1)]
    write_csv(out_dir / "support_histogram.csv", header, rows)

    ensembles = {}
    outputs = {
        "coefficients": str(out_dir / "coefficients.csv"),
        "selected": str(out_dir / "selected.csv"),
        "support_histogram": str(out_dir / "support_histogram.csv"),
    }
    for t in args.top_t:
        report = evaluation.vote(ranked[:t], eval_table)
        profile = evaluation.vote_profile(report)
        prof_path = out_dir / f"profile_t{t}.csv"
        outcomes = report.outcome.astype(int).tolist()
        prof_rows = [[i, v, g, o] for i, ((v, g), o) in enumerate(zip(profile, outcomes), 1)]
        write_csv(prof_path, ["example", "mean_vote", "group", "outcome"], prof_rows)
        ens_path = out_dir / f"ensemble_t{t}.json"
        payload = {
            "t": t,
            "members": report.members.names,
            "evaluated_on": evaluated_on,
            "misclassification": report.misclassification,
            "n_unclassified": report.n_unclassified,
        }
        write_json(ens_path, payload)
        ensembles[str(t)] = payload
        outputs[f"ensemble_t{t}"] = str(ens_path)
        outputs[f"profile_t{t}"] = str(prof_path)
        print(
            f"t={t}: misclassification {report.misclassification:.4f} "
            f"({report.n_unclassified} unclassified, on {evaluated_on})"
        )

    summary = {
        "task": "binary",
        "classes": [lo, hi],
        "mode": args.mode,
        "evaluated_on": evaluated_on,
        "test_supplied": test is not None,
        "n_train": train.n_examples,
        "n_test": None if test is None else test.n_examples,
        "permutations": args.permutations,
        "alpha": args.alpha,
        "min_accuracy": args.min_accuracy,
        "n_selected": len(selected),
        "ensembles": ensembles,
    }
    write_json(out_dir / "summary.json", summary)
    outputs["summary"] = str(out_dir / "summary.json")
    if test is None:
        print("no test set supplied; ensembles scored on training data")
    print(f"selected {len(selected)} of {len(classifiers)} coefficients")
    return outputs


def _eval_multiclass(args, fitted, train, test, out_dir):
    evaluated_on = "train" if test is None else "test"
    test = train if test is None else test
    summary_ovo = {}
    outputs = {}
    reports = evaluation.one_against_one(train, test, fitted.config, args.top_t, mode=args.mode)
    for t, report in reports.items():
        pair_rows = [
            [lo, hi, "" if err is None else err]
            for (lo, hi), err in sorted(report.pair_errors.items())
        ]
        pairs_path = out_dir / f"pairs_t{t}.csv"
        write_csv(pairs_path, ["class_lo", "class_hi", "test_error"], pair_rows)
        pred_path = out_dir / f"predictions_t{t}.csv"
        pred_rows = []
        for i in range(test.n_examples):
            label = int(report.predictions[i]) if report.classified[i] else "unclassified"
            pred_rows.append([i + 1, int(test.class_ids[i]), label])
        write_csv(pred_path, ["example", "true_class", "predicted_class"], pred_rows)
        summary_ovo[str(t)] = {
            "overall_error": report.overall_error,
            "n_unclassified": int(np.sum(~report.classified)),
        }
        outputs[f"pairs_t{t}"] = str(pairs_path)
        outputs[f"predictions_t{t}"] = str(pred_path)
        print(f"t={t}: one-against-one error {report.overall_error:.4f} (on {evaluated_on})")

    summary = {
        "task": "one_against_one",
        "classes": [int(c) for c in train.classes],
        "mode": args.mode,
        "evaluated_on": evaluated_on,
        "test_supplied": evaluated_on == "test",
        "n_train": train.n_examples,
        "n_test": test.n_examples,
        "one_against_one": summary_ovo,
    }
    if args.raw_baseline:
        base = evaluation.one_against_one_raw_psvm(train, test, fitted.config.nu)
        summary["raw_psvm_error"] = base.overall_error
        print(f"raw proximal-SVM baseline error {base.overall_error:.4f}")
    write_json(out_dir / "summary.json", summary)
    outputs["summary"] = str(out_dir / "summary.json")
    if evaluated_on == "train":
        print("no test set supplied; one-against-one scored on training data")
    return outputs


def cmd_eval(args) -> int:
    t0 = time.perf_counter()
    fitted = _read(tf.load_model, args.model)
    train = _read_labelled(args.train, fitted)
    test = _read_labelled(args.test, fitted) if args.test else None
    binary = len(train.classes) == 2
    if binary and args.permutations > 0 and args.seed is None:
        raise ConfigError("--seed is required when permutation tests run")
    # Class-pair fits share the model's config and length, so K holds for them too.
    n_details = fitted.signal_length - (fitted.signal_length >> fitted.effective_levels)
    if max(args.top_t) > n_details:
        raise ConfigError(
            f"--top-t {max(args.top_t)} exceeds the model's {n_details} detail coefficients"
        )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if binary:
        outputs = _eval_binary(args, fitted, train, test, out_dir)
    else:
        outputs = _eval_multiclass(args, fitted, train, test, out_dir)

    inputs = {"model": args.model, "train": args.train}
    if args.test:
        inputs["test"] = args.test
    _write_manifest(
        out_dir / "manifest.json",
        "eval",
        {
            "mode": args.mode,
            "top_t": args.top_t,
            "permutations": args.permutations if binary else 0,  # no tests on 3+ classes
            "alpha": args.alpha,
            "min_accuracy": args.min_accuracy,
            "raw_baseline": args.raw_baseline,
        },
        {} if args.seed is None else {"seed": args.seed},
        inputs,
        outputs,
        t0,
    )
    return 0


def cmd_basis(args) -> int:
    t0 = time.perf_counter()
    fitted = _read(tf.load_model, args.model)
    bv = tf.base_vectors(fitted)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    layout = fitted.column_layout()
    names = [name for name, _, _, _ in layout]
    sample_cols = [f"s{i + 1}" for i in range(fitted.signal_length)]

    write_csv(
        out_dir / "analysis.csv",
        ["coefficient"] + sample_cols,
        [[names[i]] + list(bv.analysis[i]) for i in range(len(names))],
    )
    write_csv(
        out_dir / "synthesis.csv",
        ["coefficient"] + sample_cols,
        [[names[i]] + list(bv.synthesis[:, i]) for i in range(len(names))],
    )
    support_rows = [
        [name, kind, level, position, a[0], a[-1], len(a), s[0], s[-1], len(s)]
        for (name, kind, level, position), a, s in zip(
            layout, bv.analysis_supports, bv.synthesis_supports
        )
    ]
    write_csv(
        out_dir / "supports.csv",
        [
            "coefficient", "kind", "level", "position",
            "analysis_first", "analysis_last", "analysis_size",
            "synthesis_first", "synthesis_last", "synthesis_size",
        ],
        support_rows,
    )
    residual = float(
        np.max(np.abs(bv.analysis @ bv.synthesis - np.eye(fitted.signal_length)))
    )
    print(f"biorthogonality residual: {residual:.3e}")
    _write_manifest(
        out_dir / "manifest.json",
        "basis",
        {"biorthogonality_residual": residual},
        {},
        {"model": args.model},
        {
            "analysis": str(out_dir / "analysis.csv"),
            "synthesis": str(out_dir / "synthesis.csv"),
            "supports": str(out_dir / "supports.csv"),
        },
        t0,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discwave",
        description="Discriminative lifting transforms for signal classification.",
    )
    parser.add_argument("--version", action="version", version=f"discwave {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic benchmark dataset as CSV")
    g.add_argument("--generator", choices=GENERATORS, required=True)
    g.add_argument("--per-class", type=int, required=True, help="signals per class")
    g.add_argument("--seed", type=int, required=True, help="RNG seed (reruns are identical)")
    g.add_argument("--out", required=True, help="output CSV path")
    g.add_argument("--no-header", action="store_true", help="omit the header row")
    g.set_defaults(func=cmd_generate)

    f = sub.add_parser("fit", help="train a transform on a labelled two-class CSV")
    f.add_argument("--train", required=True, help="training CSV (binary labels)")
    f.add_argument("--window", type=int, required=True, help="prediction window length (even)")
    f.add_argument("--nu", type=float, required=True, help="error weight of the window solver")
    f.add_argument("--levels", type=int, required=True, help="requested decomposition levels")
    f.add_argument(
        "--variant",
        choices=(tf.REGULARISED, tf.NONREGULARISED),
        default=tf.NONREGULARISED,
        help="window predictor form (default: nonregularised)",
    )
    f.add_argument(
        "--constraint-degree",
        type=int,
        default=0,
        help="polynomial reproduction degree bound p (0 disables constraints)",
    )
    f.add_argument("--out-model", required=True, help="output model JSON path")
    f.add_argument("--out-features", default=None, help="optional training-coefficient CSV")
    f.set_defaults(func=cmd_fit)

    e = sub.add_parser("eval", help="score coefficient classifiers and ensembles")
    e.add_argument(
        "--model",
        required=True,
        help="model JSON from fit; with three or more classes in --train only "
        "its configuration is used and every class pair is refit from --train",
    )
    e.add_argument("--train", required=True, help="training CSV (thresholds, ranking, tests)")
    e.add_argument("--test", default=None, help="optional held-out CSV")
    e.add_argument(
        "--mode",
        choices=evaluation.MODES,
        default=evaluation.OPTIMAL_THRESHOLD,
        help="threshold source per coefficient",
    )
    e.add_argument("--top-t", default="3,15", help="comma list of ensemble sizes")
    e.add_argument(
        "--permutations",
        type=int,
        default=999,
        help="label permutations per coefficient (>= 100; 0 skips the tests; "
        "two-class eval only)",
    )
    e.add_argument("--alpha", type=float, default=0.1, help="p-value cut for selection")
    e.add_argument(
        "--min-accuracy", type=float, default=0.75, help="training-accuracy cut for selection"
    )
    e.add_argument("--seed", type=int, default=None, help="RNG seed for the permutation tests")
    e.add_argument(
        "--raw-baseline",
        action="store_true",
        help="also score pairwise proximal SVMs on the raw samples (3+ classes)",
    )
    e.add_argument("--out-dir", required=True, help="directory for reports")
    e.set_defaults(func=cmd_eval)

    b = sub.add_parser("basis", help="export analysis/synthesis vectors of a model")
    b.add_argument("--model", required=True, help="model JSON from fit")
    b.add_argument("--out-dir", required=True, help="directory for matrix CSVs")
    b.set_defaults(func=cmd_basis)
    return parser


def _check_arguments(args) -> None:
    """Range checks of the numeric flags, made before any file is read (NaN
    fails every range); replaces the --top-t text by its parsed list."""
    if getattr(args, "seed", None) is not None and args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    if args.command == "generate" and args.per_class < 1:
        raise ConfigError(f"--per-class must be >= 1, got {args.per_class}")
    if args.command != "eval":
        return
    if args.permutations < 0:
        raise ConfigError(f"--permutations must be >= 0, got {args.permutations}")
    if 0 < args.permutations < evaluation.MIN_PERMUTATIONS:
        raise ConfigError(
            f"--permutations must be 0 or >= {evaluation.MIN_PERMUTATIONS}, "
            f"got {args.permutations}"
        )
    if not 0 < args.alpha <= 1:
        raise ConfigError(f"--alpha must lie in (0, 1], got {args.alpha}")
    if not 0 <= args.min_accuracy <= 1:
        raise ConfigError(f"--min-accuracy must lie in [0, 1], got {args.min_accuracy}")
    args.top_t = _parse_top_t(args.top_t)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_arguments(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
