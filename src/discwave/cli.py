"""Command-line front end: generate, fit, eval, basis.

Every command writes a run manifest (JSON) next to its outputs recording the
resolved configuration, seeds, input and output paths, tool version, and wall
clock time. Reruns with the same arguments reproduce every output byte for
byte; only the timing fields of the manifest vary.

A run leaves all of its outputs or none. A command only reads, computes and
prints; it returns its manifest config, its inputs and its outputs as
{key: (path, writer)}. `main` then writes each output, the manifest last, to
a staging file beside its path, checks every path, and renames them into
place only after all of them are written. A failed run may have printed
progress lines, but it leaves no output file.

Exit codes: 0 success, 2 configuration error (bad flags or parameters, or
an output path that cannot be written), 3 data error (missing or malformed
input files), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import time
from contextlib import suppress
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    ConfigError,
    DataError,
    NumericalError,
    SignalDataset,
    TransformConfig,
    integer,
    pair_labels,
    real,
)
from . import datasets, evaluation, transform as tf
from .io import write_csv, write_json

GENERATORS = ("waveform", "shape-cbf")


def _read_labelled(path: str, fitted: tf.FittedTransform) -> SignalDataset:
    """A labelled signal CSV whose signals fit the model."""
    ds = datasets.load_csv(path)
    if ds.signal_length != fitted.signal_length:
        raise DataError(
            f"{path}: signals have length {ds.signal_length}, "
            f"model expects {fitted.signal_length}"
        )
    return ds


def _in_dir(out_dir: str, files: dict) -> dict:
    """Outputs {stem: (out_dir/name, writer)} of the report files {name: content},
    where a .json file's content is its payload and a .csv file's its
    (header, rows)."""
    return {
        name.partition(".")[0]: (
            Path(out_dir) / name,
            partial(write_json, payload=content) if name.endswith(".json")
            else partial(write_csv, header=content[0], rows=content[1]),
        )
        for name, content in files.items()
    }


def cmd_generate(args):
    if args.generator == "waveform":
        ds = datasets.generate_waveform(
            datasets.WaveformSpec(per_class_count=args.per_class, seed=args.seed)
        )
    else:
        ds = datasets.generate_shape(
            datasets.ShapeSpec(per_class_count=args.per_class, seed=args.seed)
        )
    out = Path(args.out)
    print(
        f"wrote {ds.n_examples} signals of length {ds.signal_length} "
        f"({args.generator}, {args.per_class} per class) to {out}"
    )
    config = {"generator": args.generator, "per_class": args.per_class}
    return config, {}, {"data": (out, partial(datasets.save_csv, ds))}


def cmd_fit(args):
    config = TransformConfig(
        levels=args.levels,
        window=args.window,
        nu=args.nu,
        variant=args.variant,
        constraint_degree=args.constraint_degree,
    )
    train = datasets.load_csv(args.train)

    def progress(level, n_positions, seconds):
        print(f"level {level}: {n_positions} positions, {seconds:.3f}s")

    fitted, merged = tf.fit(train, config, progress=progress)
    residual = tf.constraint_residual(fitted)
    if residual is not None:
        print(f"constraint residual: {residual:.3e}")
    outputs = {"model": (Path(args.out_model), partial(tf.save_model, fitted))}
    if args.out_features is not None:
        save = partial(tf.save_features, fitted, merged, train.class_ids)
        outputs["features"] = (Path(args.out_features), save)
    return {**asdict(config), "constraint_residual": residual}, {"train": args.train}, outputs


def _parse_top_t(text: str):
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"--top-t must be comma-separated integers, got {text!r}") from exc
    if not values:
        raise ConfigError(f"--top-t needs at least one entry, got {text!r}")
    return list(dict.fromkeys(integer(v, "--top-t entry", 1) for v in values))  # in order


COEFFICIENT_COLUMNS = [
    "name", "level", "position", "mode", "b", "s",
    "train_accuracy", "test_accuracy", "p_value",
    "support_first", "support_last", "support_size",
]


def _support_bounds(mask: np.ndarray):
    """The (first, last, size) columns of the rows of a support mask, as CSV
    cells: first and last are 1-based samples, blank for an empty support."""
    size = mask.sum(axis=1).tolist()
    first = (mask.argmax(axis=1) + 1).tolist()
    last = (mask.shape[1] - mask[:, ::-1].argmax(axis=1)).tolist()
    return (
        [cell if n else "" for cell, n in zip(first, size)],
        [cell if n else "" for cell, n in zip(last, size)],
        size,
    )


def _coefficient_rows(c: evaluation.ClassifierSet):
    """One coefficients.csv row per classifier of the set, in its order."""
    blank = [""] * len(c)
    return zip(
        c.names, c.level.tolist(), c.k.tolist(), [c.mode] * len(c), c.b.tolist(),
        c.s.tolist(), c.train_accuracy.tolist(),
        blank if c.test_accuracy is None else c.test_accuracy.tolist(),
        blank if c.p_value is None else c.p_value.tolist(),
        *_support_bounds(c.support),
    )


def _eval_binary(args, fitted, train, test, summary):
    """The two-class report files {name: content}; fills in `summary`."""
    evaluated_on = summary["evaluated_on"]
    train_coeffs = tf.apply(fitted, train.signals)
    classifiers = evaluation.make_local_classifiers(train_coeffs, train.labels, fitted, args.mode)

    eval_coeffs, y_eval = train_coeffs, train.labels
    if test is not None:
        y_eval = pair_labels(test.class_ids, summary["classes"][0])
        eval_coeffs = tf.apply(fitted, test.signals)
        classifiers = evaluation.evaluate_classifiers(classifiers, eval_coeffs, y_eval)

    if args.permutations > 0:
        values = train_coeffs[:, classifiers.columns]
        p_values = evaluation.permutation_test(
            classifiers, values, train.labels, args.permutations, args.seed
        )
        classifiers = replace(classifiers, p_value=p_values)

    ranked = evaluation.rank_classifiers(classifiers)
    selected = ranked[
        evaluation.select_significant(ranked, min_accuracy=args.min_accuracy, alpha=args.alpha)
    ]
    hist = evaluation.support_histogram(selected)  # levels ascending
    per_sample = np.reshape(list(hist.values()), (len(hist), fitted.signal_length)).T
    files = {
        "coefficients.csv": (COEFFICIENT_COLUMNS, _coefficient_rows(ranked)),
        "selected.csv": (COEFFICIENT_COLUMNS, _coefficient_rows(selected)),
        "support_histogram.csv": (
            ["sample", *(f"level_{m}" for m in hist), "total"],
            [[i, *per, sum(per)] for i, per in enumerate(per_sample.tolist(), start=1)],
        ),
    }
    ensembles = {}
    for t in args.top_t:
        report = evaluation.vote(ranked[:t], eval_coeffs)
        misclassification = float(np.mean(report.outcome != y_eval))
        profile = evaluation.vote_profile(report)
        outcomes = report.outcome.astype(int).tolist()
        ensembles[str(t)] = files[f"ensemble_t{t}.json"] = {
            "t": t,
            "members": report.members.names,
            "evaluated_on": evaluated_on,
            "misclassification": misclassification,
            "n_unclassified": report.n_unclassified,
        }
        files[f"profile_t{t}.csv"] = (
            ["example", "mean_vote", "group", "outcome"],
            ([i, v, g, o] for i, ((v, g), o) in enumerate(zip(profile, outcomes), 1)),
        )
        print(
            f"t={t}: misclassification {misclassification:.4f} "
            f"({report.n_unclassified} unclassified, on {evaluated_on})"
        )

    summary.update(
        permutations=args.permutations,
        alpha=args.alpha,
        min_accuracy=args.min_accuracy,
        n_selected=len(selected),
        ensembles=ensembles,
    )
    if test is None:
        print("no test set supplied; ensembles scored on training data")
    print(f"selected {len(selected)} of {len(classifiers)} coefficients")
    return files


def _eval_multiclass(args, fitted, train, test, summary):
    """The one-against-one report files {name: content}; fills in `summary`."""
    evaluated_on = summary["evaluated_on"]
    test = train if test is None else test
    files, errors = {}, {}
    reports = evaluation.one_against_one(train, test, fitted.config, args.top_t, mode=args.mode)
    for t, report in reports.items():
        files[f"pairs_t{t}.csv"] = (["class_lo", "class_hi", "test_error"], [
            [lo, hi, "" if err is None else err]
            for (lo, hi), err in sorted(report.pair_errors.items())
        ])
        predictions = zip(test.class_ids, report.predictions, report.classified)
        files[f"predictions_t{t}.csv"] = (["example", "true_class", "predicted_class"], [
            [i, int(c), int(p) if ok else "unclassified"]
            for i, (c, p, ok) in enumerate(predictions, start=1)
        ])
        errors[str(t)] = {
            "overall_error": report.overall_error,
            "n_unclassified": int(np.sum(~report.classified)),
        }
        print(f"t={t}: one-against-one error {report.overall_error:.4f} (on {evaluated_on})")

    summary["one_against_one"] = errors
    if args.raw_baseline:
        base = evaluation.one_against_one_raw_psvm(train, test, fitted.config.nu)
        summary["raw_psvm_error"] = base.overall_error
        print(f"raw proximal-SVM baseline error {base.overall_error:.4f}")
    if evaluated_on == "train":
        print("no test set supplied; one-against-one scored on training data")
    return files


def cmd_eval(args):
    fitted = tf.load_model(args.model)
    train = _read_labelled(args.train, fitted)
    test = _read_labelled(args.test, fitted) if args.test else None
    binary = len(train.classes) == 2
    if binary and args.permutations > 0 and args.seed is None:
        raise ConfigError("--seed is required when permutation tests run")
    if binary and args.raw_baseline:
        raise ConfigError("--raw-baseline scores class pairs: it needs 3+ classes in --train")
    # Class-pair fits share the model's config and length, so K holds for them too.
    n_details = fitted.signal_length - (fitted.signal_length >> fitted.config.levels)
    if max(args.top_t) > n_details:
        raise ConfigError(
            f"--top-t {max(args.top_t)} exceeds the model's {n_details} detail coefficients"
        )
    summary = {
        "task": "binary" if binary else "one_against_one",
        "classes": evaluation.duel_classes(train, train if test is None else test),
        "mode": args.mode,
        "evaluated_on": "train" if test is None else "test",
        "test_supplied": test is not None,
        "n_train": train.n_examples,
        # Without --test, one-against-one scores the training set; binary eval records none.
        "n_test": (None if binary else train.n_examples) if test is None else test.n_examples,
    }
    files = (_eval_binary if binary else _eval_multiclass)(args, fitted, train, test, summary)
    files["summary.json"] = summary

    inputs = {"model": args.model, "train": args.train}
    if args.test:
        inputs["test"] = args.test
    config = {
        "mode": args.mode,
        "top_t": args.top_t,
        "permutations": args.permutations if binary else 0,  # no tests on 3+ classes
        "alpha": args.alpha,
        "min_accuracy": args.min_accuracy,
        "raw_baseline": args.raw_baseline,
    }
    return config, inputs, _in_dir(args.out_dir, files)


def cmd_basis(args):
    fitted = tf.load_model(args.model)
    bv = tf.base_vectors(fitted)
    N = fitted.signal_length
    residual = float(np.max(np.abs(bv.analysis @ bv.synthesis - np.eye(N))))
    # fit's round-trip bound, here on unit inputs: far from unit scale a fit
    # can pass its own check and still leave a synthesis that does not invert.
    if not residual <= tf.ROUND_TRIP_RTOL:
        raise NumericalError(
            f"synthesis does not invert analysis: biorthogonality residual "
            f"{residual:.3e} exceeds {tf.ROUND_TRIP_RTOL:g}"
        )
    layout = fitted.column_layout()
    names = [name for name, _, _, _ in layout]
    header = ["coefficient"] + [f"s{i + 1}" for i in range(N)]
    bounds = zip(
        *_support_bounds(tf.support(bv.analysis)), *_support_bounds(tf.support(bv.synthesis.T))
    )
    print(f"biorthogonality residual: {residual:.3e}")
    files = {
        "analysis.csv": (header, ([n] + row.tolist() for n, row in zip(names, bv.analysis))),
        "synthesis.csv": (header, ([n] + row.tolist() for n, row in zip(names, bv.synthesis.T))),
        "supports.csv": (
            [
                "coefficient", "kind", "level", "position",
                "analysis_first", "analysis_last", "analysis_size",
                "synthesis_first", "synthesis_last", "synthesis_size",
            ],
            [[*column, *cells] for column, cells in zip(layout, bounds)],
        ),
    }
    config = {"biorthogonality_residual": residual}
    return config, {"model": args.model}, _in_dir(args.out_dir, files)


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
    g.set_defaults(func=cmd_generate)

    f = sub.add_parser("fit", help="train a transform on a labelled two-class CSV")
    f.add_argument("--train", required=True, help="training CSV (binary labels)")
    f.add_argument("--window", type=int, required=True, help="prediction window length (even)")
    f.add_argument("--nu", type=float, required=True, help="error weight of the window solver")
    f.add_argument("--levels", type=int, required=True, help="levels M (window <= N/2^M)")
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
        help="polynomial degree: 0 (none) or 1..min(window, 15), on knots scaled by 1/(2*window)",
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
        help="also score pairwise proximal SVMs on the raw samples (3+ classes only)",
    )
    e.add_argument("--out-dir", required=True, help="directory for reports")
    e.set_defaults(func=cmd_eval)

    b = sub.add_parser("basis", help="export analysis/synthesis vectors of a model")
    b.add_argument("--model", required=True, help="model JSON from fit")
    b.add_argument("--out-dir", required=True, help="directory for matrix CSVs")
    b.set_defaults(func=cmd_basis)
    return parser


def _check_arguments(args) -> None:
    """The numeric flags checked by the library's own rules and bounds, before
    any file is read; replaces the --top-t text by its parsed list."""
    if getattr(args, "seed", None) is not None:
        integer(args.seed, "--seed", 0)
    if args.command == "generate":
        integer(args.per_class, "--per-class", 1)
    if args.command != "eval":
        return
    if args.permutations != 0:
        least = evaluation.MIN_PERMUTATIONS
        integer(args.permutations, "--permutations (0 skips the tests)", least)
    real(args.alpha, "--alpha", evaluation.ALPHA_INTERVAL)
    real(args.min_accuracy, "--min-accuracy", evaluation.ACCURACY_INTERVAL)
    args.top_t = _parse_top_t(args.top_t)


def _check_output(path: Path, want_dir: bool) -> None:
    """Raise OSError, creating nothing, when `path` cannot become a directory
    (`want_dir`) or a file: it exists as the other kind, or the nearest
    existing path above it is not a directory."""
    nearest = next((p for p in [path, *path.parents] if p.exists()), None)
    want_dir = want_dir or nearest != path
    if nearest is not None and nearest.is_dir() != want_dir:
        code = errno.ENOTDIR if want_dir else errno.EISDIR
        raise OSError(code, os.strerror(code), str(nearest))


def _check_outputs(args) -> Path:
    """Check the output flags and the manifest beside them before any input
    is read, creating nothing, and return the manifest's path. Two outputs of
    one run on one file are a usage error."""
    flags = {}
    for name in ("out", "out_model", "out_features", "out_dir"):
        value = getattr(args, name, None)
        if value is None:
            continue
        _check_output(Path(value), want_dir=name == "out_dir")
        if name != "out_dir":
            flags["--" + name.replace("_", "-")] = Path(value)
    if args.command in ("eval", "basis"):
        manifest = Path(args.out_dir) / "manifest.json"
    else:
        out = args.out if args.command == "generate" else args.out_model
        manifest = Path(out).with_suffix(".manifest.json")
    _check_output(manifest, want_dir=False)
    seen = {}
    for label, path in [*flags.items(), ("the manifest", manifest)]:
        other = seen.setdefault(path.resolve(), label)
        if other != label:
            raise ConfigError(f"{other} and {label} name one file: {path}")
    return manifest


def _publish(outputs: list) -> None:
    """Write every (path, writer) of `outputs` to a staging file beside its
    path, check every path, then rename each into place, in order. If a
    write, a check or a rename fails, remove the staging files and the
    directories made for them, then re-raise."""
    staged, made = [], []
    try:
        for path, write in outputs:
            made += [d for d in reversed(path.parents) if not d.exists()]
            path.parent.mkdir(parents=True, exist_ok=True)
            staged.append(path.with_name(f".{path.name}.partial"))
            write(staged[-1])
        for path, _ in outputs:  # after staging, which may have made one a directory
            _check_output(path, want_dir=False)
        for stage, (path, _) in zip(staged, outputs):
            os.replace(stage, path)
    except BaseException:
        for stage in staged:
            with suppress(OSError):
                stage.unlink(missing_ok=True)
        for directory in reversed(made):
            with suppress(OSError):
                directory.rmdir()
        raise


def main(argv=None) -> int:
    t0 = time.perf_counter()
    args = build_parser().parse_args(argv)
    try:
        _check_arguments(args)
        manifest = _check_outputs(args)
        config, inputs, outputs = args.func(args)
        record = {
            "command": args.command,
            "config": config,
            "seeds": {} if getattr(args, "seed", None) is None else {"seed": args.seed},
            "inputs": inputs,
            "outputs": {key: str(path) for key, (path, _) in outputs.items()},
            "tool_version": __version__,
        }

        def write_manifest(path):
            write_json(path, {**record, "wall_clock_seconds": time.perf_counter() - t0})

        _publish([*outputs.values(), (manifest, write_manifest)])
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:  # io makes every failed read a DataError: this is an output
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
