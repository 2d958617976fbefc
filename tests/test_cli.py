"""End-to-end command-line tests (in-process via main(argv)).

Each command is exercised against real files in tmp_path; reruns must be
byte-identical except for the manifest's wall-clock field. Exit codes: 0
success, 2 configuration, 3 data, 4 numerical.
"""

import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import discwave
from discwave.cli import main
from discwave.core import NumericalError, SignalDataset
from discwave.datasets import WaveformSpec, generate_waveform, load_csv, save_csv
from discwave import evaluation, transform as tf
from discwave.io import read_csv

MANIFEST_KEYS = {
    "command", "config", "seeds", "inputs", "outputs", "tool_version",
    "wall_clock_seconds",
}


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_pair_csv(path, per_class, seed, classes=(1, 2)):
    ds = generate_waveform(WaveformSpec(per_class_count=per_class, seed=seed))
    save_csv(ds.restrict_pair(*classes), path)
    return path


def snapshot(root):
    """Every file and directory under `root`, with each file's bytes. A failed
    run must leave it unchanged: no output, no staging file, no new directory."""
    return {path: path.read_bytes() if path.is_file() else None for path in root.rglob("*")}


def manifest_sans_clock(path):
    doc = json.loads(path.read_text())
    assert set(doc) == MANIFEST_KEYS
    assert doc["wall_clock_seconds"] >= 0.0
    del doc["wall_clock_seconds"]
    return doc


def test_generate_waveform_csv(tmp_path, capsys):
    out = tmp_path / "wave.csv"
    code, stdout, _ = run(
        ["generate", "--generator", "waveform", "--per-class", "10",
         "--seed", "5", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert "wrote 30 signals of length 32" in stdout
    lines = out.read_text().splitlines()
    assert len(lines) == 31
    assert all(len(line.split(",")) == 33 for line in lines)
    ds = load_csv(out)
    assert ds.classes == (1, 2, 3)
    doc = manifest_sans_clock(tmp_path / "wave.manifest.json")
    assert doc["command"] == "generate"
    assert doc["seeds"] == {"seed": 5}
    assert doc["outputs"] == {"data": str(out)}


def test_generate_rerun_is_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        code, _, _ = run(
            ["generate", "--generator", "waveform", "--per-class", "7",
             "--seed", "42", "--out", str(out)],
            capsys,
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    ma = manifest_sans_clock(tmp_path / "a.manifest.json")
    mb = manifest_sans_clock(tmp_path / "b.manifest.json")
    ma["outputs"], mb["outputs"] = None, None
    assert ma == mb


def test_generate_shape_cbf_csv(tmp_path, capsys):
    out = tmp_path / "shape.csv"
    code, stdout, _ = run(
        ["generate", "--generator", "shape-cbf", "--per-class", "5",
         "--seed", "6", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert "wrote 15 signals of length 128" in stdout
    lines = out.read_text().splitlines()
    assert len(lines) == 16
    assert lines[0].startswith("s1,s2,") and lines[0].endswith(",s128,label")
    assert all(len(line.split(",")) == 129 for line in lines)


def test_fit_reports_levels_and_saves_model(tmp_path, capsys):
    train = write_pair_csv(tmp_path / "train.csv", 20, 7)
    model = tmp_path / "model.json"
    features = tmp_path / "features.csv"
    code, stdout, stderr = run(
        ["fit", "--train", str(train), "--window", "4", "--nu", "1.0",
         "--levels", "3", "--out-model", str(model),
         "--out-features", str(features)],
        capsys,
    )
    assert code == 0
    assert "level 1: 16 positions" in stdout
    assert "level 2: 8 positions" in stdout
    assert "level 3: 4 positions" in stdout
    assert "level 4" not in stdout
    assert stderr == ""
    fitted = tf.load_model(model)
    assert [len(records) for records in fitted.levels] == [16, 8, 4]
    names, merged, ids = read_csv(features)
    assert merged.shape == (40, 32)
    assert names[0] == "c3_1"
    doc = manifest_sans_clock(tmp_path / "model.manifest.json")
    assert doc["config"] == {
        "levels": 3, "window": 4, "nu": 1.0, "variant": "nonregularised",
        "constraint_degree": 0, "constraint_residual": None,
    }
    assert doc["outputs"] == {"model": str(model), "features": str(features)}


def test_fit_constrained_reports_residual(tmp_path, capsys):
    train = write_pair_csv(tmp_path / "train.csv", 15, 8)
    model = tmp_path / "model.json"
    code, stdout, _ = run(
        ["fit", "--train", str(train), "--window", "4", "--nu", "1.0",
         "--levels", "2", "--constraint-degree", "2",
         "--out-model", str(model)],
        capsys,
    )
    assert code == 0
    assert "constraint residual:" in stdout
    doc = manifest_sans_clock(tmp_path / "model.manifest.json")
    assert doc["config"]["constraint_residual"] <= 1e-10


def test_fit_deeper_than_the_window_allows_exits_2(tmp_path, capsys):
    # Level 4 of a 32-sample signal has 2 coarse samples, fewer than window 4.
    train = write_pair_csv(tmp_path / "train.csv", 10, 9)
    model = tmp_path / "model.json"
    code, stdout, stderr = run(
        ["fit", "--train", str(train), "--window", "4", "--nu", "1.0",
         "--levels", "4", "--out-model", str(model)],
        capsys,
    )
    assert code == 2
    assert stdout == ""
    assert stderr == (
        "error: window 4 does not fit level 4 (coarse length 2); "
        "length-32 signals allow at most 3 levels\n"
    )
    assert not model.exists()
    assert not model.with_suffix(".manifest.json").exists()


def test_fit_of_a_constraint_degree_above_the_bound_exits_2(tmp_path, capsys):
    # Degree 16 over window 16 is past the one bound, min(window, 15): a usage
    # error raised with the configuration, before --train is opened.
    model = tmp_path / "model.json"
    before = snapshot(tmp_path)
    code, stdout, stderr = run(
        ["fit", "--train", str(tmp_path / "missing.csv"), "--window", "16",
         "--constraint-degree", "16", "--nu", "1.0", "--levels", "1",
         "--out-model", str(model)],
        capsys,
    )
    assert code == 2
    assert stdout == ""
    assert stderr == (
        "error: constraint_degree must lie in 1..min(window, 15) = 1..15, got 16\n"
    )
    assert snapshot(tmp_path) == before


def test_fit_at_degree_10_over_window_10_exits_0(tmp_path, capsys):
    # On unscaled knots these rows were rank deficient; scaled, they fit.
    train = write_pair_csv(tmp_path / "train.csv", 5, 9)
    model = tmp_path / "model.json"
    code, stdout, _ = run(
        ["fit", "--train", str(train), "--window", "10", "--constraint-degree", "10",
         "--nu", "1.0", "--levels", "1", "--out-model", str(model)],
        capsys,
    )
    assert code == 0 and model.exists()
    assert stdout.splitlines()[-1].startswith("constraint residual: ")


def test_fit_of_samples_whose_average_overflows_exits_3(tmp_path, capsys):
    # 1.7e308 + 1.7e308 is beyond the float range: a data error before any
    # solve, with no numpy warning on the way.
    train = tmp_path / "train.csv"
    train.write_text(
        "s1,s2,s3,s4,label\n"
        "1.7e308,1.7e308,1.0,2.0,1\n"
        "-1.7e308,-1.7e308,2.0,1.0,2\n"
        "1.0,1.7e308,-1.0,0.5,1\n"
        "0.0,-1.0,-1.7e308,-1.7e308,2\n"
    )
    model = tmp_path / "model.json"
    before = snapshot(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, stderr = run(
            ["fit", "--train", str(train), "--window", "2", "--nu", "1.0",
             "--levels", "1", "--out-model", str(model)],
            capsys,
        )
    assert code == 3
    assert stdout == ""
    assert stderr == (
        "error: level 1: the coarse average overflows; the largest |sample| is 1.700e+308\n"
    )
    assert snapshot(tmp_path) == before


def eval_setup(tmp_path, capsys, per_class=15, seed_train=11, seed_test=12):
    train = write_pair_csv(tmp_path / "train.csv", per_class, seed_train)
    test = write_pair_csv(tmp_path / "test.csv", per_class, seed_test)
    model = tmp_path / "model.json"
    code, _, _ = run(
        ["fit", "--train", str(train), "--window", "4", "--nu", "1.0",
         "--levels", "2", "--out-model", str(model)],
        capsys,
    )
    assert code == 0
    return train, test, model


def test_eval_binary_artifacts(tmp_path, capsys):
    train, test, model = eval_setup(tmp_path, capsys)
    out = tmp_path / "report"
    code, stdout, _ = run(
        ["eval", "--model", str(model), "--train", str(train),
         "--test", str(test), "--permutations", "199", "--seed", "3",
         "--top-t", "1,3", "--out-dir", str(out)],
        capsys,
    )
    assert code == 0
    rows = (out / "coefficients.csv").read_text().splitlines()
    assert rows[0].startswith("name,level,position,mode,b,s,train_accuracy")
    assert len(rows) == 1 + 16 + 8
    cells = rows[1].split(",")
    assert cells[3] == "optimal_threshold"
    assert cells[8] != ""  # p_value column filled
    assert (out / "selected.csv").exists()
    hist = (out / "support_histogram.csv").read_text().splitlines()
    assert len(hist) == 1 + 32
    for t in (1, 3):
        payload = json.loads((out / f"ensemble_t{t}.json").read_text())
        assert payload["t"] == t
        assert payload["evaluated_on"] == "test"
        assert len(payload["members"]) == t
        assert 0.0 <= payload["misclassification"] <= 1.0
        profile = (out / f"profile_t{t}.csv").read_text().splitlines()
        assert profile[0] == "example,mean_vote,group,outcome"
        assert len(profile) == 1 + 30
    summary = json.loads((out / "summary.json").read_text())
    assert summary["task"] == "binary"
    assert summary["classes"] == [1, 2]
    assert summary["test_supplied"] is True
    assert summary["evaluated_on"] == "test"
    assert summary["n_train"] == 30 and summary["n_test"] == 30
    doc = manifest_sans_clock(out / "manifest.json")
    assert doc["seeds"] == {"seed": 3}
    assert "t=1: misclassification" in stdout


def test_eval_binary_without_test_set(tmp_path, capsys):
    train, _, model = eval_setup(tmp_path, capsys)
    out = tmp_path / "report"
    code, stdout, _ = run(
        ["eval", "--model", str(model), "--train", str(train),
         "--permutations", "0", "--top-t", "3", "--out-dir", str(out)],
        capsys,
    )
    assert code == 0
    assert "no test set supplied; ensembles scored on training data" in stdout
    summary = json.loads((out / "summary.json").read_text())
    assert summary["test_supplied"] is False
    assert summary["evaluated_on"] == "train"
    assert summary["n_test"] is None
    # Without permutation tests nothing can be certified significant.
    assert summary["n_selected"] == 0
    rows = (out / "coefficients.csv").read_text().splitlines()
    assert rows[1].split(",")[7] == ""  # test_accuracy empty
    assert rows[1].split(",")[8] == ""  # p_value empty


@pytest.mark.parametrize("mode", ["optimal_threshold", "psvm_bias"])
def test_eval_rerun_byte_identical(tmp_path, capsys, mode):
    train, test, model = eval_setup(tmp_path, capsys)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code, _, _ = run(
            ["eval", "--model", str(model), "--train", str(train),
             "--test", str(test), "--permutations", "199", "--seed", "3",
             "--mode", mode, "--top-t", "3", "--out-dir", str(out)],
            capsys,
        )
        assert code == 0
        outs.append(out)
    for fname in ("coefficients.csv", "selected.csv", "support_histogram.csv",
                  "profile_t3.csv", "ensemble_t3.json", "summary.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
    rows = (outs[0] / "coefficients.csv").read_text().splitlines()[1:]
    assert all(row.split(",")[8] for row in rows)  # every coefficient has a p-value


def test_eval_multiclass(tmp_path, capsys):
    full_train = tmp_path / "train3.csv"
    full_test = tmp_path / "test3.csv"
    save_csv(generate_waveform(WaveformSpec(per_class_count=12, seed=13)), full_train)
    save_csv(generate_waveform(WaveformSpec(per_class_count=10, seed=14)), full_test)
    pair_train = write_pair_csv(tmp_path / "pair.csv", 12, 13)
    model = tmp_path / "model.json"
    code, _, _ = run(
        ["fit", "--train", str(pair_train), "--window", "4", "--nu", "1.0",
         "--levels", "2", "--out-model", str(model)],
        capsys,
    )
    assert code == 0
    out = tmp_path / "ovo"
    code, stdout, _ = run(
        ["eval", "--model", str(model), "--train", str(full_train),
         "--test", str(full_test), "--top-t", "3", "--raw-baseline",
         "--out-dir", str(out)],
        capsys,
    )
    assert code == 0
    assert "one-against-one error" in stdout
    assert "raw proximal-SVM baseline error" in stdout
    pairs = (out / "pairs_t3.csv").read_text().splitlines()
    assert pairs[0] == "class_lo,class_hi,test_error"
    assert len(pairs) == 4
    preds = (out / "predictions_t3.csv").read_text().splitlines()
    assert preds[0] == "example,true_class,predicted_class"
    assert len(preds) == 1 + 30
    summary = json.loads((out / "summary.json").read_text())
    assert summary["task"] == "one_against_one"
    assert summary["classes"] == [1, 2, 3]
    assert "raw_psvm_error" in summary
    assert "3" in summary["one_against_one"]
    # One-against-one runs no permutation test, whatever --permutations says.
    assert manifest_sans_clock(out / "manifest.json")["config"]["permutations"] == 0
    # A test set of class 1 alone leaves pair (2, 3) without rows: a blank error.
    only_1 = tmp_path / "test1.csv"
    ds = load_csv(full_test)
    save_csv(SignalDataset(signals=ds.signals[:10], class_ids=ds.class_ids[:10]), only_1)
    out = tmp_path / "ovo1"
    code, _, _ = run(
        ["eval", "--model", str(model), "--train", str(full_train), "--test", str(only_1),
         "--top-t", "3", "--out-dir", str(out)],
        capsys,
    )
    assert code == 0
    pairs = [row.split(",") for row in (out / "pairs_t3.csv").read_text().splitlines()[1:]]
    assert [row[:2] for row in pairs] == [["1", "2"], ["1", "3"], ["2", "3"]]
    assert pairs[0][2] and pairs[1][2] and pairs[2][2] == ""


def test_basis_artifacts(tmp_path, capsys):
    _, _, model = eval_setup(tmp_path, capsys)
    out = tmp_path / "basis"
    code, stdout, _ = run(
        ["basis", "--model", str(model), "--out-dir", str(out)],
        capsys,
    )
    assert code == 0
    assert "biorthogonality residual:" in stdout
    analysis = (out / "analysis.csv").read_text().splitlines()
    synthesis = (out / "synthesis.csv").read_text().splitlines()
    supports = (out / "supports.csv").read_text().splitlines()
    assert len(analysis) == len(synthesis) == 33
    assert analysis[0].split(",")[:2] == ["coefficient", "s1"]
    assert len(supports) == 33
    assert supports[1].split(",")[0] == "c2_1"
    A = np.array([line.split(",")[1:] for line in analysis[1:]], dtype=float)
    S = np.array([line.split(",")[1:] for line in synthesis[1:]], dtype=float)
    assert np.max(np.abs(A @ S.T - np.eye(32))) < 1e-8
    doc = manifest_sans_clock(out / "manifest.json")
    assert doc["config"]["biorthogonality_residual"] < 1e-8


def test_exit_code_2_on_config_errors(tmp_path, capsys):
    train = write_pair_csv(tmp_path / "train.csv", 6, 15)
    code, _, err = run(
        ["fit", "--train", str(train), "--window", "3", "--nu", "1.0",
         "--levels", "1", "--out-model", str(tmp_path / "m.json")],
        capsys,
    )
    assert code == 2
    assert "error:" in err
    model = tmp_path / "model.json"
    code, _, _ = run(
        ["fit", "--train", str(train), "--window", "4", "--nu", "1.0",
         "--levels", "1", "--out-model", str(model)],
        capsys,
    )
    assert code == 0
    code, _, err = run(
        ["eval", "--model", str(model), "--train", str(train),
         "--permutations", "199", "--out-dir", str(tmp_path / "r")],
        capsys,
    )
    assert code == 2
    assert "--seed is required" in err
    code, _, _ = run(
        ["eval", "--model", str(model), "--train", str(train),
         "--permutations", "0", "--top-t", "3,oops",
         "--out-dir", str(tmp_path / "r")],
        capsys,
    )
    assert code == 2
    code, _, _ = run(
        ["eval", "--model", str(model), "--train", str(train),
         "--permutations", "0", "--top-t", "0",
         "--out-dir", str(tmp_path / "r")],
        capsys,
    )
    assert code == 2


def test_eval_rejects_negative_permutations_before_reading(tmp_path, capsys):
    # The inputs do not exist: a read would be a data error (exit 3).
    code, _, err = run(
        ["eval", "--model", str(tmp_path / "missing.json"),
         "--train", str(tmp_path / "missing.csv"), "--permutations", "-5",
         "--seed", "1", "--out-dir", str(tmp_path / "r")],
        capsys,
    )
    assert code == 2
    assert "--permutations (0 skips the tests) must be an integer >= 100, got -5" in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("classes", [2, 3])
def test_eval_rejects_too_few_permutations_before_reading(tmp_path, capsys, classes):
    # A real training CSV of two or three classes, and no model: a read
    # would be a data error (exit 3), so exit 2 shows the count came first.
    train = tmp_path / "train.csv"
    ds = generate_waveform(WaveformSpec(per_class_count=8, seed=3))
    save_csv(ds if classes == 3 else ds.restrict_pair(1, 2), train)
    code, _, err = run(
        ["eval", "--model", str(tmp_path / "missing.json"), "--train", str(train),
         "--permutations", "50", "--seed", "1", "--out-dir", str(tmp_path / "r")],
        capsys,
    )
    assert code == 2
    assert "--permutations (0 skips the tests) must be an integer >= 100, got 50" in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["generate", "--generator", "waveform", "--per-class", "3", "--seed", "-1"],
         "--seed must be an integer >= 0, got -1"),
        (["eval", "--permutations", "100", "--seed", "-5"],
         "--seed must be an integer >= 0, got -5"),
        (["eval", "--alpha", "nan"], "--alpha must lie in (0, 1], got nan"),
        (["eval", "--alpha", "2"], "--alpha must lie in (0, 1], got 2.0"),
        (["eval", "--alpha", "0"], "--alpha must lie in (0, 1], got 0.0"),
        (["eval", "--alpha", "-1"], "--alpha must lie in (0, 1], got -1.0"),
        (["eval", "--min-accuracy", "nan"], "--min-accuracy must lie in [0, 1], got nan"),
        (["eval", "--min-accuracy", "5"], "--min-accuracy must lie in [0, 1], got 5.0"),
        (["eval", "--min-accuracy", "-0.5"], "--min-accuracy must lie in [0, 1], got -0.5"),
        (["eval", "--top-t", ","], "--top-t needs at least one entry, got ','"),
    ],
)
def test_bad_numbers_are_config_errors_before_reading(tmp_path, capsys, argv, message):
    # The inputs do not exist: a read would be a data error (exit 3).
    out = tmp_path / "out"
    if argv[0] == "generate":
        argv = argv + ["--out", str(out / "data.csv")]
    else:
        argv = argv + [
            "--model", str(tmp_path / "missing.json"), "--train", str(tmp_path / "missing.csv"),
            "--out-dir", str(out),
        ]
        if "--permutations" not in argv:
            argv += ["--permutations", "0"]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err == f"error: {message}\n"
    assert not out.exists()


def test_eval_missing_seed_leaves_no_out_dir(tmp_path, capsys):
    train, _, model = eval_setup(tmp_path, capsys)
    out = tmp_path / "report"
    before = snapshot(tmp_path)
    code, _, err = run(
        ["eval", "--model", str(model), "--train", str(train),
         "--permutations", "100", "--out-dir", str(out)],
        capsys,
    )
    assert code == 2
    assert err == "error: --seed is required when permutation tests run\n"
    assert snapshot(tmp_path) == before


@pytest.mark.parametrize("case", ["binary", "multiclass", "single-class"])
def test_eval_class_check_leaves_no_out_dir(tmp_path, capsys, case):
    train, _, model = eval_setup(tmp_path, capsys)
    test = tmp_path / "test3.csv"
    ds = generate_waveform(WaveformSpec(per_class_count=5, seed=12))
    message = "test classes [3] absent from training classes [1, 2]"
    if case == "multiclass":
        train = tmp_path / "train3.csv"
        save_csv(generate_waveform(WaveformSpec(per_class_count=8, seed=3)), train)
        ids = np.where(ds.class_ids == 3, 4, ds.class_ids)
        ds = SignalDataset(signals=ds.signals, class_ids=ids)
        message = "test classes [4] absent from training classes [1, 2, 3]"
    save_csv(ds, test)
    argv = ["eval", "--model", str(model), "--train", str(train), "--test", str(test)]
    if case == "single-class":  # no --test: training is checked against itself
        train = tmp_path / "train1.csv"
        save_csv(SignalDataset(signals=ds.signals[:5], class_ids=ds.class_ids[:5]), train)
        argv = ["eval", "--model", str(model), "--train", str(train)]
        message = "need at least two classes"
    out = tmp_path / "report"
    argv += ["--permutations", "0", "--top-t", "3", "--out-dir", str(out)]
    before = snapshot(tmp_path)
    code, _, err = run(argv, capsys)
    assert code == 3
    assert err == f"error: {message}\n"
    assert snapshot(tmp_path) == before


@pytest.mark.parametrize("flag", ["--train", "--test"])
def test_eval_of_signals_of_another_length_leaves_no_out_dir(tmp_path, capsys, flag):
    # The model is fitted to 32-sample signals; these have 64.
    train, test, model = eval_setup(tmp_path, capsys, per_class=10)
    longer = tmp_path / "longer.csv"
    ds = load_csv(train)
    save_csv(SignalDataset(np.hstack([ds.signals, ds.signals]), ds.class_ids), longer)
    inputs = {"--train": train, "--test": test, flag: longer}
    out = tmp_path / "report"
    before = snapshot(tmp_path)
    code, _, err = run(
        ["eval", "--model", str(model), "--train", str(inputs["--train"]),
         "--test", str(inputs["--test"]), "--permutations", "0", "--out-dir", str(out)],
        capsys,
    )
    assert code == 3
    assert err == f"error: {longer}: signals have length 64, model expects 32\n"
    assert snapshot(tmp_path) == before


def test_eval_binary_raw_baseline_leaves_no_out_dir(tmp_path, capsys):
    # The raw-PSVM baseline scores the class pairs of a 3+ class eval; a
    # binary eval has none, so the flag is a usage error.
    train, test, model = eval_setup(tmp_path, capsys)
    out = tmp_path / "report"
    before = snapshot(tmp_path)
    code, _, err = run(
        ["eval", "--model", str(model), "--train", str(train), "--test", str(test),
         "--permutations", "0", "--top-t", "3", "--raw-baseline", "--out-dir", str(out)],
        capsys,
    )
    assert code == 2
    assert err == "error: --raw-baseline scores class pairs: it needs 3+ classes in --train\n"
    assert snapshot(tmp_path) == before


@pytest.mark.parametrize("command", ["fit", "eval"])
def test_headerless_input_fails_before_any_output(tmp_path, capsys, command):
    # Read as a header, the first signal would vanish: eval would score 19 of 20 rows.
    train, test, model = eval_setup(tmp_path, capsys, per_class=10)
    headerless = tmp_path / "headerless.csv"
    lines = (train if command == "fit" else test).read_text().splitlines(keepends=True)
    headerless.write_text("".join(lines[1:]))
    out = tmp_path / "out"
    if command == "fit":
        argv = ["fit", "--train", str(headerless), "--window", "4", "--nu", "1.0",
                "--levels", "2", "--out-model", str(out / "model.json")]
    else:
        argv = ["eval", "--model", str(model), "--train", str(train),
                "--test", str(headerless), "--permutations", "0", "--out-dir", str(out)]
    before = snapshot(tmp_path)
    code, _, err = run(argv, capsys)
    assert code == 3
    assert err == f"error: {headerless}: row 1 holds numbers, not a header\n"
    assert snapshot(tmp_path) == before


@pytest.mark.parametrize("classes", [2, 3])
def test_eval_top_t_above_the_coefficient_count(tmp_path, capsys, classes):
    train, _, model = eval_setup(tmp_path, capsys)  # 32 samples, 2 levels: K = 24
    if classes == 3:
        train = tmp_path / "train3.csv"
        save_csv(generate_waveform(WaveformSpec(per_class_count=8, seed=3)), train)
    out = tmp_path / "report"
    argv = ["eval", "--model", str(model), "--train", str(train), "--permutations", "0",
            "--out-dir", str(out)]
    code, _, err = run(argv + ["--top-t", "3,25"], capsys)
    assert code == 2
    assert err == "error: --top-t 25 exceeds the model's 24 detail coefficients\n"
    assert not out.exists()
    code, _, _ = run(argv + ["--top-t", "24"], capsys)
    assert code == 0
    if classes == 2:
        members = json.loads((out / "ensemble_t24.json").read_text())["members"]
        assert len(members) == 24


def test_exit_code_3_on_data_errors(tmp_path, capsys):
    code, _, err = run(
        ["fit", "--train", str(tmp_path / "missing.csv"), "--window", "4",
         "--nu", "1.0", "--levels", "1",
         "--out-model", str(tmp_path / "m.json")],
        capsys,
    )
    assert code == 3
    assert "error:" in err
    bad = tmp_path / "bad.csv"
    for body in ("1.0,oops,1\n", "1.0,2.0,1e20\n3.0,4.0,2\n"):
        bad.write_text("s1,s2,label\n" + body)
        code, _, err = run(
            ["fit", "--train", str(bad), "--window", "2", "--nu", "1.0",
             "--levels", "1", "--out-model", str(tmp_path / "m.json")],
            capsys,
        )
        assert code == 3
        assert "row 2" in err


UNREADABLE = {  # an input that cannot be opened, decoded or parsed: (file, how it is spoiled)
    "missing csv": ("train.csv", "missing"),
    "csv directory": ("train.csv", "directory"),
    "invalid utf-8 in the header": ("train.csv", lambda b: b"\xff" + b),
    "invalid utf-8 in the last row": ("train.csv", lambda b: b[:-1] + b"\xff\n"),
    "csv cell over 131072 characters": ("train.csv", lambda b: b.replace(
        b"\n", b'\n"' + b"1" * 200_000 + b'",', 1)),
    "missing model": ("model.json", "missing"),
    "invalid utf-8 in the model": ("model.json", lambda b: b"\xff" + b),
    "model nested past the recursion limit": ("model.json", lambda b: b"[" * 200_000),
    "model integer past the digit limit": ("model.json", lambda b: b.replace(
        b'"nu": 1.0', b'"nu": ' + b"1" * 5000, 1)),
}
READ_BY = {"train.csv": ("fit", "eval"), "model.json": ("eval", "basis")}


@pytest.mark.parametrize("command, case", [
    (command, case) for case, (name, _) in UNREADABLE.items() for command in READ_BY[name]
])
def test_an_unreadable_input_exits_3_naming_it(tmp_path, capsys, command, case):
    name, spoil = UNREADABLE[case]
    train, _, model = eval_setup(tmp_path, capsys, per_class=10)
    path = tmp_path / name
    if isinstance(spoil, str):
        path.unlink()
        if spoil == "directory":
            path.mkdir()
    else:
        path.write_bytes(spoil(path.read_bytes()))
    out = tmp_path / "out"
    argv = {
        "fit": ["fit", "--train", str(train), "--window", "4", "--nu", "1.0", "--levels", "2",
                "--out-model", str(out / "model.json")],
        "eval": ["eval", "--model", str(model), "--train", str(train), "--permutations", "0",
                 "--out-dir", str(out)],
        "basis": ["basis", "--model", str(model), "--out-dir", str(out)],
    }[command]
    before = snapshot(tmp_path)
    code, _, err = run(argv, capsys)
    assert code == 3
    assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1, err[:300]
    assert snapshot(tmp_path) == before


def test_exit_code_4_on_numerical_error(tmp_path, capsys):
    # Hand-built regularised model whose first target weight is exactly zero:
    # base-vector synthesis must fail as non-invertible.
    model = tmp_path / "degenerate.json"
    doc = {
        "config": {
            "levels": 1, "window": 2, "nu": 1.0, "variant": "regularised",
            "constraint_degree": 0,
        },
        "levels": [{"weights": [[0.0, 0.5, 0.5], [1.0, 0.5, 0.5]], "gamma": [0.0, 0.0]}],
    }
    model.write_text(json.dumps(doc))
    code, _, err = run(
        ["basis", "--model", str(model), "--out-dir", str(tmp_path / "b")],
        capsys,
    )
    assert code == 4
    assert "target weight" in err
    # A regularised fit of data x1e-200: every detail underflows to zero.
    rng = np.random.default_rng(3)
    tiny = tmp_path / "tiny.csv"
    save_csv(
        SignalDataset(signals=1e-200 * rng.normal(size=(20, 16)),
                      class_ids=np.repeat([1, 2], 10)),
        tiny,
    )
    code, _, err = run(
        ["fit", "--train", str(tiny), "--window", "2", "--nu", "1.0",
         "--levels", "2", "--variant", "regularised",
         "--out-model", str(tmp_path / "tiny.json")],
        capsys,
    )
    assert code == 4
    assert "does not invert its training signals" in err


@pytest.mark.parametrize("command", ["eval", "basis"])
def test_non_finite_model_weight_fails_before_any_output(tmp_path, capsys, command):
    # json.load reads NaN and Infinity, which save_model never writes.
    train, _, model = eval_setup(tmp_path, capsys, per_class=10)
    doc = json.loads(model.read_text())
    doc["levels"][1]["weights"][2][1] = float("nan")
    model.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = ["basis", "--model", str(model)]
    if command == "eval":
        argv = ["eval", "--model", str(model), "--train", str(train), "--permutations", "0"]
    before = snapshot(tmp_path)
    code, _, err = run(argv + ["--out-dir", str(out)], capsys)
    assert code == 3
    assert err == (
        f"error: {model}: malformed model file (level 2 holds a non-finite weight or offset)\n"
    )
    assert snapshot(tmp_path) == before


def test_empty_supports_are_blank_bounds(tmp_path, capsys):
    # Regularised weights of data x1e-20 leave every detail's analysis row
    # below SUPPORT_ATOL: an empty support. Such a model passes fit's
    # round-trip check, which is relative to the data's scale, but its
    # synthesis does not invert its analysis on unit inputs, so basis fails.
    ds = generate_waveform(WaveformSpec(per_class_count=10, seed=11)).restrict_pair(1, 2)
    train = tmp_path / "tiny.csv"
    save_csv(SignalDataset(signals=1e-20 * ds.signals, class_ids=ds.class_ids), train)
    model = tmp_path / "model.json"
    code, _, _ = run(
        ["fit", "--train", str(train), "--window", "4", "--nu", "1.0", "--levels", "2",
         "--variant", "regularised", "--out-model", str(model)],
        capsys,
    )
    assert code == 0
    basis = tmp_path / "b"
    before = snapshot(tmp_path)
    code, stdout, err = run(["basis", "--model", str(model), "--out-dir", str(basis)], capsys)
    assert code == 4
    assert stdout == ""
    assert err.startswith("error: synthesis does not invert analysis: biorthogonality residual ")
    assert err.endswith(" exceeds 0.001\n") and err.count("\n") == 1
    assert snapshot(tmp_path) == before
    out = tmp_path / "ev"
    code, _, _ = run(
        ["eval", "--model", str(model), "--train", str(train), "--permutations", "0",
         "--top-t", "3", "--out-dir", str(out)],
        capsys,
    )
    assert code == 0
    rows = [row.split(",") for row in (out / "coefficients.csv").read_text().splitlines()]
    assert rows[0][-3:] == ["support_first", "support_last", "support_size"]
    assert len(rows) == 1 + 24
    assert all(row[-3:] == ["", "", "0"] for row in rows[1:])


@pytest.mark.parametrize("command", ["generate", "fit", "eval", "basis"])
def test_unwritable_output_path_exits_2(tmp_path, capsys, command):
    # The output lies under a regular file, so its directory cannot be made;
    # every command finds that before it reads any input or does any work.
    train, _, model = eval_setup(tmp_path, capsys, per_class=10)
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    out = blocker / "out"
    argv = {
        "generate": ["generate", "--generator", "waveform", "--per-class", "2", "--seed", "1",
                     "--out", str(out / "data.csv")],
        "fit": ["fit", "--train", str(train), "--window", "4", "--nu", "1.0", "--levels", "2",
                "--out-model", str(out / "model.json")],
        "eval": ["eval", "--model", str(model), "--train", str(train), "--permutations", "0",
                 "--top-t", "3", "--out-dir", str(out)],
        "basis": ["basis", "--model", str(model), "--out-dir", str(out)],
    }[command]
    code, stdout, err = run(argv, capsys)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
    assert str(blocker) in err and "Traceback" not in err
    assert blocker.read_text() == "not a directory\n"


@pytest.mark.parametrize("flag", ["--out", "--out-model", "--out-features", "manifest"])
def test_output_file_naming_a_directory_exits_2_before_any_work(tmp_path, capsys, flag):
    train = write_pair_csv(tmp_path / "train.csv", 10, 11)
    # The manifest beside --out-model model.json is model.manifest.json.
    taken = tmp_path / ("model.manifest.json" if flag == "manifest" else "taken")
    taken.mkdir()
    if flag == "--out":
        argv = ["generate", "--generator", "waveform", "--per-class", "2", "--seed", "1"]
    else:
        argv = ["fit", "--train", str(train), "--window", "4", "--nu", "1.0", "--levels", "2",
                "--out-model", str(tmp_path / "model.json")]
    if flag != "manifest":
        argv += [flag, str(taken)]
    before = snapshot(tmp_path)
    code, stdout, err = run(argv, capsys)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
    assert str(taken) in err
    # No model is left without its features or manifest.
    assert snapshot(tmp_path) == before


def test_empty_out_features_names_the_working_directory(tmp_path, capsys, monkeypatch):
    # "" used to switch features off (exit 0, no file); it is a path like any other.
    train = write_pair_csv(tmp_path / "train.csv", 10, 11)
    monkeypatch.chdir(tmp_path)
    argv = ["fit", "--train", str(train), "--window", "4", "--nu", "1.0", "--levels", "2",
            "--out-model", str(tmp_path / "model.json"), "--out-features", ""]
    before = snapshot(tmp_path)
    code, stdout, err = run(argv, capsys)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: cannot write output: ") and err.endswith(": '.'\n")
    assert snapshot(tmp_path) == before


@pytest.mark.parametrize("features", ["model.json", "model.manifest.json"])
def test_two_outputs_on_one_path_exit_2_before_any_work(tmp_path, capsys, features):
    # Either way the last file written would overwrite the one before it.
    train = write_pair_csv(tmp_path / "train.csv", 10, 11)
    argv = ["fit", "--train", str(train), "--window", "4", "--nu", "1.0", "--levels", "2",
            "--out-model", str(tmp_path / "model.json"), "--out-features", str(tmp_path / features)]
    before = snapshot(tmp_path)
    code, stdout, err = run(argv, capsys)
    assert code == 2
    assert stdout == ""
    pair = "--out-model and --out-features" if features == "model.json" else (
        "--out-features and the manifest"
    )
    assert err == f"error: {pair} name one file: {tmp_path / features}\n"
    assert snapshot(tmp_path) == before


@pytest.mark.parametrize("case", ["eval-summary", "basis-supports", "fit-writer", "fit-nested"])
def test_failed_publish_leaves_nothing(tmp_path, capsys, monkeypatch, case):
    # A derived output found unwritable only after the computation, a writer
    # that fails midway, or an output file naming the directory of another
    # leaves no output, no staging file and no new directory.
    train, _, model = eval_setup(tmp_path, capsys, per_class=10)
    out = tmp_path / "out"
    if case == "fit-nested":
        argv = ["fit", "--train", str(train), "--window", "4", "--nu", "1.0", "--levels", "2",
                "--out-model", str(out / "model.json"), "--out-features", str(out)]
        blocked, first_line = out, "level 1: 16 positions"
    elif case == "fit-writer":
        def fail(fitted, merged, class_ids, path):
            Path(path).write_bytes(b"c3_1,c3_2")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

        monkeypatch.setattr(tf, "save_features", fail)
        argv = ["fit", "--train", str(train), "--window", "4", "--nu", "1.0", "--levels", "2",
                "--out-model", str(out / "model.json"),
                "--out-features", str(out / "features.csv")]
        blocked, first_line = out / ".features.csv.partial", "level 1: 16 positions"
    elif case == "eval-summary":
        blocked, first_line = out / "summary.json", "t=3: misclassification"
        argv = ["eval", "--model", str(model), "--train", str(train), "--permutations", "0",
                "--top-t", "3", "--out-dir", str(out)]
    else:
        blocked, first_line = out / "supports.csv", "biorthogonality residual: "
        argv = ["basis", "--model", str(model), "--out-dir", str(out)]
    if case.startswith(("eval", "basis")):
        blocked.mkdir(parents=True)
    before = snapshot(tmp_path)
    code, stdout, err = run(argv, capsys)
    assert code == 2
    assert stdout.startswith(first_line)  # the computation ran; publishing failed
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
    assert str(blocked) in err
    assert snapshot(tmp_path) == before


@pytest.mark.parametrize("case", ["tiny-scale", "raw-baseline"])
def test_eval_failure_after_reading_leaves_no_out_dir(tmp_path, capsys, monkeypatch, case):
    # eval computes every result, the raw baseline included, before --out-dir exists.
    ds = generate_waveform(WaveformSpec(per_class_count=10, seed=13))
    train = write_pair_csv(tmp_path / "pair.csv", 10, 13)
    model = tmp_path / "model.json"
    code, _, _ = run(
        ["fit", "--train", str(train), "--window", "4", "--nu", "1.0", "--levels", "2",
         "--variant", "regularised", "--out-model", str(model)],
        capsys,
    )
    assert code == 0
    train3 = tmp_path / "train3.csv"
    argv = ["eval", "--model", str(model), "--train", str(train3), "--top-t", "3"]
    if case == "tiny-scale":  # every pair fit underflows and fails its round trip
        ds = SignalDataset(signals=1e-200 * ds.signals, class_ids=ds.class_ids)
        message = "does not invert its training signals"
    else:
        def fail(*args):
            raise NumericalError("baseline failed")

        monkeypatch.setattr(evaluation, "one_against_one_raw_psvm", fail)
        argv.append("--raw-baseline")
        message = "baseline failed"
    save_csv(ds, train3)
    out = tmp_path / "report"
    before = snapshot(tmp_path)
    code, _, err = run(argv + ["--out-dir", str(out)], capsys)
    assert code == 4
    assert message in err and err.count("\n") == 1
    assert snapshot(tmp_path) == before


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Texts of known-good tiny inputs: a two-class and a three-class CSV of
    length-32 waveforms, and a model fit on the first."""
    root = tmp_path_factory.mktemp("fuzz-inputs")
    write_pair_csv(root / "pair.csv", 6, 21)
    save_csv(generate_waveform(WaveformSpec(per_class_count=4, seed=22)), root / "three.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["fit", "--train", str(root / "pair.csv"), "--window", "4", "--nu", "1.0",
                     "--levels", "2", "--out-model", str(root / "model.json")])
    assert code == 0
    return {name: (root / name).read_text() for name in ("pair.csv", "three.csv", "model.json")}


def invalid_utf8(text, draw):
    """The bytes of `text` with one 0xff byte, which UTF-8 never holds, put anywhere."""
    data = text.encode()
    i = draw(st.integers(0, len(data)))
    return data[:i] + b"\xff" + data[i:]


def mutate_csv(text, kind, draw):
    """The bytes of `text` spoiled in one way; "none" leaves it good."""
    rows = [line.split(",") for line in text.splitlines()]
    if kind == "invalid-utf8":
        return invalid_utf8(text, draw)
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))].encode()
    if kind == "crlf":
        return text.replace("\n", "\r\n").encode()
    if kind == "bom":
        return ("\ufeff" + text).encode()
    if kind == "long-field":  # a quoted cell past csv's default field size limit, 131072
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows[0]) - 1))
        rows[i][j] = '"' + "1" * 131073 + '"'
    if kind in ("nan", "fractional-label"):
        i = draw(st.integers(1, len(rows) - 1))
        j = -1 if kind == "fractional-label" else draw(st.integers(0, len(rows[i]) - 2))
        rows[i][j] = "1.5" if kind == "fractional-label" else "nan"
    if kind == "one-class":
        rows = rows[:1] + [row for row in rows[1:] if row[-1] == rows[1][-1]]
    if kind in ("dropped-column", "odd-width"):  # any column, or the last sample (width 31)
        j = len(rows[0]) - 2 if kind == "odd-width" else draw(st.integers(0, len(rows[0]) - 1))
        rows = [row[:j] + row[j + 1:] for row in rows]
    return "".join(",".join(row) + "\n" for row in rows).encode()


def mutate_model(text, kind, draw):
    """The bytes of the model file `text` spoiled in one way; "none" leaves it good."""
    doc = json.loads(text)
    if kind == "invalid-utf8":
        return invalid_utf8(text, draw)
    if kind == "deep":  # nested past the recursion limit
        depth = 100 * sys.getrecursionlimit()
        return b"[" * depth + b"]" * depth
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))].encode()
    if kind == "dropped-key":
        holder = draw(st.sampled_from([doc, doc["config"], doc["levels"][0], doc["levels"][-1]]))
        del holder[draw(st.sampled_from(sorted(holder)))]
    if kind == "nan-weight":
        weights = doc["levels"][draw(st.integers(0, len(doc["levels"]) - 1))]["weights"]
        weights[draw(st.integers(0, len(weights) - 1))][0] = float("nan")
    return json.dumps(doc).encode()


CSV_MUTATIONS = ["none", "truncate", "dropped-column", "crlf", "bom", "nan",
                 "fractional-label", "one-class", "odd-width", "invalid-utf8", "long-field"]
MODEL_MUTATIONS = ["none", "truncate", "dropped-key", "nan-weight", "invalid-utf8", "deep"]


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_cli_fuzz_exits_cleanly(fuzz_inputs, tmp_path_factory, data):
    """Any flags within the types argparse accepts, on good or spoiled inputs:
    exit 0, 2, 3 or 4; a failure prints one `error:` line and leaves every
    file as it was, with no staging file."""
    def pick(usual, *others):
        """`usual` in about five draws of six, else one of `others`."""
        if others and data.draw(st.integers(0, 5)) == 0:
            return data.draw(st.sampled_from(others))
        return usual

    root = tmp_path_factory.mktemp("fuzz")
    csvs = []
    for name in ("train.csv", "test.csv"):
        text = fuzz_inputs[pick("pair.csv", "three.csv")]
        (root / name).write_bytes(mutate_csv(text, pick(*CSV_MUTATIONS), data.draw))
        csvs.append(str(root / name))
    model = root / "model.json"
    model.write_bytes(mutate_model(fuzz_inputs["model.json"], pick(*MODEL_MUTATIONS), data.draw))
    out = root / "out"
    command = data.draw(st.sampled_from(["generate", "fit", "eval", "basis"]))
    if command == "generate":
        argv = ["generate", "--generator", pick("waveform", "shape-cbf"),
                "--per-class", pick("2", "-1", "0", "1"), "--seed", pick("7", "-1", "0"),
                "--out", str(out / "data.csv")]
    elif command == "fit":
        argv = ["fit", "--train", csvs[0], "--window", pick("4", "-2", "0", "1", "2", "3", "64"),
                "--nu", pick("1", "-1", "0", "1e-300", "1e300", "nan", "inf"),
                "--levels", pick("2", "-1", "0", "1", "6"),
                "--variant", pick("nonregularised", "regularised"),
                "--constraint-degree", pick("0", "-1", "1", "2", "9"),
                "--out-model", str(out / "model.json")]
        argv += pick([], ["--out-features", str(out / "features.csv")])
    elif command == "eval":
        argv = ["eval", "--model", str(model), "--train", csvs[0],
                "--mode", pick(*evaluation.MODES),
                "--top-t", pick("3,15", "0", "1", "x", "24", "25"),
                "--permutations", pick("100", "-1", "0", "50"),
                "--alpha", pick("0.1", "nan", "0", "1", "2"),
                "--min-accuracy", pick("0.75", "-0.5", "0", "1", "nan"),
                "--out-dir", str(out)]
        argv += pick(["--test", csvs[1]], []) + pick(["--seed", "3"], [], ["--seed", "-1"])
        argv += pick([], ["--raw-baseline"])
    else:
        argv = ["basis", "--model", str(model), "--out-dir", str(out)]
    before = snapshot(root)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    err = stderr.getvalue()
    assert code in (0, 2, 3, 4), (argv, err)
    if code == 0:
        assert err == ""
        assert not [p for p in root.rglob("*") if p.name.endswith(".partial")]
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert "Traceback" not in err
        assert snapshot(root) == before, argv


def test_console_script_and_version():
    proc = subprocess.run(
        [sys.executable, "-m", "discwave.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("discwave ")
    proc = subprocess.run(
        [sys.executable, "-m", "discwave.cli"], capture_output=True, text=True
    )
    assert proc.returncode == 2  # argparse: a subcommand is required


def test_package_root_holds_only_the_version():
    # Every name is imported from its module; the root re-exports nothing.
    public = [name for name in dir(discwave) if not name.startswith("_")]
    assert all(isinstance(getattr(discwave, name), types.ModuleType) for name in public), public
    assert isinstance(discwave.__version__, str)
