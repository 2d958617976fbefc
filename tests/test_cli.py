"""End-to-end command-line tests (in-process via main(argv)).

Each command is exercised against real files in tmp_path; reruns must be
byte-identical except for the manifest's wall-clock field. Exit codes: 0
success, 2 configuration, 3 data, 4 numerical.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from discwave.cli import main
from discwave.core import SignalDataset
from discwave.datasets import WaveformSpec, generate_waveform, load_csv, save_csv
from discwave import transform as tf

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


def test_generate_shape_and_no_header(tmp_path, capsys):
    out = tmp_path / "shape.csv"
    code, stdout, _ = run(
        ["generate", "--generator", "shape-cbf", "--per-class", "5",
         "--seed", "6", "--out", str(out), "--no-header"],
        capsys,
    )
    assert code == 0
    assert "wrote 15 signals of length 128" in stdout
    lines = out.read_text().splitlines()
    assert len(lines) == 15
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
    assert "fitted 3 of 3 requested levels" in stdout
    assert stderr == ""
    fitted = tf.load_model(model)
    assert [len(records) for records in fitted.levels] == [16, 8, 4]
    names, merged, ids = tf.load_features(features)
    assert merged.shape == (40, 32)
    assert names[0] == "c3_1"
    doc = manifest_sans_clock(tmp_path / "model.manifest.json")
    assert doc["config"]["effective_levels"] == 3
    assert doc["config"]["constraint_residual"] is None
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


def test_fit_early_stop_warns_on_stderr(tmp_path, capsys):
    train = write_pair_csv(tmp_path / "train.csv", 10, 9)
    model = tmp_path / "model.json"
    code, stdout, stderr = run(
        ["fit", "--train", str(train), "--window", "4", "--nu", "1.0",
         "--levels", "4", "--out-model", str(model)],
        capsys,
    )
    assert code == 0
    assert "fitted 3 of 4 requested levels" in stdout
    assert "stopping at 3 levels" in stderr
    assert tf.load_model(model).effective_levels == 3


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
    assert "--permutations must be >= 0, got -5" in err
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
    assert "--permutations must be 0 or >= 100, got 50" in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["generate", "--generator", "waveform", "--per-class", "3", "--seed", "-1"],
         "--seed must be >= 0, got -1"),
        (["eval", "--permutations", "100", "--seed", "-5"], "--seed must be >= 0, got -5"),
        (["eval", "--alpha", "nan"], "--alpha must lie in (0, 1], got nan"),
        (["eval", "--alpha", "2"], "--alpha must lie in (0, 1], got 2.0"),
        (["eval", "--alpha", "0"], "--alpha must lie in (0, 1], got 0.0"),
        (["eval", "--alpha", "-1"], "--alpha must lie in (0, 1], got -1.0"),
        (["eval", "--min-accuracy", "nan"], "--min-accuracy must lie in [0, 1], got nan"),
        (["eval", "--min-accuracy", "5"], "--min-accuracy must lie in [0, 1], got 5.0"),
        (["eval", "--min-accuracy", "-0.5"], "--min-accuracy must lie in [0, 1], got -0.5"),
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
    code, _, err = run(
        ["eval", "--model", str(model), "--train", str(train),
         "--permutations", "100", "--out-dir", str(out)],
        capsys,
    )
    assert code == 2
    assert err == "error: --seed is required when permutation tests run\n"
    assert not out.exists()


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


def test_exit_code_4_on_numerical_error(tmp_path, capsys):
    # Hand-built regularised model whose first target weight is exactly zero:
    # base-vector synthesis must fail as non-invertible.
    model = tmp_path / "degenerate.json"
    doc = {
        "signal_length": 4,
        "config": {
            "levels": 1, "window": 2, "nu": 1.0, "variant": "regularised",
            "constraint_degree": 0, "seed": 0,
        },
        "effective_levels": 1,
        "levels": [[
            {"k": 1, "indices": [1, 2], "weights": [0.0, 0.5, 0.5], "gamma": 0.0},
            {"k": 2, "indices": [1, 2], "weights": [1.0, 0.5, 0.5], "gamma": 0.0},
        ]],
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
