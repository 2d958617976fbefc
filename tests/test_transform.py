"""Lifting-transform tests: hand fixtures, invariants, round trips, file formats.

The tiny N=4 fixture is solved by hand: with two training signals the dual u
has two entries, so eliminating w = At^T Y u and gamma = -e^T Y u from the
feasibility rows leaves a 2x2 linear system per position. All quantities come
out as exact rationals with denominator 280, frozen below.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from discwave.core import (
    ConfigError,
    DataError,
    NumericalError,
    SignalDataset,
    TransformConfig,
    index_window,
    interleave,
    split,
)
from discwave import solver, transform as tf
from discwave.datasets import WaveformSpec, generate_waveform


def tiny_dataset():
    signals = np.array([[1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0]])
    return SignalDataset(signals=signals, labels=np.array([1.0, -1.0]))


def random_dataset(rng, n, N):
    signals = rng.normal(size=(n, N))
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    labels[0], labels[1] = 1.0, -1.0
    return SignalDataset(signals=signals, labels=labels)


def test_update_step_pair_average():
    odd, even = split(np.array([[1.0, 2.0, 3.0, 4.0]]))
    assert np.array_equal(odd, [[1.0, 3.0]])
    assert np.array_equal(even, [[2.0, 4.0]])
    assert np.array_equal(0.5 * (odd + even), [[1.5, 3.5]])


def test_interleave_inverts_split():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 8))
    assert np.array_equal(interleave(*split(x)), x)


def test_hand_solved_tiny_fixture():
    # N=4, L=2, nu=1, one level. Both positions share the window {1,2} and the
    # coarse rows [[1.5, 3.5], [3.5, 1.5]]; eliminating the 2-entry dual by hand
    # gives 280*w = (293, -43) at k=1 and (69, 181) at k=2, gamma = 5/28 at both,
    # and detail rows 280*d = [[271, 383], [-121, -233]].
    cfg = TransformConfig(levels=1, window=2, nu=1.0, variant="nonregularised")
    t, table = tf.fit(tiny_dataset(), cfg)
    assert t.effective_levels == 1
    level = t.levels[0]
    assert t.columns[0].tolist() == [[0, 1], [0, 1]]
    expected_w = np.array([[293.0, -43.0], [69.0, 181.0]]) / 280.0
    assert level.weights.shape == (2, 2)
    assert np.allclose(level.weights, expected_w, atol=1e-12)
    assert np.max(np.abs(level.gamma - 5.0 / 28.0)) < 1e-12
    assert np.array_equal(level[0].weights, level.weights[0]) and level[1].gamma == level.gamma[1]
    expected = np.array([[271.0, 383.0], [-121.0, -233.0]]) / 280.0
    assert np.max(np.abs(table.details[0] - expected)) < 1e-12
    assert np.array_equal(table.coarse, [[1.5, 3.5], [3.5, 1.5]])
    assert np.array_equal(table.merged[:, :2], table.coarse)
    assert np.array_equal(table.merged[:, 2:], table.details[0])


def test_fit_table_equals_apply():
    rng = np.random.default_rng(1)
    ds = random_dataset(rng, 12, 16)
    cfg = TransformConfig(levels=2, window=2, nu=0.5, variant="nonregularised")
    t, table = tf.fit(ds, cfg)
    again = tf.apply(t, ds.signals, labels=ds.labels)
    assert np.array_equal(table.merged, again.merged)
    assert np.array_equal(table.coarse, again.coarse)
    for a, b in zip(table.details, again.details):
        assert np.array_equal(a, b)


def test_apply_is_linear():
    rng = np.random.default_rng(2)
    ds = random_dataset(rng, 10, 16)
    cfg = TransformConfig(levels=3, window=2, nu=2.0, variant="nonregularised")
    t, _ = tf.fit(ds, cfg)
    x = rng.normal(size=(4, 16))
    y = rng.normal(size=(4, 16))
    a, b = 0.7, -2.3
    lhs = tf.apply(t, a * x + b * y).merged
    rhs = a * tf.apply(t, x).merged + b * tf.apply(t, y).merged
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_coarse_matches_block_average_oracle():
    # Independent oracle for the coarse channel: M rounds of adjacent pair
    # averaging, written as an explicit loop.
    rng = np.random.default_rng(3)
    ds = random_dataset(rng, 8, 32)
    cfg = TransformConfig(levels=3, window=2, nu=1.0, variant="nonregularised")
    t, table = tf.fit(ds, cfg)
    expected = ds.signals.copy()
    for _ in range(3):
        out = np.empty((expected.shape[0], expected.shape[1] // 2))
        for j in range(out.shape[1]):
            out[:, j] = 0.5 * (expected[:, 2 * j] + expected[:, 2 * j + 1])
        expected = out
    assert np.max(np.abs(table.coarse - expected)) < 1e-12


@pytest.mark.parametrize("variant", ["nonregularised", "regularised"])
def test_round_trip_random_signals(variant):
    rng = np.random.default_rng(4)
    ds = random_dataset(rng, 30, 16)
    cfg = TransformConfig(levels=3, window=2, nu=1.0, variant=variant)
    t, _ = tf.fit(ds, cfg)
    x = rng.normal(size=(50, 16))
    back = tf.reconstruct(t, tf.apply(t, x))
    assert np.max(np.abs(back - x)) < 1e-8


@pytest.mark.parametrize(
    "variant, degree, scale",
    [
        ("nonregularised", 0, 1e6),
        ("regularised", 0, 1e6),
        ("nonregularised", 2, 1e6),
        ("regularised", 0, 1e-20),
    ],
)
def test_fit_and_round_trip_far_from_unit_scale(variant, degree, scale):
    # At 1e6 a solve through the normal equations fails its own checks; at
    # 1e-20 every regularised target weight is ~1e-20, yet each predictor is
    # well invertible relative to its own weights.
    rng = np.random.default_rng(20)
    ds = random_dataset(rng, 30, 32)
    ds = SignalDataset(signals=scale * ds.signals, labels=ds.labels)
    cfg = TransformConfig(
        levels=3, window=4, nu=1.0, variant=variant, constraint_degree=degree
    )
    t, table = tf.fit(ds, cfg)
    assert np.array_equal(table.merged, tf.apply(t, ds.signals).merged)
    x = scale * rng.normal(size=(50, 32))
    back = tf.reconstruct(t, tf.apply(t, x))
    assert np.max(np.abs(back - x)) <= 1e-9 * np.max(np.abs(x))


def test_fit_rejects_details_that_underflow():
    # x1e-200: every regularised weight times the data underflows, so all
    # details are 0 and the transform cannot give the signals back.
    rng = np.random.default_rng(21)
    ds = random_dataset(rng, 20, 16)
    ds = SignalDataset(signals=1e-200 * ds.signals, labels=ds.labels)
    cfg = TransformConfig(levels=2, window=2, nu=1.0, variant="regularised")
    with pytest.raises(NumericalError, match="does not invert its training signals"):
        tf.fit(ds, cfg)


def test_fit_overflow_is_a_typed_error_without_runtime_warnings():
    # x1e200: the stationarity check's products overflow to inf and NaN; the
    # NaN residual fails the tolerance test, and numpy stays silent.
    rng = np.random.default_rng(0)
    ds = random_dataset(rng, 20, 16)
    ds = SignalDataset(signals=1e200 * ds.signals, labels=ds.labels)
    cfg = TransformConfig(levels=2, window=2, nu=1.0, variant="nonregularised")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="stationarity residual"):
            tf.fit(ds, cfg)


def test_round_trip_waveform():
    ds = generate_waveform(WaveformSpec(per_class_count=40, seed=11)).restrict_pair(1, 2)
    cfg = TransformConfig(levels=3, window=4, nu=1.0, variant="nonregularised")
    t, table = tf.fit(ds, cfg)
    back = tf.reconstruct(t, table)
    assert np.max(np.abs(back - ds.signals)) < 1e-8


def test_constant_signals_vanish_with_constraints():
    rng = np.random.default_rng(5)
    ds = random_dataset(rng, 10, 32)
    cfg = TransformConfig(
        levels=3, window=4, nu=1.0, variant="nonregularised", constraint_degree=1
    )
    t, _ = tf.fit(ds, cfg)
    x = np.full((3, 32), 7.25)
    x[1] = -2.0
    x[2] = 0.0
    table = tf.apply(t, x)
    for d in table.details:
        assert np.max(np.abs(d)) < 1e-10
    assert np.max(np.abs(table.coarse - x[:, :1] * np.ones((1, 4)))) < 1e-12


def test_linear_ramps_vanish_with_degree_two_constraints():
    rng = np.random.default_rng(6)
    ds = random_dataset(rng, 14, 32)
    cfg = TransformConfig(
        levels=3, window=4, nu=1.0, variant="nonregularised", constraint_degree=2
    )
    t, _ = tf.fit(ds, cfg)
    i = np.arange(1, 33, dtype=float)
    x = np.vstack([3.0 - 0.5 * i, 0.25 * i + 1.0, np.full(32, 4.0)])
    table = tf.apply(t, x)
    for d in table.details:
        assert np.max(np.abs(d)) < 1e-8
    res = tf.constraint_residual(t)
    assert res is not None and res < 1e-10


def test_constraint_residual_none_when_unconstrained():
    rng = np.random.default_rng(7)
    ds = random_dataset(rng, 8, 8)
    cfg = TransformConfig(levels=1, window=2, nu=1.0, variant="nonregularised")
    t, _ = tf.fit(ds, cfg)
    assert tf.constraint_residual(t) is None


def test_biorthogonal_base_vectors():
    ds = generate_waveform(WaveformSpec(per_class_count=30, seed=12)).restrict_pair(1, 2)
    cfg = TransformConfig(levels=3, window=4, nu=1.0, variant="nonregularised")
    t, _ = tf.fit(ds, cfg)
    base = tf.base_vectors(t)
    N = ds.signal_length
    assert base.analysis.shape == (N, N)
    assert base.synthesis.shape == (N, N)
    assert np.max(np.abs(base.analysis @ base.synthesis - np.eye(N))) < 1e-8
    # Synthesis columns rebuild signals from coefficient rows.
    x = np.random.default_rng(13).normal(size=(5, N))
    coeffs = tf.apply(t, x).merged
    assert np.max(np.abs(coeffs @ base.synthesis.T - x)) < 1e-8


def test_analysis_support_bounds_and_growth():
    rng = np.random.default_rng(8)
    ds = random_dataset(rng, 10, 32)
    L, M = 2, 3
    cfg = TransformConfig(levels=M, window=L, nu=1.0, variant="nonregularised")
    t, _ = tf.fit(ds, cfg)
    base = tf.base_vectors(t)
    sizes = {m: [] for m in range(1, M + 1)}
    for m in range(1, M + 1):
        for k in range(1, 32 // 2 ** m + 1):
            sup = base.analysis_supports[t.column_index(m, k)]
            assert len(sup) <= (L + 1) * 2 ** m
            assert 1 <= min(sup) and max(sup) <= 32
            sizes[m].append(len(sup))
    assert np.mean(sizes[2]) > np.mean(sizes[1])
    assert np.mean(sizes[3]) > np.mean(sizes[2])


def test_first_level_detail_depends_on_few_samples():
    # A level-1 detail reads one even sample plus L coarse pairs.
    rng = np.random.default_rng(9)
    ds = random_dataset(rng, 10, 32)
    cfg = TransformConfig(levels=1, window=2, nu=1.0, variant="nonregularised")
    t, _ = tf.fit(ds, cfg)
    base = tf.base_vectors(t)
    for k in range(1, 17):
        assert len(base.analysis_supports[t.column_index(1, k)]) <= 2 * 2 + 1


def test_merged_layout_and_column_names():
    rng = np.random.default_rng(10)
    ds = random_dataset(rng, 8, 16)
    cfg = TransformConfig(levels=2, window=2, nu=1.0, variant="nonregularised")
    t, table = tf.fit(ds, cfg)
    names = table.column_names()
    assert names == (
        [f"c2_{j}" for j in range(1, 5)]
        + [f"d2_{j}" for j in range(1, 5)]
        + [f"d1_{j}" for j in range(1, 9)]
    )
    assert table.merged.shape == (8, 16)
    layout = t.column_layout()
    assert [name for name, _, _, _ in layout] == names
    for m in (1, 2):
        for k in range(1, 16 // 2 ** m + 1):
            col = t.column_index(m, k)
            assert np.array_equal(table.merged[:, col], table.detail(m)[:, k - 1])
    with pytest.raises(ConfigError):
        t.column_index(3, 1)
    with pytest.raises(ConfigError):
        t.column_index(1, 9)
    with pytest.raises(ConfigError):
        table.detail(3)
    # Level m's block starts at column N/2^m, so the width must split M times.
    with pytest.raises(ConfigError, match="multiple of 4"):
        tf.CoefficientTable(merged=np.zeros((2, 6)), n_levels=2)


def test_model_json_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(11)
    ds = random_dataset(rng, 10, 16)
    cfg = TransformConfig(
        levels=2, window=2, nu=0.3, variant="nonregularised", constraint_degree=1
    )
    t, _ = tf.fit(ds, cfg)
    path = tmp_path / "model.json"
    tf.save_model(t, path)
    loaded = tf.load_model(path)
    assert loaded.signal_length == t.signal_length
    assert loaded.config.to_dict() == t.config.to_dict()
    assert [c.tolist() for c in loaded.columns] == [c.tolist() for c in t.columns]
    assert len(loaded.levels) == len(t.levels)
    for a, b in zip(t.levels, loaded.levels):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.gamma, b.gamma)
    x = rng.normal(size=(4, 16))
    assert np.array_equal(tf.apply(t, x).merged, tf.apply(loaded, x).merged)
    # The file still spells each position's k and window indices.
    doc = json.loads(path.read_text())
    assert [[(r["k"], tuple(r["indices"])) for r in recs] for recs in doc["levels"]] == [
        list(enumerate(map(tuple, (columns + 1).tolist()), start=1)) for columns in t.columns
    ]
    # Saving the loaded model reproduces the file byte for byte.
    path2 = tmp_path / "model2.json"
    tf.save_model(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_model_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    with pytest.raises(DataError):
        tf.load_model(path)
    path.write_text(json.dumps({"signal_length": 8}))
    with pytest.raises(DataError):
        tf.load_model(path)
    # Window indices off the index_window rule would index past the signal.
    t, _ = tf.fit(random_dataset(np.random.default_rng(19), 12, 16), TransformConfig(
        levels=1, window=4, nu=1.0, variant="nonregularised"
    ))
    tf.save_model(t, path)
    doc = json.loads(path.read_text())
    doc["levels"][0][5]["indices"] = [100, 101, 102, 103]
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="bad.json.*level 1, k=6"):
        tf.load_model(path)


def test_features_csv_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    signals = rng.normal(size=(6, 8))
    ds = SignalDataset(signals=signals, class_ids=np.array([1, 1, 2, 2, 3, 3]))
    cfg = TransformConfig(levels=2, window=2, nu=1.0, variant="nonregularised")
    t, _ = tf.fit(
        SignalDataset(
            signals=signals[:4],
            labels=np.array([1.0, -1.0, 1.0, -1.0]),
        ),
        cfg,
    )
    table = tf.apply(t, ds.signals, class_ids=ds.class_ids)
    path = tmp_path / "features.csv"
    tf.save_features(table, path)
    names, merged, ids = tf.load_features(path)
    assert names == table.column_names()
    assert np.array_equal(merged, table.merged)
    assert np.array_equal(ids, ds.class_ids)


def test_features_csv_rejects_non_integer_label(tmp_path):
    path = tmp_path / "features.csv"
    path.write_text("c1_1,d1_1,label\n0.5,-0.25,1.5\n")
    with pytest.raises(DataError, match="column 3: label '1.5' is not an integer"):
        tf.load_features(path)


def test_save_model_rejects_nan_weight_and_writes_nothing(tmp_path):
    rng = np.random.default_rng(18)
    t, _ = tf.fit(random_dataset(rng, 8, 8), TransformConfig(
        levels=1, window=2, nu=1.0, variant="nonregularised"
    ))
    bad = t.levels[0].copy()
    bad.weights[0] = [np.nan, 0.0]
    broken = tf.FittedTransform(
        config=t.config, signal_length=t.signal_length, levels=(bad,)
    )
    path = tmp_path / "model.json"
    with pytest.raises(NumericalError, match="non-finite"):
        tf.save_model(broken, path)
    assert not path.exists()


def test_features_csv_without_labels(tmp_path):
    rng = np.random.default_rng(13)
    ds = random_dataset(rng, 6, 8)
    cfg = TransformConfig(levels=1, window=2, nu=1.0, variant="nonregularised")
    t, _ = tf.fit(ds, cfg)
    table = tf.apply(t, ds.signals)
    path = tmp_path / "plain.csv"
    tf.save_features(table, path)
    names, merged, ids = tf.load_features(path, labeled=False)
    assert names == table.column_names()
    assert ids is None
    assert np.array_equal(merged, table.merged)


def test_fit_stops_early_when_window_outgrows_coarse():
    rng = np.random.default_rng(14)
    ds = random_dataset(rng, 8, 8)
    cfg = TransformConfig(levels=3, window=2, nu=1.0, variant="nonregularised")
    with pytest.warns(UserWarning, match="stopping at 2 levels"):
        t, table = tf.fit(ds, cfg)
    assert t.effective_levels == 2
    assert table.merged.shape == (8, 8)


def test_fit_rejects_oversized_window():
    rng = np.random.default_rng(15)
    ds = random_dataset(rng, 8, 8)
    cfg = TransformConfig(levels=1, window=6, nu=1.0, variant="nonregularised")
    with pytest.raises(ConfigError):
        tf.fit(ds, cfg)
    # A transform built directly is checked when it is made, not when used.
    cfg = TransformConfig(levels=1, window=4, nu=1.0, variant="nonregularised")
    level = tf._level(np.zeros((2, 4)), np.zeros(2))
    with pytest.raises(ConfigError, match="window"):
        tf.FittedTransform(config=cfg, signal_length=4, levels=(level,))


def test_progress_callback_reports_each_level():
    rng = np.random.default_rng(17)
    ds = random_dataset(rng, 8, 16)
    cfg = TransformConfig(levels=2, window=2, nu=1.0, variant="nonregularised")
    calls = []
    tf.fit(ds, cfg, progress=lambda m, n, s: calls.append((m, n, s)))
    assert [(m, n) for m, n, _ in calls] == [(1, 8), (2, 4)]
    assert all(s >= 0.0 for _, _, s in calls)


def test_reconstruct_rejects_tiny_regularised_target_weight():
    cfg = TransformConfig(levels=1, window=2, nu=1.0, variant="regularised")
    level = tf._level([[0.0, 0.5, 0.5], [1.0, 0.5, 0.5]], [0.0, 0.0])
    t = tf.FittedTransform(config=cfg, signal_length=4, levels=(level,))
    with pytest.raises(NumericalError, match="k=1: target weight"):
        tf.reconstruct(t, np.zeros((1, 4)))


def test_apply_validates_input_shape():
    rng = np.random.default_rng(18)
    ds = random_dataset(rng, 8, 8)
    cfg = TransformConfig(levels=1, window=2, nu=1.0, variant="nonregularised")
    t, _ = tf.fit(ds, cfg)
    with pytest.raises(DataError):
        tf.apply(t, np.zeros((3, 6)))
    with pytest.raises(DataError):
        tf.apply(t, np.zeros(8))
    with pytest.raises(DataError):
        tf.reconstruct(t, np.zeros((2, 7)))


def test_detail_columns_match_direct_assembly():
    # Re-derive level-1 details without the transform pipeline: build each
    # position's problem matrix from split + window directly, solve with the
    # dense oracle, and apply the detail formula by hand.
    from discwave import solver

    rng = np.random.default_rng(19)
    ds = random_dataset(rng, 16, 16)
    cfg = TransformConfig(levels=1, window=4, nu=2.0, variant="nonregularised")
    t, table = tf.fit(ds, cfg)
    odd, even = split(ds.signals)
    C = 0.5 * (odd + even)
    for k in range(1, 9):
        win = index_window(k, 8, 4)
        cols = np.asarray(win.indices) - 1
        A = np.column_stack([even[:, k - 1], -C[:, cols]])
        sol = solver.kkt_oracle(
            solver.PredictProblem(A=A, labels=ds.labels, nu=2.0, variant="nonregularised")
        )
        d = even[:, k - 1] - C[:, cols] @ sol.w
        assert np.max(np.abs(table.details[0][:, k - 1] - d)) < 1e-8


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(
    variant=st.sampled_from(["nonregularised", "regularised"]),
    degree=st.integers(0, 2),
    window=st.sampled_from([2, 4]),
    levels=st.integers(1, 3),
    n=st.integers(4, 40),
    scale=st.sampled_from([1e-6, 1.0, 1e6]),
    seed=st.integers(0, 2 ** 16),
)
def test_fitted_levels_are_arrays_that_round_trip(
    tmp_path_factory, variant, degree, window, levels, n, scale, seed
):
    if variant == "regularised":
        degree = 0  # constraints are defined for the nonregularised predictor only
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, n, 32)
    ds = SignalDataset(signals=scale * ds.signals, labels=ds.labels)
    cfg = TransformConfig(
        levels=levels, window=window, nu=1.0, variant=variant, constraint_degree=degree
    )
    t, table = tf.fit(ds, cfg)
    assert table.merged.tobytes() == tf.apply(t, ds.signals).merged.tobytes()
    w_len = window + 1 if variant == "regularised" else window
    assert t.effective_levels == levels
    for m, level in enumerate(t.levels, start=1):
        assert level.weights.shape == (32 // 2 ** m, w_len)
        assert level.gamma.shape == (32 // 2 ** m,)
    path = tmp_path_factory.mktemp("model") / "model.json"
    tf.save_model(t, path)
    again = path.with_name("again.json")
    tf.save_model(tf.load_model(path), again)
    assert again.read_bytes() == path.read_bytes()
    x = scale * rng.normal(size=(8, 32))
    back = tf.reconstruct(t, tf.apply(t, x))
    assert np.max(np.abs(back - x)) <= 1e-9 * np.max(np.abs(x))
    # apply is linear, and a table's blocks are views of its one matrix.
    y = scale * rng.normal(size=(8, 32))
    a, b = rng.normal(size=2)
    ax, by = a * tf.apply(t, x).merged, b * tf.apply(t, y).merged
    error = np.max(np.abs(tf.apply(t, a * x + b * y).merged - (ax + by)))
    assert error <= 1e-10 * np.max(np.abs(ax) + np.abs(by))
    for m in range(1, levels + 1):
        assert np.shares_memory(table.detail(m), table.merged)
    assert np.shares_memory(table.coarse, table.merged)


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(
    fit=st.sampled_from(
        [("regularised", 0), ("nonregularised", 0), ("nonregularised", 2)]
    ),
    levels=st.integers(1, 3),
    exponent=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2 ** 16),
)
def test_apply_undoes_reconstruct_on_arbitrary_tables(fit, levels, exponent, seed):
    # reconstruct on coefficient tables that apply did not produce: the map
    # is invertible, so any l x N matrix C is the table of reconstruct(C),
    # up to rounding amplified by the analysis operator's condition number:
    # that is 5..60 for the nonregularised fits here and up to ~1e6 for the
    # regularised ones, whose error reaches 3e-12 of max|C|. Over 900 such
    # fits the error stayed below 0.45 eps cond max|C|.
    variant, degree = fit
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, 24, 32)
    cfg = TransformConfig(
        levels=levels, window=4, nu=1.0, variant=variant, constraint_degree=degree
    )
    t, _ = tf.fit(ds, cfg)
    C = 10.0 ** exponent * rng.normal(size=(6, 32))
    error = np.max(np.abs(tf.apply(t, tf.reconstruct(t, C)).merged - C))
    cond = np.linalg.cond(tf.apply(t, np.eye(32)).merged)
    assert error <= 16 * np.finfo(float).eps * cond * np.max(np.abs(C))


def stack_budget(l, window, size):
    """STACK_BYTES at which a level of l examples and this window stacks `size` windows."""
    return 8 * (l + window + 2) * (window + 3) * size


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(
    variant=st.sampled_from(["nonregularised", "regularised"]),
    degree_share=st.sampled_from([0.0, 0.5, 1.0]),
    window=st.sampled_from([2, 4, 8]),
    scale=st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]),
    nu=st.sampled_from([1e-2, 1.0, 1e2]),
    n=st.integers(12, 60),
    size=st.sampled_from([3, 5, 6]),
    seed=st.integers(0, 2 ** 16),
)
def test_level_stacks_match_solve_bit_for_bit(
    variant, degree_share, window, scale, nu, n, size, seed
):
    # Every window's (w, gamma) from the stacked level solve must be the
    # one-window solve's, bit for bit, and agree with the dense KKT oracle.
    # The budget is set so that each level runs several stacks of `size`
    # windows and its last stack is partial (32, 16 and 8 positions).
    degree = 0 if variant == "regularised" else int(degree_share * window // 2)
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, n, 64)
    ds = SignalDataset(signals=scale * ds.signals, labels=ds.labels)
    cfg = TransformConfig(
        levels=3, window=window, nu=nu, variant=variant, constraint_degree=degree
    )
    stacks = []
    real_qr = np.linalg.qr

    def recording_qr(a, *args, **kwargs):
        stacks.append(a.shape[0])
        return real_qr(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "STACK_BYTES", stack_budget(n, window, size))
        mp.setattr(np.linalg, "qr", recording_qr)
        t, _ = tf.fit(ds, cfg)
    assert max(stacks) == size and len(stacks) > 3 and min(stacks) < size, stacks
    y, A = ds.labels, ds.signals
    for m, level in enumerate(t.levels, start=1):
        A_o, A_e = split(A)
        C = 0.5 * (A_o + A_e)
        for k, (w, gamma) in enumerate(zip(level.weights, level.gamma), start=1):
            window_k = index_window(k, len(level), window)
            problem = solver.PredictProblem(
                A=np.column_stack([A_e[:, k - 1], -C[:, window_k.as_zero_based()]]),
                labels=y, nu=nu, variant=variant,
                B=solver.vandermonde_constraints(window_k, degree) if degree else None,
            )
            one = solver.solve(problem)
            assert one.w.tobytes() == w.tobytes() and one.gamma == gamma, (m, k)
            ref = solver.kkt_oracle(problem)
            size_ref = max(1.0, float(np.max(np.abs(ref.w))), abs(ref.gamma))
            diff = max(float(np.max(np.abs(w - ref.w))), abs(gamma - ref.gamma))
            assert diff <= 1e-8 * size_ref, (m, k, diff / size_ref)
        A = C


@pytest.mark.parametrize(
    "variant, degree", [("regularised", 0), ("nonregularised", 0), ("nonregularised", 2)]
)
def test_stacked_stationarity_failure_names_its_window(monkeypatch, variant, degree):
    # Stacks of 3: z is knocked off by 1e-6 in the 2nd and 3rd windows of
    # the second stack, so the error must name the first of them, k = 5.
    rng = np.random.default_rng(31)
    ds = random_dataset(rng, 30, 32)
    cfg = TransformConfig(
        levels=1, window=4, nu=1.0, variant=variant, constraint_degree=degree
    )
    monkeypatch.setattr(solver, "STACK_BYTES", stack_budget(30, 4, 3))
    real_solve = np.linalg.solve
    calls = []

    def perturbed(a, b):
        x = real_solve(a, b)
        calls.append(a.shape[0])
        if len(calls) == 2:
            x[1:3] += 1e-6
        return x

    monkeypatch.setattr(np.linalg, "solve", perturbed)
    with pytest.raises(NumericalError, match=r"^level 1, position k=5: stationarity residual"):
        tf.fit(ds, cfg)
    assert calls == [3, 3]
