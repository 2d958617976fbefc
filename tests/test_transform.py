"""Lifting-transform tests: hand fixtures, invariants, round trips, file formats.

The tiny N=4 fixture is solved by hand: with two training signals the dual u
has two entries, so eliminating w = At^T Y u and gamma = -e^T Y u from the
feasibility rows leaves a 2x2 linear system per position. All quantities come
out as exact rationals with denominator 280, frozen below.
"""

import json
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from discwave.core import (
    ConfigError,
    DataError,
    IndexWindow,
    NumericalError,
    SignalDataset,
    TransformConfig,
    index_window,
    split,
    window_columns,
)
from discwave import evaluation as ev, solver, transform as tf
from discwave.io import read_csv
from discwave.datasets import WaveformSpec, generate_waveform
from test_core import three_case_window_start


def tiny_dataset():
    signals = np.array([[1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0]])
    return SignalDataset(signals=signals, class_ids=np.array([2, 1]))  # labels +1, -1


def random_dataset(rng, n, N):
    signals = rng.normal(size=(n, N))
    class_ids = np.where(rng.random(n) < 0.5, 2, 1)
    class_ids[0], class_ids[1] = 2, 1
    return SignalDataset(signals=signals, class_ids=class_ids)


def test_update_step_pair_average():
    odd, even = split(np.array([[1.0, 2.0, 3.0, 4.0]]))
    assert np.array_equal(odd, [[1.0, 3.0]])
    assert np.array_equal(even, [[2.0, 4.0]])
    assert np.array_equal(0.5 * (odd + even), [[1.5, 3.5]])


def detail(merged, m):
    """Level m's details: merged columns N/2^m..N/2^(m-1) - 1."""
    N = merged.shape[1]
    return merged[:, N >> m : N >> (m - 1)]


def test_hand_solved_tiny_fixture():
    # N=4, L=2, nu=1, one level. Both positions share the window {1,2} and the
    # coarse rows [[1.5, 3.5], [3.5, 1.5]]; eliminating the 2-entry dual by hand
    # gives 280*w = (293, -43) at k=1 and (69, 181) at k=2, gamma = 5/28 at both,
    # and detail rows 280*d = [[271, 383], [-121, -233]].
    cfg = TransformConfig(levels=1, window=2, nu=1.0, variant="nonregularised")
    t, merged = tf.fit(tiny_dataset(), cfg)
    assert t.config.levels == len(t.levels) == 1 and t.signal_length == 4
    level = t.levels[0]
    assert t.columns[0].tolist() == [[0, 1], [0, 1]]
    expected_w = np.array([[293.0, -43.0], [69.0, 181.0]]) / 280.0
    assert level.weights.shape == (2, 2)
    assert np.allclose(level.weights, expected_w, atol=1e-12)
    assert np.max(np.abs(level.gamma - 5.0 / 28.0)) < 1e-12
    assert np.array_equal(level[0].weights, level.weights[0]) and level[1].gamma == level.gamma[1]
    expected = np.array([[271.0, 383.0], [-121.0, -233.0]]) / 280.0
    assert merged.shape == (2, 4)
    assert np.max(np.abs(merged[:, 2:] - expected)) < 1e-12
    assert np.array_equal(merged[:, :2], [[1.5, 3.5], [3.5, 1.5]])


def test_fit_table_equals_apply():
    rng = np.random.default_rng(1)
    ds = random_dataset(rng, 12, 16)
    cfg = TransformConfig(levels=2, window=2, nu=0.5, variant="nonregularised")
    t, merged = tf.fit(ds, cfg)
    again = tf.apply(t, ds.signals)
    assert isinstance(merged, np.ndarray) and isinstance(again, np.ndarray)
    assert merged.shape == (12, 16)
    assert np.array_equal(merged, again)


def test_apply_is_linear():
    rng = np.random.default_rng(2)
    ds = random_dataset(rng, 10, 16)
    cfg = TransformConfig(levels=3, window=2, nu=2.0, variant="nonregularised")
    t, _ = tf.fit(ds, cfg)
    x = rng.normal(size=(4, 16))
    y = rng.normal(size=(4, 16))
    a, b = 0.7, -2.3
    lhs = tf.apply(t, a * x + b * y)
    rhs = a * tf.apply(t, x) + b * tf.apply(t, y)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_coarse_matches_block_average_oracle():
    # Independent oracle for the coarse channel: M rounds of adjacent pair
    # averaging, written as an explicit loop.
    rng = np.random.default_rng(3)
    ds = random_dataset(rng, 8, 32)
    cfg = TransformConfig(levels=3, window=2, nu=1.0, variant="nonregularised")
    t, merged = tf.fit(ds, cfg)
    expected = ds.signals.copy()
    for _ in range(3):
        out = np.empty((expected.shape[0], expected.shape[1] // 2))
        for j in range(out.shape[1]):
            out[:, j] = 0.5 * (expected[:, 2 * j] + expected[:, 2 * j + 1])
        expected = out
    assert np.max(np.abs(merged[:, : 32 >> 3] - expected)) < 1e-12


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
    ds = SignalDataset(signals=scale * ds.signals, class_ids=ds.class_ids)
    cfg = TransformConfig(
        levels=3, window=4, nu=1.0, variant=variant, constraint_degree=degree
    )
    t, merged = tf.fit(ds, cfg)
    assert np.array_equal(merged, tf.apply(t, ds.signals))
    x = scale * rng.normal(size=(50, 32))
    back = tf.reconstruct(t, tf.apply(t, x))
    assert np.max(np.abs(back - x)) <= 1e-9 * np.max(np.abs(x))


def test_fit_rejects_details_that_underflow():
    # x1e-200: every regularised weight times the data underflows, so all
    # details are 0 and the transform cannot give the signals back.
    rng = np.random.default_rng(21)
    ds = random_dataset(rng, 20, 16)
    ds = SignalDataset(signals=1e-200 * ds.signals, class_ids=ds.class_ids)
    cfg = TransformConfig(levels=2, window=2, nu=1.0, variant="regularised")
    with pytest.raises(NumericalError, match="does not invert its training signals"):
        tf.fit(ds, cfg)


def test_fit_overflow_is_a_typed_error_without_runtime_warnings():
    # x1e200: the stationarity check's products overflow to inf and NaN; the
    # NaN residual fails the tolerance test, and numpy stays silent.
    rng = np.random.default_rng(0)
    ds = random_dataset(rng, 20, 16)
    ds = SignalDataset(signals=1e200 * ds.signals, class_ids=ds.class_ids)
    cfg = TransformConfig(levels=2, window=2, nu=1.0, variant="nonregularised")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="stationarity residual"):
            tf.fit(ds, cfg)


def test_overflowing_coarse_average_is_a_data_error_before_any_solve(monkeypatch):
    # 1.5e308 + 1.5e308 overflows, so the level-1 average of such a pair is
    # beyond the float range; fit and apply refuse it without a warning.
    rng = np.random.default_rng(8)
    ds = random_dataset(rng, 12, 8)
    cfg = TransformConfig(levels=1, window=2, nu=1.0, variant="nonregularised")
    t, _ = tf.fit(ds, cfg)
    signals = 1.5e308 * np.sign(ds.signals)
    signals[:, :2] = 1.5e308  # every row holds one overflowing pair
    big = SignalDataset(signals=signals, class_ids=ds.class_ids)
    monkeypatch.setattr(solver, "solve_windows", None)  # a solve would be a TypeError
    message = re.escape("level 1: the coarse average overflows; the largest |sample| is 1.500e+308")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=f"^{message}$"):
            tf.fit(big, cfg)
        with pytest.raises(DataError, match=f"^{message}$"):
            tf.apply(t, np.full((1, 8), 1.5e308))
        # The message names the whole input's largest |sample|, here in the
        # first row block, although the pair that overflows is in the last.
        X = np.zeros((tf.BLOCK_BYTES // (8 * 8) + 1, 8))
        X[0, 0], X[-1, :2] = 1.7e308, 1.5e308
        with pytest.raises(DataError, match=re.escape("the largest |sample| is 1.700e+308")):
            tf.apply(t, X)


def test_round_trip_waveform():
    ds = generate_waveform(WaveformSpec(per_class_count=40, seed=11)).restrict_pair(1, 2)
    cfg = TransformConfig(levels=3, window=4, nu=1.0, variant="nonregularised")
    t, merged = tf.fit(ds, cfg)
    back = tf.reconstruct(t, merged)
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
    merged = tf.apply(t, x)
    for m in (1, 2, 3):
        assert np.max(np.abs(detail(merged, m))) < 1e-10
    assert np.max(np.abs(merged[:, :4] - x[:, :1] * np.ones((1, 4)))) < 1e-12


def test_linear_ramps_vanish_with_degree_two_constraints():
    rng = np.random.default_rng(6)
    ds = random_dataset(rng, 14, 32)
    cfg = TransformConfig(
        levels=3, window=4, nu=1.0, variant="nonregularised", constraint_degree=2
    )
    t, _ = tf.fit(ds, cfg)
    i = np.arange(1, 33, dtype=float)
    x = np.vstack([3.0 - 0.5 * i, 0.25 * i + 1.0, np.full(32, 4.0)])
    merged = tf.apply(t, x)
    for m in (1, 2, 3):
        assert np.max(np.abs(detail(merged, m))) < 1e-8
    res = tf.constraint_residual(t)
    assert res is not None and res < 1e-10


def test_runtime_constraint_rows_come_from_the_window_matrix_alone(monkeypatch):
    # A constrained fit, its constraint residual and the pair fits of a
    # one-against-one run give the same bits with the reference spelling of
    # the rows (IndexWindow, vandermonde_constraints, window_knots) disabled.
    data = generate_waveform(WaveformSpec(per_class_count=10, seed=212))
    cfg = TransformConfig(levels=2, window=4, nu=1.0, variant="nonregularised",
                          constraint_degree=2)
    real_fit = tf.fit

    def run():
        fits = []

        def recording_fit(*args, **kwargs):
            fits.append(real_fit(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(tf, "fit", recording_fit)
        fitted, merged = tf.fit(data.restrict_pair(1, 3), cfg)
        reports = ev.one_against_one(data, data, cfg, top_t=[3])
        levels = [level.tobytes() for each, _ in fits for level in each.levels]
        return levels, merged.tobytes(), tf.constraint_residual(fitted), reports

    expected = run()

    def refuse(*args, **kwargs):
        raise AssertionError("the reference spelling of the constraint rows ran")

    monkeypatch.setattr(IndexWindow, "__post_init__", refuse)
    monkeypatch.setattr(solver, "vandermonde_constraints", refuse)
    monkeypatch.setattr(solver, "window_knots", refuse)
    got = run()
    assert len(got[0]) == 2 * 4  # the binary fit and three pair fits, two levels each
    assert got[:3] == expected[:3]
    assert repr(got[3]) == repr(expected[3])


def test_constraint_residual_gathers_the_constraint_rows_alone():
    # A 1-level, window-128, degree-3 fit has 512 windows: their B rows are a
    # 1.5 MiB gather, where copies of every window's null-space split took 66 MiB.
    ds = random_dataset(np.random.default_rng(33), 40, 1024)
    t, _ = tf.fit(ds, TransformConfig(levels=1, window=128, nu=1.0, constraint_degree=3))
    tracemalloc.start()
    try:
        res = tf.constraint_residual(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res < 1e-10 and peak <= 4 * 2 ** 20


def lagrange_weights_at_the_target(knots):
    # The exact solution of B w = e1 for p = L: w_i = prod_{m != i} t_m / (t_m - t_i)
    # reproduces every polynomial of degree < L at t = 0.
    w = []
    for i, ti in enumerate(knots):
        wi = Fraction(1)
        for m, tm in enumerate(knots):
            if m != i:
                wi *= tm / (tm - ti)
        w.append(wi)
    for r in range(len(knots)):
        assert sum(wi * ti ** r for wi, ti in zip(w, knots)) == (r == 0)
    return w


def test_square_constraints_fix_the_weights_at_every_offset():
    # At p = L the null space of B is empty (N has no rows), so B w = e1
    # alone fixes each window's weights, whatever the data: the stacked
    # solve must return them at every offset o, on knots (2(o + i) - 1/2)/(2L).
    rng = np.random.default_rng(34)
    for L in range(2, 15, 2):
        ds = random_dataset(rng, 12, 32)  # 16 windows: every offset of L <= 14
        t, _ = tf.fit(ds, TransformConfig(levels=1, window=L, nu=1.0, constraint_degree=L))
        columns, weights = t.columns[0], t.levels[0].weights
        offsets = set()
        for j, w in enumerate(weights):
            o = int(columns[j, 0]) - j
            offsets.add(o)
            exact = lagrange_weights_at_the_target([Fraction(4 * (o + i) - 1, 4 * L)
                                                    for i in range(L)])
            for wi, ei in zip(w, exact):
                assert abs(Fraction(float(wi)) - ei) <= Fraction(1, 10 ** 6) * abs(ei), (L, o)
        assert offsets == set(range(1 - L, 1))


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
    coeffs = tf.apply(t, x)
    assert np.max(np.abs(coeffs @ base.synthesis.T - x)) < 1e-8


def test_analysis_support_bounds_and_growth():
    rng = np.random.default_rng(8)
    ds = random_dataset(rng, 10, 32)
    L, M = 2, 3
    cfg = TransformConfig(levels=M, window=L, nu=1.0, variant="nonregularised")
    t, _ = tf.fit(ds, cfg)
    support = tf.support(tf.base_vectors(t).analysis)
    sizes = {m: [] for m in range(1, M + 1)}
    for m in range(1, M + 1):
        for row in support[32 >> m : 32 >> (m - 1)]:  # level m's detail rows
            sup = np.flatnonzero(row) + 1
            assert 1 <= len(sup) <= (L + 1) * 2 ** m
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
    support = tf.support(tf.base_vectors(t).analysis)
    for row in support[16:]:  # the 16 level-1 detail rows
        assert 1 <= row.sum() <= 2 * 2 + 1


def test_merged_layout_and_column_names():
    rng = np.random.default_rng(10)
    ds = random_dataset(rng, 8, 16)
    cfg = TransformConfig(levels=2, window=2, nu=1.0, variant="nonregularised")
    t, merged = tf.fit(ds, cfg)
    names = [name for name, _, _, _ in t.column_layout()]
    assert names == (
        [f"c2_{j}" for j in range(1, 5)]
        + [f"d2_{j}" for j in range(1, 5)]
        + [f"d1_{j}" for j in range(1, 9)]
    )
    assert merged.shape == (8, 16)
    for m in (1, 2):
        for k in range(1, 16 // 2 ** m + 1):
            col = names.index(f"d{m}_{k}")
            assert col == (16 >> m) + k - 1
            assert np.array_equal(merged[:, col], detail(merged, m)[:, k - 1])


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
    assert loaded.config == t.config
    assert [c.tolist() for c in loaded.columns] == [c.tolist() for c in t.columns]
    assert len(loaded.levels) == len(t.levels)
    for a, b in zip(t.levels, loaded.levels):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.gamma, b.gamma)
    x = rng.normal(size=(4, 16))
    assert np.array_equal(tf.apply(t, x), tf.apply(loaded, x))
    # The file holds the configuration and two arrays per level, no windows.
    doc = json.loads(path.read_text())
    assert list(doc) == ["config", "levels"]
    assert doc["config"] == {
        "levels": 2, "window": 2, "nu": 0.3, "variant": "nonregularised",
        "constraint_degree": 1,
    }
    assert doc["levels"] == [
        {"weights": level.weights.tolist(), "gamma": level.gamma.tolist()} for level in t.levels
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
    # Weight rows one entry short of the config's window.
    t, _ = tf.fit(random_dataset(np.random.default_rng(19), 12, 16), TransformConfig(
        levels=1, window=4, nu=1.0, variant="nonregularised"
    ))
    tf.save_model(t, path)
    doc = json.loads(path.read_text())
    doc["levels"][0]["weights"] = [w[:-1] for w in doc["levels"][0]["weights"]]
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="bad.json.*level 1 must hold a 8 x 4 weight matrix"):
        tf.load_model(path)


def per_position_records(doc):
    """The levels of `doc` in the earlier file form: one record per position."""
    doc["levels"] = [
        [
            {"k": k, "indices": [k], "weights": w, "gamma": g}
            for k, (w, g) in enumerate(zip(level["weights"], level["gamma"]), start=1)
        ]
        for level in doc["levels"]
    ]


MALFORMED_MODELS = {
    "per-position records": (per_position_records, "must be a mapping"),
    "unknown config key": (lambda d: d["config"].update(seed=0), "'seed'"),
    "unknown level key": (lambda d: d["levels"][0].update(k=[1]), "'k'"),
    "unknown file key": (lambda d: d.update(extra=1), "keys must be"),
    "missing file key": (lambda d: d.pop("levels"), "keys must be"),
    "earlier file keys": (lambda d: d.update(signal_length=16, effective_levels=2),
                          "keys must be"),
    "config deeper than its levels": (lambda d: d["config"].update(levels=5),
                                      "need 5 levels, got 2"),
    "fractional sizes": (lambda d: d["config"].update(levels=2.5, window=4.9),
                         "levels must be an integer >= 1, got 2.5"),
    "float window": (lambda d: d["config"].update(window=2.0), "window must be an integer"),
    "short gamma": (lambda d: d["levels"][1]["gamma"].pop(), "shape mismatch"),
    "dropped last level": (lambda d: d["levels"].pop(), "need 2 levels, got 1"),
    "dropped first level": (lambda d: d["levels"].pop(0), "need 2 levels, got 1"),
    "nan weight": (lambda d: d["levels"][0]["weights"][3].__setitem__(1, float("nan")),
                   "level 1 holds a non-finite"),
    "infinite gamma": (lambda d: d["levels"][1]["gamma"].__setitem__(0, float("inf")),
                       "level 2 holds a non-finite"),
    "string weight": (lambda d: d["levels"][0]["weights"][0].__setitem__(0, "0.5"),
                      "level 1 holds a weight or offset that is not a number"),
    "bool weight": (lambda d: d["levels"][1]["weights"][2].__setitem__(1, True),
                    "level 2 holds a weight or offset that is not a number"),
    "null weight": (lambda d: d["levels"][0]["weights"][1].__setitem__(0, None),
                    "level 1 holds a weight or offset that is not a number"),
    "string gamma": (lambda d: d["levels"][1]["gamma"].__setitem__(0, "0"),
                     "level 2 holds a weight or offset that is not a number"),
    "bool gamma": (lambda d: d["levels"][0]["gamma"].__setitem__(3, False),
                   "level 1 holds a weight or offset that is not a number"),
    "bool nu": (lambda d: d["config"].update(nu=True),
                r"nu must lie in \(0, inf\), got True"),
    "string nu": (lambda d: d["config"].update(nu="1.0"),
                  r"nu must lie in \(0, inf\), got '1.0'"),
    "nu beyond float range": (lambda d: d["config"].update(nu=10**400),
                              r"nu must lie in \(0, inf\), got 1000"),
    "integer weight beyond float range": (
        lambda d: d["levels"][0]["weights"][0].__setitem__(1, 10**400),
        "int too large to convert to float"),
}


@pytest.mark.parametrize("case", MALFORMED_MODELS)
def test_load_model_rejects_a_malformed_file(tmp_path, case):
    edit, message = MALFORMED_MODELS[case]
    t, _ = tf.fit(random_dataset(np.random.default_rng(20), 12, 16), TransformConfig(
        levels=2, window=2, nu=1.0, variant="nonregularised"
    ))
    path = tmp_path / "bad.json"
    tf.save_model(t, path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=f"bad.json: malformed model file .*{message}"):
        tf.load_model(path)


def test_load_model_reads_json_integers_as_numbers(tmp_path):
    t, _ = tf.fit(random_dataset(np.random.default_rng(20), 12, 16), TransformConfig(
        levels=2, window=2, nu=1.0, variant="nonregularised"
    ))
    path = tmp_path / "model.json"
    tf.save_model(t, path)
    doc = json.loads(path.read_text())
    doc["config"]["nu"] = 1
    doc["levels"][0]["weights"][0] = [0, 1]
    doc["levels"][1]["gamma"][2] = -3
    path.write_text(json.dumps(doc))
    loaded = tf.load_model(path)
    assert loaded.config.nu == 1.0 and type(loaded.config.nu) is float
    assert loaded.levels[0].weights[0].tolist() == [0.0, 1.0]
    assert loaded.levels[1].gamma[2] == -3.0


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_load_model_of_an_unopenable_path_is_a_data_error(tmp_path, kind):
    path = tmp_path / "model.json"
    if kind == "directory":
        path.mkdir()
    with pytest.raises(DataError, match=f"^cannot read {re.escape(str(path))}: "):
        tf.load_model(path)


def test_features_csv_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    signals = rng.normal(size=(6, 8))
    ds = SignalDataset(signals=signals, class_ids=np.array([1, 1, 2, 2, 3, 3]))
    cfg = TransformConfig(levels=2, window=2, nu=1.0, variant="nonregularised")
    t, _ = tf.fit(
        SignalDataset(
            signals=signals[:4],
            class_ids=np.array([2, 1, 2, 1]),
        ),
        cfg,
    )
    merged = tf.apply(t, ds.signals)
    path = tmp_path / "features.csv"
    tf.save_features(t, merged, ds.class_ids, path)
    names, back, ids = read_csv(path)
    assert names == [name for name, _, _, _ in t.column_layout()]
    assert np.array_equal(back, merged)
    assert np.array_equal(ids, ds.class_ids)


@pytest.mark.parametrize("shape", [(6, 4), (6, 16), (8,)])
def test_features_csv_rejects_a_matrix_of_another_width(tmp_path, shape):
    # The header comes from the transform, so a matrix that is not l x N
    # would be written under the wrong names.
    rng = np.random.default_rng(12)
    t, _ = tf.fit(random_dataset(rng, 6, 8), TransformConfig(levels=2, window=2, nu=1.0))
    path = tmp_path / "features.csv"
    message = re.escape(f"coefficients must be an l x 8 matrix, got shape {shape}")
    with pytest.raises(DataError, match=message):
        tf.save_features(t, np.zeros(shape), np.ones(6, int), path)
    assert not path.exists()


@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_features_csv_rejects_a_non_finite_coefficient(tmp_path, value):
    # A NaN used to be written, and then read_csv rejected the file.
    rng = np.random.default_rng(12)
    ds = random_dataset(rng, 6, 8)
    t, merged = tf.fit(ds, TransformConfig(levels=2, window=2, nu=1.0))
    merged[2, 5] = value
    path = tmp_path / "features.csv"
    with pytest.raises(DataError, match="^coefficients contains non-finite values$"):
        tf.save_features(t, merged, ds.class_ids, path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n_ids", [3, 7])
def test_features_csv_rejects_a_class_id_count_other_than_the_rows(tmp_path, n_ids):
    # Three ids for six rows would leave rows 4..6 without a label cell, and
    # seven would drop the last id without a word.
    rng = np.random.default_rng(12)
    ds = random_dataset(rng, 6, 8)
    t, merged = tf.fit(ds, TransformConfig(levels=2, window=2, nu=1.0))
    path = tmp_path / "features.csv"
    message = f"class ids must have shape (6,), got ({n_ids},)"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        tf.save_features(t, merged, np.ones(n_ids, int), path)
    assert not path.exists()


def test_features_csv_rejects_non_integer_label(tmp_path):
    path = tmp_path / "features.csv"
    path.write_text("c1_1,d1_1,label\n0.5,-0.25,1.5\n")
    with pytest.raises(DataError, match="column 3: label '1.5' is not an integer"):
        read_csv(path)


def test_save_model_rejects_nan_weight_and_writes_nothing(tmp_path):
    rng = np.random.default_rng(18)
    t, _ = tf.fit(random_dataset(rng, 8, 8), TransformConfig(
        levels=1, window=2, nu=1.0, variant="nonregularised"
    ))
    bad = t.levels[0].copy()
    bad.weights[0] = [np.nan, 0.0]
    broken = tf.FittedTransform(config=t.config, levels=(bad,))
    path = tmp_path / "model.json"
    with pytest.raises(NumericalError, match="non-finite"):
        tf.save_model(broken, path)
    assert not path.exists()


def test_features_csv_without_labels(tmp_path):
    rng = np.random.default_rng(13)
    ds = random_dataset(rng, 6, 8)
    cfg = TransformConfig(levels=1, window=2, nu=1.0, variant="nonregularised")
    t, _ = tf.fit(ds, cfg)
    merged = tf.apply(t, ds.signals)
    path = tmp_path / "plain.csv"
    with pytest.raises(DataError, match=re.escape("class ids must have shape (6,), got ()")):
        tf.save_features(t, merged, None, path)
    assert not path.exists()


def test_fit_rejects_a_depth_the_window_cannot_reach():
    # Level 3 of a length-8 signal has 1 coarse sample, fewer than window 2:
    # a usage error before any level is solved, naming the deepest depth.
    rng = np.random.default_rng(14)
    ds = random_dataset(rng, 8, 8)
    cfg = TransformConfig(levels=3, window=2, nu=1.0, variant="nonregularised")
    calls = []
    with pytest.raises(ConfigError, match="at most 2 levels"):
        tf.fit(ds, cfg, progress=lambda *a: calls.append(a))
    assert calls == []
    t, merged = tf.fit(ds, TransformConfig(levels=2, window=2, nu=1.0))
    assert t.config.levels == len(t.levels) == 2
    assert merged.shape == (8, 8)


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
        tf.FittedTransform(config=cfg, levels=(level,))


def test_fitted_transform_holds_exactly_config_levels():
    cfg = TransformConfig(levels=2, window=2, nu=1.0, variant="nonregularised")
    level1 = tf._level(np.zeros((4, 2)), np.zeros(4))
    level2 = tf._level(np.zeros((2, 2)), np.zeros(2))
    t = tf.FittedTransform(config=cfg, levels=(level1, level2))
    assert t.signal_length == 8 and t.column_layout()[2] == ("d2_1", "detail", 2, 1)
    for levels in [(level1,), (level2,), (level1, level2, level2)]:
        with pytest.raises(ConfigError, match=f"need 2 levels, got {len(levels)}"):
            tf.FittedTransform(config=cfg, levels=levels)
    # Level 3 of a length-20 signal would hold 2.5 rows; 2 rows are no match.
    rows = [tf._level(np.zeros((n, 2)), np.zeros(n)) for n in (10, 5, 2)]
    with pytest.raises(ConfigError, match="level 3 must hold a 2.5 x 2 weight matrix"):
        tf.FittedTransform(config=TransformConfig(levels=3, window=2, nu=1.0), levels=rows)


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
    t = tf.FittedTransform(config=cfg, levels=(level,))
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


def test_apply_and_reconstruct_need_finite_rows():
    # No rows, or a non-finite entry, is a DataError; reconstruct used to
    # return a NaN row for a NaN coefficient, and both took zero rows.
    rng = np.random.default_rng(18)
    t, _ = tf.fit(random_dataset(rng, 8, 8), TransformConfig(levels=1, window=2, nu=1.0))
    for call, what in ((tf.apply, "signals"), (tf.reconstruct, "coefficients")):
        with pytest.raises(DataError, match=f"{what} must be an l x 8 matrix with at least one row"):
            call(t, np.zeros((0, 8)))
        with pytest.raises(DataError, match=f"^{what} contains non-finite values$"):
            call(t, np.array([[0.0] * 7 + [np.nan]]))


def test_detail_columns_match_direct_assembly():
    # Re-derive level-1 details without the transform pipeline: build each
    # position's problem matrix from split + window directly, solve with the
    # dense oracle, and apply the detail formula by hand.
    from discwave import solver

    rng = np.random.default_rng(19)
    ds = random_dataset(rng, 16, 16)
    cfg = TransformConfig(levels=1, window=4, nu=2.0, variant="nonregularised")
    t, merged = tf.fit(ds, cfg)
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
        assert np.max(np.abs(detail(merged, 1)[:, k - 1] - d)) < 1e-8


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
    ds = SignalDataset(signals=scale * ds.signals, class_ids=ds.class_ids)
    cfg = TransformConfig(
        levels=levels, window=window, nu=1.0, variant=variant, constraint_degree=degree
    )
    t, merged = tf.fit(ds, cfg)
    assert merged.tobytes() == tf.apply(t, ds.signals).tobytes()
    w_len = window + 1 if variant == "regularised" else window
    assert len(t.levels) == t.config.levels == levels
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
    # apply is linear.
    y = scale * rng.normal(size=(8, 32))
    a, b = rng.normal(size=2)
    ax, by = a * tf.apply(t, x), b * tf.apply(t, y)
    error = np.max(np.abs(tf.apply(t, a * x + b * y) - (ax + by)))
    assert error <= 1e-10 * np.max(np.abs(ax) + np.abs(by))


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
    # reconstruct on coefficient matrices that apply did not produce: the
    # map is invertible, so any l x N matrix C is apply(reconstruct(C)),
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
    error = np.max(np.abs(tf.apply(t, tf.reconstruct(t, C)) - C))
    cond = np.linalg.cond(tf.apply(t, np.eye(32)))
    assert error <= 16 * np.finfo(float).eps * cond * np.max(np.abs(C))


BLOCK_ROWS_32 = tf.BLOCK_BYTES // (8 * 32)  # rows of one block of 32-sample signals


def row_subsets(data, n):
    """Row subsets of an n-row table: a random set, which may take rows of
    several of the table's blocks into one, its first row, and the rows from
    a random row on, whose blocks start where the table's do not."""
    rows = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    start = data.draw(st.integers(0, n - 1))
    return rows, rows[:1], list(range(start, n))


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(
    fit=st.sampled_from(
        [("regularised", 0), ("nonregularised", 0), ("nonregularised", 2)]
    ),
    levels=st.integers(1, 3),
    n=st.integers(2 * BLOCK_ROWS_32 + 1, 2 * BLOCK_ROWS_32 + 100),  # over two blocks
    data=st.data(),
    seed=st.integers(0, 2 ** 16),
)
def test_apply_is_row_independent(fit, levels, n, data, seed):
    # A row's coefficients are the same bits alone, beside any other rows and
    # at any place in apply's row blocks: every coefficient is one fixed
    # sequence of IEEE operations on its own row's samples.
    variant, degree = fit
    rng = np.random.default_rng(seed)
    cfg = TransformConfig(
        levels=levels, window=4, nu=1.0, variant=variant, constraint_degree=degree
    )
    t, _ = tf.fit(random_dataset(rng, 24, 32), cfg)
    X = rng.normal(size=(n, 32))
    merged = tf.apply(t, X)
    for subset in row_subsets(data, n):
        assert tf.apply(t, X[subset]).tobytes() == merged[subset].tobytes(), subset


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(
    fit=st.sampled_from(
        [("regularised", 0), ("nonregularised", 0), ("nonregularised", 2)]
    ),
    levels=st.integers(1, 3),
    n=st.integers(2 * BLOCK_ROWS_32 + 1, 2 * BLOCK_ROWS_32 + 100),  # over two blocks
    data=st.data(),
    seed=st.integers(0, 2 ** 16),
)
def test_reconstruct_is_row_independent(fit, levels, n, data, seed):
    # The same for reconstruct, whose levels feed each other: a row's signal
    # is the same bits alone and beside any other rows.
    variant, degree = fit
    rng = np.random.default_rng(seed)
    cfg = TransformConfig(
        levels=levels, window=4, nu=1.0, variant=variant, constraint_degree=degree
    )
    t, _ = tf.fit(random_dataset(rng, 24, 32), cfg)
    Z = rng.normal(size=(n, 32))
    signals = tf.reconstruct(t, Z)
    for subset in row_subsets(data, n):
        assert tf.reconstruct(t, Z[subset]).tobytes() == signals[subset].tobytes(), subset


def reference_levels(t):
    """Per level: (window matrix, target weights, window weights) from
    window_columns and the model arrays; a nonregularised target weight is 1."""
    out = []
    for level in t.levels:
        W = level.weights
        half = len(W)
        target, w = (W[:, 0], W[:, 1:]) if t.config.variant == "regularised" else (np.ones(half), W)
        out.append((window_columns(half, t.config.window), target.tolist(), w.tolist()))
    return out


def tap_sum(c, cols, w):
    """((c_0 w_0 + c_1 w_1) + c_2 w_2) + ... over the window's coarse samples."""
    p = c[cols[0]] * w[0]
    for i in range(1, len(cols)):
        p = p + c[cols[i]] * w[i]
    return p


def reference_apply(t, X):
    """apply, one coefficient at a time in Python floats: the level-m detail
    of position k is t_k even_k - tap_sum over the coarse samples of window k."""
    N = t.signal_length
    merged = np.empty_like(X)
    levels = reference_levels(t)
    for r, row in enumerate(X.tolist()):
        a = row
        for m, (columns, target, w) in enumerate(levels, start=1):
            c = [0.5 * (a[2 * k] + a[2 * k + 1]) for k in range(len(a) // 2)]
            for k, cols in enumerate(columns.tolist()):
                merged[r, (N >> m) + k] = target[k] * a[2 * k + 1] - tap_sum(c, cols, w[k])
            a = c
        merged[r, : len(a)] = a
    return merged


def reference_reconstruct(t, D):
    """reconstruct, one sample at a time in Python floats: top level first,
    even_k = (d_k + p_k) / t_k with p_k the tap_sum of window k, and
    odd_k = 2 c_k - even_k."""
    N, M = t.signal_length, t.config.levels
    signals = np.empty_like(D)
    levels = reference_levels(t)
    for r, row in enumerate(D.tolist()):
        c = row[: N >> M]
        for m in range(M, 0, -1):
            columns, target, w = levels[m - 1]
            a = []
            for k, cols in enumerate(columns.tolist()):
                even = (row[(N >> m) + k] + tap_sum(c, cols, w[k])) / target[k]
                a += [2.0 * c[k] - even, even]
            c = a
        signals[r] = c
    return signals


@pytest.mark.parametrize(
    "variant, degree", [("regularised", 0), ("nonregularised", 0), ("nonregularised", 2)]
)
def test_apply_and_reconstruct_sum_the_taps_in_window_order(variant, degree):
    # The bits of apply and reconstruct are those of one fixed order of
    # operations per coefficient, the taps of each window summed from its
    # first column to its last. A BLAS product in their place may sum in
    # another order and fails this for some entry.
    rng = np.random.default_rng(11)
    cfg = TransformConfig(levels=3, window=4, nu=1.0, variant=variant, constraint_degree=degree)
    t, _ = tf.fit(random_dataset(rng, 24, 32), cfg)
    X = rng.normal(size=(16, 32))
    assert tf.apply(t, X).tobytes() == reference_apply(t, X).tobytes()
    assert tf.reconstruct(t, X).tobytes() == reference_reconstruct(t, X).tobytes()


def traced_peak(f, *args):
    """Bytes f(*args) allocates at its peak, beyond what was held before the call."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        f(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "variant, degree", [("regularised", 0), ("nonregularised", 0), ("nonregularised", 2)]
)
def test_apply_reconstruct_and_the_round_trip_hold_one_block_beside_the_output(
    variant, degree, monkeypatch
):
    # Row blocks keep the temporaries of apply and reconstruct small: on a
    # 2048 x 128 table (a 2 MiB output) each peaks within 1 MiB of its
    # output, where whole-table temporaries took 3 to 4 MiB more. Fit's
    # round trip runs in the same blocks, so it adds under 1 MiB to what fit
    # holds once its coefficients exist; a whole-table round trip adds its
    # 2 MiB output and more.
    rng = np.random.default_rng(3)
    ds = random_dataset(rng, 2048, 128)
    cfg = TransformConfig(levels=3, window=4, nu=1.0, variant=variant, constraint_degree=degree)
    t, merged = tf.fit(ds, cfg)
    output = merged.nbytes
    assert traced_peak(tf.apply, t, ds.signals) <= output + 2 ** 20
    assert traced_peak(tf.reconstruct, t, merged) <= output + 2 ** 20

    held = []
    real_apply = tf.apply

    def apply_then_mark(*args):
        coefficients = real_apply(*args)
        tracemalloc.reset_peak()
        held.append(tracemalloc.get_traced_memory()[0])
        return coefficients

    monkeypatch.setattr(tf, "apply", apply_then_mark)
    tracemalloc.start()
    try:
        tf.fit(ds, cfg)
        round_trip = tracemalloc.get_traced_memory()[1] - held[0]
    finally:
        tracemalloc.stop()
    assert round_trip <= 2 ** 20


def lifting_factors(level, half, window, variant):
    """One level's split/update/predict step as dense elementary matrices, in
    the order they act, built from the lifting equations and the three-case
    window rule, not from the transform's code. With a = 2 half samples,
    c = (odd + even) / 2 and d_k = t_k even_k - <w_k, c over window k>:
    analysis a -> [c; even] -> [c; d], synthesis [c; d] -> [c; even] -> a.
    Every entry of each factor is a single term, never a sum."""
    W = level.weights
    t, w = (W[:, 0], W[:, 1:]) if variant == "regularised" else (np.ones(half), W)
    P = np.zeros((half, half))  # P[k, j]: weight of coarse sample j in prediction k
    for k in range(half):
        lo = three_case_window_start(k + 1, half, window) - 1
        P[k, lo : lo + window] = w[k]
    I, Z = np.eye(half), np.zeros((half, half))
    average, merge = np.zeros((2 * half, 2 * half)), np.zeros((2 * half, 2 * half))
    for k in range(half):
        average[k, [2 * k, 2 * k + 1]] = 0.5
        average[half + k, 2 * k + 1] = 1.0
        merge[2 * k, [k, half + k]] = 2.0, -1.0  # odd = 2 c - even
        merge[2 * k + 1, half + k] = 1.0
    predict = np.block([[I, Z], [-P, np.diag(t)]])
    unpredict = np.block([[I, Z], [P / t[:, None], np.diag(1.0 / t)]])
    return [average, predict], [unpredict, merge]


def compose(factors, N):
    """The N x N product of `factors` (first acting first), each embedded in
    the leading block of the identity, and the same product of their
    absolute values."""
    product, magnitude = np.eye(N), np.eye(N)
    for F in factors:
        E = np.eye(N)
        E[: len(F), : len(F)] = F
        product, magnitude = E @ product, np.abs(E) @ magnitude
    return product, magnitude


@pytest.mark.parametrize("window, levels", [(2, 1), (2, 2), (2, 3), (2, 4), (4, 1), (4, 2),
                                            (4, 3), (8, 1), (8, 2)])
@pytest.mark.parametrize("variant, constrained", [
    ("nonregularised", False), ("nonregularised", True), ("regularised", False),
])
def test_apply_and_reconstruct_match_the_dense_lifting_matrices(
    window, levels, variant, constrained
):
    # An arbiter for the transform: analysis A and synthesis S composed from
    # each level's dense factors, with the weights of levels[m-1] and the
    # three-case windows. Rounding bound, with u = eps / 2 and
    # gamma(n) = n u / (1 - n u): a stage that applies a factor F (a row of
    # at most L + 2 terms in apply and reconstruct; a product over N terms
    # in the dense route, whose P / t and 1 / t entries are rounded once
    # more) is F + D applied exactly, with |D| <= gamma(N + 1) |F|. Each
    # route runs at most 2M + 1 stages (the dense one ends with X), so each
    # is within gamma((2M + 1)(N + 1)) |X| |F_1|^T ... |F_2M|^T of the exact
    # map, and the two differ by at most twice that. Every factor entry is a
    # single term, so |F| bounds what each stage rounds; eps in place of u
    # leaves a factor 2 for the rounding in forming the magnitude itself.
    N = 32
    degree = max(1, window // 2) if constrained else 0
    cfg = TransformConfig(levels=levels, window=window, nu=1.0, variant=variant,
                          constraint_degree=degree)
    rng = np.random.default_rng(100 * window + 10 * levels + degree)
    t, _ = tf.fit(random_dataset(rng, 24, N), cfg)
    analysis, synthesis = [], []
    for m in range(1, levels + 1):
        forward, backward = lifting_factors(t.levels[m - 1], N >> m, window, variant)
        analysis += forward
        synthesis = backward + synthesis
    n = (2 * levels + 1) * (N + 1)
    gamma = n * np.finfo(float).eps / (1 - n * np.finfo(float).eps)
    for factors, run in ((analysis, tf.apply), (synthesis, tf.reconstruct)):
        matrix, magnitude = compose(factors, N)
        X = rng.normal(size=(7, N))
        tol = 2 * gamma * (np.abs(X) @ magnitude.T)
        assert np.all(np.abs(run(t, X) - X @ matrix.T) <= tol), run.__name__


def stack_budget(l, window, size):
    """STACK_BYTES at which a level of l examples and this window stacks `size` windows."""
    return 8 * (l + window + 2) * (window + 3) * size


# Bound on the `relative_difference` of a constrained window's (w, gamma)
# from the stacked level solve against the lone solve of its problem: the
# stack takes the null space from the cached bases' one N and w0 from a
# p x p solve, the lone solve both from the SVD of its own B, so the two
# agree to rounding only. Over 1000 random draws of the strategy below (1
# BLAS thread) and 300 more (default threading) they differed by at most
# 1.3e-12, largest at data scale 1e6. A w0 moved 1e-9 out of the row space
# of B fails the bound.
STACKED_CONSTRAINED_RTOL = 1e-10


def relative_difference(w, gamma, ref):
    """Largest difference of (w, gamma) from a solution, relative to max(1, |w|, |gamma|) of it."""
    size = max(1.0, float(np.max(np.abs(ref.w))), abs(ref.gamma))
    return max(float(np.max(np.abs(w - ref.w))), abs(gamma - ref.gamma)) / size


def check_level_stacks(variant, degree, window, scale, nu, n, size, seed, rtol=None):
    """Fit 3 levels in stacks of `size` windows and check every window's
    (w, gamma) against the lone solve of its problem, bit for bit or, given
    `rtol`, to that `relative_difference`, and to 1e-8 against the dense KKT
    oracle. The budget is set so that each level runs several stacks and its
    last stack is partial (32, 16 and 8 positions)."""
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, n, 64)
    ds = SignalDataset(signals=scale * ds.signals, class_ids=ds.class_ids)
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
            if rtol is None:
                assert one.w.tobytes() == w.tobytes() and one.gamma == gamma, (m, k)
            else:
                assert relative_difference(w, gamma, one) <= rtol, (m, k)
            assert relative_difference(w, gamma, solver.kkt_oracle(problem)) <= 1e-8, (m, k)
        A = C


LEVEL_STACK_DRAWS = dict(
    window=st.sampled_from([2, 4, 8]),
    scale=st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]),
    nu=st.sampled_from([1e-2, 1.0, 1e2]),
    n=st.integers(12, 60),
    size=st.sampled_from([3, 5, 6]),
    seed=st.integers(0, 2 ** 16),
)


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(variant=st.sampled_from(["nonregularised", "regularised"]), **LEVEL_STACK_DRAWS)
def test_level_stacks_match_solve_bit_for_bit(variant, window, scale, nu, n, size, seed):
    # An unconstrained window's (w, gamma) from the stacked level solve is
    # the one-window solve's, bit for bit.
    check_level_stacks(variant, 0, window, scale, nu, n, size, seed)


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(degree_share=st.sampled_from([0.5, 1.0]), **LEVEL_STACK_DRAWS)
def test_constrained_level_stacks_agree_with_solve(degree_share, window, scale, nu, n, size, seed):
    # A constrained window's (w, gamma) from the stacked level solve agrees
    # with the one-window solve to STACKED_CONSTRAINED_RTOL: degrees 1 to 4.
    degree = max(1, int(degree_share * window) // 2)
    check_level_stacks("nonregularised", degree, window, scale, nu, n, size, seed,
                       STACKED_CONSTRAINED_RTOL)


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
