"""Core types: datasets, configs, split, window selection."""

import re
import warnings
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest

from discwave.core import (
    REGULARISED,
    ConfigError,
    DataError,
    IndexWindow,
    SignalDataset,
    TransformConfig,
    class_ids,
    float_matrix,
    index_window,
    integer,
    make_rng,
    pair_labels,
    real,
    split,
    validate_labels,
    window_columns,
)
from discwave import evaluation as ev, io, transform as tf
from discwave.datasets import ShapeSpec, WaveformSpec, generate_waveform
from discwave.solver import PredictProblem, solve_windows, vandermonde_constraints


def test_split_row_example():
    A_o, A_e = split(np.array([[1.0, 2.0, 3.0, 4.0]]))
    assert A_o.tolist() == [[1.0, 3.0]]
    assert A_e.tolist() == [[2.0, 4.0]]


def test_split_two_by_two():
    A_o, A_e = split(np.array([[10.0, 20.0], [30.0, 40.0]]))
    assert A_o.tolist() == [[10.0], [30.0]]
    assert A_e.tolist() == [[20.0], [40.0]]


def test_float_matrix_is_the_one_matrix_rule():
    # 2-D, at least one row, `width` columns when given, only finite entries.
    m = float_matrix([[1, 2], [3, 4]], "m", 2)
    assert m.dtype == np.float64 and m.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert float_matrix(np.zeros((3, 0)), "m").shape == (3, 0)  # any width when None
    bad = {
        "m must be a 2-D matrix, got shape (4,)": (np.zeros(4), None),
        "m must be a 2-D matrix, got shape (1, 2, 2)": (np.zeros((1, 2, 2)), None),
        "m must be an l x 3 matrix, got shape (2, 2)": (np.zeros((2, 2)), 3),
        "m must be an l x 2 matrix with at least one row, got shape (0, 2)": (np.zeros((0, 2)), 2),
        "m must be a 2-D matrix with at least one row, got shape (0, 0)": (np.zeros((0, 0)), None),
        "m contains non-finite values": (np.array([[0.0, np.inf]]), 2),
        "m is not a matrix of numbers: got dtype <U32": ([[1.0, "x"]], None),
        "m is not a matrix of numbers: got dtype <U5": ([["1.5", True]], None),
        "m is not a matrix of numbers: got dtype bool": ([[True, False]], None),
        "m is not a matrix of numbers: got dtype |S3": ([[b"1.5"]], None),
        "m is not a matrix of numbers: got dtype object": ([[10 ** 400]], None),
        "m is not a matrix of numbers: got dtype complex128": ([[1j]], None),
        "m is not a matrix of numbers: setting an array element with a sequence":
            ([[1.0], [1.0, 2.0]], None),  # ragged rows
    }
    for message, (values, width) in bad.items():
        with pytest.raises(DataError, match=f"^{re.escape(message)}"):
            float_matrix(values, "m", width)
    with pytest.raises(DataError, match="m contains non-finite values"):
        float_matrix([[np.nan]], "m")
    # Integer dtypes convert; numpy itself makes [1.5, True] float64.
    for values in (np.array([[1, 2]], dtype=np.uint8), [[2 ** 63]], [[1.5, True]]):
        assert float_matrix(values, "m").tolist() == np.asarray(values, dtype=float).tolist()


def test_dataset_and_split_need_at_least_one_row():
    # A zero-row dataset used to pass and leave NaN errors to the duels.
    message = re.escape("signals must be a 2-D matrix with at least one row, got shape (0, 32)")
    with pytest.raises(DataError, match=message):
        SignalDataset(np.zeros((0, 32)), np.zeros(0, dtype=int))
    with pytest.raises(DataError, match="at least one row"):
        split(np.zeros((0, 4)))
    with pytest.raises(DataError, match="signals contains non-finite values"):
        split(np.array([[0.0, np.nan]]))


def test_split_rejects_odd_width():
    with pytest.raises(ConfigError):
        split(np.ones((2, 5)))


def test_index_window_left_boundary():
    assert index_window(1, 8, 4).indices == (1, 2, 3, 4)


def test_index_window_interior():
    assert index_window(4, 8, 4).indices == (3, 4, 5, 6)


def test_index_window_right_boundary():
    assert index_window(7, 8, 4).indices == (5, 6, 7, 8)


def test_index_window_boundary_membership():
    # k = L/2 falls under the interior rule (the left rule is strict <);
    # k = N/2 - L/2 falls under the right rule.
    assert index_window(2, 8, 4).indices == (1, 2, 3, 4)
    assert index_window(6, 8, 4).indices == (5, 6, 7, 8)


def test_index_window_interior_centering():
    for k in range(2, 7):
        win = index_window(k, 16, 4)
        if 2 <= k < 14:
            assert max(win.indices) - k == 2
            assert k - min(win.indices) == 1


def test_index_window_every_position_contiguous():
    half, L = 16, 8
    prev_lo = 0
    for k in range(1, half + 1):
        win = index_window(k, half, L)
        assert len(win.indices) == L
        assert win.indices[0] >= 1 and win.indices[-1] <= half
        assert list(win.indices) == list(range(win.indices[0], win.indices[0] + L))
        assert win.indices[0] >= prev_lo  # monotone in k
        prev_lo = win.indices[0]


def three_case_window_start(k, half, L):
    """The window rule as three cases, first match wins (1-based start)."""
    if k < L // 2:
        return 1
    if k < half - L // 2:
        return k - L // 2 + 1
    return half - L + 1


def test_window_columns_match_three_case_rule():
    for half in range(2, 65):
        for L in range(2, min(half, 16) + 1):
            columns = window_columns(half, L)
            assert columns.shape == (half, L)
            for k in range(1, half + 1):
                lo = three_case_window_start(k, half, L)
                assert columns[k - 1].tolist() == list(range(lo - 1, lo - 1 + L)), (half, L, k)
                assert index_window(k, half, L).indices == tuple(columns[k - 1] + 1)


def test_window_columns_rejects_oversized_window():
    with pytest.raises(ConfigError, match="does not fit"):
        window_columns(4, 8)


def test_index_window_rejects_oversized_window():
    with pytest.raises(ConfigError):
        index_window(1, 4, 8)


def test_index_window_rejects_out_of_range_position():
    with pytest.raises(ConfigError):
        index_window(0, 8, 4)
    with pytest.raises(ConfigError):
        index_window(9, 8, 4)


def test_index_window_requires_contiguous_indices():
    with pytest.raises(ConfigError):
        IndexWindow(k=1, indices=(1, 3, 4, 5))


def test_dataset_derives_binary_labels():
    signals = np.zeros((4, 4))
    ds = SignalDataset(signals=signals, class_ids=np.array([2, 5, 2, 5]))
    assert ds.labels.tolist() == [-1.0, 1.0, -1.0, 1.0]
    assert ds.classes == (2, 5)


def test_dataset_labels_are_the_pair_labels_of_exactly_two_classes():
    signals = np.zeros((6, 4))
    two = np.array([7, 3, 3, 7, 7, 3])
    assert np.array_equal(SignalDataset(signals, two).labels, pair_labels(two, 3))
    assert SignalDataset(signals, np.full(6, 3)).labels is None
    assert SignalDataset(signals, np.array([1, 2, 3, 1, 2, 3])).labels is None


def test_dataset_rejects_non_power_of_two_width():
    with pytest.raises(DataError):
        SignalDataset(signals=np.zeros((2, 6)), class_ids=np.array([1, 2]))


def test_dataset_rejects_single_class_labels():
    ds = SignalDataset(signals=np.zeros((2, 4)), class_ids=np.array([1, 1]))
    assert ds.classes == (1,)
    with pytest.raises(DataError, match="no binary labels"):
        ds.require_labels()


def test_dataset_rejects_bad_label_values():
    with pytest.raises(DataError, match="integers"):
        SignalDataset(signals=np.zeros((2, 4)), class_ids=np.array([1.0, 0.5]))
    with pytest.raises(DataError, match="shape"):
        SignalDataset(signals=np.zeros((2, 4)), class_ids=np.array([1, 2, 1]))
    with pytest.raises(TypeError):
        SignalDataset(signals=np.zeros((2, 4)))  # class ids are required


def test_restrict_pair_orientation_and_content():
    rng = np.random.default_rng(1)
    signals = rng.standard_normal((6, 8))
    ds = SignalDataset(signals=signals, class_ids=np.array([3, 1, 2, 1, 3, 2]))
    pair = ds.restrict_pair(3, 1)
    # smaller class id maps to -1 regardless of argument order
    assert pair.labels.tolist() == [1.0, -1.0, -1.0, 1.0]
    assert np.array_equal(pair.signals, signals[[0, 1, 3, 4]])


def test_restrict_pair_missing_class():
    ds = SignalDataset(signals=np.zeros((2, 4)), class_ids=np.array([1, 2]))
    with pytest.raises(DataError):
        ds.restrict_pair(1, 9)
    with pytest.raises(ConfigError, match="^restrict_pair needs two distinct class ids$"):
        ds.restrict_pair(1, 1)


def test_require_labels_raises_without_labels():
    ds = SignalDataset(signals=np.zeros((3, 4)), class_ids=np.array([1, 2, 3]))
    assert ds.labels is None  # three classes: no canonical binary labelling
    with pytest.raises(DataError):
        ds.require_labels()


def test_config_validation():
    TransformConfig(levels=3, window=4, nu=1.0)
    with pytest.raises(ConfigError):
        TransformConfig(levels=0, window=4, nu=1.0)
    with pytest.raises(ConfigError):
        TransformConfig(levels=1, window=3, nu=1.0)
    with pytest.raises(ConfigError):
        TransformConfig(levels=1, window=4, nu=0.0)
    with pytest.raises(ConfigError):
        TransformConfig(levels=1, window=4, nu=1.0, variant="other")
    with pytest.raises(ConfigError):
        TransformConfig(levels=1, window=4, nu=1.0, constraint_degree=5)
    # One degree bound, min(window, 15), for the config and the solver alike.
    TransformConfig(levels=1, window=16, nu=1.0, constraint_degree=15)
    message = re.escape("constraint_degree must lie in 1..min(window, 15) = 1..15, got 16")
    with pytest.raises(ConfigError, match=f"^{message}$"):
        TransformConfig(levels=1, window=16, nu=1.0, constraint_degree=16)
    with pytest.raises(ConfigError):
        # constraints are only defined for the nonregularised predictor
        TransformConfig(
            levels=1, window=4, nu=1.0, variant="regularised", constraint_degree=1
        )
    # Sizes are exact integers: no float or bool is truncated to one.
    for field, value in [
        ("levels", 2.5), ("levels", 2.0), ("levels", True), ("window", 4.9),
        ("window", "4"), ("constraint_degree", 1.5), ("constraint_degree", False),
    ]:
        sizes = {"levels": 2, "window": 4, "constraint_degree": 1, field: value}
        least = {"levels": 1, "window": 2, "constraint_degree": 0}[field]
        message = f"{field} must be an integer >= {least}, got {value!r}"
        with pytest.raises(ConfigError, match=message):
            TransformConfig(nu=1.0, **sizes)
    # nu is a real number: not a bool, not a string that reads as one.
    for nu in (True, "1.0", None, [1.0]):
        with pytest.raises(ConfigError, match=re.escape(f"nu must lie in (0, inf), got {nu!r}")):
            TransformConfig(levels=1, window=4, nu=nu)
    for nu in (1, np.int64(2), np.float32(0.5)):
        assert type(TransformConfig(levels=1, window=4, nu=nu).nu) is float
    cfg = TransformConfig(levels=np.int64(2), window=np.int32(4), nu=1.0,
                          constraint_degree=np.uint8(1))
    assert (cfg.levels, cfg.window, cfg.constraint_degree) == (2, 4, 1)
    assert all(type(v) is int for v in (cfg.levels, cfg.window, cfg.constraint_degree))


def test_config_round_trips_through_dict():
    cfg = TransformConfig(
        levels=2, window=6, nu=0.5, variant="nonregularised", constraint_degree=2
    )
    assert TransformConfig(**asdict(cfg)) == cfg
    assert asdict(cfg) == {
        "levels": 2, "window": 6, "nu": 0.5, "variant": "nonregularised",
        "constraint_degree": 2,
    }


def test_validate_labels_shape_mismatch():
    with pytest.raises(DataError):
        validate_labels(np.array([1.0, -1.0]), 3)


@pytest.mark.parametrize("bad", [0.0, 0.5, 2.0, -2.0, np.nan])
def test_validate_labels_rejects_values_other_than_plus_minus_one(bad):
    with pytest.raises(DataError, match="labels must be -1 or \\+1"):
        validate_labels(np.array([1.0, -1.0, bad]), 3)


def test_validate_labels_accepts_both_signs_and_needs_both_classes():
    y = validate_labels([1, -1, -1.0], 3)
    assert y.dtype == float and y.tolist() == [1.0, -1.0, -1.0]
    with pytest.raises(DataError, match="need at least one example of each label"):
        validate_labels(np.array([1.0, 1.0]), 2)


def test_make_rng_rejects_a_seed_that_is_not_a_non_negative_integer():
    # int() used to turn 1.7 into seed 1; -1 failed in numpy with a bare ValueError.
    for seed in (1.7, 1.0, -1, "1", None):
        with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
            make_rng(seed)
        with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
            make_rng(seed, 0)
    assert make_rng(np.int64(7)).integers(2**62) == make_rng(7).integers(2**62)


def test_make_rng_rejects_a_bool_seed_and_a_path_entry_that_is_not_a_non_negative_integer():
    # True used to draw seed 1's stream and 1.5 path entry 1's; a negative
    # entry failed in numpy with a bare ValueError.
    for seed in (True, False):
        with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
            make_rng(seed)
    for entry in (1.5, 1.0, -1, True, "1", None):
        with pytest.raises(ConfigError, match="path entry 1 must be an integer >= 0"):
            make_rng(7, entry)
        with pytest.raises(ConfigError, match="path entry 2 must be an integer >= 0"):
            make_rng(7, 0, entry)
    assert make_rng(7, np.int64(3)).integers(2**62) == make_rng(7, 3).integers(2**62)


def test_make_rng_determinism_and_child_streams():
    a = make_rng(7).standard_normal(4)
    b = make_rng(7).standard_normal(4)
    assert np.array_equal(a, b)
    child0 = make_rng(7, 0).standard_normal(4)
    child1 = make_rng(7, 1).standard_normal(4)
    assert not np.array_equal(child0, child1)
    assert not np.array_equal(a, child0)


# The scalar rule: core.integer and core.real check every integer and real
# argument the package takes, so a bad one is a ConfigError that names it.

NOT_INTEGERS = (True, np.True_, "1", 0.5, 2.0)
# for an integer with a lower bound; -10**5000 is too long for repr
NOT_BOUNDED_INTEGERS = NOT_INTEGERS + (-1, -10**5000)
NOT_REALS = (True, np.True_, "1", 10**400, 10**5000, -10**5000, float("nan"), -1)

SCALAR_ARGUMENTS = {
    # id: (the name the message starts with, rejected values, call(fixtures, value))
    "make_rng seed": ("seed", NOT_BOUNDED_INTEGERS, lambda f, v: make_rng(v)),
    "make_rng path": ("path entry 2", NOT_BOUNDED_INTEGERS, lambda f, v: make_rng(1, 0, v)),
    "levels": ("levels", NOT_BOUNDED_INTEGERS, lambda f, v: TransformConfig(v, 4, 1.0)),
    "window": ("window", NOT_BOUNDED_INTEGERS, lambda f, v: TransformConfig(1, v, 1.0)),
    "constraint_degree": (
        "constraint_degree", NOT_BOUNDED_INTEGERS,
        lambda f, v: TransformConfig(1, 4, 1.0, constraint_degree=v),
    ),
    "nu": ("nu", NOT_REALS, lambda f, v: TransformConfig(1, 4, v)),
    "WaveformSpec per_class_count": (
        "per_class_count", NOT_BOUNDED_INTEGERS, lambda f, v: WaveformSpec(v, 1),
    ),
    "WaveformSpec seed": ("seed", NOT_BOUNDED_INTEGERS, lambda f, v: WaveformSpec(1, v)),
    "ShapeSpec per_class_count": (
        "per_class_count", NOT_BOUNDED_INTEGERS, lambda f, v: ShapeSpec(v, 1),
    ),
    "ShapeSpec seed": ("seed", NOT_BOUNDED_INTEGERS, lambda f, v: ShapeSpec(1, v)),
    "PredictProblem nu": (
        "nu", NOT_REALS,
        lambda f, v: PredictProblem(np.ones((2, 3)), [1.0, -1.0], v, REGULARISED),
    ),
    "permutation_test B": (
        "B", NOT_BOUNDED_INTEGERS,
        lambda f, v: ev.permutation_test(f.classifiers, f.values, f.labels, v, 1),
    ),
    "permutation_test seed": (
        "seed", NOT_BOUNDED_INTEGERS,
        lambda f, v: ev.permutation_test(f.classifiers, f.values, f.labels, 100, v),
    ),
    "one_against_one top_t": (
        "top_t entry", NOT_BOUNDED_INTEGERS,
        lambda f, v: ev.one_against_one(f.train, f.train, f.config, [3, v]),
    ),
    "one_against_one_raw_psvm nu": (
        "nu", NOT_REALS, lambda f, v: ev.one_against_one_raw_psvm(f.train, f.train, v),
    ),
    "select_significant alpha": (
        "alpha", NOT_REALS, lambda f, v: ev.select_significant(f.classifiers, alpha=v),
    ),
    "select_significant min_accuracy": (
        "min_accuracy", NOT_REALS,
        lambda f, v: ev.select_significant(f.classifiers, min_accuracy=v),
    ),
    "restrict_pair a": ("class id a", NOT_INTEGERS, lambda f, v: f.train.restrict_pair(v, 2)),
    "restrict_pair b": ("class id b", NOT_INTEGERS, lambda f, v: f.train.restrict_pair(1, v)),
    "window_columns half_length": ("half_length", NOT_INTEGERS, lambda f, v: window_columns(v, 2)),
    "window_columns window": ("window", NOT_BOUNDED_INTEGERS, lambda f, v: window_columns(8, v)),
    "IndexWindow index": (
        "window index", NOT_BOUNDED_INTEGERS, lambda f, v: IndexWindow(k=1, indices=(v, 2)),
    ),
    "solve_windows nu": (
        "nu", NOT_REALS,
        lambda f, v: solve_windows(np.ones((4, 4)), np.ones((4, 4)), window_columns(4, 2),
                                   np.array([1.0, -1.0, 1.0, -1.0]), v, REGULARISED),
    ),
    "vandermonde_constraints degree": (
        "degree", NOT_BOUNDED_INTEGERS,
        lambda f, v: vandermonde_constraints(IndexWindow(k=2, indices=(1, 2, 3, 4)), v),
    ),
}


@pytest.fixture(scope="module")
def scalar_fixtures():
    train = generate_waveform(WaveformSpec(per_class_count=4, seed=1))
    config = TransformConfig(levels=1, window=4, nu=1.0)
    pair = train.restrict_pair(1, 2)
    fitted, merged = tf.fit(pair, config)
    classifiers = ev.make_local_classifiers(merged, pair.labels, fitted)
    return SimpleNamespace(
        train=train, config=config, fitted=fitted, classifiers=classifiers,
        values=merged[:, classifiers.columns], labels=pair.labels, pair=pair, merged=merged,
    )


@pytest.mark.parametrize("argument", SCALAR_ARGUMENTS)
def test_every_scalar_argument_is_checked_by_the_scalar_rule(scalar_fixtures, argument):
    what, rejected, call = SCALAR_ARGUMENTS[argument]
    for value in rejected:
        with pytest.raises(ConfigError, match=f"^{re.escape(what)} must "):
            call(scalar_fixtures, value)


def test_the_scalar_rule_keeps_interval_ends_and_returns_python_scalars(scalar_fixtures):
    clfs = scalar_fixtures.classifiers
    ev.select_significant(clfs, alpha=1)
    for min_accuracy in (0, 1):
        ev.select_significant(clfs, min_accuracy=min_accuracy)
    with pytest.raises(ConfigError, match=r"^alpha must lie in \(0, 1\], got 0$"):
        ev.select_significant(clfs, alpha=0)
    assert type(integer(np.int64(3), "n", 3)) is int
    assert type(real(np.float32(0.5), "x", "(0, inf)")) is float
    assert type(real(np.int64(2), "x", "(0, inf)")) is float
    with pytest.raises(ConfigError, match=r"^x must lie in \(0, inf\), got inf$"):
        real(float("inf"), "x", "(0, inf)")


# The class-id rule: core.class_ids checks every class-id vector the package
# takes or writes, so a bad one is a DataError that names it, raised with no
# numpy warning and before any file is opened.

NOT_CLASS_IDS = (np.nan, np.inf, -np.inf, 1.5, 1e30, True, "1", 2**53, -2**53, -2**63, 2**70)

CLASS_ID_ENTRY_POINTS = {
    # id: (the name the message starts with, call(fixtures, ids, path))
    "SignalDataset": ("class_ids", lambda f, ids, path: SignalDataset(f.pair.signals, ids)),
    "io.write_table": (
        "class ids",
        lambda f, ids, path: io.write_table(path, ["c"] * f.merged.shape[1], f.merged, ids),
    ),
    "save_features": (
        "class ids", lambda f, ids, path: tf.save_features(f.fitted, f.merged, ids, path),
    ),
}


@pytest.mark.parametrize("entry", CLASS_ID_ENTRY_POINTS)
def test_every_class_id_vector_is_checked_by_the_class_id_rule(scalar_fixtures, tmp_path, entry):
    what, call = CLASS_ID_ENTRY_POINTS[entry]
    n = len(scalar_fixtures.merged)
    path = tmp_path / "table.csv"
    rejected = [[value] * n for value in NOT_CLASS_IDS] + [[1] * (n + 1), [1] * (n - 1), None]
    for ids in rejected:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=f"^{re.escape(what)} must "):
                call(scalar_fixtures, ids, path)
        assert not path.exists()


def test_the_class_id_rule_keeps_whole_numbers_inside_the_bound():
    # Whole floats (a CSV label may read "1.0") and every integer dtype pass;
    # the result is int64, and a rejected value is shown as it was given.
    ids = class_ids([2.0 ** 53 - 1, -(2.0 ** 53 - 1), 0.0, 3.0], "ids", 4)
    assert ids.dtype == np.int64 and ids.tolist() == [2 ** 53 - 1, -(2 ** 53 - 1), 0, 3]
    assert class_ids(np.array([7, 200], dtype=np.uint8), "ids", 2).tolist() == [7, 200]
    message = "ids must be integers in (-2**53, 2**53), got 1152921504606846976"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        class_ids([1, 2 ** 60], "ids", 2)
    with pytest.raises(DataError, match=r"^ids must be integers, got dtype bool$"):
        class_ids([True, False], "ids", 2)
