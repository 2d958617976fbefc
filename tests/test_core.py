"""Core types: datasets, configs, split/interleave, window selection."""

import numpy as np
import pytest

from discwave import (
    ConfigError,
    DataError,
    IndexWindow,
    SignalDataset,
    TransformConfig,
    index_window,
    interleave,
    make_rng,
    split,
    validate_labels,
)


def test_split_row_example():
    A_o, A_e = split(np.array([[1.0, 2.0, 3.0, 4.0]]))
    assert A_o.tolist() == [[1.0, 3.0]]
    assert A_e.tolist() == [[2.0, 4.0]]


def test_split_two_by_two():
    A_o, A_e = split(np.array([[10.0, 20.0], [30.0, 40.0]]))
    assert A_o.tolist() == [[10.0], [30.0]]
    assert A_e.tolist() == [[20.0], [40.0]]


def test_split_interleave_round_trip():
    rng = np.random.default_rng(0)
    for cols in (2, 4, 16, 32):
        A = rng.standard_normal((3, cols))
        A_o, A_e = split(A)
        assert np.array_equal(interleave(A_o, A_e), A)


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


def test_dataset_rejects_non_power_of_two_width():
    with pytest.raises(DataError):
        SignalDataset(signals=np.zeros((2, 6)), labels=np.array([1.0, -1.0]))


def test_dataset_rejects_single_class_labels():
    with pytest.raises(DataError):
        SignalDataset(signals=np.zeros((2, 4)), labels=np.array([1.0, 1.0]))


def test_dataset_rejects_bad_label_values():
    with pytest.raises(DataError):
        SignalDataset(signals=np.zeros((2, 4)), labels=np.array([1.0, 0.5]))


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
    with pytest.raises(ConfigError):
        # constraints are only defined for the nonregularised predictor
        TransformConfig(
            levels=1, window=4, nu=1.0, variant="regularised", constraint_degree=1
        )


def test_config_round_trips_through_dict():
    cfg = TransformConfig(
        levels=2, window=6, nu=0.5, variant="nonregularised", constraint_degree=2, seed=9
    )
    assert TransformConfig.from_dict(cfg.to_dict()) == cfg


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


def test_make_rng_determinism_and_child_streams():
    a = make_rng(7).standard_normal(4)
    b = make_rng(7).standard_normal(4)
    assert np.array_equal(a, b)
    child0 = make_rng(7, 0).standard_normal(4)
    child1 = make_rng(7, 1).standard_normal(4)
    assert not np.array_equal(child0, child1)
    assert not np.array_equal(a, child0)
