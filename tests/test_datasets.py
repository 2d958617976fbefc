"""Generator and CSV round-trip tests.

The generator tests re-derive expected signals through the documented draw
order (mixing weight or shape parameters first, then the noise vector) using
an independently constructed stream, so a silent reordering of draws fails
loudly rather than just shifting numbers.
"""

import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from discwave.core import ConfigError, DataError, SignalDataset, make_rng
from discwave import datasets as dsm
from discwave import io
from discwave.datasets import (
    ShapeSpec,
    WaveformSpec,
    generate_shape,
    generate_waveform,
    load_csv,
    save_csv,
    shape_envelope,
    waveform_mixture,
)


def test_bump_values():
    assert dsm.h1(7) == 6.0
    assert dsm.h1(1) == 0.0
    assert dsm.h1(13) == 0.0
    assert dsm.h1(4) == 3.0
    assert dsm.h2(15) == 6.0
    assert dsm.h3(11) == 6.0
    i = np.arange(1, 33, dtype=float)
    assert np.flatnonzero(dsm.h1(i))[0] + 1 == 2
    assert np.flatnonzero(dsm.h1(i))[-1] + 1 == 12
    assert np.flatnonzero(dsm.h2(i))[0] + 1 == 10
    assert np.flatnonzero(dsm.h2(i))[-1] + 1 == 20


def test_mixture_endpoints_exact():
    i = np.arange(1, 33, dtype=float)
    assert np.array_equal(waveform_mixture(1, 1.0), dsm.h1(i))
    assert np.array_equal(waveform_mixture(1, 0.0), dsm.h2(i))
    assert np.array_equal(waveform_mixture(2, 0.0), dsm.h3(i))
    assert np.array_equal(waveform_mixture(3, 1.0), dsm.h2(i))
    mid = waveform_mixture(2, 0.5)
    assert np.array_equal(mid, 0.5 * dsm.h1(i) + 0.5 * dsm.h3(i))
    with pytest.raises(ConfigError):
        waveform_mixture(4, 0.5)


def test_waveform_shape_and_grouping():
    ds = generate_waveform(WaveformSpec(per_class_count=5, seed=3))
    assert ds.signals.shape == (15, 32)
    assert np.array_equal(ds.class_ids, np.repeat([1, 2, 3], 5))
    assert ds.classes == (1, 2, 3)
    assert ds.signal_length == 32
    assert ds.n_examples == 15


def test_waveform_draw_order_fixed():
    # Mimic the documented per-signal draw order with a fresh stream: one
    # uniform mixing weight, then 32 noise samples, rows grouped by class.
    spec = WaveformSpec(per_class_count=2, seed=41)
    ds = generate_waveform(spec)
    rng = make_rng(41)
    for row, cid in enumerate(np.repeat([1, 2, 3], 2)):
        u = rng.uniform()
        eps = rng.standard_normal(32)
        assert np.array_equal(ds.signals[row], waveform_mixture(int(cid), u) + eps)


def test_waveform_class_mean_differences():
    # Monte Carlo check of the analytic mean gaps; at 4000 signals per class
    # the largest per-sample deviation sits near 0.06, so 0.10 is comfortable
    # while a misplaced bump (order-1 error) still fails.
    ds = generate_waveform(WaveformSpec(per_class_count=4000, seed=77))
    i = np.arange(1, 33, dtype=float)
    m1 = ds.signals[:4000].mean(axis=0)
    m2 = ds.signals[4000:8000].mean(axis=0)
    m3 = ds.signals[8000:].mean(axis=0)
    assert np.max(np.abs((m1 - m2) - 0.5 * (dsm.h2(i) - dsm.h3(i)))) < 0.10
    assert np.max(np.abs((m2 - m3) - 0.5 * (dsm.h1(i) - dsm.h2(i)))) < 0.10
    assert np.max(np.abs((m1 - m3) - 0.5 * (dsm.h1(i) - dsm.h3(i)))) < 0.10


def test_waveform_seed_determinism():
    a = generate_waveform(WaveformSpec(per_class_count=4, seed=9))
    b = generate_waveform(WaveformSpec(per_class_count=4, seed=9))
    c = generate_waveform(WaveformSpec(per_class_count=4, seed=10))
    assert np.array_equal(a.signals, b.signals)
    assert not np.array_equal(a.signals, c.signals)


def test_spec_validation():
    with pytest.raises(ConfigError):
        WaveformSpec(per_class_count=0, seed=1)
    with pytest.raises(TypeError):  # signal lengths are fixed; specs take none
        WaveformSpec(per_class_count=3, seed=1, length=64)
    with pytest.raises(ConfigError):
        ShapeSpec(per_class_count=0, seed=1)
    with pytest.raises(TypeError):
        ShapeSpec(per_class_count=3, seed=1, length=32)


@pytest.mark.parametrize("spec", [WaveformSpec, ShapeSpec])
def test_spec_fields_are_integers_in_range(spec):
    # seed=1.7 and seed=True used to generate seed 1's data; seed=-1 and
    # per_class_count=2.5 failed later, in numpy, with bare errors.
    bad = {
        "seed must be an integer >= 0, got 1.7": dict(per_class_count=2, seed=1.7),
        "seed must be an integer >= 0, got True": dict(per_class_count=2, seed=True),
        "seed must be an integer >= 0, got -1": dict(per_class_count=2, seed=-1),
        "seed must be an integer >= 0, got '1'": dict(per_class_count=2, seed="1"),
        "per_class_count must be an integer >= 1, got 2.5": dict(per_class_count=2.5, seed=1),
        "per_class_count must be an integer >= 1, got True": dict(per_class_count=True, seed=1),
        "per_class_count must be an integer >= 1, got 0": dict(per_class_count=0, seed=1),
    }
    for message, fields in bad.items():
        with pytest.raises(ConfigError, match=re.escape(message)):
            spec(**fields)
    assert spec(per_class_count=np.int64(2), seed=np.int64(0)) == spec(per_class_count=2, seed=0)


def test_shape_envelope_geometry():
    a, b, eta = 20, 70, 0.5
    height = 6.0 + eta
    t = np.arange(1, 129, dtype=float)
    cyl = shape_envelope("cylinder", a, b, eta)
    bell = shape_envelope("bell", a, b, eta)
    fun = shape_envelope("funnel", a, b, eta)
    inside = (t >= a) & (t <= b)
    assert np.all(cyl[~inside] == 0.0)
    assert np.all(cyl[inside] == height)
    assert bell[a - 1] == 0.0 and bell[b - 1] == height
    assert fun[a - 1] == height and fun[b - 1] == 0.0
    # Both ramps are linear across the active stretch.
    ramp = (t[inside] - a) / (b - a)
    assert np.max(np.abs(bell[inside] - height * ramp)) < 1e-12
    assert np.max(np.abs(fun[inside] - height * ramp[::-1])) < 1e-12
    with pytest.raises(ConfigError):
        shape_envelope("square", a, b, eta)


@pytest.mark.parametrize("kind", dsm.SHAPE_KINDS)
def test_shape_envelope_needs_an_onset_before_its_end(kind):
    # b <= a gave 128 NaN samples (bell, funnel) and a RuntimeWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in ((20, 20), (30, 20)):
            with pytest.raises(ConfigError, match=f"got a={a}, b={b}$"):
                shape_envelope(kind, a, b, 0.0)


def test_shape_draw_order_fixed():
    spec = ShapeSpec(per_class_count=2, seed=55)
    ds = generate_shape(spec)
    rng = make_rng(55)
    kinds = ("cylinder", "bell", "funnel")
    for row, cid in enumerate(np.repeat([1, 2, 3], 2)):
        a = int(rng.integers(16, 33))
        width = int(rng.integers(32, 97))
        eta = float(rng.standard_normal())
        eps = rng.standard_normal(128)
        expected = shape_envelope(kinds[int(cid) - 1], a, a + width, eta) + eps
        assert np.array_equal(ds.signals[row], expected)
    assert ds.signals.shape == (6, 128)
    assert ds.classes == (1, 2, 3)


def test_shape_parameter_ranges():
    ds = generate_shape(ShapeSpec(per_class_count=200, seed=8))
    rng = make_rng(8)
    for _ in range(600):
        a = int(rng.integers(16, 33))
        width = int(rng.integers(32, 97))
        rng.standard_normal()
        rng.standard_normal(128)
        assert 16 <= a <= 32
        assert 32 <= width <= 96
    assert ds.signals.shape == (600, 128)


def test_csv_round_trip(tmp_path):
    ds = generate_waveform(WaveformSpec(per_class_count=3, seed=21))
    path = tmp_path / "wave.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.signals, ds.signals)
    assert np.array_equal(back.class_ids, ds.class_ids)
    text = path.read_text().splitlines()
    assert text[0].split(",")[:2] == ["s1", "s2"]
    assert text[0].split(",")[-1] == "label"
    assert len(text) == 10


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.lists(st.integers(-(2 ** 53 - 1), 2 ** 53 - 1), min_size=1, max_size=6))
@example([2 ** 53 - 1, -(2 ** 53 - 1), 0])
def test_csv_round_trip_keeps_every_class_id(tmp_path_factory, ids):
    # The writer holds class ids to the reader's rule, so every id a dataset
    # takes reads back exactly; ids of 2**60 were saved and then refused.
    ds = SignalDataset(np.arange(2.0 * len(ids)).reshape(len(ids), 2), ids)
    path = tmp_path_factory.mktemp("ids") / "data.csv"
    save_csv(ds, path)
    back = load_csv(path).class_ids
    assert back.dtype == np.int64 and back.tolist() == ids


def test_csv_headerless_is_a_data_error(tmp_path):
    ds = generate_shape(ShapeSpec(per_class_count=2, seed=22))
    path = tmp_path / "shape.csv"
    save_csv(ds, path)
    path.write_text("".join(path.read_text().splitlines(keepends=True)[1:]))
    with pytest.raises(DataError, match="row 1 holds numbers, not a header"):
        load_csv(path)


HEADER4 = "s1,s2,s3,s4,label\n"


def test_csv_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text(HEADER4 + "1.0,2.0,3.0,4.0,1\n1.0,2.0,3.0,1\n")
    with pytest.raises(DataError, match="row 3 has 4 cells, expected 5"):
        load_csv(path)


def test_csv_non_numeric_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(HEADER4 + "1.0,2.0,oops,4.0,1\n")
    with pytest.raises(DataError, match="row 2, column 3"):
        load_csv(path)


def test_csv_non_integer_label(tmp_path):
    path = tmp_path / "badlabel.csv"
    path.write_text(HEADER4 + "1.0,2.0,3.0,4.0,1.5\n")
    with pytest.raises(DataError, match="column 5: label '1.5'"):
        load_csv(path)


def test_csv_nan_label_is_a_data_error(tmp_path):
    path = tmp_path / "nanlabel.csv"
    path.write_text(HEADER4 + "1.0,2.0,3.0,4.0,nan\n")
    with pytest.raises(DataError, match="column 5: label 'nan' is not an integer"):
        load_csv(path)


def test_csv_label_outside_int64_is_a_data_error(tmp_path):
    path = tmp_path / "hugelabel.csv"
    path.write_text("s1,s2,label\n1.0,2.0,1e20\n3.0,4.0,2\n")
    with pytest.raises(
        DataError, match=re.escape("row 2, column 3: label '1e20' is outside (-2**53, 2**53)")
    ):
        load_csv(path)


def test_csv_fractional_label_above_2_52_is_a_data_error(tmp_path):
    # From 2**52 up the nearest float to x.5 is an integer, so only the text
    # shows the fraction; both readers must see it.
    path = tmp_path / "fraclabel.csv"
    path.write_text("s1,s2,label\n1.0,2.0,2\n3.0,4.0,-4503599627370496.5\n")
    message = re.escape("row 3, column 3: label '-4503599627370496.5' is not an integer")
    with pytest.raises(DataError, match=message):
        load_csv(path)
    with pytest.raises(DataError, match=message):
        io._read_rows(path)
    assert io._read_c(path) is None


@pytest.mark.parametrize("label", ["1.0000000000000001", "-2251799813685248.25"])
def test_csv_fractional_label_below_float_resolution_is_a_data_error(tmp_path, label):
    # The nearest float to either label is an integer at any magnitude, so
    # every label cell is checked as text, on both read paths.
    path = tmp_path / "fraclabel.csv"
    path.write_text(f"s1,s2,label\n1.0,2.0,2\n3.0,4.0,{label}\n")
    message = re.escape(f"row 3, column 3: label '{label}' is not an integer")
    with pytest.raises(DataError, match=message):
        load_csv(path)
    with pytest.raises(DataError, match=message):
        io._read_rows(path)
    assert io._read_c(path) is None


def test_csv_labels_read_exactly_or_not_at_all(tmp_path):
    # 2**53 + 1 parses to the float 2**53, so no float reader can return it.
    path = tmp_path / "labels.csv"
    path.write_text("s1,s2,label\n1.0,2.0,9007199254740991\n3.0,4.0,-9007199254740991\n")
    assert load_csv(path).class_ids.tolist() == [2 ** 53 - 1, -(2 ** 53 - 1)]
    path.write_text("s1,s2,label\n1.0,2.0,2\n3.0,4.0,9007199254740993\n")
    with pytest.raises(
        DataError, match=re.escape("row 3, column 3: label '9007199254740993' is outside")
    ):
        load_csv(path)


def test_csv_width_not_power_of_two(tmp_path):
    path = tmp_path / "width.csv"
    path.write_text("s1,s2,s3,label\n1.0,2.0,3.0,1\n")
    # SignalDataset's one width rule, prefixed by the path
    message = f"{path}: signal length must be a power of two >= 2, got 3"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        load_csv(path)


def test_csv_empty_and_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataError, match="empty file"):
        load_csv(path)
    path.write_text("s1,s2,label\n")
    with pytest.raises(DataError, match="header only"):
        load_csv(path)


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_csv_of_an_unopenable_path_is_a_data_error(tmp_path, kind):
    path = tmp_path / "data.csv"
    if kind == "directory":
        path.mkdir()
    with pytest.raises(DataError, match=f"^cannot read {re.escape(str(path))}: "):
        load_csv(path)


def test_csv_missing_label_column(tmp_path):
    path = tmp_path / "nolabel.csv"
    path.write_text("s1\n1.0\n")
    with pytest.raises(DataError, match="label column"):
        load_csv(path)


def test_csv_save_unlabelled_dataset_is_a_data_error(tmp_path):
    # A dataset cannot be built without class ids, and the writer it saves
    # through refuses a table without them.
    path = tmp_path / "plain.csv"
    signals = np.arange(8, dtype=float).reshape(2, 4)
    with pytest.raises(TypeError):
        SignalDataset(signals=signals)
    with pytest.raises(DataError, match=re.escape("class ids must have shape (2,), got ()")):
        io.write_table(path, ["s1", "s2", "s3", "s4"], signals, None)
    assert not path.exists()
