"""Generator and CSV round-trip tests.

The generator tests re-derive expected signals through the documented draw
order (mixing weight or shape parameters first, then the noise vector) using
an independently constructed stream, so a silent reordering of draws fails
loudly rather than just shifting numbers.
"""

import re

import numpy as np
import pytest

from discwave.core import ConfigError, DataError, make_rng
from discwave import datasets as dsm
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
    with pytest.raises(ConfigError):
        WaveformSpec(per_class_count=3, seed=1, length=64)
    with pytest.raises(ConfigError):
        ShapeSpec(per_class_count=0, seed=1)
    with pytest.raises(ConfigError):
        ShapeSpec(per_class_count=3, seed=1, length=32)


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


def test_csv_round_trip_headerless(tmp_path):
    ds = generate_shape(ShapeSpec(per_class_count=2, seed=22))
    path = tmp_path / "shape.csv"
    save_csv(ds, path, header=False)
    back = load_csv(path, header=False)
    assert np.array_equal(back.signals, ds.signals)
    assert np.array_equal(back.class_ids, ds.class_ids)
    assert len(path.read_text().splitlines()) == 6


def test_csv_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1.0,2.0,3.0,4.0,1\n1.0,2.0,3.0,1\n")
    with pytest.raises(DataError, match="row 2 has 4 cells, expected 5"):
        load_csv(path, header=False)


def test_csv_non_numeric_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0,oops,4.0,1\n")
    with pytest.raises(DataError, match="row 1, column 3"):
        load_csv(path, header=False)


def test_csv_non_integer_label(tmp_path):
    path = tmp_path / "badlabel.csv"
    path.write_text("1.0,2.0,3.0,4.0,1.5\n")
    with pytest.raises(DataError, match="column 5: label '1.5'"):
        load_csv(path, header=False)


def test_csv_nan_label_is_a_data_error(tmp_path):
    path = tmp_path / "nanlabel.csv"
    path.write_text("1.0,2.0,3.0,4.0,nan\n")
    with pytest.raises(DataError, match="column 5: label 'nan' is not an integer"):
        load_csv(path, header=False)


def test_csv_label_outside_int64_is_a_data_error(tmp_path):
    path = tmp_path / "hugelabel.csv"
    path.write_text("s1,s2,label\n1.0,2.0,1e20\n3.0,4.0,2\n")
    with pytest.raises(
        DataError, match=re.escape("row 2, column 3: label '1e20' is outside (-2**53, 2**53)")
    ):
        load_csv(path)


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
    path.write_text("1.0,2.0,3.0,1\n")
    with pytest.raises(DataError, match="width 3 is not a power of two"):
        load_csv(path, header=False)


def test_csv_empty_and_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataError, match="empty file"):
        load_csv(path)
    path.write_text("s1,s2,label\n")
    with pytest.raises(DataError, match="header only"):
        load_csv(path)


def test_csv_missing_label_column(tmp_path):
    path = tmp_path / "nolabel.csv"
    path.write_text("1.0\n")
    with pytest.raises(DataError, match="label column"):
        load_csv(path, header=False)


def test_csv_unlabeled_mode(tmp_path):
    path = tmp_path / "plain.csv"
    rows = np.arange(8, dtype=float).reshape(2, 4)
    with open(path, "w") as fh:
        for r in rows:
            fh.write(",".join(repr(float(x)) for x in r) + "\n")
    back = load_csv(path, header=False, labeled=False)
    assert np.array_equal(back.signals, rows)
    assert back.class_ids is None
