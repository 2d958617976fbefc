"""Synthetic benchmark generators and dataset CSV I/O.

Both generators emit three classes with exactly per_class_count examples each
(rows grouped by class, ids 1..3) and are byte-reproducible from their seed:
generation is single-threaded and the per-signal draw order is fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, DataError, SignalDataset, integer, make_rng
from .io import read_csv, write_table

WAVEFORM_LENGTH = 32
SHAPE_LENGTH = 128
SHAPE_KINDS = ("cylinder", "bell", "funnel")


@dataclass(frozen=True)
class _Spec:
    """A generator's size and seed: at least one signal per class and a seed
    >= 0, each an `integer`; anything else is a ConfigError."""

    per_class_count: int
    seed: int

    def __post_init__(self):
        integer(self.per_class_count, "per_class_count", 1)
        integer(self.seed, "seed", 0)


class WaveformSpec(_Spec):
    """The size and seed of a generate_waveform dataset."""


class ShapeSpec(_Spec):
    """The size and seed of a generate_shape dataset."""


def h1(i):
    """Triangle bump peaking at sample 7 (1-based): max(6 - |i - 7|, 0)."""
    return np.maximum(6.0 - np.abs(np.asarray(i, dtype=float) - 7.0), 0.0)


def h2(i):
    return h1(np.asarray(i, dtype=float) - 8.0)


def h3(i):
    return h1(np.asarray(i, dtype=float) - 4.0)


def waveform_mixture(class_id: int, u) -> np.ndarray:
    """Noise-free class mean for mixing weight u: convex mix of two bumps.
    A column of n weights gives n rows."""
    i = np.arange(1, WAVEFORM_LENGTH + 1, dtype=float)
    if class_id == 1:
        return u * h1(i) + (1.0 - u) * h2(i)
    if class_id == 2:
        return u * h1(i) + (1.0 - u) * h3(i)
    if class_id == 3:
        return u * h2(i) + (1.0 - u) * h3(i)
    raise ConfigError(f"waveform class_id must be 1, 2 or 3, got {class_id}")


def generate_waveform(spec: WaveformSpec) -> SignalDataset:
    """Three-class bump-mixture dataset, 32 samples per signal.

    Per signal the draw order is: mixing weight u ~ Uniform(0,1), then the 32
    i.i.d. standard-normal noise samples. Rows are grouped by class (1, 2, 3).
    The noise goes straight into each row; the class means are added after,
    one `waveform_mixture` call per class.
    """
    rng = make_rng(spec.seed)
    n = spec.per_class_count
    signals = np.empty((3 * n, WAVEFORM_LENGTH))
    u = np.empty((3 * n, 1))
    for row in range(3 * n):
        u[row] = rng.uniform()
        rng.standard_normal(out=signals[row])
    for cid in (1, 2, 3):
        signals[(cid - 1) * n:cid * n] += waveform_mixture(cid, u[(cid - 1) * n:cid * n])
    return SignalDataset(signals=signals, class_ids=np.repeat([1, 2, 3], n))


def shape_envelope(kind: str, a, b, eta) -> np.ndarray:
    """Noise-free cylinder/bell/funnel shape active on samples a..b inclusive.
    Columns of n values of a, b and eta give n rows."""
    if kind not in SHAPE_KINDS:
        raise ConfigError(f"kind must be one of {SHAPE_KINDS}, got {kind!r}")
    if not np.all(np.less(a, b)):  # no active samples; bell and funnel would divide by b - a
        raise ConfigError(f"shape onset a must lie before its end b, got a={a}, b={b}")
    t = np.arange(1, SHAPE_LENGTH + 1, dtype=float)
    shape = ((t >= a) & (t <= b)).astype(float)
    shape *= 6.0 + eta  # in place: one array the size of the result, beside t - a or b - t
    if kind != "cylinder":
        shape *= t - a if kind == "bell" else b - t
        shape /= b - a
    return shape


def generate_shape(spec: ShapeSpec) -> SignalDataset:
    """Three-class cylinder/bell/funnel dataset, 128 samples per signal.

    Per signal the draw order is: onset a ~ Uniform{16..32}, width
    b - a ~ Uniform{32..96}, height perturbation eta ~ N(0,1), then the 128
    i.i.d. standard-normal noise samples. Rows are grouped by class
    (1=cylinder, 2=bell, 3=funnel). The noise goes straight into each row;
    the shapes are added after, one `shape_envelope` call per class.
    """
    rng = make_rng(spec.seed)
    n = spec.per_class_count
    signals = np.empty((3 * n, SHAPE_LENGTH))
    draws = np.empty((3, 3 * n, 1))  # onset a, width b - a and eta of each signal
    for row in range(3 * n):
        draws[:, row, 0] = rng.integers(16, 33), rng.integers(32, 97), rng.standard_normal()
        rng.standard_normal(out=signals[row])
    for c, kind in enumerate(SHAPE_KINDS):
        a, width, eta = draws[:, c * n:(c + 1) * n]
        signals[c * n:(c + 1) * n] += shape_envelope(kind, a, a + width, eta)
    return SignalDataset(signals=signals, class_ids=np.repeat([1, 2, 3], n))


def save_csv(dataset: SignalDataset, path) -> None:
    """A header line, then one row per signal: N sample columns and the
    integer class id in a label column.

    Sample values are written with shortest round-trip precision, so
    load_csv(save_csv(d)) reproduces the values bit-for-bit.
    """
    names = [f"s{j}" for j in range(1, dataset.signal_length + 1)]
    write_table(path, names, dataset.signals, dataset.class_ids)


def load_csv(path) -> SignalDataset:
    """Read a dataset CSV written by save_csv (or compatible).

    The first row is the header and the last column the integer class id.
    Raises DataError with 1-based row/column diagnostics on a missing
    header, ragged rows, non-numeric cells or a missing label column, and
    with the path before SignalDataset's message on a table it rejects.
    """
    _, signals, ids = read_csv(path)
    try:
        return SignalDataset(signals=signals, class_ids=ids)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
