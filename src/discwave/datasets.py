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


def waveform_mixture(class_id: int, u: float) -> np.ndarray:
    """Noise-free class mean for mixing weight u: convex mix of two bumps."""
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
    """
    rng = make_rng(spec.seed)
    n = spec.per_class_count
    signals = np.empty((3 * n, WAVEFORM_LENGTH))
    class_ids = np.repeat([1, 2, 3], n)
    for row, cid in enumerate(class_ids):
        u = rng.uniform()
        eps = rng.standard_normal(WAVEFORM_LENGTH)
        signals[row] = waveform_mixture(int(cid), u) + eps
    return SignalDataset(signals=signals, class_ids=class_ids)


def shape_envelope(kind: str, a: int, b: int, eta: float) -> np.ndarray:
    """Noise-free cylinder/bell/funnel shape active on samples a..b inclusive."""
    if kind not in SHAPE_KINDS:
        raise ConfigError(f"kind must be one of {SHAPE_KINDS}, got {kind!r}")
    if not a < b:  # no active samples, and bell and funnel would divide by b - a
        raise ConfigError(f"shape onset a must lie before its end b, got a={a}, b={b}")
    t = np.arange(1, SHAPE_LENGTH + 1, dtype=float)
    active = ((t >= a) & (t <= b)).astype(float)
    height = 6.0 + eta
    if kind == "cylinder":
        return height * active
    if kind == "bell":
        return height * active * (t - a) / float(b - a)
    return height * active * (b - t) / float(b - a)


def generate_shape(spec: ShapeSpec) -> SignalDataset:
    """Three-class cylinder/bell/funnel dataset, 128 samples per signal.

    Per signal the draw order is: onset a ~ Uniform{16..32}, width
    b - a ~ Uniform{32..96}, height perturbation eta ~ N(0,1), then the 128
    i.i.d. standard-normal noise samples. Rows are grouped by class
    (1=cylinder, 2=bell, 3=funnel).
    """
    rng = make_rng(spec.seed)
    n = spec.per_class_count
    signals = np.empty((3 * n, SHAPE_LENGTH))
    class_ids = np.repeat([1, 2, 3], n)
    for row, cid in enumerate(class_ids):
        a = int(rng.integers(16, 33))
        width = int(rng.integers(32, 97))
        eta = float(rng.standard_normal())
        eps = rng.standard_normal(SHAPE_LENGTH)
        kind = SHAPE_KINDS[int(cid) - 1]
        signals[row] = shape_envelope(kind, a, a + width, eta) + eps
    return SignalDataset(signals=signals, class_ids=class_ids)


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
