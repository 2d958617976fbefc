"""Shared domain types, odd/even indexing conventions, and the RNG seam.

Everything downstream (solver, transform, datasets, evaluation) builds on the
types and conventions defined here. All public index contracts are 1-based;
array internals are 0-based as usual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

REGULARISED = "regularised"
NONREGULARISED = "nonregularised"
VARIANTS = (REGULARISED, NONREGULARISED)


class ConfigError(ValueError):
    """Bad parameters or misuse of an interface (CLI exit code 2)."""


class DataError(ValueError):
    """Malformed or inconsistent input data (CLI exit code 3)."""


class NumericalError(RuntimeError):
    """A solve failed or a numerical post-condition was violated (CLI exit code 4)."""


def make_rng(seed: int, *path: int) -> np.random.Generator:
    """Deterministic child generator for (seed, *path).

    The splitting discipline used everywhere in this package: a stream is
    identified by its integer path under the root seed, so replicate b of an
    experiment seeded with s always draws from make_rng(s, b) no matter how
    work is scheduled. The path goes into SeedSequence's spawn_key (appending
    it to the entropy would alias: [7] and [7, 0] hash identically).
    """
    seq = np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.default_rng(seq)


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _as_float_matrix(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise DataError(f"{what} must be a 2-D matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{what} contains non-finite values")
    return arr


def validate_labels(labels, n_rows: int) -> np.ndarray:
    """Check a +/-1 label vector: right length, both classes present."""
    y = np.asarray(labels, dtype=float)
    if y.shape != (n_rows,):
        raise DataError(f"labels must have shape ({n_rows},), got {y.shape}")
    if not np.all(np.abs(y) == 1.0):
        raise DataError("labels must be -1 or +1")
    if n_rows < 2 or not (np.any(y == 1.0) and np.any(y == -1.0)):
        raise DataError("need at least one example of each label")
    return y


@dataclass(frozen=True)
class SignalDataset:
    """Labelled sampled signals: rows are examples, columns are samples.

    `labels` is the +/-1 vector used by binary fits. Multiclass sources carry
    `class_ids` instead and get labels assigned on pairwise restriction
    (smaller class id -> -1, larger -> +1). Sources with exactly two distinct
    class ids get labels derived eagerly under the same rule.
    """

    signals: np.ndarray
    labels: Optional[np.ndarray] = None
    class_ids: Optional[np.ndarray] = None

    def __post_init__(self):
        sig = _as_float_matrix(self.signals, "signals")
        if not is_power_of_two(sig.shape[1]) or sig.shape[1] < 2:
            raise DataError(
                f"signal length must be a power of two >= 2, got {sig.shape[1]}"
            )
        object.__setattr__(self, "signals", sig)
        if self.class_ids is not None:
            ids = np.asarray(self.class_ids)
            if ids.shape != (sig.shape[0],):
                raise DataError(
                    f"class_ids must have shape ({sig.shape[0]},), got {ids.shape}"
                )
            if not np.issubdtype(ids.dtype, np.integer):
                as_int = ids.astype(int)
                if not np.array_equal(as_int, ids):
                    raise DataError("class_ids must be integers")
                ids = as_int
            object.__setattr__(self, "class_ids", ids)
        labels = self.labels
        if labels is None and self.class_ids is not None:
            distinct = np.unique(self.class_ids)
            if distinct.size == 2:
                labels = np.where(self.class_ids == distinct[0], -1.0, 1.0)
        if labels is not None:
            labels = validate_labels(labels, sig.shape[0])
        object.__setattr__(self, "labels", labels)

    @property
    def n_examples(self) -> int:
        return self.signals.shape[0]

    @property
    def signal_length(self) -> int:
        return self.signals.shape[1]

    @property
    def classes(self) -> tuple:
        """Sorted distinct class ids (falls back to +/-1 labels)."""
        if self.class_ids is not None:
            return tuple(int(c) for c in np.unique(self.class_ids))
        if self.labels is not None:
            return tuple(int(v) for v in np.unique(self.labels))
        return ()

    def require_labels(self) -> np.ndarray:
        if self.labels is None:
            raise DataError(
                "dataset has no binary labels; restrict to a class pair first"
            )
        return self.labels

    def restrict_pair(self, a: int, b: int) -> "SignalDataset":
        """Binary view of classes {a, b}: smaller id -> -1, larger -> +1."""
        if self.class_ids is None:
            raise DataError("restrict_pair needs class_ids")
        if a == b:
            raise ConfigError("restrict_pair needs two distinct class ids")
        lo, hi = sorted((int(a), int(b)))
        mask = np.isin(self.class_ids, (lo, hi))
        if not np.any(self.class_ids == lo) or not np.any(self.class_ids == hi):
            raise DataError(f"class pair ({lo}, {hi}) not fully present in dataset")
        ids = self.class_ids[mask]
        return SignalDataset(
            signals=self.signals[mask],
            labels=np.where(ids == lo, -1.0, 1.0),
            class_ids=ids,
        )


@dataclass(frozen=True)
class TransformConfig:
    """Parameters of one fitted transform.

    levels: decomposition depth M; window: even prediction window length L;
    nu: regularisation weight of the per-window solves; variant selects
    whether the prediction target enters the weight vector ("regularised")
    or carries a fixed unit weight ("nonregularised"); constraint_degree p
    adds p polynomial-reproduction constraints (nonregularised only).
    seed is carried for provenance; fitting itself is deterministic.
    """

    levels: int
    window: int
    nu: float
    variant: str = NONREGULARISED
    constraint_degree: int = 0
    seed: int = 0

    def __post_init__(self):
        if int(self.levels) < 1:
            raise ConfigError(f"levels must be >= 1, got {self.levels}")
        if int(self.window) < 2 or int(self.window) % 2:
            raise ConfigError(f"window must be even and >= 2, got {self.window}")
        if not (float(self.nu) > 0 and np.isfinite(self.nu)):
            raise ConfigError(f"nu must be a positive finite real, got {self.nu}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        p = int(self.constraint_degree)
        if p < 0:
            raise ConfigError("constraint_degree must be >= 0")
        if p > int(self.window):
            raise ConfigError(
                f"constraint_degree {p} exceeds window {self.window} "
                "(constraint rows would be rank deficient)"
            )
        if p > 0 and self.variant != NONREGULARISED:
            raise ConfigError("constraints are only supported with the nonregularised variant")
        object.__setattr__(self, "levels", int(self.levels))
        object.__setattr__(self, "window", int(self.window))
        object.__setattr__(self, "nu", float(self.nu))
        object.__setattr__(self, "constraint_degree", p)
        object.__setattr__(self, "seed", int(self.seed))

    def to_dict(self) -> dict:
        return {
            "levels": self.levels,
            "window": self.window,
            "nu": self.nu,
            "variant": self.variant,
            "constraint_degree": self.constraint_degree,
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(d: dict) -> "TransformConfig":
        return TransformConfig(
            levels=d["levels"],
            window=d["window"],
            nu=d["nu"],
            variant=d["variant"],
            constraint_degree=d.get("constraint_degree", 0),
            seed=d.get("seed", 0),
        )


@dataclass(frozen=True)
class IndexWindow:
    """Window of coarse positions used to predict even sample k (all 1-based)."""

    k: int
    indices: tuple

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if len(idx) < 1 or any(b - a != 1 for a, b in zip(idx, idx[1:])):
            raise ConfigError(f"window indices must be contiguous increasing, got {idx}")
        if idx[0] < 1:
            raise ConfigError(f"window indices must be >= 1, got {idx}")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "k", int(self.k))

    def __len__(self) -> int:
        return len(self.indices)

    def as_zero_based(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=int) - 1


def split(signals: np.ndarray) -> tuple:
    """Split columns into (odd, even) halves: columns 1,3,5,... and 2,4,6,... (1-based)."""
    a = _as_float_matrix(signals, "signals")
    n = a.shape[1]
    if n < 2 or n % 2:
        raise ConfigError(f"split needs an even column count >= 2, got {n}")
    return a[:, 0::2], a[:, 1::2]


def interleave(odd: np.ndarray, even: np.ndarray) -> np.ndarray:
    """Inverse of split: weave two half-width matrices back together."""
    odd = np.asarray(odd, dtype=float)
    even = np.asarray(even, dtype=float)
    if odd.shape != even.shape or odd.ndim != 2:
        raise ConfigError(f"halves must share a 2-D shape, got {odd.shape} and {even.shape}")
    out = np.empty((odd.shape[0], 2 * odd.shape[1]), dtype=float)
    out[:, 0::2] = odd
    out[:, 1::2] = even
    return out


def index_window(k: int, half_length: int, window: int) -> IndexWindow:
    """The three-case window rule around even-sample position k (1-based).

    First matching rule wins:
      1 <= k < L/2                     -> {1, ..., L}
      L/2 <= k < half_length - L/2     -> {k - L/2 + 1, ..., k + L/2}
      otherwise                        -> {half_length - L + 1, ..., half_length}
    """
    k = int(k)
    half = int(half_length)
    L = int(window)
    if L > half:
        raise ConfigError(f"window {L} does not fit in coarse length {half}")
    if not 1 <= k <= half:
        raise ConfigError(f"k must lie in 1..{half}, got {k}")
    if k < L // 2:
        lo = 1
    elif k < half - L // 2:
        lo = k - L // 2 + 1
    else:
        lo = half - L + 1
    return IndexWindow(k=k, indices=tuple(range(lo, lo + L)))
