"""Shared domain types, odd/even indexing conventions, and the RNG seam.

Everything downstream (solver, transform, datasets, evaluation) builds on the
types and conventions defined here. All public index contracts are 1-based;
array internals are 0-based as usual.

Argument rules, one per kind: every float matrix the package takes passes
`float_matrix`, every class-id vector `class_ids` and every +/-1 label vector
`signed_labels` (a DataError otherwise), and every integer or real scalar
`integer` or `real` (a ConfigError otherwise). A bool is none of these.
"""

from __future__ import annotations

import numbers
import reprlib
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

CLASS_ID_BOUND = 2.0 ** 53  # |class id| < 2**53: a float64 holds each one exactly
MAX_CONSTRAINT_DEGREE = 15  # full rank at every window: see `constraint_degree`
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
    The seed and each path entry must be an `integer` >= 0, else a ConfigError.
    """
    key = tuple(integer(p, f"path entry {i}", 0) for i, p in enumerate(path, start=1))
    return np.random.default_rng(np.random.SeedSequence(integer(seed, "seed", 0), spawn_key=key))


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def float_matrix(values, what: str, width: Optional[int] = None) -> np.ndarray:
    """A float l x `width` matrix (any width if None), l >= 1, all finite, of
    an integer or float dtype (not bool, str, bytes or object); else a
    DataError. numpy itself makes [1.5, True] float64, so no dtype test can
    see that bool."""
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError) as exc:  # ragged rows
        raise DataError(f"{what} is not a matrix of numbers: {exc}") from exc
    if arr.dtype.kind not in "iuf":
        raise DataError(f"{what} is not a matrix of numbers: got dtype {arr.dtype}")
    arr = arr.astype(float, copy=False)
    expected = "a 2-D" if width is None else f"an l x {width}"
    if arr.ndim != 2 or width not in (None, arr.shape[1]):
        raise DataError(f"{what} must be {expected} matrix, got shape {arr.shape}")
    if len(arr) == 0:
        raise DataError(
            f"{what} must be {expected} matrix with at least one row, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise DataError(f"{what} contains non-finite values")
    return arr


def _shown(value) -> str:
    """How a message shows a rejected value: its short repr or, for an int too
    long for repr (past the interpreter's digit limit), its sign and bit length."""
    try:
        return reprlib.repr(value)
    except ValueError:
        return f"{'-' * (value < 0)}<{value.bit_length()}-bit int>"


def integer(value, what: str, least: Optional[int] = None) -> int:
    """`value` as a Python int: an Integral (not a bool, so not 2.0 or "2")
    of at least `least` (any if None); else a ConfigError naming `what`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or (
        least is not None and value < least
    ):
        bound = "" if least is None else f" >= {least}"
        raise ConfigError(f"{what} must be an integer{bound}, got {_shown(value)}")
    return int(value)


def real(value, what: str, interval: str) -> float:
    """`value` as a Python float: a finite Real (not a bool) in `interval`,
    written "(0, inf)", "(0, 1]" or "[0, 1]"; else a ConfigError naming `what`."""
    x = float("nan")  # in no interval
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        with suppress(OverflowError):  # an int beyond float range stays NaN
            x = float(value)
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = low <= x if interval[0] == "[" else low < x
    if not (above and (x <= high if interval[-1] == "]" else x < high)):
        raise ConfigError(f"{what} must lie in {interval}, got {_shown(value)}")
    return x


def class_ids(values, what: str, n_rows: int) -> np.ndarray:
    """`values` as int64 class ids, one per row: whole numbers of an integer
    or float dtype (not bool, str or object) in (-2**53, 2**53), the ids a
    CSV label holds exactly; else a DataError naming `what`."""
    ids = np.asarray(values)
    if ids.shape != (n_rows,):
        raise DataError(f"{what} must have shape ({n_rows},), got {ids.shape}")
    if ids.dtype.kind not in "iuf":
        raise DataError(f"{what} must be integers, got dtype {ids.dtype}")
    x = ids.astype(float)  # exact inside the bound; rounding keeps the rest outside
    bad = ~((np.abs(x) < CLASS_ID_BOUND) & (x == np.trunc(x)))  # NaN is bad
    if bad.any():
        first = _shown(ids[bad][0].item())
        raise DataError(f"{what} must be integers in (-2**53, 2**53), got {first}")
    return x.astype(np.int64)  # cast only once every id fits


def signed_labels(labels, n_rows: int) -> np.ndarray:
    """Check a +/-1 label vector of n_rows entries, of an integer or float
    dtype (not bool, str or object); a class may be absent."""
    y = np.asarray(labels)
    if y.shape != (n_rows,):
        raise DataError(f"labels must have shape ({n_rows},), got {y.shape}")
    if y.dtype.kind not in "iuf" or not np.all(np.abs(y) == 1):
        raise DataError("labels must be -1 or +1")
    return y.astype(float, copy=False)


def validate_labels(labels, n_rows: int) -> np.ndarray:
    """Check a +/-1 label vector: signed_labels, and both classes present."""
    y = signed_labels(labels, n_rows)
    if n_rows < 2 or not (np.any(y == 1.0) and np.any(y == -1.0)):
        raise DataError("need at least one example of each label")
    return y


def pair_labels(class_ids, lo) -> np.ndarray:
    """The +/-1 labels of a class pair's rows: class lo -> -1, any other -> +1."""
    return np.where(np.asarray(class_ids) == lo, -1.0, 1.0)


@dataclass(frozen=True)
class SignalDataset:
    """Sampled signals and their integer class ids, as a data CSV holds them:
    rows are examples, columns are samples.

    `labels` is derived: the +/-1 vector of binary fits when exactly two
    class ids are present (smaller id -> -1, larger -> +1), else None.
    """

    signals: np.ndarray
    class_ids: np.ndarray

    def __post_init__(self):
        sig = float_matrix(self.signals, "signals")
        if not is_power_of_two(sig.shape[1]) or sig.shape[1] < 2:
            raise DataError(
                f"signal length must be a power of two >= 2, got {sig.shape[1]}"
            )
        object.__setattr__(self, "signals", sig)
        object.__setattr__(self, "class_ids", class_ids(self.class_ids, "class_ids", len(sig)))

    @property
    def n_examples(self) -> int:
        return self.signals.shape[0]

    @property
    def signal_length(self) -> int:
        return self.signals.shape[1]

    @property
    def classes(self) -> tuple:
        """Sorted distinct class ids."""
        return tuple(int(c) for c in np.unique(self.class_ids))

    @cached_property
    def labels(self) -> Optional[np.ndarray]:
        classes = self.classes
        return pair_labels(self.class_ids, classes[0]) if len(classes) == 2 else None

    def require_labels(self) -> np.ndarray:
        if self.labels is None:
            raise DataError(
                "dataset has no binary labels; restrict to a class pair first"
            )
        return self.labels

    def restrict_pair(self, a: int, b: int) -> "SignalDataset":
        """Binary view of classes {a, b}: smaller id -> -1, larger -> +1."""
        lo, hi = sorted((integer(a, "class id a"), integer(b, "class id b")))
        if lo == hi:
            raise ConfigError("restrict_pair needs two distinct class ids")
        mask = np.isin(self.class_ids, (lo, hi))
        if not np.any(self.class_ids == lo) or not np.any(self.class_ids == hi):
            raise DataError(f"class pair ({lo}, {hi}) not fully present in dataset")
        return SignalDataset(signals=self.signals[mask], class_ids=self.class_ids[mask])


def constraint_degree(value, window: int, what: str = "degree") -> int:
    """`value` as a `window`-wide window's constraint degree, an `integer` in
    1..min(window, 15), else a ConfigError naming `what`: on the scaled knots of
    `solver.window_knots`, degree 15 passes the rank rule at every window (worst
    s[-1]/s[0] 2.6e-12, at window 16), 16 fails at window 16, fewer rows never do worse."""
    p, high = integer(value, what, 1), min(window, MAX_CONSTRAINT_DEGREE)
    if p > high:
        bound = f"1..min(window, {MAX_CONSTRAINT_DEGREE}) = 1..{high}"
        raise ConfigError(f"{what} must lie in {bound}, got {p}")
    return p


@dataclass(frozen=True)
class TransformConfig:
    """Parameters of one fitted transform.

    levels: decomposition depth M; window: even prediction window length L;
    nu: regularisation weight of the per-window solves; variant selects
    whether the prediction target enters the weight vector ("regularised")
    or carries a fixed unit weight ("nonregularised"); constraint_degree p
    adds p polynomial-reproduction constraints (nonregularised only).
    `dataclasses.asdict` is its model-file form, and `TransformConfig(**d)`
    reads it back.
    """

    levels: int
    window: int
    nu: float
    variant: str = NONREGULARISED
    constraint_degree: int = 0

    def __post_init__(self):
        for name, least in (("levels", 1), ("window", 2), ("constraint_degree", 0)):
            object.__setattr__(self, name, integer(getattr(self, name), name, least))
        if self.window % 2:
            raise ConfigError(f"window must be even and >= 2, got {self.window}")
        object.__setattr__(self, "nu", real(self.nu, "nu", "(0, inf)"))
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.constraint_degree:
            constraint_degree(self.constraint_degree, self.window, "constraint_degree")
            if self.variant != NONREGULARISED:
                raise ConfigError("constraints are only supported with the nonregularised variant")


@dataclass(frozen=True)
class IndexWindow:
    """Window of coarse positions used to predict even sample k (all 1-based)."""

    k: int
    indices: tuple

    def __post_init__(self):
        idx = tuple(integer(i, "window index", 1) for i in self.indices)
        object.__setattr__(self, "k", integer(self.k, "k", 1))
        if len(idx) < 1 or any(b - a != 1 for a, b in zip(idx, idx[1:])):
            raise ConfigError(f"window indices must be contiguous increasing, got {idx}")
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return len(self.indices)

    def as_zero_based(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=int) - 1


def split(signals: np.ndarray) -> tuple:
    """Split columns into (odd, even) halves: columns 1,3,5,... and 2,4,6,... (1-based)."""
    a = float_matrix(signals, "signals")
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


def window_columns(half_length: int, window: int) -> np.ndarray:
    """The window rule of a level: row k-1 holds the 0-based coarse columns
    behind even position k, for k = 1..half_length.

    Each window is L contiguous columns starting at lo = clip(k - L/2, 0,
    half_length - L): centred on k where it fits, pushed against the first
    or last column where it would cross an end.
    """
    half, L = integer(half_length, "half_length"), integer(window, "window", 1)
    if L > half:
        raise ConfigError(f"window {L} does not fit in coarse length {half}")
    lo = np.clip(np.arange(1, half + 1) - L // 2, 0, half - L)
    return lo[:, None] + np.arange(L)


def index_window(k: int, half_length: int, window: int) -> IndexWindow:
    """The window of even-sample position k (1-based): row k-1 of `window_columns`."""
    columns = window_columns(half_length, window)
    k = integer(k, "k")
    if not 1 <= k <= len(columns):
        raise ConfigError(f"k must lie in 1..{len(columns)}, got {k}")
    return IndexWindow(k=k, indices=tuple((columns[k - 1] + 1).tolist()))
