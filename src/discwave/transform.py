"""Multi-level split/update/predict pipeline over trained window predictors.

A fitted transform is a linear map from length-N signals to N coefficients:
the final coarse approximation followed by the per-level detail columns,
merged coarsest-first as (c_M | d_M | ... | d_1). Fitting trains one window
predictor per even position per level, and a fitted level is two arrays over
its positions k: a weight matrix and an offset vector. The window of coarse
samples behind each weight row follows from `index_window`; it is derived
once per level shape and not stored with the weights. Applying uses the frozen
weights only, so train-set coefficients from fit and apply are bit-identical.
For the nonregularised variant the map is invertible and `reconstruct` undoes
it exactly; `base_vectors` materialises the analysis/synthesis vector pairs.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Union

import numpy as np

from .core import (
    NONREGULARISED,
    REGULARISED,
    ConfigError,
    DataError,
    NumericalError,
    SignalDataset,
    TransformConfig,
    index_window,
    interleave,
    split,
)
from . import solver
from .io import read_csv, write_csv, write_json

SUPPORT_ATOL = 1e-10
INVERTIBILITY_RTOL = 1e-12  # least |w0| / ||w|| of an invertible regularised predictor
# Most max|reconstruct(fit table) - train| / max|train| a fit may leave. Loose
# on purpose: a small regularised target weight amplifies rounding (1.8e-7 on
# shape data with |w0|/||w|| = 1.9e-7), while a fit whose details lost the
# signal is off by O(1).
ROUND_TRIP_RTOL = 1e-3
ROUND_TRIP_ROWS = 256


def _level(weights, gamma) -> np.recarray:
    """One fitted level: a record array whose row k-1 is position k's predictor.

    `level.weights` is then the weight matrix, `level.gamma` the offset vector
    and `level[k-1].weights` / `.gamma` one position's predictor.
    """
    W = np.asarray(weights, dtype=float)
    dtype = [("weights", float, W.shape[1:]), ("gamma", float)]
    return np.rec.fromarrays([W, np.asarray(gamma, dtype=float)], dtype=dtype)


@lru_cache(maxsize=64)
def _level_windows(half: int, window: int) -> tuple:
    """The IndexWindows of positions 1..half: fixed by the rule, so built once."""
    return tuple(index_window(k, half, window) for k in range(1, half + 1))


@dataclass(frozen=True)
class FittedTransform:
    config: TransformConfig
    signal_length: int
    levels: tuple  # levels[m-1]: record array of level m, fields weights and gamma

    def __post_init__(self):
        N = int(self.signal_length)
        L = self.config.window
        w_len = L + 1 if self.config.variant == REGULARISED else L
        for m, level in enumerate(self.levels, start=1):
            shape = (N // (2 ** m), w_len)
            if level.weights.shape != shape:
                raise ConfigError(
                    f"level {m} must hold a {shape[0]} x {shape[1]} weight matrix, "
                    f"got {level.weights.shape}"
                )
        object.__setattr__(self, "signal_length", N)
        object.__setattr__(self, "levels", tuple(self.levels))
        self.windows  # a window wider than its level raises ConfigError here

    @cached_property
    def windows(self) -> tuple:
        """windows[m-1][k-1]: the IndexWindow behind row k-1 of level m."""
        return tuple(_level_windows(len(level), self.config.window) for level in self.levels)

    @cached_property
    def columns(self) -> tuple:
        """columns[m-1][k-1]: the 0-based coarse columns of windows[m-1][k-1]."""
        return tuple(np.array([w.indices for w in ws]) - 1 for ws in self.windows)

    @property
    def effective_levels(self) -> int:
        return len(self.levels)

    def column_layout(self):
        """Merged-column metadata: list of (name, kind, level, position), 1-based."""
        M = self.effective_levels
        out = []
        for j in range(1, self.signal_length // (2 ** M) + 1):
            out.append((f"c{M}_{j}", "coarse", M, j))
        for m in range(M, 0, -1):
            for j in range(1, self.signal_length // (2 ** m) + 1):
                out.append((f"d{m}_{j}", "detail", m, j))
        return out

    def column_index(self, level: int, k: int) -> int:
        """0-based merged column of detail coefficient (level, k)."""
        M = self.effective_levels
        if not 1 <= level <= M:
            raise ConfigError(f"level must lie in 1..{M}, got {level}")
        if not 1 <= k <= self.signal_length // (2 ** level):
            raise ConfigError(f"position {k} out of range at level {level}")
        off = self.signal_length // (2 ** M)
        for m in range(M, level, -1):
            off += self.signal_length // (2 ** m)
        return off + k - 1


@dataclass(frozen=True)
class CoefficientTable:
    """Per-example coefficients: final coarse block plus all detail blocks."""

    coarse: np.ndarray
    details: tuple  # details[m-1] = l x N/2^m matrix for level m
    merged: np.ndarray
    labels: Optional[np.ndarray] = None
    class_ids: Optional[np.ndarray] = None

    @property
    def n_examples(self) -> int:
        return self.merged.shape[0]

    @property
    def n_levels(self) -> int:
        return len(self.details)

    def detail(self, level: int) -> np.ndarray:
        if not 1 <= level <= len(self.details):
            raise ConfigError(f"level must lie in 1..{len(self.details)}, got {level}")
        return self.details[level - 1]

    def column_names(self):
        M = len(self.details)
        names = [f"c{M}_{j}" for j in range(1, self.coarse.shape[1] + 1)]
        for m in range(M, 0, -1):
            names += [f"d{m}_{j}" for j in range(1, self.details[m - 1].shape[1] + 1)]
        return names


@dataclass(frozen=True)
class BaseVectors:
    """Analysis rows extract coefficients; synthesis columns rebuild signals."""

    analysis: np.ndarray
    synthesis: np.ndarray
    analysis_supports: tuple  # per coefficient: 1-based sample indices, |entry| > 1e-10
    synthesis_supports: tuple


def _predict_level(C, level, columns, variant):
    """Target weights t and predictions P of one level from its coarse signal C.

    The detail of even column j is t[j] * even[:, j] - P[:, j]: regularised
    predictors weight the even target by their first weight, nonregularised
    ones by exactly one.
    """
    W = level.weights
    if variant == REGULARISED:
        t, W = W[:, 0], W[:, 1:]
    else:
        t = np.ones(len(columns))
    P = np.empty((C.shape[0], len(columns)))
    for j, cols in enumerate(columns):
        P[:, j] = C[:, cols] @ W[j]
    return t, P


def fit(train: SignalDataset, config: TransformConfig, progress=None):
    """Train all window predictors; returns (FittedTransform, CoefficientTable).

    Levels run in order, each consuming the previous coarse signal, and the
    positions of a level are solved in stacks by `solver.solve_windows`; the
    labels were checked once, when the dataset was built. Stops early with a
    warning once the window no longer fits the coarse signal, recording the
    effective number of levels. `progress`, if given, is called as
    progress(level, n_positions, seconds) after each level. Raises
    NumericalError when the fitted transform does not reconstruct its own
    training signals to ROUND_TRIP_RTOL of their largest magnitude.
    """
    y = train.require_labels()
    N = train.signal_length
    if config.window > N // 2:
        raise ConfigError(
            f"window {config.window} does not fit level 1 (coarse length {N // 2})"
        )
    levels = []
    A = train.signals
    for m in range(1, config.levels + 1):
        half = A.shape[1] // 2
        if half < config.window:
            warnings.warn(
                f"stopping at {m - 1} levels: window {config.window} does not fit "
                f"coarse length {half}; requested {config.levels}",
                stacklevel=2,
            )
            break
        t0 = time.perf_counter()
        A_o, A_e = split(A)
        C = 0.5 * (A_o + A_e)
        windows = _level_windows(half, config.window)
        try:
            weights, gamma = solver.solve_windows(
                A_e, C, windows, y, config.nu, config.variant, config.constraint_degree
            )
        except (ConfigError, DataError, NumericalError) as exc:
            raise type(exc)(f"level {m}, {exc}") from exc
        levels.append(_level(weights, gamma))
        A = C
        if progress is not None:
            progress(m, half, time.perf_counter() - t0)
    transform = FittedTransform(config=config, signal_length=N, levels=tuple(levels))
    table = apply(transform, train.signals, labels=train.labels, class_ids=train.class_ids)
    # Details can lose the signal without any solve failing: regularised
    # weights of tiny data times the data underflow to zero. Such a transform
    # no longer inverts its own training signals. Checked in row blocks, so
    # reconstruct's temporaries stay small next to the table.
    scale = max(np.max(train.signals), -np.min(train.signals))
    for i in range(0, train.n_examples, ROUND_TRIP_ROWS):
        rows = slice(i, i + ROUND_TRIP_ROWS)
        error = np.max(np.abs(reconstruct(transform, table.merged[rows]) - train.signals[rows]))
        if not error <= ROUND_TRIP_RTOL * scale:
            raise NumericalError(
                f"fitted transform does not invert its training signals: error "
                f"{error:.3e} against max |signal| {scale:.3e}"
            )
    return transform, table


def apply(
    transform: FittedTransform,
    signals: np.ndarray,
    labels: Optional[np.ndarray] = None,
    class_ids: Optional[np.ndarray] = None,
) -> CoefficientTable:
    """Run the frozen transform over rows of `signals` (no re-fitting)."""
    A = np.asarray(signals, dtype=float)
    if A.ndim != 2 or A.shape[1] != transform.signal_length:
        raise DataError(
            f"signals must be 2-D with {transform.signal_length} columns, got {A.shape}"
        )
    variant = transform.config.variant
    details = []
    for level, columns in zip(transform.levels, transform.columns):
        A_o, A_e = split(A)
        C = 0.5 * (A_o + A_e)
        t, P = _predict_level(C, level, columns, variant)
        details.append(t * A_e - P)
        A = C
    merged = np.hstack([A] + details[::-1])
    return CoefficientTable(
        coarse=A,
        details=tuple(details),
        merged=merged,
        labels=labels,
        class_ids=class_ids,
    )


def _split_merged(transform: FittedTransform, merged: np.ndarray):
    N, M = transform.signal_length, transform.effective_levels
    widths = [N // (2 ** M)] + [N // (2 ** m) for m in range(M, 0, -1)]
    bounds = np.cumsum([0] + widths)
    if merged.shape[1] != bounds[-1]:
        raise DataError(
            f"merged width {merged.shape[1]} does not match transform ({bounds[-1]})"
        )
    blocks = [merged[:, bounds[i] : bounds[i + 1]] for i in range(len(widths))]
    coarse = blocks[0]
    details = blocks[1:][::-1]  # reorder to details[m-1] = level m
    return coarse, details


def reconstruct(
    transform: FittedTransform,
    coefficients: Union[CoefficientTable, np.ndarray],
) -> np.ndarray:
    """Invert the transform: coefficients back to signals, top level first.

    Nonregularised predictors invert directly (even = detail + prediction);
    regularised ones divide by the target's own weight, which must be
    nonnegligible against the predictor's weight norm for the map to be
    invertible.
    """
    if isinstance(coefficients, CoefficientTable):
        merged = coefficients.merged
    else:
        merged = np.asarray(coefficients, dtype=float)
        if merged.ndim != 2:
            raise DataError(f"coefficients must be 2-D, got shape {merged.shape}")
    variant = transform.config.variant
    C, details = _split_merged(transform, merged)
    C = np.array(C, dtype=float)
    for m in range(transform.effective_levels, 0, -1):
        level = transform.levels[m - 1]
        if variant == REGULARISED:
            norm = np.linalg.norm(level.weights, axis=1)
            tiny = np.flatnonzero(np.abs(level.weights[:, 0]) <= INVERTIBILITY_RTOL * norm)
            if tiny.size:
                j = tiny[0]
                raise NumericalError(
                    f"level {m}, position k={j + 1}: target weight "
                    f"{level.weights[j, 0]:.3e} is too small to invert (|w| = {norm[j]:.3e})"
                )
        t, P = _predict_level(C, level, transform.columns[m - 1], variant)
        A_e = (details[m - 1] + P) / t
        A_o = 2.0 * C - A_e
        C = interleave(A_o, A_e)
    return C


def base_vectors(transform: FittedTransform) -> BaseVectors:
    """Materialise analysis rows and synthesis columns of the linear map."""
    N = transform.signal_length
    eye = np.eye(N)
    analysis = apply(transform, eye).merged.T
    synthesis = reconstruct(transform, eye).T
    a_sup = tuple(
        tuple((np.flatnonzero(np.abs(row) > SUPPORT_ATOL) + 1).tolist())
        for row in analysis
    )
    s_sup = tuple(
        tuple((np.flatnonzero(np.abs(col) > SUPPORT_ATOL) + 1).tolist())
        for col in synthesis.T
    )
    return BaseVectors(
        analysis=analysis,
        synthesis=synthesis,
        analysis_supports=a_sup,
        synthesis_supports=s_sup,
    )


def constraint_residual(transform: FittedTransform) -> Optional[float]:
    """Max |B w - e1| over all predictors, or None when unconstrained."""
    p = transform.config.constraint_degree
    if p < 1:
        return None
    e1 = np.zeros(p)
    e1[0] = 1.0
    worst = 0.0
    for level, windows in zip(transform.levels, transform.windows):
        which, B, _, _ = solver.constraint_patterns(windows, p)
        Bw = np.matmul(B[which], level.weights[:, :, None])[..., 0]
        worst = max(worst, float(np.max(np.abs(Bw - e1))))
    return worst


def save_model(transform: FittedTransform, path) -> None:
    """Model JSON: signal_length, config, effective_levels, per-level records."""
    doc = {
        "signal_length": transform.signal_length,
        "config": transform.config.to_dict(),
        "effective_levels": transform.effective_levels,
        "levels": [
            [
                {"k": window.k, "indices": list(window.indices), "weights": w, "gamma": g}
                for window, w, g in zip(windows, level.weights.tolist(), level.gamma.tolist())
            ]
            for level, windows in zip(transform.levels, transform.windows)
        ],
    }
    write_json(path, doc)


def load_model(path) -> FittedTransform:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON ({exc})") from exc
    try:
        config = TransformConfig.from_dict(doc["config"])
        transform = FittedTransform(
            config=config,
            signal_length=doc["signal_length"],
            levels=tuple(
                _level([rec["weights"] for rec in records], [rec["gamma"] for rec in records])
                for records in doc["levels"]
            ),
        )
        for m, (records, windows) in enumerate(zip(doc["levels"], transform.windows), start=1):
            for rec, window in zip(records, windows):
                if rec["k"] != window.k or rec["indices"] != list(window.indices):
                    raise DataError(f"malformed predictor at level {m}, k={window.k}")
        if transform.effective_levels != int(doc["effective_levels"]):
            raise DataError(
                f"effective_levels {doc['effective_levels']} does not "
                f"match {transform.effective_levels} stored levels"
            )
    except (LookupError, TypeError, ValueError) as exc:  # ConfigError, DataError too
        raise DataError(f"{path}: malformed model file ({exc})") from exc
    return transform


def save_features(table: CoefficientTable, path) -> None:
    """Merged-coefficient CSV: named columns plus a trailing label column."""
    ids = table.class_ids
    if ids is None and table.labels is not None:
        ids = table.labels.astype(int)
    names = table.column_names() + ([] if ids is None else ["label"])
    rows = (
        table.merged[i].tolist() + ([] if ids is None else [int(ids[i])])
        for i in range(table.n_examples)
    )
    write_csv(path, names, rows)


def load_features(path, labeled: bool = True):
    """Read a feature CSV back: (column_names, merged matrix, label ids or None)."""
    return read_csv(path, labeled=labeled)
