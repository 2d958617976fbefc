"""Multi-level split/update/predict pipeline over trained window predictors.

A fitted transform is a linear map from length-N signals to N coefficients:
`apply` turns l signals into one l x N matrix merged coarsest-first as
(c_M | d_M | ... | d_1): the final coarse approximation in columns
0..N/2^M - 1 and level m's details in columns N/2^m..N/2^(m-1) - 1, so every
block's place is arithmetic in (N, M). Labels stay with the dataset the
signals came from; the matrix holds coefficients only. Fitting
trains one window predictor per even position per level, and a fitted level
is two arrays over its positions k: a weight matrix and an offset vector. The
window of coarse samples behind each weight row is row k-1 of
`window_columns`; it is derived once per transform and not stored with the
weights. Applying uses the frozen weights only, so train-set coefficients
from fit and apply are bit-identical.
`apply` and `reconstruct` (and fit's round-trip check) run over row blocks
of about BLOCK_BYTES, each block sample-major, so they take O(l*N + block)
memory. A prediction sums its window's taps one at a time in window order,
so every coefficient is one fixed sequence of IEEE operations on its own
row: a row gives the same bits alone, beside any other rows, in any block.
For the nonregularised variant the map is invertible and `reconstruct` undoes
it exactly; `base_vectors` materialises the analysis/synthesis vector pairs.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .core import (
    NONREGULARISED,
    REGULARISED,
    ConfigError,
    DataError,
    NumericalError,
    SignalDataset,
    TransformConfig,
    float_matrix,
    window_columns,
)
from . import solver
from .io import read_json, write_json, write_table

SUPPORT_ATOL = 1e-10
INVERTIBILITY_RTOL = 1e-12  # least |w0| / ||w|| of an invertible regularised predictor
# Most max|reconstruct(fit coefficients) - train| / max|train| a fit may leave. Loose
# on purpose: a small regularised target weight amplifies rounding (1.8e-7 on
# shape data with |w0|/||w|| = 1.9e-7), while a fit whose details lost the
# signal is off by O(1).
ROUND_TRIP_RTOL = 1e-3
# apply, reconstruct and fit's round trip run over row blocks of about this
# many bytes of samples, so their temporaries stay a few blocks at any row count.
BLOCK_BYTES = 1 << 18
MODEL_KEYS = ("config", "levels")  # save_model order


def _level(weights, gamma) -> np.recarray:
    """One fitted level: a record array whose row k-1 is position k's predictor.

    `level.weights` is then the weight matrix, `level.gamma` the offset vector
    and `level[k-1].weights` / `.gamma` one position's predictor.
    """
    W = np.asarray(weights, dtype=float)
    dtype = [("weights", float, W.shape[1:]), ("gamma", float)]
    return np.rec.fromarrays([W, np.asarray(gamma, dtype=float)], dtype=dtype)


def _layout(N: int, M: int) -> list:
    """(name, kind, level, position) of each merged column of an M-level,
    N-sample transform, positions 1-based: c_M, then d_M down to d_1."""
    out = [(f"c{M}_{j}", "coarse", M, j) for j in range(1, (N >> M) + 1)]
    for m in range(M, 0, -1):
        out += [(f"d{m}_{j}", "detail", m, j) for j in range(1, (N >> m) + 1)]
    return out


def support(vectors) -> np.ndarray:
    """The support mask of each row of `vectors`: its entries larger than SUPPORT_ATOL."""
    return np.abs(vectors) > SUPPORT_ATOL


@dataclass(frozen=True)
class FittedTransform:
    """A fitted transform: its configuration and exactly `config.levels`
    levels, levels[m-1] the record array of level m (fields weights and
    gamma) with N/2^m rows. The signal length N is derived from level 1."""

    config: TransformConfig
    levels: tuple

    def __post_init__(self):
        levels = tuple(self.levels)
        if len(levels) != self.config.levels:
            raise ConfigError(f"need {self.config.levels} levels, got {len(levels)}")
        N = 2 * len(levels[0])
        L = self.config.window
        w_len = L + 1 if self.config.variant == REGULARISED else L
        for m, level in enumerate(levels, start=1):
            shape = (N / 2 ** m, w_len)  # a fractional row count matches no level
            if level.weights.shape != shape:
                raise ConfigError(
                    f"level {m} must hold a {shape[0]:g} x {w_len} weight matrix, "
                    f"got {level.weights.shape}"
                )
        object.__setattr__(self, "levels", levels)
        self.columns  # a window wider than its level raises ConfigError here

    @cached_property
    def columns(self) -> tuple:
        """columns[m-1][k-1]: the 0-based coarse columns behind position k of level m."""
        return tuple(window_columns(len(level), self.config.window) for level in self.levels)

    @property
    def signal_length(self) -> int:
        return 2 * len(self.levels[0])

    def column_layout(self):
        """Merged-column metadata: list of (name, kind, level, position), 1-based."""
        return _layout(self.signal_length, self.config.levels)


@dataclass(frozen=True)
class BaseVectors:
    """Analysis rows extract coefficients; synthesis columns rebuild signals."""

    analysis: np.ndarray
    synthesis: np.ndarray


def _row_blocks(n_rows: int, N: int):
    """Consecutive row slices of an n_rows x N float table, each holding about
    BLOCK_BYTES of it (at least one row)."""
    step = max(1, BLOCK_BYTES // (8 * N))
    return [slice(i, i + step) for i in range(0, n_rows, step)]


def _split_weights(level, variant):
    """(t, W) of a level: the target weights, or None for nonregularised
    predictors, whose target weight is exactly one, and the J x L window weights."""
    W = level.weights
    return (W[:, 0, None], W[:, 1:]) if variant == REGULARISED else (None, W)


def _coarse(X, m, signals):
    """Level m's coarse average 0.5 * (odd + even) of the sample-major X
    (samples x rows), as a new half x rows array. An average beyond the float
    range is a DataError that names the largest |sample| of `signals`, the
    whole input; only level 1's can be, as every coarse sample is within half
    that range. Call under np.errstate(over="ignore")."""
    C = np.add(X[0::2], X[1::2], out=np.empty((len(X) // 2, X.shape[1])))
    C *= 0.5
    if m == 1 and not np.isfinite(C).all():
        raise DataError(
            f"level {m}: the coarse average overflows; the largest |sample| is "
            f"{np.max(np.abs(signals)):.3e}"
        )
    return C


def _predict_level(C, W, columns):
    """Predictions P[j] = sum_i C[columns[j, i]] W[j, i] of one level's
    positions j from its sample-major coarse block C (samples x rows), summed
    one tap at a time in tap order: ((C_0 W_0 + C_1 W_1) + C_2 W_2) + ....

    Every entry is then one fixed sequence of IEEE operations on its own
    row's samples, so its bits do not depend on the rows beside it; a BLAS
    product would be free to sum in another order for another batch.
    """
    P = C[columns[:, 0]]
    P *= W[:, :1]
    tap = np.empty_like(P)
    for i in range(1, columns.shape[1]):
        np.take(C, columns[:, i], axis=0, out=tap)
        P += np.multiply(tap, W[:, i : i + 1], out=tap)
    return P


def fit(train: SignalDataset, config: TransformConfig, progress=None):
    """Train all window predictors; returns (FittedTransform, merged), where
    merged is apply(transform, train.signals), the l x N training coefficients.

    Levels run in order, each consuming the previous coarse signal, and the
    positions of a level are solved in stacks by `solver.solve_windows`.
    Fits exactly `config.levels` levels: a window wider than level M's
    coarse length N/2^M is a ConfigError raised before any solve, naming the
    deepest depth the window fits; signals whose coarse average overflows
    are a DataError, raised before any solve. `progress`, if given, is called as
    progress(level, n_positions, seconds) after each level. Raises
    NumericalError when the fitted transform does not reconstruct its own
    training signals to ROUND_TRIP_RTOL of their largest magnitude; that
    round trip runs in row blocks, so it holds one block beside the
    coefficients.
    """
    y = train.require_labels()
    N, L, M = train.signal_length, config.window, config.levels
    if L > N >> M:
        raise ConfigError(
            f"window {L} does not fit level {M} (coarse length {N >> M}); "
            f"length-{N} signals allow at most {(N // L).bit_length() - 1} levels"
        )
    levels = []
    X = train.signals.T
    for m in range(1, M + 1):
        half = len(X) // 2
        t0 = time.perf_counter()
        with np.errstate(over="ignore"):
            C = _coarse(X, m, train.signals)
        try:
            weights, gamma = solver.solve_windows(
                X[1::2].T, C.T, window_columns(half, L), y, config.nu, config.variant,
                config.constraint_degree,
            )
        except (ConfigError, DataError, NumericalError) as exc:
            raise type(exc)(f"level {m}, {exc}") from exc
        levels.append(_level(weights, gamma))
        X = C
        if progress is not None:
            progress(m, half, time.perf_counter() - t0)
    transform = FittedTransform(config=config, levels=tuple(levels))
    merged = apply(transform, train.signals)
    # Details can lose the signal without any solve failing: regularised
    # weights of tiny data times the data underflow to zero. Such a transform
    # no longer inverts its own training signals.
    scale = max(np.max(train.signals), -np.min(train.signals))
    for rows in _row_blocks(train.n_examples, N):
        error = np.max(np.abs(reconstruct(transform, merged[rows]) - train.signals[rows]))
        if not error <= ROUND_TRIP_RTOL * scale:
            raise NumericalError(
                f"fitted transform does not invert its training signals: error "
                f"{error:.3e} against max |signal| {scale:.3e}"
            )
    return transform, merged


def apply(transform: FittedTransform, signals: np.ndarray) -> np.ndarray:
    """Run the frozen transform over the l rows of `signals` (no re-fitting):
    the l x N merged coefficients, one row per signal.

    Rows run in blocks of about BLOCK_BYTES, each through every level
    sample-major, and each level writes its details straight into its block
    of the matrix. A detail is t * even - P with P summed tap by tap in tap
    order (`_predict_level`), so a row's coefficients are the same bits
    alone or beside any other rows, and memory is the l x N output plus
    a few blocks.
    """
    N, M = transform.signal_length, transform.config.levels
    A = float_matrix(signals, "signals", N)
    steps = [_split_weights(level, transform.config.variant) for level in transform.levels]
    merged = np.empty((len(A), N))
    with np.errstate(over="ignore"):  # an overflowing coarse average is a DataError
        for rows in _row_blocks(len(A), N):
            X, out = A[rows].T, merged[rows].T
            for m, ((t, W), columns) in enumerate(zip(steps, transform.columns), start=1):
                C = _coarse(X, m, A)
                P = _predict_level(C, W, columns)
                details = out[N >> m : N >> (m - 1)]
                if t is None:  # a target weight of one: t * even is even itself
                    np.subtract(X[1::2], P, out=details)
                else:
                    np.subtract(np.multiply(X[1::2], t, out=details), P, out=details)
                X = C
            out[: N >> M] = X
    return merged


def reconstruct(transform: FittedTransform, coefficients: np.ndarray) -> np.ndarray:
    """Invert the transform: an l x N merged coefficient matrix back to its l
    signals, top level first.

    Nonregularised predictors invert directly (even = detail + prediction);
    regularised ones divide by the target's own weight, which must be
    nonnegligible against the predictor's weight norm for the map to be
    invertible: every level is checked, top first, before any row is
    rebuilt. Rows run in blocks as in `apply`, with the same tap-order
    predictions, so a row's signal does not depend on the rows beside it and
    memory is the l x N output plus a few blocks.
    """
    N, M = transform.signal_length, transform.config.levels
    merged = float_matrix(coefficients, "coefficients", N)
    variant = transform.config.variant
    for m in range(M, 0, -1):
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
    steps = [_split_weights(level, variant) for level in transform.levels]
    signals = np.empty((len(merged), N))
    for rows in _row_blocks(len(merged), N):
        D = merged[rows].T
        C = D[: N >> M]
        for m in range(M, 0, -1):
            t, W = steps[m - 1]
            even = _predict_level(C, W, transform.columns[m - 1])
            even += D[N >> m : N >> (m - 1)]
            if t is not None:
                even /= t
            X = np.empty((2 * len(C), C.shape[1]))
            np.subtract(np.multiply(C, 2.0, out=X[0::2]), even, out=X[0::2])
            X[1::2] = even
            C = X
        signals[rows] = C.T
    return signals


def base_vectors(transform: FittedTransform) -> BaseVectors:
    """Materialise analysis rows and synthesis columns of the linear map."""
    eye = np.eye(transform.signal_length)
    return BaseVectors(analysis=apply(transform, eye).T, synthesis=reconstruct(transform, eye).T)


def constraint_residual(transform: FittedTransform) -> Optional[float]:
    """Max |B w - e1| over all predictors, the manifest's `constraint_residual`
    (None when unconstrained), on rows at knots scaled by 1/(2L): entries in [-1, 1]."""
    p = transform.config.constraint_degree
    if p < 1:
        return None
    e1 = np.eye(p)[0]
    worst = 0.0
    for level, columns in zip(transform.levels, transform.columns):
        B, _, _ = solver.constraint_patterns(columns, p)
        Bw = np.matmul(B, level.weights[:, :, None])[..., 0]
        worst = max(worst, float(np.max(np.abs(Bw - e1))))
    return worst


def save_model(transform: FittedTransform, path) -> None:
    """Model JSON: the config and, per level, its weight matrix and offset
    vector. The signal length and the windows behind the weight rows follow
    from these and are not stored."""
    write_json(path, {
        "config": asdict(transform.config),
        "levels": [
            {"weights": level.weights.tolist(), "gamma": level.gamma.tolist()}
            for level in transform.levels
        ],
    })


def load_model(path) -> FittedTransform:
    """Read a save_model file. Raises DataError for a file io.read_json cannot
    read, a missing or unknown key, an invalid config, a level count other
    than config.levels, a shape the config and level 1 do not give, and a
    weight or offset that is not a finite JSON number."""
    doc = read_json(path)
    try:
        if set(doc) != set(MODEL_KEYS):
            raise DataError(f"keys must be {list(MODEL_KEYS)}, got {list(doc)}")
        transform = FittedTransform(
            config=TransformConfig(**doc["config"]),
            levels=tuple(_level(**level) for level in doc["levels"]),
        )
        for m, (level, raw) in enumerate(zip(transform.levels, doc["levels"]), start=1):
            values = [v for row in raw["weights"] for v in row] + raw["gamma"]  # shapes checked
            if not all(type(v) in (int, float) for v in values):  # not str, bool or null
                raise DataError(f"level {m} holds a weight or offset that is not a number")
            if not (np.isfinite(level.weights).all() and np.isfinite(level.gamma).all()):
                raise DataError(f"level {m} holds a non-finite weight or offset")
    except (LookupError, TypeError, ValueError, OverflowError) as exc:  # ConfigError, DataError too
        raise DataError(f"{path}: malformed model file ({exc})") from exc
    return transform


def save_features(transform: FittedTransform, merged: np.ndarray, class_ids, path) -> None:
    """Feature CSV of the l x N coefficients `merged` of `transform`: one column
    per merged column, named by `column_layout`, plus a trailing label column
    holding `class_ids`. A matrix `float_matrix` rejects at width N is a
    DataError, raised before the file is opened."""
    merged = float_matrix(merged, "coefficients", transform.signal_length)
    write_table(path, [name for name, _, _, _ in transform.column_layout()], merged, class_ids)
