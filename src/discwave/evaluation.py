"""Coefficients as classifiers: thresholds, ranking, ensembles, significance.

Every detail coefficient doubles as a one-feature classifier
s * sign(d - b) with sign(0) fixed to +1. A ClassifierSet holds K of them
as arrays, one row per coefficient: level, position k, threshold b,
orientation s, exact training count and support mask. make_local_classifiers
builds one row per detail column of an l x N merged coefficient matrix, as
`transform.apply` returns it, in merged-column order; a ranking or a subset
is the set indexed by rows. Labels come from the dataset and are passed
beside the matrix. Thresholds come either from the window solve's own bias
(psvm_bias) or from an exhaustive midpoint scan maximising training accuracy
(optimal_threshold), which `fit_thresholds` runs for every column at once.
Ranking and selection use training accuracy only; test error is reported,
never selected on.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .core import (
    REGULARISED,
    ConfigError,
    DataError,
    SignalDataset,
    TransformConfig,
    float_matrix,
    integer,
    make_rng,
    pair_labels,
    real,
    signed_labels,
    validate_labels,
)
from . import transform as tf
from . import solver

PSVM_BIAS = "psvm_bias"
OPTIMAL_THRESHOLD = "optimal_threshold"
MODES = (PSVM_BIAS, OPTIMAL_THRESHOLD)
MIN_PERMUTATIONS = 100  # fewer cannot give a p-value below 0.01
ALPHA_INTERVAL = "(0, 1]"  # the p-value cut of select_significant
ACCURACY_INTERVAL = "[0, 1]"  # its training-accuracy cut
FIT_BLOCK_CELLS = 2**16  # values per column block of fit_thresholds
NULL_BLOCK_CELLS = 2**19  # l + K walk cells a labelling, per null block: ~1 MiB of int16

RED, BLUE, GREEN = "red", "blue", "green"  # +1 side, -1 side, unclassified


@dataclass(frozen=True, eq=False)
class ClassifierSet:
    """K detail coefficients as classifiers s * sign(d - b), one row each.

    Row j is coefficient (level[j], k[j]) of an N-sample transform, with
    count[j] of the n_train training examples right. support[j, i] is True
    where row j's analysis vector weights sample i + 1 by more than
    tf.SUPPORT_ATOL. `set[index]` (a slice, index array or boolean mask) is
    the subset or ranking of those rows.
    """

    level: np.ndarray
    k: np.ndarray
    b: np.ndarray
    s: np.ndarray
    count: np.ndarray
    support: np.ndarray
    mode: str
    n_train: int
    test_accuracy: Optional[np.ndarray] = None
    p_value: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self.b.size

    def __getitem__(self, index) -> "ClassifierSet":
        rows = {f.name: getattr(self, f.name) for f in fields(self)}
        return replace(self, **{n: v[index] for n, v in rows.items() if isinstance(v, np.ndarray)})

    @property
    def columns(self) -> np.ndarray:
        """Merged column of each row: N/2^level + k - 1."""
        return (self.support.shape[1] >> self.level) + self.k - 1

    @property
    def train_accuracy(self) -> np.ndarray:
        return self.count / self.n_train

    @property
    def names(self) -> list:
        return [f"d{m}_{k}" for m, k in zip(self.level.tolist(), self.k.tolist())]


def _best_counts(X: np.ndarray, plus_rows: np.ndarray) -> np.ndarray:
    """Best correct count over every threshold and both orientations.

    `X` is l x K (one column per coefficient) and `plus_rows` an R x l
    boolean stack of labellings (True where the label is +1); returns the
    K x R counts, equal to fit_thresholds' count for every column and
    labelling. With c values below a split, pos of them +1 out of P,
    the s = +1 classifier gets P + W right and the s = -1 one l - P - W,
    where W = c - 2 pos. One walk serves every column and labelling: it
    steps through the sorted positions, adding +1 for a -1 label and -1 for
    a +1 label to each column's W, and keeps W's extremes hi and lo over the
    candidate splits (split 0, where W = 0, and the boundaries between
    distinct values); best = max(P + hi, l - P - lo). A tied column skips
    the splits inside a run of equal values. Time O(l K R), memory
    O((l + K) R), all of it in the walk's dtype: int16 below l = 2^15 and
    int32 from there, since |W| <= l - 1 and every count lies in 0..l. The
    counts are formed in place (hi += P, lo = (l - P) - lo, best into hi),
    so the K x R result is int16 or int32 too.
    """
    l, K = X.shape
    R = plus_rows.shape[0]
    dtype = np.int16 if l < 2**15 else np.int32  # |W| <= l - 1
    order = np.argsort(X, axis=0, kind="stable")
    v = np.take_along_axis(X, order, axis=0)
    cut = v[1:] > v[:-1]  # cut[c - 1, k]: split c is a candidate of column k
    tied = ~cut.all(axis=1)
    steps = plus_rows.T.astype(dtype, order="C")  # l x R: -1 for +1, +1 for -1
    steps *= -2
    steps += 1
    W, hi, lo, step = (np.zeros((K, R), dtype) for _ in range(4))
    for c in range(1, l):
        # mode="clip" writes straight into `step`; "raise" would buffer it.
        np.take(steps, order[c - 1], axis=0, out=step, mode="clip")
        W += step
        if tied[c - 1]:  # restore the columns for which split c is no candidate
            held = np.flatnonzero(~cut[c - 1])
            kept = hi[held], lo[held]
        np.maximum(hi, W, out=hi)
        np.minimum(lo, W, out=lo)
        if tied[c - 1]:
            hi[held], lo[held] = kept
    P = plus_rows.sum(axis=1, dtype=dtype)
    hi += P  # each sum is a count in 0..l, so none wraps
    np.subtract(l - P, lo, out=lo)
    return np.maximum(hi, lo, out=hi)


def _fixed_counts(X: np.ndarray, plus_rows: np.ndarray, b: np.ndarray) -> np.ndarray:
    """K x R: the s = +1 correct count of column k of X at threshold b[k], per
    labelling. It is l - #above - #plus + 2 #(above and plus); the last count
    is one product of 0/1 matrices, in float32 below l = 2^24 and in float64
    from there, so every partial sum is an integer the dtype holds exactly,
    whatever order BLAS sums in."""
    l = X.shape[0]
    above = X >= b
    exact = np.float32 if l < 2**24 else float
    count = (above.T.astype(exact) @ plus_rows.T.astype(exact)).astype(np.int64)
    count *= 2
    count += (l - above.sum(axis=0))[:, None]
    count -= plus_rows.sum(axis=1)
    return count


def fit_thresholds(X: np.ndarray, labels: np.ndarray):
    """Best (b, s, count) arrays over all thresholds and both orientations,
    one entry per column of the l x K matrix X; counts are exact integers.

    Candidates are each column's minimum as it first occurs (a -0.0 keeps
    its sign) and, between distinct consecutive sorted values, the midpoint
    0.5 * (v[c-1] + v[c]), or v[c] where that rounds onto v[c-1] or
    overflows, so each candidate has c values below it. With pos of them +1
    out of P, s = +1 gets P + W right and s = -1 gets l - P - W, where
    W = c - 2 pos is one cumsum down the sorted columns. Ties in the count
    prefer the smallest |b|, then the smaller b (candidates strictly
    increase, so that leaves one), then s = +1. Columns go in blocks of
    about FIT_BLOCK_CELLS values, one sort each, so no temporary outgrows a
    block. An X that float_matrix rejects, or labels that are not one +/-1
    per row (signed_labels), are a DataError; one class is allowed.
    """
    X = float_matrix(X, "X")
    plus = signed_labels(labels, len(X)) > 0
    width = max(1, FIT_BLOCK_CELLS // len(X))
    blocks = [_fit_block(X[:, j : j + width], plus) for j in range(0, max(X.shape[1], 1), width)]
    return tuple(np.concatenate(arrays) for arrays in zip(*blocks))


def _fit_block(X: np.ndarray, plus: np.ndarray):
    """fit_thresholds of the columns of X, with the labels as a +1 mask."""
    l, K = X.shape
    dtype = np.int16 if l < 2**15 else np.int32  # |W| <= l - 1
    # Any order of equal values gives the same W at every split between
    # distinct ones; only the minimum's sign needs its first occurrence.
    order = np.argsort(X, axis=0)
    v = np.take_along_axis(X, order, axis=0)
    W = np.zeros((l, K), dtype)
    np.cumsum(np.where(plus, -1, 1).astype(dtype)[order[:-1]], axis=0, dtype=dtype, out=W[1:])
    valid = np.vstack([np.ones((1, K), dtype=bool), v[1:] > v[:-1]])
    first_min = X[X.argmin(axis=0), np.arange(K)]

    def pick(masked, best):
        """The tie-broken b of each column's best splits (masked == best)."""
        c, k = np.nonzero(masked == best)
        lower, upper = v[c - 1, k], v[c, k]
        with np.errstate(over="ignore"):
            mid = 0.5 * (lower + upper)
        cand = np.where(c == 0, first_min[k], np.where((lower < mid) & (mid <= upper), mid, upper))
        ranked = np.lexsort((cand, np.abs(cand), k))
        return cand[ranked[np.searchsorted(k[ranked], np.arange(K))]]

    hi_masked = np.where(valid, W, np.iinfo(dtype).min)
    lo_masked = np.where(valid, W, np.iinfo(dtype).max)
    hi, lo = hi_masked.max(axis=0), lo_masked.min(axis=0)
    P = int(plus.sum())
    count_plus, count_minus = P + hi.astype(np.int64), l - P - lo.astype(np.int64)
    plus_wins = count_plus >= count_minus
    b = np.where(plus_wins, pick(hi_masked, hi), pick(lo_masked, lo))
    return b, np.where(plus_wins, 1, -1), np.where(plus_wins, count_plus, count_minus)


def make_local_classifiers(
    merged: np.ndarray,
    labels: np.ndarray,
    fitted: tf.FittedTransform,
    mode: str = OPTIMAL_THRESHOLD,
) -> ClassifierSet:
    """One classifier per detail coefficient of `fitted`, trained on the l x N
    coefficients `merged` and their +/-1 `labels` (validate_labels: one per
    row, both classes present); a matrix float_matrix rejects at width N is
    a DataError. Rows are in merged-column order (d_M first).
    Coarse columns are exported features but have no trained predictor to
    classify with."""
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    N, M = fitted.signal_length, fitted.config.levels
    merged = float_matrix(merged, "coefficients", N)
    y = validate_labels(labels, len(merged))
    l = y.size
    X = merged[:, N >> M :]
    levels = np.arange(M, 0, -1)
    widths = N >> levels
    if mode == PSVM_BIAS:
        b = np.concatenate([fitted.levels[m - 1].gamma for m in levels])
        plus = _fixed_counts(X, (y > 0)[None, :], b)[:, 0]
        s, count = np.where(plus >= l - plus, 1, -1), np.maximum(plus, l - plus)
    else:
        b, s, count = fit_thresholds(X, y)
    # Column j of apply(eye) is merged column j's analysis vector.
    basis = tf.apply(fitted, np.eye(N))[:, N >> M :]
    return ClassifierSet(
        level=np.repeat(levels, widths), k=np.arange(N >> M, N) - np.repeat(widths, widths) + 1,
        b=b, s=s, count=count, support=tf.support(basis.T), mode=mode, n_train=l,
    )


def _values(classifiers: ClassifierSet, merged) -> np.ndarray:
    """The set's columns of the l x N coefficients `merged`, N the set's
    signal length; a matrix float_matrix rejects at width N is a DataError."""
    N = classifiers.support.shape[1]
    return float_matrix(merged, "coefficients", N)[:, classifiers.columns]


def rank_classifiers(classifiers: ClassifierSet) -> ClassifierSet:
    """Descending training accuracy; ties broken by (level asc, position asc)."""
    return classifiers[np.lexsort((classifiers.k, classifiers.level, -classifiers.count))]


def evaluate_classifiers(
    classifiers: ClassifierSet, merged: np.ndarray, labels: np.ndarray
) -> ClassifierSet:
    """The set with its test accuracy on the l x N coefficients `merged`
    attached, scored against `labels`, one +/-1 label per row
    (signed_labels). A single class is allowed: a test set may hold only one."""
    X = _values(classifiers, merged)
    y = signed_labels(labels, len(X))
    # s * sign(d - b) is y exactly where (d >= b) == (y == s).
    right = (X >= classifiers.b) == (y[:, None] == classifiers.s)
    return replace(classifiers, test_accuracy=np.mean(right, axis=0))


@dataclass(frozen=True)
class EnsembleReport:
    members: ClassifierSet  # in ranked order
    votes: np.ndarray  # n x t of +/-1
    outcome: np.ndarray  # +1 / -1 / 0 (unclassified)
    n_unclassified: int


def vote(members: ClassifierSet, merged: np.ndarray) -> EnsembleReport:
    """Majority vote of the members on every row of the l x N coefficients
    `merged`. Scores nothing: a caller with labels y takes the
    misclassification as mean(outcome != y).

    Exact vote ties fall back to the larger summed |d - b| margin side; a tie
    there too leaves the example unclassified (outcome 0), which never
    equals a label and so counts as an error.
    """
    if len(members) == 0:
        raise ConfigError("ensemble needs at least one member")
    X = _values(members, merged)
    V = members.s * np.where(X >= members.b, 1.0, -1.0)  # sign(0) -> +1
    margins = np.abs(X - members.b)
    sums = V.sum(axis=1)
    outcome = np.sign(sums)
    tied = outcome == 0
    if np.any(tied):
        m_plus = np.where(V > 0, margins, 0.0).sum(axis=1)
        m_minus = np.where(V < 0, margins, 0.0).sum(axis=1)
        outcome[tied] = np.sign(m_plus - m_minus)[tied]
    return EnsembleReport(
        members=members, votes=V, outcome=outcome, n_unclassified=int(np.sum(outcome == 0))
    )


def vote_profile(report: EnsembleReport):
    """Per example: mean vote in [-1, 1] and its colour group by sign/zero."""
    values = report.votes.mean(axis=1)
    groups = [RED if v > 0 else BLUE if v < 0 else GREEN for v in values]
    return list(zip(values.tolist(), groups))


@dataclass(frozen=True)
class MulticlassReport:
    pair_errors: dict  # (lo, hi) -> error on the pair's test rows, None without any
    predictions: np.ndarray  # winning class id per test example
    classified: np.ndarray  # False where no duel produced a vote
    overall_error: float


def duel_classes(train: SignalDataset, test: SignalDataset) -> list:
    """Sorted training class ids. Raises DataError unless training has two
    or more classes, every test class occurs in training and both sets have
    one signal length."""
    classes = list(train.classes)
    if len(classes) < 2:
        raise DataError("need at least two classes")
    if test.signal_length != train.signal_length:
        raise DataError(
            f"test signal length {test.signal_length} differs from training's {train.signal_length}"
        )
    missing = sorted(set(test.classes) - set(classes))
    if missing:
        raise DataError(f"test classes {missing} absent from training classes {classes}")
    return classes


def _duels(classes, outcomes: dict, test: SignalDataset) -> MulticlassReport:
    """Score duels from each pair's +1 / -1 / 0 outcome on every test row.

    A pair's error is its misclassification on the test rows of its own two
    classes. Overall, most pairwise wins predicts, ties -> smallest class id;
    an example every duel left unclassified gets no winner at all and counts
    as an error (keeps the 2-class case identical to the binary pipeline).
    """
    wins = np.zeros((test.n_examples, len(classes)), dtype=int)
    col = {c: i for i, c in enumerate(classes)}
    pair_errors = {}
    for (lo, hi), outcome in outcomes.items():
        wins[outcome < 0, col[lo]] += 1
        wins[outcome > 0, col[hi]] += 1
        rows = np.isin(test.class_ids, (lo, hi))
        y = pair_labels(test.class_ids[rows], lo)
        pair_errors[(lo, hi)] = float(np.mean(outcome[rows] != y)) if rows.any() else None
    classified = wins.max(axis=1) > 0
    predictions = np.asarray(classes, dtype=int)[np.argmax(wins, axis=1)]
    return MulticlassReport(
        pair_errors=pair_errors,
        predictions=predictions,
        classified=classified,
        overall_error=float(np.mean(~classified | (predictions != test.class_ids))),
    )


def one_against_one(
    train: SignalDataset,
    test: SignalDataset,
    config: TransformConfig,
    top_t: Sequence[int],
    mode: str = OPTIMAL_THRESHOLD,
) -> dict:
    """One binary transform+ensemble per class pair, pairwise-majority overall.

    Each pair gets its own fitted transform and classifier ranking, made once;
    the top-t members of that ranking form the pair's ensemble for every t in
    the sequence `top_t` (selection happens per pairwise problem). Every pair
    votes on every test example; its error is scored on the rows of its own
    two classes. Returns {t: MulticlassReport} in the order of `top_t`.
    Raises ConfigError, before any fit, for a t above the K = N - N/2^M
    detail coefficients every pair transform has.
    """
    classes = duel_classes(train, test)
    top_t = [integer(t, "top_t entry", 1) for t in top_t]
    if not top_t:
        raise ConfigError("top_t needs at least one entry")
    N = train.signal_length
    K = N - (N >> config.levels)
    if max(top_t) > K:
        raise ConfigError(
            f"top_t {max(top_t)} exceeds the {K} detail coefficients of a class-pair transform"
        )

    pairs = {}  # (lo, hi) -> (ranked classifiers, the pair transform of every test row)
    for lo, hi in combinations(classes, 2):
        pair = train.restrict_pair(lo, hi)
        fitted, merged = tf.fit(pair, config)
        ranked = rank_classifiers(make_local_classifiers(merged, pair.labels, fitted, mode))
        pairs[(lo, hi)] = ranked, tf.apply(fitted, test.signals)
    return {
        t: _duels(classes, {p: vote(r[:t], X).outcome for p, (r, X) in pairs.items()}, test)
        for t in top_t
    }


def fit_raw_psvm(signals: np.ndarray, labels: np.ndarray, nu: float):
    """Plain proximal-SVM fit on raw sample vectors; returns (w, gamma)."""
    problem = solver.PredictProblem(
        A=signals,
        labels=labels,
        nu=nu,
        variant=REGULARISED,
    )
    sol = solver.solve(problem)
    return sol.w, sol.gamma


def psvm_predict(w: np.ndarray, gamma: float, signals: np.ndarray) -> np.ndarray:
    return np.where(float_matrix(signals, "signals", len(w)) @ w - gamma >= 0, 1.0, -1.0)


def one_against_one_raw_psvm(
    train: SignalDataset, test: SignalDataset, nu: float
) -> MulticlassReport:
    """Baseline: pairwise proximal SVMs on the raw samples, same duel rules."""
    classes = duel_classes(train, test)
    outcomes = {}
    for lo, hi in combinations(classes, 2):
        tr = train.restrict_pair(lo, hi)
        outcomes[(lo, hi)] = psvm_predict(*fit_raw_psvm(tr.signals, tr.labels, nu), test.signals)
    return _duels(classes, outcomes, test)


def permutation_test(
    classifiers: ClassifierSet, values, labels: np.ndarray, B: int, seed: int
) -> np.ndarray:
    """Permutation p-values of the classifiers, one per row.

    p = (1 + #{permutations with accuracy >= observed}) / (B + 1). The null
    mirrors the set's own selection: in optimal_threshold mode the threshold
    and orientation are fitted anew under every permuted labelling (full
    re-selection under the null); in psvm_bias mode the bias stays fixed and
    only the orientation is re-picked, matching how the classifiers were
    built. The transform is not refitted, so p-values are valid only when
    `values` come from rows the transform never saw: on its own training
    rows each coefficient is a discriminant fitted to these labels, and the
    null is too narrow (anti-conservative).

    `values` is the l x len(classifiers) matrix of coefficient values, column
    j for classifier j. The B permutations are drawn once per call, each from
    its own child stream make_rng(seed, replicate), and every classifier is
    scored against the same ones, so a classifier's p-value does not depend on
    which others share the call. optimal_threshold columns share one walk over the
    sorted values (_best_counts).

    Labellings go in blocks of at most NULL_BLOCK_CELLS // (l + K) of them, K
    = len(classifiers), in replicate order after the observed one; each block
    is drawn, counted and reduced to its hits before the next, so memory is
    O(l + K) cells per labelling of one block, whatever B is, and the p-values
    do not depend on where the blocks split.
    """
    B = integer(B, "B", MIN_PERMUTATIONS)
    X = float_matrix(values, "values", len(classifiers))
    y = validate_labels(labels, X.shape[0])
    l, K = X.shape
    observed = y > 0
    size = max(1, NULL_BLOCK_CELLS // (l + K))
    hits = np.zeros(K, dtype=np.int64)  # the observed labelling counts itself once
    for start in range(0, B + 1, size):
        rows = range(start, min(start + size, B + 1))  # labelling r > 0 is replicate r - 1
        plus_rows = np.empty((len(rows), l), dtype=bool)
        for i, r in enumerate(rows):
            plus_rows[i] = observed[make_rng(seed, r - 1).permutation(l)] if r else observed
        if classifiers.mode == PSVM_BIAS:
            plus = _fixed_counts(X, plus_rows, classifiers.b)
            best = np.maximum(plus, l - plus, out=plus)
        else:
            best = _best_counts(X, plus_rows)
        if start == 0:
            observed_best = best[:, :1].copy()
        hits += np.sum(best >= observed_best, axis=1)
    return hits / (B + 1)


def select_significant(
    classifiers: ClassifierSet, min_accuracy: float = 0.75, alpha: float = 0.1
) -> np.ndarray:
    """Row mask: training accuracy >= min_accuracy AND p <= alpha.

    A set without p-values cannot be certified and selects no row. A cut
    outside ACCURACY_INTERVAL or ALPHA_INTERVAL is a ConfigError.
    """
    min_accuracy = real(min_accuracy, "min_accuracy", ACCURACY_INTERVAL)
    alpha = real(alpha, "alpha", ALPHA_INTERVAL)
    if classifiers.p_value is None:
        return np.zeros(len(classifiers), dtype=bool)
    return (classifiers.train_accuracy >= min_accuracy) & (classifiers.p_value <= alpha)


def support_histogram(classifiers: ClassifierSet) -> dict:
    """Per level present: how many of its rows' supports hit each sample."""
    return {
        m: classifiers.support[classifiers.level == m].sum(axis=0)
        for m in np.unique(classifiers.level).tolist()
    }
