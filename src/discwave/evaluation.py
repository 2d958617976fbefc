"""Coefficients as classifiers: thresholds, ranking, ensembles, significance.

Every detail coefficient doubles as a one-feature classifier
s * sign(d - b) with sign(0) fixed to +1. A ClassifierSet holds K of them
as arrays, one row per coefficient: level, position k, threshold b,
orientation s, exact training count and support mask. make_local_classifiers
builds one row per detail column of a table, in merged-column order; a
ranking or a subset is the set indexed by rows. Thresholds come either from
the window solve's own bias (psvm_bias) or from an exhaustive midpoint scan
maximising training accuracy (optimal_threshold), which `fit_thresholds`
runs for every column at once. Ranking and selection use training accuracy
only; test error is reported, never selected on.
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
    make_rng,
    validate_labels,
)
from . import transform as tf
from . import solver

PSVM_BIAS = "psvm_bias"
OPTIMAL_THRESHOLD = "optimal_threshold"
MODES = (PSVM_BIAS, OPTIMAL_THRESHOLD)
MIN_PERMUTATIONS = 100  # fewer cannot give a p-value below 0.01
FIT_BLOCK_CELLS = 2**16  # values per column block of fit_thresholds

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
        """Merged-table column of each row: N/2^level + k - 1."""
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
    O((l + K) R).
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
    P = plus_rows.sum(axis=1)  # a platform integer: P + hi cannot wrap
    return np.maximum(P + hi, l - P - lo)


def _fixed_counts(X: np.ndarray, plus_rows: np.ndarray, b: np.ndarray) -> np.ndarray:
    """K x R: the s = +1 correct count of column k of X at threshold b[k], per
    labelling. It is l - #above - #plus + 2 #(above and plus); the last count
    is one float product of 0/1 matrices, exact while l < 2^53."""
    above = X >= b
    both = (above.T.astype(float) @ plus_rows.T.astype(float)).astype(np.int64)
    return X.shape[0] - above.sum(axis=0)[:, None] - plus_rows.sum(axis=1) + 2 * both


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
    block.
    """
    X = np.asarray(X, dtype=float)
    plus = np.asarray(labels, dtype=float) > 0
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
    coefficients: tf.CoefficientTable, fitted: tf.FittedTransform, mode: str = OPTIMAL_THRESHOLD
) -> ClassifierSet:
    """One classifier per detail coefficient of the table, rows in merged-column
    order (d_M first). Coarse columns are exported features but have no
    trained predictor to classify with."""
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    if coefficients.labels is None:
        raise DataError("coefficient table carries no binary labels")
    y = coefficients.labels
    l = y.size
    N, M = fitted.signal_length, fitted.effective_levels
    X = coefficients.merged[:, N >> M :]
    levels = np.arange(M, 0, -1)
    widths = N >> levels
    if mode == PSVM_BIAS:
        b = np.concatenate([fitted.levels[m - 1].gamma for m in levels])
        plus = _fixed_counts(X, (y > 0)[None, :], b)[:, 0]
        s, count = np.where(plus >= l - plus, 1, -1), np.maximum(plus, l - plus)
    else:
        b, s, count = fit_thresholds(X, y)
    # Column j of apply(eye) is merged column j's analysis vector.
    basis = tf.apply(fitted, np.eye(N)).merged[:, N >> M :]
    return ClassifierSet(
        level=np.repeat(levels, widths), k=np.arange(N >> M, N) - np.repeat(widths, widths) + 1,
        b=b, s=s, count=count, support=np.abs(basis.T) > tf.SUPPORT_ATOL, mode=mode, n_train=l,
    )


def rank_classifiers(classifiers: ClassifierSet) -> ClassifierSet:
    """Descending training accuracy; ties broken by (level asc, position asc)."""
    return classifiers[np.lexsort((classifiers.k, classifiers.level, -classifiers.count))]


def evaluate_classifiers(
    classifiers: ClassifierSet, table: tf.CoefficientTable, labels=None
) -> ClassifierSet:
    """The set with test accuracy on a coefficient table attached."""
    y = labels if labels is not None else table.labels
    if y is None:
        raise DataError("need labels to evaluate classifiers")
    # s * sign(d - b) is y exactly where (d >= b) == (y == s).
    X = table.merged[:, classifiers.columns]
    right = (X >= classifiers.b) == (np.asarray(y)[:, None] == classifiers.s)
    return replace(classifiers, test_accuracy=np.mean(right, axis=0))


@dataclass(frozen=True)
class EnsembleReport:
    members: ClassifierSet  # in ranked order
    votes: np.ndarray  # n x t of +/-1
    outcome: np.ndarray  # +1 / -1 / 0 (unclassified)
    misclassification: Optional[float]  # None when no labels supplied
    n_unclassified: int


def vote(members: ClassifierSet, table: tf.CoefficientTable, labels=None) -> EnsembleReport:
    """Majority vote of the members on every example of the table.

    Exact vote ties fall back to the larger summed |d - b| margin side; a tie
    there too leaves the example unclassified, which counts as an error in
    the misclassification ratio.
    """
    if len(members) == 0:
        raise ConfigError("ensemble needs at least one member")
    X = table.merged[:, members.columns]
    V = members.s * np.where(X >= members.b, 1.0, -1.0)  # sign(0) -> +1
    margins = np.abs(X - members.b)
    sums = V.sum(axis=1)
    outcome = np.sign(sums)
    tied = outcome == 0
    if np.any(tied):
        m_plus = np.where(V > 0, margins, 0.0).sum(axis=1)
        m_minus = np.where(V < 0, margins, 0.0).sum(axis=1)
        outcome[tied] = np.sign(m_plus - m_minus)[tied]
    labels = table.labels if labels is None else np.asarray(labels, dtype=float)
    ratio = None if labels is None else float(np.mean(outcome != labels))
    return EnsembleReport(
        members=members,
        votes=V,
        outcome=outcome,
        misclassification=ratio,
        n_unclassified=int(np.sum(outcome == 0)),
    )


def vote_profile(report: EnsembleReport):
    """Per example: mean vote in [-1, 1] and its colour group by sign/zero."""
    values = report.votes.mean(axis=1)
    groups = [RED if v > 0 else BLUE if v < 0 else GREEN for v in values]
    return list(zip(values.tolist(), groups))


@dataclass(frozen=True)
class MulticlassReport:
    classes: tuple
    pair_reports: dict  # (lo, hi) -> EnsembleReport on the pair's test subset
    pair_errors: dict  # (lo, hi) -> float or None
    predictions: np.ndarray  # winning class id per test example
    classified: np.ndarray  # False where no duel produced a vote
    overall_error: Optional[float]


def _aggregate_duels(classes, duel_outcomes, n_examples, true_ids):
    """Count pairwise wins; most wins predicts, ties -> smallest class id.

    An example every duel left unclassified gets no winner at all and counts
    as an error (keeps the 2-class case identical to the binary pipeline).
    """
    classes = list(classes)
    wins = np.zeros((n_examples, len(classes)), dtype=int)
    col = {c: i for i, c in enumerate(classes)}
    for (lo, hi), outcome in duel_outcomes.items():
        wins[outcome < 0, col[lo]] += 1
        wins[outcome > 0, col[hi]] += 1
    classified = wins.max(axis=1) > 0
    predictions = np.asarray(classes, dtype=int)[np.argmax(wins, axis=1)]
    overall = None
    if true_ids is not None:
        overall = float(np.mean(~classified | (predictions != true_ids)))
    return predictions, classified, overall


def _duel_classes(train: SignalDataset, test: SignalDataset) -> list:
    """Sorted training class ids. Raises DataError unless both sets carry
    class ids, training has two or more classes and every test class occurs
    in training."""
    if train.class_ids is None or test.class_ids is None:
        raise DataError("one_against_one needs class_ids on both datasets")
    classes = [int(c) for c in np.unique(train.class_ids)]
    if len(classes) < 2:
        raise DataError("need at least two classes")
    missing = set(int(c) for c in np.unique(test.class_ids)) - set(classes)
    if missing:
        raise DataError(f"test classes {sorted(missing)} absent from training")
    return classes


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
    the sequence `top_t` (selection happens per pairwise problem). Pair
    reports score the ensemble on the test rows of those two classes; the
    overall prediction lets every pair vote on every test example. Returns
    {t: MulticlassReport} in the order of `top_t`.
    """
    classes = _duel_classes(train, test)
    top_t = list(top_t)
    if not top_t or min(top_t) < 1:
        raise ConfigError("top_t needs at least one entry, each >= 1")

    pairs = {}  # (lo, hi) -> (ranked classifiers, all test rows, the pair's test rows)
    for lo, hi in combinations(classes, 2):
        fitted, coeffs = tf.fit(train.restrict_pair(lo, hi), config)
        ranked = rank_classifiers(make_local_classifiers(coeffs, fitted, mode))
        mask = np.isin(test.class_ids, (lo, hi))
        sub = None
        if np.any(mask):
            y = np.where(test.class_ids[mask] == lo, -1.0, 1.0)
            sub = tf.apply(fitted, test.signals[mask], labels=y)
        pairs[(lo, hi)] = ranked, tf.apply(fitted, test.signals), sub

    reports = {}
    for t in top_t:
        duel_outcomes = {p: vote(r[:t], full).outcome for p, (r, full, _) in pairs.items()}
        pair_reports = {p: vote(r[:t], sub) for p, (r, _, sub) in pairs.items() if sub is not None}
        predictions, classified, overall = _aggregate_duels(
            classes, duel_outcomes, test.n_examples, test.class_ids
        )
        reports[t] = MulticlassReport(
            classes=tuple(classes),
            pair_reports=pair_reports,
            pair_errors={
                p: pair_reports[p].misclassification if p in pair_reports else None
                for p in pairs
            },
            predictions=predictions,
            classified=classified,
            overall_error=overall,
        )
    return reports


def fit_raw_psvm(signals: np.ndarray, labels: np.ndarray, nu: float):
    """Plain proximal-SVM fit on raw sample vectors; returns (w, gamma)."""
    problem = solver.PredictProblem(
        A=np.asarray(signals, dtype=float),
        labels=labels,
        nu=nu,
        variant=REGULARISED,
    )
    sol = solver.solve(problem)
    return sol.w, sol.gamma


def psvm_predict(w: np.ndarray, gamma: float, signals: np.ndarray) -> np.ndarray:
    return np.where(np.asarray(signals, dtype=float) @ w - gamma >= 0, 1.0, -1.0)


def one_against_one_raw_psvm(
    train: SignalDataset, test: SignalDataset, nu: float
) -> MulticlassReport:
    """Baseline: pairwise proximal SVMs on the raw samples, same duel rules."""
    classes = _duel_classes(train, test)
    duel_outcomes = {}
    pair_errors = {}
    for lo, hi in combinations(classes, 2):
        tr = train.restrict_pair(lo, hi)
        w, gamma = fit_raw_psvm(tr.signals, tr.labels, nu)
        duel_outcomes[(lo, hi)] = psvm_predict(w, gamma, test.signals)
        mask = np.isin(test.class_ids, (lo, hi))
        if np.any(mask):
            y = np.where(test.class_ids[mask] == lo, -1.0, 1.0)
            pred = psvm_predict(w, gamma, test.signals[mask])
            pair_errors[(lo, hi)] = float(np.mean(pred != y))
        else:
            pair_errors[(lo, hi)] = None
    predictions, classified, overall = _aggregate_duels(
        classes, duel_outcomes, test.n_examples, test.class_ids
    )
    return MulticlassReport(
        classes=tuple(classes),
        pair_reports={},
        pair_errors=pair_errors,
        predictions=predictions,
        classified=classified,
        overall_error=overall,
    )


def permutation_test(
    classifiers: ClassifierSet, coefficients, labels: np.ndarray, B: int, seed: int
) -> np.ndarray:
    """Permutation p-values of the classifiers, one per row.

    p = (1 + #{permutations with accuracy >= observed}) / (B + 1). The null
    mirrors the set's own selection so p-values are never anti-conservative:
    in optimal_threshold mode the threshold and orientation are fitted anew
    under every permuted labelling (full re-selection under the null); in
    psvm_bias mode the bias stays fixed and only the orientation is
    re-picked, matching how the classifiers were built.

    `coefficients` is a CoefficientTable or an l x len(classifiers) matrix of
    values. The B permutations are drawn once per call, each from its own
    child stream make_rng(seed, replicate), and every classifier is scored
    against the same ones, so a classifier's p-value does not depend on which
    others share the call. optimal_threshold columns share one walk over the
    sorted values (_best_counts).
    """
    if B < MIN_PERMUTATIONS:
        raise ConfigError(f"need at least {MIN_PERMUTATIONS} permutations, got {B}")
    if isinstance(coefficients, tf.CoefficientTable):
        X = coefficients.merged[:, classifiers.columns]
    else:
        X = np.asarray(coefficients, dtype=float)
        if X.ndim != 2 or X.shape[1] != len(classifiers):
            raise DataError(
                f"coefficients must be l x {len(classifiers)}, got shape {X.shape}"
            )
    y = validate_labels(labels, X.shape[0])
    l = y.size
    plus_rows = np.empty((B + 1, l), dtype=bool)  # row 0 observed, row b+1 replicate b
    plus_rows[0] = y > 0
    for b in range(B):
        plus_rows[b + 1] = plus_rows[0, make_rng(seed, b).permutation(l)]
    if classifiers.mode == PSVM_BIAS:
        plus = _fixed_counts(X, plus_rows, classifiers.b)
        best = np.maximum(plus, l - plus)
    else:
        best = _best_counts(X, plus_rows)
    return (1 + np.sum(best[:, 1:] >= best[:, :1], axis=1)) / (B + 1)


def select_significant(
    classifiers: ClassifierSet, min_accuracy: float = 0.75, alpha: float = 0.1
) -> np.ndarray:
    """Row mask: training accuracy >= min_accuracy AND p <= alpha.

    A set without p-values cannot be certified and selects no row.
    """
    if classifiers.p_value is None:
        return np.zeros(len(classifiers), dtype=bool)
    return (classifiers.train_accuracy >= min_accuracy) & (classifiers.p_value <= alpha)


def support_histogram(classifiers: ClassifierSet) -> dict:
    """Per level present: how many of its rows' supports hit each sample."""
    return {
        m: classifiers.support[classifiers.level == m].sum(axis=0)
        for m in np.unique(classifiers.level).tolist()
    }
