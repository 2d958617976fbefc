"""Coefficients as classifiers: thresholds, ranking, ensembles, significance.

Every detail coefficient doubles as a one-feature classifier
s * sign(d - b) with sign(0) fixed to +1. Thresholds come either from the
window solve's own bias (psvm_bias) or from an exhaustive midpoint scan
maximising training accuracy (optimal_threshold). Ranking and selection use
training accuracy only; test error is reported, never selected on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

RED, BLUE, GREEN = "red", "blue", "green"  # +1 side, -1 side, unclassified


@dataclass
class LocalClassifier:
    """One detail coefficient acting as a thresholded classifier."""

    level: int
    k: int
    weights: np.ndarray
    b: float
    s: int
    mode: str
    train_accuracy: float
    support: tuple  # 1-based original-sample indices of the analysis vector
    test_accuracy: Optional[float] = None
    p_value: Optional[float] = None

    @property
    def name(self) -> str:
        return f"d{self.level}_{self.k}"


def predict_values(classifier: LocalClassifier, values: np.ndarray) -> np.ndarray:
    """s * sign(d - b) with sign(0) -> +1."""
    return classifier.s * np.where(np.asarray(values, dtype=float) >= classifier.b, 1.0, -1.0)


def classifier_values(table: tf.CoefficientTable, classifier: LocalClassifier) -> np.ndarray:
    return table.detail(classifier.level)[:, classifier.k - 1]


def _scan_counts(values: np.ndarray, plus: np.ndarray):
    """Candidate thresholds and the s = +1 correct count at each.

    `plus` is the labelling as a boolean vector (True where the label is
    +1). Candidates are the minimum value itself (nothing below the
    threshold, everything predicted on the >= side) plus the midpoints
    between distinct consecutive values. With c values below a candidate,
    pos of them +1 out of P in all, the s = +1 classifier gets
    (P - pos) + (c - pos) right.
    """
    order = np.argsort(values, kind="stable")
    v = values[order]
    boundaries = np.flatnonzero(v[1:] > v[:-1]) + 1
    splits = np.concatenate([[0], boundaries])
    cands = np.empty(splits.size)
    cands[0] = v[0]
    if boundaries.size:
        cands[1:] = 0.5 * (v[boundaries - 1] + v[boundaries])
    pos = np.cumsum(plus[order])
    pos_at = np.concatenate([[0], pos[boundaries - 1]])
    return cands, pos[-1] + splits - 2 * pos_at


def _best_counts(X: np.ndarray, plus_rows: np.ndarray) -> np.ndarray:
    """Best correct count over every threshold and both orientations.

    `X` is l x K (one column per coefficient) and `plus_rows` an R x l
    boolean stack of labellings (True where the label is +1); returns the
    K x R counts, equal to fit_threshold's correct count for every column
    and labelling. With c values below a split, pos of them +1 out of P,
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
    dtype = np.int16 if l < 2**15 else np.int32  # |W| <= l
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


def _fixed_counts(values: np.ndarray, plus_rows: np.ndarray, b: float) -> np.ndarray:
    """The s = +1 correct count at the fixed threshold b, per labelling."""
    return np.sum(plus_rows == (values >= b), axis=1)


def fit_threshold(values: np.ndarray, labels: np.ndarray):
    """Best (b, s, correct_count) over all thresholds and both orientations.

    Ties in accuracy prefer the smallest |b|, then the smaller b, and +1
    orientation over -1. Counts are exact integers so downstream comparisons
    never hinge on float rounding.
    """
    values = np.asarray(values, dtype=float)
    y = np.asarray(labels, dtype=float)
    cands, plus = _scan_counts(values, y > 0)

    def pick(counts):
        best = int(counts.max())
        at = np.flatnonzero(counts == best)
        sub = np.lexsort((cands[at], np.abs(cands[at])))
        return best, float(cands[at[sub[0]]])

    best_p, b_p = pick(plus)
    best_m, b_m = pick(y.size - plus)
    if best_p >= best_m:
        return b_p, 1, best_p
    return b_m, -1, best_m


def make_local_classifiers(
    coefficients: tf.CoefficientTable,
    fitted: tf.FittedTransform,
    mode: str = OPTIMAL_THRESHOLD,
):
    """One classifier per detail coefficient of the table (coarse columns are
    exported features but have no trained predictor to classify with)."""
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    if coefficients.labels is None:
        raise DataError("coefficient table carries no binary labels")
    y = coefficients.labels
    l = y.size
    y_plus = (y > 0)[None, :]
    basis = tf.apply(fitted, np.eye(fitted.signal_length))
    out = []
    for level in range(1, fitted.effective_levels + 1):
        D = coefficients.detail(level)
        # Column k-1 of the level's block of apply(eye) is position k's analysis vector.
        supports = tf.supports(basis.detail(level).T)
        for k in range(1, D.shape[1] + 1):
            values = D[:, k - 1]
            rec = fitted.levels[level - 1][k - 1]
            if mode == PSVM_BIAS:
                b = rec.gamma
                plus = int(_fixed_counts(values, y_plus, b)[0])
                s, correct = (1, plus) if plus >= l - plus else (-1, l - plus)
            else:
                b, s, correct = fit_threshold(values, y)
            out.append(
                LocalClassifier(
                    level=level,
                    k=k,
                    weights=rec.weights,
                    b=float(b),
                    s=int(s),
                    mode=mode,
                    train_accuracy=correct / l,
                    support=supports[k - 1],
                )
            )
    return out


def rank_classifiers(classifiers):
    """Stable descending sort by training accuracy; ties broken by (level asc, position asc)."""
    return sorted(classifiers, key=lambda c: (-c.train_accuracy, c.level, c.k))


def evaluate_classifiers(classifiers, table: tf.CoefficientTable, labels=None):
    """Attach test accuracy from a coefficient table; returns the same list."""
    y = labels if labels is not None else table.labels
    if y is None:
        raise DataError("need labels to evaluate classifiers")
    for c in classifiers:
        pred = predict_values(c, classifier_values(table, c))
        c.test_accuracy = float(np.mean(pred == y))
    return classifiers


@dataclass(frozen=True)
class EnsembleReport:
    members: tuple  # LocalClassifier, ranked order
    votes: np.ndarray  # n x t of +/-1
    outcome: np.ndarray  # +1 / -1 / 0 (unclassified)
    misclassification: Optional[float]  # None when no labels supplied
    n_unclassified: int


def vote(members, table: tf.CoefficientTable, labels=None) -> EnsembleReport:
    """Majority vote of the members on every example of the table.

    Exact vote ties fall back to the larger summed |d - b| margin side; a tie
    there too leaves the example unclassified, which counts as an error in
    the misclassification ratio.
    """
    members = list(members)
    if not members:
        raise ConfigError("ensemble needs at least one member")
    V = np.empty((table.n_examples, len(members)))
    margins = np.empty_like(V)
    for j, c in enumerate(members):
        values = classifier_values(table, c)
        V[:, j] = predict_values(c, values)
        margins[:, j] = np.abs(values - c.b)
    sums = V.sum(axis=1)
    outcome = np.sign(sums)
    tied = outcome == 0
    if np.any(tied):
        m_plus = np.where(V > 0, margins, 0.0).sum(axis=1)
        m_minus = np.where(V < 0, margins, 0.0).sum(axis=1)
        outcome[tied & (m_plus > m_minus)] = 1.0
        outcome[tied & (m_plus < m_minus)] = -1.0
    ratio = None
    if labels is None and table.labels is not None:
        labels = table.labels
    if labels is not None:
        labels = np.asarray(labels, dtype=float)
        ratio = float(np.mean(outcome != labels))
    return EnsembleReport(
        members=tuple(members),
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
    classifiers: Sequence[LocalClassifier],
    coefficients,
    labels: np.ndarray,
    B: int,
    seed: int,
) -> list:
    """Permutation p-values of the classifiers, in order.

    p = (1 + #{permutations with accuracy >= observed}) / (B + 1). The null
    mirrors each classifier's own selection so p-values are never
    anti-conservative: in optimal_threshold mode the threshold and orientation
    are re-fit from scratch under every permuted labelling (full re-selection
    under the null); in psvm_bias mode the bias stays fixed and only the
    orientation is re-picked, matching how the classifier was built.

    `coefficients` is a CoefficientTable or an l x len(classifiers) matrix of
    values. The B permutations are drawn once per call, each from its own
    child stream make_rng(seed, replicate), and every classifier is scored
    against the same ones, so a classifier's p-value does not depend on which
    others share the call. The optimal_threshold classifiers share one walk
    over the sorted values (_best_counts).
    """
    if B < MIN_PERMUTATIONS:
        raise ConfigError(f"need at least {MIN_PERMUTATIONS} permutations, got {B}")
    classifiers = list(classifiers)
    if isinstance(coefficients, tf.CoefficientTable):
        X = np.empty((coefficients.n_examples, len(classifiers)))
        for j, c in enumerate(classifiers):
            X[:, j] = classifier_values(coefficients, c)
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
    best = np.empty((len(classifiers), B + 1), dtype=np.int64)
    walked = [j for j, c in enumerate(classifiers) if c.mode != PSVM_BIAS]
    if walked:
        best[walked] = _best_counts(X[:, walked], plus_rows)
    for j, c in enumerate(classifiers):
        if c.mode == PSVM_BIAS:
            plus = _fixed_counts(X[:, j], plus_rows, c.b)
            best[j] = np.maximum(plus, l - plus)
    return [float((1 + int(np.sum(row[1:] >= row[0]))) / (B + 1)) for row in best]


def select_significant(classifiers, min_accuracy: float = 0.75, alpha: float = 0.1):
    """Keep classifiers with training accuracy >= min_accuracy AND p <= alpha.

    Classifiers without a p_value cannot be certified and are dropped.
    """
    return [
        c
        for c in classifiers
        if c.train_accuracy >= min_accuracy
        and c.p_value is not None
        and c.p_value <= alpha
    ]


def support_histogram(classifiers, signal_length: int):
    """Per-level coverage counts: how many classifiers' supports hit each sample."""
    counts = {}
    for c in classifiers:
        arr = counts.setdefault(c.level, np.zeros(signal_length, dtype=int))
        for i in c.support:
            arr[i - 1] += 1
    return dict(sorted(counts.items()))
