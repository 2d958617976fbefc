"""Classifier, ensemble, and significance tests.

fit_thresholds is checked against a brute-force scan written independently
(every candidate threshold, both orientations, explicit counting), column by
column. The permutation-test calibration fixture is fully seeded, so its
rejection rates are deterministic; the asserted band is wide because with
100 examples the correct-count statistic lives on an integer lattice, which
makes the exact test conservative (measured 0.10-0.12 at the frozen seeds
against the 0.10 nominal level).
"""

import tracemalloc

import numpy as np
import pytest

from discwave.core import (
    VARIANTS,
    ConfigError,
    DataError,
    SignalDataset,
    TransformConfig,
    make_rng,
)
from discwave import transform as tf
from discwave import evaluation as ev
from discwave.datasets import ShapeSpec, WaveformSpec, generate_shape, generate_waveform


def brute_force_threshold(values, labels):
    """All candidate thresholds x both orientations, explicit loops.

    Candidates: the minimum as it first occurs in the column (so a -0.0/0.0
    minimum keeps its sign) and, between distinct consecutive values a < c,
    their midpoint, or c where the midpoint rounds outside (a, c].
    """
    v = np.sort(np.unique(values))
    cands = [next(x for x in values.tolist() if x == v[0])]
    for a, c in zip(v[:-1].tolist(), v[1:].tolist()):
        mid = 0.5 * (a + c)
        cands.append(mid if a < mid <= c else c)
    best = {1: (-1, None), -1: (-1, None)}
    for s in (1, -1):
        for b in cands:
            pred = s * np.where(values >= b, 1.0, -1.0)
            count = int(np.sum(pred == labels))
            cur_count, cur_b = best[s]
            if count > cur_count or (
                count == cur_count
                and (abs(b), b) < (abs(cur_b), cur_b)
            ):
                best[s] = (count, b)
    if best[1][0] >= best[-1][0]:
        return best[1][1], 1, best[1][0]
    return best[-1][1], -1, best[-1][0]


def fake_merged(detail_matrix):
    """The merged matrix of a 1-level transform with these details."""
    D = np.asarray(detail_matrix, dtype=float)
    return np.hstack([np.zeros_like(D), D])


def fake_set(k, b=0.0, s=1, level=1, count=0, mode=ev.OPTIMAL_THRESHOLD,
             p_value=None, support=None, n_train=1):
    """Classifiers at positions `k` (a list); a scalar field is the same for
    every row. The default support is sample 1 of a 2 * max(k)-sample
    transform, as wide as fake_merged's for level 1."""
    k = np.asarray(k, dtype=int)

    def rows(value, dtype):
        return np.broadcast_to(np.asarray(value, dtype=dtype), k.shape).copy()

    if support is None:
        support = np.zeros((k.size, 2 * k.max(initial=1)), dtype=bool)
        support[:, 0] = True
    return ev.ClassifierSet(
        level=rows(level, int), k=k, b=rows(b, float), s=rows(s, int),
        count=rows(count, int), support=np.asarray(support, dtype=bool), mode=mode,
        n_train=n_train, p_value=None if p_value is None else rows(p_value, float),
    )


def check_against_brute_force(X, labels):
    """fit_thresholds against brute_force_threshold on every column: the
    counts, orientations and every bit of b (the sign of a zero included),
    and the count is what the returned classifier really scores."""
    b, s, c = ev.fit_thresholds(X, labels)
    assert b.shape == s.shape == c.shape == (X.shape[1],)
    for j in range(X.shape[1]):
        b_o, s_o, c_o = brute_force_threshold(X[:, j], labels)
        assert (c[j], s[j]) == (c_o, s_o), j
        assert np.float64(b[j]).tobytes() == np.float64(b_o).tobytes(), (j, b[j], b_o)
        pred = s[j] * np.where(X[:, j] >= b[j], 1.0, -1.0)
        assert int(np.sum(pred == labels)) == c[j]


def test_fit_threshold_matches_brute_force():
    rng = np.random.default_rng(30)
    eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    for trial in range(40):
        l = int(rng.integers(3, 40))
        X = np.column_stack([
            rng.normal(size=l),
            rng.integers(-3, 4, size=l).astype(float),
            rng.choice([-0.0, 0.0, 1.0, 2.5], size=l),  # signed zeros at the minimum
            rng.choice([-0.0, 0.0], size=l),  # one value, two signs
            1.0 + eps * rng.integers(0, 3, size=l),  # adjacent floats: midpoints round
            1.0 - eps / 2 * rng.integers(0, 3, size=l),  # onto the lower or upper value
            tiny * rng.integers(-2, 3, size=l),  # adjacent subnormals around zero
            np.full(l, 0.7),  # constant
        ])
        labels = np.where(rng.random(l) < 0.5, 1.0, -1.0)
        if trial % 5 == 0:
            labels[:] = 1.0 if trial % 2 else -1.0  # one class only
        check_against_brute_force(X, labels)


def test_fit_threshold_candidates_keep_every_split():
    # A midpoint that rounds onto the lower value, or overflows, is replaced
    # by the upper value, so the split it stands for still separates.
    eps = np.finfo(float).eps
    for values in ([1.0, 1.0 + eps], [1e308, 1.5e308], [-1.5e308, -1e308]):
        X = np.array(values)[:, None]
        b, s, c = ev.fit_thresholds(X, np.array([-1.0, 1.0]))
        assert (b.tolist(), s.tolist(), c.tolist()) == ([values[1]], [1], [2])
        check_against_brute_force(X, np.array([-1.0, 1.0]))


def test_fit_thresholds_blocks_agree_with_one_block(monkeypatch):
    # Columns are fitted in blocks of FIT_BLOCK_CELLS values; the block
    # boundaries must not change any column's fit, the sign of b included.
    rng = np.random.default_rng(31)
    X = rng.integers(-3, 4, size=(50, 9)) * rng.choice([-0.0, 0.5], size=(50, 9))
    X[:, 4] = rng.normal(size=50)
    labels = np.where(rng.random(50) < 0.5, 1.0, -1.0)
    whole = ev.fit_thresholds(X, labels)
    for cells in (50, 3 * 50, 4 * 50 - 1):  # one, three and three columns per block
        monkeypatch.setattr(ev, "FIT_BLOCK_CELLS", cells)
        for a, b in zip(ev.fit_thresholds(X, labels), whole):
            assert a.tobytes() == b.tobytes()
    check_against_brute_force(X, labels)


def test_fit_thresholds_checks_x_and_labels():
    # One +/-1 label per row of a non-empty matrix; one class is allowed.
    X = np.arange(30.0).reshape(10, 3)
    for labels in (np.ones(12), np.ones(8), np.ones((10, 1))):
        with pytest.raises(DataError, match="labels must have shape \\(10,\\)"):
            ev.fit_thresholds(X, labels)
    # Strings, bools and objects are not numbers, even where they read as +/-1.
    for labels in (np.tile([0.0, 1.0], 5), np.tile([-2.0, 2.0], 5), ["-1", "1"] * 5,
                   [True] * 10, np.ones(10, dtype=object)):
        with pytest.raises(DataError, match="labels must be -1 or \\+1"):
            ev.fit_thresholds(X, labels)
    for bad in (X[:, 0], X[None], X[:0]):
        with pytest.raises(DataError, match="X must be a 2-D matrix"):
            ev.fit_thresholds(bad, np.ones(len(bad)))
    assert ev.fit_thresholds(X, -np.ones(10))[2].tolist() == [10, 10, 10]


def test_threshold_simple_separation():
    values = np.array([-2.0, -1.0, 1.0, 2.0])
    labels = np.array([-1.0, -1.0, 1.0, 1.0])
    b, s, c = ev.fit_thresholds(values[:, None], labels)
    assert (b.tolist(), s.tolist(), c.tolist()) == ([0.0], [1], [4])
    # A value exactly at b is predicted +1.
    at_b = ev.evaluate_classifiers(fake_set([1], b=0.0, s=1), fake_merged([[0.0]]), [1.0])
    assert at_b.test_accuracy.tolist() == [1.0]


def test_threshold_all_equal_values_majority():
    X = np.full((5, 1), 3.3)
    fits = [
        ev.fit_thresholds(X, np.array(y))
        for y in ([1.0, 1.0, 1.0, -1.0, -1.0], [1.0, -1.0, -1.0, -1.0, 1.0])
    ]
    assert [tuple(a.tolist() for a in fit) for fit in fits] == [
        ([3.3], [1], [3]),
        ([3.3], [-1], [3]),
    ]


def waveform_pair(per_class, seed):
    return generate_waveform(WaveformSpec(per_class_count=per_class, seed=seed)).restrict_pair(1, 2)


def test_optimal_threshold_dominates_psvm_bias():
    ds = waveform_pair(30, 201)
    cfg = TransformConfig(levels=2, window=4, nu=1.0, variant="nonregularised")
    fitted, coeffs = tf.fit(ds, cfg)
    by_psvm = ev.make_local_classifiers(coeffs, ds.labels, fitted, mode=ev.PSVM_BIAS)
    by_scan = ev.make_local_classifiers(coeffs, ds.labels, fitted, mode=ev.OPTIMAL_THRESHOLD)
    assert len(by_psvm) == len(by_scan) == 16 + 8
    assert np.array_equal(by_scan.level, by_psvm.level)
    assert np.array_equal(by_scan.k, by_psvm.k)
    assert np.all(by_scan.train_accuracy >= by_psvm.train_accuracy)
    gamma = [fitted.levels[m - 1][k - 1].gamma for m, k in zip(by_psvm.level, by_psvm.k)]
    assert by_psvm.b.tolist() == gamma
    # The psvm_bias count is the explicit count of s * sign(d - b).
    pred = by_psvm.s * np.where(coeffs[:, by_psvm.columns] >= by_psvm.b, 1.0, -1.0)
    assert np.array_equal(np.sum(pred == ds.labels[:, None], axis=0), by_psvm.count)


def test_make_local_classifiers_validation():
    ds = waveform_pair(10, 202)
    cfg = TransformConfig(levels=1, window=4, nu=1.0, variant="nonregularised")
    fitted, coeffs = tf.fit(ds, cfg)
    with pytest.raises(ConfigError):
        ev.make_local_classifiers(coeffs, ds.labels, fitted, mode="midpoint")
    # Labels are checked as permutation_test checks them: one +/-1 label
    # per row and both classes present.
    bad_labels = {
        "labels must have shape": [None, ds.labels[:-1]],
        "labels must be -1 or \\+1": [np.where(ds.labels > 0, 2.0, -1.0)],
        "at least one example of each label": [np.ones(ds.n_examples)],
    }
    for message, cases in bad_labels.items():
        for labels in cases:
            with pytest.raises(DataError, match=message):
                ev.make_local_classifiers(coeffs, labels, fitted)
    # A matrix of another width would fit thresholds to the wrong columns.
    for merged in (coeffs[:, :16], np.hstack([coeffs, coeffs])):
        with pytest.raises(DataError, match="must be an l x 32 matrix"):
            ev.make_local_classifiers(merged, ds.labels, fitted)
    clfs = ev.make_local_classifiers(coeffs, ds.labels, fitted)
    assert clfs.names[:2] == ["d1_1", "d1_2"]
    assert clfs.support.shape == (16, 32) and np.all(clfs.support.any(axis=1))
    assert np.all((0.0 <= clfs.train_accuracy) & (clfs.train_accuracy <= 1.0))
    # Rows follow the merged columns, so the set reads the detail block as is.
    assert clfs.columns.tolist() == list(range(16, 32))


def test_make_local_classifiers_rows_follow_merged_columns():
    ds = waveform_pair(10, 202)
    cfg = TransformConfig(levels=3, window=2, nu=1.0, variant="nonregularised")
    fitted, coeffs = tf.fit(ds, cfg)
    clfs = ev.make_local_classifiers(coeffs, ds.labels, fitted)
    names = [name for name, _, _, _ in fitted.column_layout()]
    assert clfs.names == names[4:]
    assert clfs.columns.tolist() == list(range(4, 32))
    layout = fitted.column_layout()
    assert [layout[j][2:] for j in clfs.columns] == list(zip(clfs.level.tolist(), clfs.k.tolist()))
    b, s, count = ev.fit_thresholds(coeffs[:, 4:], ds.labels)
    assert np.array_equal(clfs.b, b) and np.array_equal(clfs.s, s)
    assert np.array_equal(clfs.count, count)
    assert np.array_equal(clfs.train_accuracy, count / ds.n_examples)
    analysis = tf.base_vectors(fitted).analysis[4:]
    assert np.array_equal(clfs.support, np.abs(analysis) > tf.SUPPORT_ATOL)


def test_rank_classifiers_order_and_ties():
    clfs = fake_set([2, 1, 1, 3], count=[18, 19, 18, 18], level=[2, 1, 2, 1], n_train=20)
    ranked = ev.rank_classifiers(clfs)
    got = zip(ranked.train_accuracy.tolist(), ranked.level.tolist(), ranked.k.tolist())
    assert list(got) == [
        (0.95, 1, 1),
        (0.9, 1, 3),
        (0.9, 2, 1),
        (0.9, 2, 2),
    ]


def test_evaluate_classifiers_sets_test_accuracy():
    merged = fake_merged([[1.0, 1.0], [-1.0, -1.0], [2.0, 2.0]])
    clfs = fake_set([1, 2], b=0.0, s=[1, -1])
    out = ev.evaluate_classifiers(clfs, merged, [1.0, -1.0, -1.0])
    assert clfs.test_accuracy is None  # the set is frozen; the result is a new one
    assert out.test_accuracy == pytest.approx([2.0 / 3.0, 1.0 / 3.0])
    assert np.array_equal(out.b, clfs.b)
    # One label per row; a single class is fine, as a test set may hold one.
    one_class = ev.evaluate_classifiers(clfs, merged, [-1.0, -1.0, -1.0])
    assert one_class.test_accuracy == pytest.approx([1.0 / 3.0, 2.0 / 3.0])
    for labels in (None, [1.0, -1.0], [1.0, -1.0, -1.0, 1.0], [[1.0, -1.0, -1.0]]):
        with pytest.raises(DataError, match="labels must have shape \\(3,\\)"):
            ev.evaluate_classifiers(clfs, merged, labels)
    for labels in ([1.0, 0.0, 0.0], [2.0, -2.0, -2.0]):
        with pytest.raises(DataError, match="labels must be -1 or \\+1"):
            ev.evaluate_classifiers(clfs, merged, labels)


def test_vote_single_member_matches_classifier():
    ds = waveform_pair(25, 203)
    cfg = TransformConfig(levels=2, window=4, nu=1.0, variant="nonregularised")
    fitted, coeffs = tf.fit(ds, cfg)
    best = ev.rank_classifiers(ev.make_local_classifiers(coeffs, ds.labels, fitted))[:1]
    report = ev.vote(best, coeffs)
    names = [name for name, _, _, _ in fitted.column_layout()]
    values = coeffs[:, names.index(best.names[0])]
    pred = best.s[0] * np.where(values >= best.b[0], 1.0, -1.0)
    assert np.array_equal(report.outcome, pred)
    assert float(np.mean(report.outcome != ds.labels)) == pytest.approx(
        1.0 - float(best.train_accuracy[0])
    )
    assert report.n_unclassified == 0
    assert report.votes.shape == (ds.n_examples, 1)


def test_vote_margin_tiebreak_and_unclassified():
    # Two members, three examples: margins break the first two vote ties, the
    # third stays tied and counts as an error.
    merged = fake_merged([[1.0, -0.5], [-2.0, 1.0], [1.5, -1.5]])
    report = ev.vote(fake_set([1, 2]), merged)
    assert np.array_equal(report.outcome, [1.0, -1.0, 0.0])
    assert report.n_unclassified == 1
    assert float(np.mean(report.outcome != [1.0, -1.0, 1.0])) == pytest.approx(1.0 / 3.0)


def test_vote_empty_members_rejected():
    with pytest.raises(ConfigError):
        ev.vote(fake_set([1])[:0], fake_merged([[1.0]]))


def test_evaluate_classifiers_and_vote_need_at_least_one_row():
    # Zero rows used to score NaN test accuracies ("Mean of empty slice").
    ds = waveform_pair(10, 202)
    cfg = TransformConfig(levels=2, window=4, nu=1.0, variant="nonregularised")
    fitted, coeffs = tf.fit(ds, cfg)
    clfs = ev.make_local_classifiers(coeffs, ds.labels, fitted)
    message = "must be an l x 32 matrix with at least one row"
    with pytest.raises(DataError, match=message):
        ev.evaluate_classifiers(clfs, coeffs[:0], ds.labels[:0])
    with pytest.raises(DataError, match=message):
        ev.vote(clfs[:3], coeffs[:0])


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_non_finite_coefficient_is_a_data_error(value):
    # It used to become a classifier, an accuracy, a vote or a p-value.
    ds = waveform_pair(10, 202)
    cfg = TransformConfig(levels=2, window=4, nu=1.0, variant="nonregularised")
    fitted, coeffs = tf.fit(ds, cfg)
    clfs = ev.make_local_classifiers(coeffs, ds.labels, fitted)
    bad = coeffs.copy()
    bad[3, 8] = value  # d2_1, the first detail column: in every ranked subset
    calls = {
        "coefficients": [
            lambda: ev.make_local_classifiers(bad, ds.labels, fitted),
            lambda: ev.make_local_classifiers(bad, ds.labels, fitted, mode=ev.PSVM_BIAS),
            lambda: ev.evaluate_classifiers(clfs, bad, ds.labels),
            lambda: ev.vote(clfs[:3], bad),
        ],
        "values": [lambda: ev.permutation_test(clfs, bad[:, clfs.columns], ds.labels, 100, 1)],
        "X": [lambda: ev.fit_thresholds(bad[:, 8:], ds.labels)],
    }
    for what, cases in calls.items():
        for call in cases:
            with pytest.raises(DataError, match=f"^{what} contains non-finite values$"):
                call()


def test_permutation_test_rejects_a_seed_that_is_not_a_non_negative_integer():
    # seed=1.7 used to give seed 1's p-values.
    labels = np.array([-1.0, 1.0, 1.0, -1.0])
    clfs = fake_set([1])
    values = np.array([[0.0], [1.0], [2.0], [3.0]])
    for seed in (1.7, -1):
        with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
            ev.permutation_test(clfs, values, labels, B=100, seed=seed)


def test_vote_and_evaluate_classifiers_check_the_matrix_width():
    # Narrower than N would index past the matrix; wider would be read on its
    # first N columns as if they were the set's.
    ds = waveform_pair(10, 202)
    cfg = TransformConfig(levels=2, window=4, nu=1.0, variant="nonregularised")
    fitted, coeffs = tf.fit(ds, cfg)
    clfs = ev.make_local_classifiers(coeffs, ds.labels, fitted)
    for merged in (coeffs[:, :16], np.hstack([coeffs, coeffs])):
        with pytest.raises(DataError, match="must be an l x 32 matrix"):
            ev.vote(clfs[:3], merged)
        with pytest.raises(DataError, match="must be an l x 32 matrix"):
            ev.evaluate_classifiers(clfs, merged, ds.labels)


def test_vote_profile_groups():
    report = ev.vote(fake_set([1, 2]), fake_merged([[2.0, 3.0], [-1.0, -2.0], [1.0, -1.0]]))
    assert ev.vote_profile(report) == [
        (1.0, ev.RED),
        (-1.0, ev.BLUE),
        (0.0, ev.GREEN),
    ]


def test_perfect_separator_has_tiny_p_value():
    rng = make_rng(301)
    labels = np.array([1.0] * 10 + [-1.0] * 10)
    values = labels + 0.01 * rng.standard_normal(20)
    [p] = ev.permutation_test(fake_set([1]), values[:, None], labels, B=999, seed=302)
    assert p <= 0.005


def test_permutation_test_requires_enough_replicates():
    values = np.array([0.0, 1.0])
    labels = np.array([-1.0, 1.0])
    for B in (0, 99):
        with pytest.raises(ConfigError):
            ev.permutation_test(fake_set([1]), values[:, None], labels, B=B, seed=0)


def test_permutation_test_deterministic_per_seed():
    rng = make_rng(303)
    values = rng.standard_normal(40)
    labels = np.where(rng.random(40) < 0.5, 1.0, -1.0)
    labels[:2] = (1.0, -1.0)
    for mode in ev.MODES:
        clf = fake_set([1], b=0.0, mode=mode)
        p1 = ev.permutation_test(clf, values[:, None], labels, B=199, seed=7)
        p2 = ev.permutation_test(clf, values[:, None], labels, B=199, seed=7)
        assert p1.tolist() == p2.tolist()


def reference_p_value(values, labels, mode, b, B, seed):
    """Per-permutation loop with explicit counting, one coefficient at a time."""
    l = labels.size

    def statistic(y):
        if mode == ev.PSVM_BIAS:
            count = int(np.sum(np.where(values >= b, 1.0, -1.0) == y))
            return max(count, l - count)
        return brute_force_threshold(values, y)[2]

    observed = statistic(labels)
    hits = sum(
        statistic(labels[make_rng(seed, r).permutation(l)]) >= observed
        for r in range(B)
    )
    return (1 + hits) / (B + 1)


def test_permutation_test_matches_per_coefficient_reference():
    rng = make_rng(304)
    l = 30
    labels = np.where(rng.random(l) < 0.5, 1.0, -1.0)
    labels[:2] = (1.0, -1.0)
    X = np.column_stack([
        labels + 0.8 * rng.standard_normal(l),  # informative
        rng.standard_normal(l),  # noise
        rng.integers(-2, 3, size=l).astype(float),  # heavily tied
        np.where(labels > 0, 1.0, 0.0),  # two tied blocks, perfect split
    ])
    for mode in ev.MODES:
        classifiers = fake_set([1, 2, 3, 4], b=0.25, mode=mode)
        got = ev.permutation_test(classifiers, X, labels, B=120, seed=11)
        want = [reference_p_value(X[:, j], labels, mode, 0.25, 120, 11) for j in range(4)]
        assert got.tolist() == want


def test_permutation_test_walk_matches_reference_ties_and_mixed_modes():
    # A set has one mode, so one call per mode against the same reference:
    # an odd l, heavy ties, a constant column and fixed thresholds below the
    # minimum and above the maximum.
    rng = make_rng(306)
    l = 31
    labels = np.where(rng.random(l) < 0.5, 1.0, -1.0)
    labels[:2] = (1.0, -1.0)
    X = np.column_stack([
        labels + 0.8 * rng.standard_normal(l),  # informative
        rng.standard_normal(l),  # noise
        rng.integers(-2, 3, size=l).astype(float),  # heavily tied
        np.full(l, 0.7),  # constant
        np.where(labels > 0, 1.0, 0.0),  # two tied blocks, perfect split
        rng.integers(0, 2, size=l) * 2.0 - 1.0,  # two values
        rng.standard_normal(l),  # noise, psvm_bias below the minimum
        rng.integers(-2, 3, size=l).astype(float),  # tied, psvm_bias above the maximum
    ])
    spec = [
        (ev.OPTIMAL_THRESHOLD, 0.0), (ev.PSVM_BIAS, 0.1), (ev.OPTIMAL_THRESHOLD, 0.0),
        (ev.OPTIMAL_THRESHOLD, 0.0), (ev.PSVM_BIAS, 0.5), (ev.OPTIMAL_THRESHOLD, 0.0),
        (ev.PSVM_BIAS, -10.0), (ev.PSVM_BIAS, 10.0),
    ]
    got = np.empty(len(spec))
    for mode in ev.MODES:
        cols = [j for j, (m, _) in enumerate(spec) if m == mode]
        classifiers = fake_set(np.add(cols, 1), b=[spec[j][1] for j in cols], mode=mode)
        got[cols] = ev.permutation_test(classifiers, X[:, cols], labels, B=120, seed=12)
    want = [reference_p_value(X[:, j], labels, m, b, 120, 12) for j, (m, b) in enumerate(spec)]
    assert got.tolist() == want
    assert got[6] == got[7] == 1.0  # one predicted side for every labelling


def test_permutation_test_blocks_agree_with_one_block(monkeypatch):
    # Labellings are drawn and counted in blocks of NULL_BLOCK_CELLS // (l + K)
    # of them, observed first. Blocks of 1, 7 and all 121 labellings (121 is
    # no multiple of 7) must give the one-block p-values bit for bit, from the
    # same draws in the same order, in both modes.
    rng = make_rng(309)
    l, K, B = 31, 4, 120
    labels = np.where(rng.random(l) < 0.5, 1.0, -1.0)
    labels[:2] = (1.0, -1.0)
    X = np.column_stack([
        labels + 0.8 * rng.standard_normal(l),  # informative
        rng.integers(-2, 3, size=l).astype(float),  # heavily tied
        np.full(l, 0.7),  # constant
        rng.standard_normal(l),  # noise
    ])
    assert ev.NULL_BLOCK_CELLS // (l + K) >= B + 1  # the default is one block
    draws = []

    def counting_make_rng(*args):
        draws.append(args)
        return make_rng(*args)

    sets = [fake_set(np.arange(1, K + 1), b=[0.1, 0.5, 0.7, -10.0], mode=m) for m in ev.MODES]
    whole = [ev.permutation_test(c, X, labels, B=B, seed=13) for c in sets]
    monkeypatch.setattr(ev, "make_rng", counting_make_rng)
    for cells in (l + K, 8 * (l + K) - 1, (B + 1) * (l + K)):  # 1, 7, all
        monkeypatch.setattr(ev, "NULL_BLOCK_CELLS", cells)
        for classifiers, want in zip(sets, whole):
            draws.clear()
            got = ev.permutation_test(classifiers, X, labels, B=B, seed=13)
            assert got.tobytes() == want.tobytes(), (classifiers.mode, cells)
            assert draws == [(13, r) for r in range(B)]


@pytest.mark.parametrize("mode", ev.MODES)
def test_permutation_test_memory_does_not_grow_with_the_permutations(mode):
    # At l = 400, K = 112 and B = 9999 the null goes in blocks of 1024
    # labellings, and peaks near 3 MiB in either mode; holding all B + 1
    # labellings with their int64 counts took 43-46 MiB.
    rng = make_rng(310)
    l, K = 400, 112
    X = rng.standard_normal((l, K))
    labels = np.where(rng.random(l) < 0.5, 1.0, -1.0)
    classifiers = fake_set(np.arange(1, K + 1), b=0.1, mode=mode)
    tracemalloc.start()
    try:
        ev.permutation_test(classifiers, X, labels, B=9999, seed=14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


def check_best_counts(X, plus_rows):
    """_best_counts against fit_thresholds' counts, labelling by labelling
    (the fit and the null count the same thing); column 0 of the result is
    the observed labelling."""
    best = ev._best_counts(X, plus_rows)
    assert best.shape == (X.shape[1], plus_rows.shape[0])
    for r, plus in enumerate(plus_rows):
        y = np.where(plus, 1.0, -1.0)
        assert best[:, r].tolist() == ev.fit_thresholds(X, y)[2].tolist(), r
    return best


def test_best_counts_match_fit_threshold_on_every_labelling():
    rng = make_rng(307)
    l = 57
    X = rng.standard_normal((l, 12))
    X[:, 3] = rng.integers(-3, 4, size=l)
    X[:, 5] = 2.5
    X[:, 8] = rng.integers(0, 2, size=l)
    X[:, 10] = np.round(X[:, 10], 1)
    plus_rows = rng.random((40, l)) < 0.5
    plus_rows[1] = False  # one class only: the walk takes any labelling
    plus_rows[2] = True
    check_best_counts(X, plus_rows)


@pytest.mark.parametrize("l", [2 ** 15, 2 ** 15 + 1])
def test_best_counts_at_the_int16_limit(l):
    # The walk stores W = c - 2 pos in int16 below l = 2**15 and in int32
    # from there. At l = 2**15 + 1 a labelling that puts l - 1 labels of one
    # class first drives |W| to 2**15, one past int16; at l = 2**15 the
    # best count itself is 2**15.
    rng = make_rng(308)
    X = np.column_stack([
        np.arange(l, dtype=float),
        rng.integers(-50, 50, size=l).astype(float),
    ])
    plus_rows = np.zeros((3, l), dtype=bool)
    plus_rows[0, -1] = True
    plus_rows[1] = rng.random(l) < 0.5
    plus_rows[2] = ~plus_rows[0]
    best = check_best_counts(X, plus_rows)
    assert best[0, [0, 2]].tolist() == [l, l]


def test_permutation_test_draws_each_permutation_once(monkeypatch):
    draws = []

    def counting_make_rng(*args):
        draws.append(args)
        return make_rng(*args)

    monkeypatch.setattr(ev, "make_rng", counting_make_rng)
    rng = make_rng(305)
    X = rng.standard_normal((25, 5))
    labels = np.where(np.arange(25) % 2 == 0, 1.0, -1.0)
    p_values = ev.permutation_test(fake_set([1, 2, 3, 4, 5]), X, labels, B=150, seed=9)
    assert len(p_values) == 5
    assert draws == [(9, r) for r in range(150)]


def test_permutation_test_coefficient_shapes():
    labels = np.array([-1.0, 1.0, 1.0])
    with pytest.raises(DataError):
        ev.permutation_test(fake_set([1, 1]), np.zeros((3, 1)), labels, B=100, seed=0)
    empty = fake_set([1])[:0]
    values = fake_merged(np.zeros((3, 1)))[:, empty.columns]
    assert ev.permutation_test(empty, values, labels, B=100, seed=0).tolist() == []


def test_null_calibration_both_modes():
    # Deterministic frozen fixture: values and labels independent, so the
    # rejection rate at alpha = 0.1 should sit near 0.1. The integer-count
    # lattice makes the exact test conservative at l = 100; the frozen seeds
    # measure 0.12 (optimal_threshold) and 0.10 (psvm_bias). The band is wide
    # enough to ride out discreteness but fails on anti-conservative bugs.
    def rate(mode):
        rejections = 0
        for i in range(100):
            rng = make_rng(920, i)
            values = rng.standard_normal(100)
            labels = np.where(rng.random(100) < 0.5, 1.0, -1.0)
            if np.all(labels == labels[0]):
                labels[0] = -labels[0]
            [p] = ev.permutation_test(
                fake_set([1], b=0.0, mode=mode), values[:, None], labels, B=199,
                seed=1000000 + i,
            )
            rejections += p <= 0.1
        return rejections / 100.0

    assert 0.03 <= rate(ev.OPTIMAL_THRESHOLD) <= 0.20
    assert 0.03 <= rate(ev.PSVM_BIAS) <= 0.20


def noise_rejection_rates(variant):
    """Rates of p <= 0.1 under a transform fitted to noise: (its fit rows, fresh rows).

    Each of 60 trials fits a 2-level, window-4 transform to 40 noise signals
    of 32 samples with random balanced labels, then on the fit's rows and on
    40 fresh rows it never saw refits the thresholds and computes p-values
    (B = 199) of all 24 detail coefficients.
    """
    config = TransformConfig(levels=2, window=4, nu=1.0, variant=variant)
    rejections = {"fit": 0, "fresh": 0}
    for i in range(60):
        rng = make_rng(940, i)
        train, fresh = (
            SignalDataset(signals=rng.standard_normal((40, 32)),
                          class_ids=rng.permutation(np.repeat([1, 2], 20)))
            for _ in range(2)
        )
        fitted, merged = tf.fit(train, config)
        for rows, coeffs, y in (("fit", merged, train.labels),
                                ("fresh", tf.apply(fitted, fresh.signals), fresh.labels)):
            clfs = ev.make_local_classifiers(coeffs, y, fitted)
            p = ev.permutation_test(clfs, coeffs[:, clfs.columns], y, B=199, seed=1000000 + i)
            rejections[rows] += int(np.sum(p <= 0.1))
    return rejections["fit"] / (60 * 24), rejections["fresh"] / (60 * 24)


@pytest.mark.parametrize("variant", VARIANTS)
def test_held_out_null_calibration_both_variants(variant):
    # The permutation null keeps the fitted transform, so its p-values hold
    # their level only on rows the fit never saw. The band is binomial: from
    # 1440 p-values, one standard deviation of the rate is 0.008 near 0.1 and
    # 0.0065 near 0.065. A valid test may sit below alpha but not above it,
    # so the upper end is alpha plus 4 sd; at l = 40 the count lattice makes
    # the exact test conservative, so the lower end is the frozen seeds'
    # rates (0.063 regularised, 0.067 nonregularised) less 4 sd, rounded down.
    fit_rate, fresh_rate = noise_rejection_rates(variant)
    assert 0.03 <= fresh_rate <= 0.13, fresh_rate
    # On the fit's own rows the same seeds measure 0.54 and 0.17: each
    # coefficient is a discriminant fitted to these labels.
    assert fit_rate > 0.13, fit_rate


def test_select_significant_filters():
    # Rows: keep, low accuracy, high p.
    clfs = fake_set([1, 2, 3], count=[8, 7, 9], n_train=10, p_value=[0.05, 0.01, 0.2])
    assert ev.select_significant(clfs).tolist() == [True, False, False]
    assert ev.select_significant(clfs, min_accuracy=0.6).tolist() == [True, True, False]
    assert ev.select_significant(clfs, alpha=0.5).tolist() == [True, False, True]
    no_p = fake_set([4], count=9, n_train=10)
    assert ev.select_significant(no_p).tolist() == [False]


def test_support_histogram():
    support = np.zeros((3, 8), dtype=bool)
    support[0, 2:5] = support[1, 2:4] = support[2, 3] = True
    clfs = fake_set([1, 2, 1], level=[1, 2, 1], support=support)
    hist = ev.support_histogram(clfs[:2])
    assert set(hist) == {1, 2}
    assert np.array_equal(hist[1], [0, 0, 1, 1, 1, 0, 0, 0])
    assert np.array_equal(hist[2], [0, 0, 1, 1, 0, 0, 0, 0])
    assert np.array_equal(ev.support_histogram(clfs)[1], [0, 0, 1, 2, 1, 0, 0, 0])
    assert ev.support_histogram(clfs[:0]) == {}


def test_ovo_two_classes_equals_binary_pipeline():
    train = generate_waveform(WaveformSpec(per_class_count=25, seed=204)).restrict_pair(1, 2)
    test = generate_waveform(WaveformSpec(per_class_count=40, seed=205)).restrict_pair(1, 2)
    cfg = TransformConfig(levels=2, window=4, nu=1.0, variant="nonregularised")
    top_t = 5

    report = ev.one_against_one(train, test, cfg, top_t=[top_t])[top_t]
    assert set(report.pair_errors) == {(1, 2)}

    fitted, coeffs = tf.fit(train, cfg)
    members = ev.rank_classifiers(ev.make_local_classifiers(coeffs, train.labels, fitted))[:top_t]
    binary = ev.vote(members, tf.apply(fitted, test.signals))
    # The duel's outcome, read back: unclassified rows, and -1 -> 1, +1 -> 2.
    assert np.array_equal(report.classified, binary.outcome != 0)
    assert np.array_equal(report.predictions, np.where(binary.outcome > 0, 2, 1))
    misclassification = float(np.mean(binary.outcome != test.labels))
    assert report.pair_errors[(1, 2)] == misclassification
    assert report.overall_error == misclassification


def test_ovo_three_classes():
    train = generate_waveform(WaveformSpec(per_class_count=20, seed=206))
    test = generate_waveform(WaveformSpec(per_class_count=15, seed=207))
    cfg = TransformConfig(levels=2, window=4, nu=1.0, variant="nonregularised")
    report = ev.one_against_one(train, test, cfg, top_t=[3])[3]
    assert set(report.pair_errors) == {(1, 2), (1, 3), (2, 3)}
    assert set(np.unique(report.predictions)).issubset({1, 2, 3})
    assert report.predictions.shape == (45,)
    assert 0.0 <= report.overall_error <= 1.0
    # Each pair error is an independent pair fit voting on that pair's test rows.
    for (lo, hi), err in report.pair_errors.items():
        pair_train = train.restrict_pair(lo, hi)
        fitted, coeffs = tf.fit(pair_train, cfg)
        ranked = ev.rank_classifiers(ev.make_local_classifiers(coeffs, pair_train.labels, fitted))
        pair = test.restrict_pair(lo, hi)
        outcome = ev.vote(ranked[:3], tf.apply(fitted, pair.signals)).outcome
        assert err == float(np.mean(outcome != pair.labels))
    # The ensembles should do far better than chance on this easy problem.
    assert report.overall_error < 0.5


def test_ovo_validation_errors(monkeypatch):
    # Every check comes before the first pair fit, of either path.
    train = generate_waveform(WaveformSpec(per_class_count=6, seed=208))
    test = generate_waveform(WaveformSpec(per_class_count=4, seed=209))
    cfg = TransformConfig(levels=1, window=4, nu=1.0, variant="nonregularised")
    fits = []
    monkeypatch.setattr(tf, "fit", lambda *args: fits.append(args))
    monkeypatch.setattr(ev, "fit_raw_psvm", lambda *args: fits.append(args))
    with pytest.raises(ConfigError):
        ev.one_against_one(train, test, cfg, top_t=[0])
    with pytest.raises(ConfigError, match="^top_t needs at least one entry$"):
        ev.one_against_one(train, test, cfg, top_t=[])
    one_class = SignalDataset(signals=train.signals, class_ids=np.ones(train.n_examples, int))
    with pytest.raises(DataError, match="at least two classes"):
        ev.one_against_one(one_class, test, cfg, top_t=[3])
    extra = SignalDataset(
        signals=test.signals, class_ids=np.where(test.class_ids == 3, 4, test.class_ids)
    )
    with pytest.raises(DataError, match="absent from training"):
        ev.one_against_one(train, extra, cfg, top_t=[3])
    with pytest.raises(DataError, match="absent from training"):
        ev.one_against_one_raw_psvm(train, extra, nu=1.0)
    longer = generate_shape(ShapeSpec(per_class_count=4, seed=209))  # 128 samples, not 32
    with pytest.raises(DataError, match="test signal length 128 differs from training's 32"):
        ev.one_against_one(train, longer, cfg, top_t=[3])
    with pytest.raises(DataError, match="test signal length 128 differs from training's 32"):
        ev.one_against_one_raw_psvm(train, longer, nu=1.0)
    assert fits == []


def test_ovo_rejects_top_t_above_the_pair_detail_count(monkeypatch):
    # 32 samples, 2 levels: each pair transform has K = 32 - 32/4 = 24 details,
    # known before any pair is fit.
    train = generate_waveform(WaveformSpec(per_class_count=10, seed=208))
    cfg = TransformConfig(levels=2, window=4, nu=1.0, variant="nonregularised")
    fits = []
    real_fit = tf.fit

    def counting_fit(*args, **kwargs):
        fits.append(args)
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(tf, "fit", counting_fit)
    for top_t in ([1000], [3, 1000], [25]):
        message = f"top_t {max(top_t)} exceeds the 24 detail coefficients"
        with pytest.raises(ConfigError, match=message):
            ev.one_against_one(train, train, cfg, top_t=top_t)
    assert fits == []
    assert set(ev.one_against_one(train, train, cfg, top_t=[24])) == {24}
    assert len(fits) == 3


def test_raw_psvm_separates_offset_clouds():
    rng = make_rng(210)
    a = rng.normal(size=(30, 8)) + 4.0
    b = rng.normal(size=(30, 8)) - 4.0
    signals = np.vstack([a, b])
    labels = np.array([1.0] * 30 + [-1.0] * 30)
    w, gamma = ev.fit_raw_psvm(signals, labels, nu=1.0)
    assert np.array_equal(ev.psvm_predict(w, gamma, signals), labels)


def test_psvm_predict_checks_its_signals():
    # A NaN row used to be predicted -1, and a wrong width failed in matmul.
    w, gamma = np.array([1.0, -1.0]), 0.0
    with pytest.raises(DataError, match="^signals contains non-finite values$"):
        ev.psvm_predict(w, gamma, np.array([[1.0, 0.0], [np.nan, 0.0]]))
    with pytest.raises(DataError, match=r"^signals must be an l x 2 matrix, got shape \(2, 3\)$"):
        ev.psvm_predict(w, gamma, np.ones((2, 3)))


def test_raw_psvm_multiclass_baseline():
    train = generate_waveform(WaveformSpec(per_class_count=30, seed=211))
    test = generate_waveform(WaveformSpec(per_class_count=30, seed=212))
    report = ev.one_against_one_raw_psvm(train, test, nu=1.0)
    assert set(report.pair_errors) == {(1, 2), (1, 3), (2, 3)}
    for (lo, hi), err in report.pair_errors.items():
        tr, pair = train.restrict_pair(lo, hi), test.restrict_pair(lo, hi)
        w, gamma = ev.fit_raw_psvm(tr.signals, tr.labels, nu=1.0)
        assert err == np.mean(ev.psvm_predict(w, gamma, pair.signals) != pair.labels)
    assert 0.0 <= report.overall_error <= 0.5
    assert np.all(report.classified)


def test_duels_by_hand():
    # Rows of classes 1, 2, 3, 1. Row 3 gets no vote from any duel: it
    # predicts the smallest class, 1, which is right, yet counts as an error.
    test = SignalDataset(signals=np.zeros((4, 2)), class_ids=np.array([1, 2, 3, 1]))
    outcomes = {
        (1, 2): np.array([-1.0, 1.0, 0.0, 0.0]),
        (1, 3): np.array([-1.0, 0.0, 1.0, 0.0]),
        (2, 3): np.array([0.0, -1.0, 1.0, 0.0]),
    }
    report = ev._duels([1, 2, 3], outcomes, test)
    assert report.predictions.tolist() == [1, 2, 3, 1]
    assert report.classified.tolist() == [True, True, True, False]
    assert report.overall_error == 0.25
    assert report.pair_errors == {(1, 2): 1 / 3, (1, 3): 1 / 3, (2, 3): 0.0}


def test_duel_pair_without_test_rows_scores_none():
    train = generate_waveform(WaveformSpec(per_class_count=10, seed=213))
    test = generate_waveform(WaveformSpec(per_class_count=5, seed=214))
    ones = test.class_ids == 1
    only_1 = SignalDataset(signals=test.signals[ones], class_ids=test.class_ids[ones])
    cfg = TransformConfig(levels=2, window=4, nu=1.0, variant="nonregularised")
    for report in (
        ev.one_against_one(train, only_1, cfg, top_t=[3])[3],
        ev.one_against_one_raw_psvm(train, only_1, nu=1.0),
    ):
        assert report.pair_errors[(2, 3)] is None
        assert report.pair_errors[(1, 2)] is not None
        assert report.pair_errors[(1, 3)] is not None


def test_classifier_name():
    assert fake_set([7, 1], level=[2, 1]).names == ["d2_7", "d1_1"]
