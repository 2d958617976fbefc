"""Classifier, ensemble, and significance tests.

fit_thresholds is checked against a brute-force scan written independently
(every candidate threshold, both orientations, explicit counting), column by
column. The permutation-test calibration fixture is fully seeded, so its
rejection rates are deterministic; the asserted band is wide because with
100 examples the correct-count statistic lives on an integer lattice, which
makes the exact test conservative (measured 0.10-0.12 at the frozen seeds
against the 0.10 nominal level).
"""

import numpy as np
import pytest

from discwave.core import (
    ConfigError,
    DataError,
    SignalDataset,
    TransformConfig,
    make_rng,
)
from discwave import transform as tf
from discwave import evaluation as ev
from discwave.datasets import WaveformSpec, generate_waveform


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


def fake_table(detail_matrix, labels=None):
    D = np.asarray(detail_matrix, dtype=float)
    return tf.CoefficientTable(
        merged=np.hstack([np.zeros_like(D), D]),
        n_levels=1,
        labels=None if labels is None else np.asarray(labels, dtype=float),
    )


def fake_set(k, b=0.0, s=1, level=1, count=0, mode=ev.OPTIMAL_THRESHOLD,
             p_value=None, support=None, n_train=1):
    """Classifiers at positions `k` (a list); a scalar field is the same for
    every row. The default support is sample 1 of a 2 * max(k)-sample
    transform, as wide as fake_table's for level 1."""
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


def test_threshold_simple_separation():
    values = np.array([-2.0, -1.0, 1.0, 2.0])
    labels = np.array([-1.0, -1.0, 1.0, 1.0])
    b, s, c = ev.fit_thresholds(values[:, None], labels)
    assert (b.tolist(), s.tolist(), c.tolist()) == ([0.0], [1], [4])
    # A value exactly at b is predicted +1.
    at_b = ev.evaluate_classifiers(fake_set([1], b=0.0, s=1), fake_table([[0.0]], labels=[1.0]))
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
    by_psvm = ev.make_local_classifiers(coeffs, fitted, mode=ev.PSVM_BIAS)
    by_scan = ev.make_local_classifiers(coeffs, fitted, mode=ev.OPTIMAL_THRESHOLD)
    assert len(by_psvm) == len(by_scan) == 16 + 8
    assert np.array_equal(by_scan.level, by_psvm.level)
    assert np.array_equal(by_scan.k, by_psvm.k)
    assert np.all(by_scan.train_accuracy >= by_psvm.train_accuracy)
    gamma = [fitted.levels[m - 1][k - 1].gamma for m, k in zip(by_psvm.level, by_psvm.k)]
    assert by_psvm.b.tolist() == gamma
    # The psvm_bias count is the explicit count of s * sign(d - b).
    pred = by_psvm.s * np.where(coeffs.merged[:, by_psvm.columns] >= by_psvm.b, 1.0, -1.0)
    assert np.array_equal(np.sum(pred == coeffs.labels[:, None], axis=0), by_psvm.count)


def test_make_local_classifiers_validation():
    ds = waveform_pair(10, 202)
    cfg = TransformConfig(levels=1, window=4, nu=1.0, variant="nonregularised")
    fitted, coeffs = tf.fit(ds, cfg)
    with pytest.raises(ConfigError):
        ev.make_local_classifiers(coeffs, fitted, mode="midpoint")
    bare = tf.apply(fitted, ds.signals)
    with pytest.raises(DataError):
        ev.make_local_classifiers(bare, fitted)
    clfs = ev.make_local_classifiers(coeffs, fitted)
    assert clfs.names[:2] == ["d1_1", "d1_2"]
    assert clfs.support.shape == (16, 32) and np.all(clfs.support.any(axis=1))
    assert np.all((0.0 <= clfs.train_accuracy) & (clfs.train_accuracy <= 1.0))
    # Rows follow the merged columns, so the set reads the detail block as is.
    assert clfs.columns.tolist() == list(range(16, 32))


def test_make_local_classifiers_rows_follow_merged_columns():
    ds = waveform_pair(10, 202)
    cfg = TransformConfig(levels=3, window=2, nu=1.0, variant="nonregularised")
    fitted, coeffs = tf.fit(ds, cfg)
    clfs = ev.make_local_classifiers(coeffs, fitted)
    names = coeffs.column_names()
    assert clfs.names == names[4:]
    assert clfs.columns.tolist() == list(range(4, 32))
    assert [fitted.column_index(m, k) for m, k in zip(clfs.level, clfs.k)] == list(range(4, 32))
    b, s, count = ev.fit_thresholds(coeffs.merged[:, 4:], coeffs.labels)
    assert np.array_equal(clfs.b, b) and np.array_equal(clfs.s, s)
    assert np.array_equal(clfs.count, count)
    assert np.array_equal(clfs.train_accuracy, count / ds.n_examples)
    analysis = tf.base_vectors(fitted).analysis_supports[4:]
    assert [tuple(np.flatnonzero(row) + 1) for row in clfs.support] == list(analysis)


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
    table = fake_table([[1.0, 1.0], [-1.0, -1.0], [2.0, 2.0]], labels=[1.0, -1.0, -1.0])
    clfs = fake_set([1, 2], b=0.0, s=[1, -1])
    out = ev.evaluate_classifiers(clfs, table)
    assert clfs.test_accuracy is None  # the set is frozen; the result is a new one
    assert out.test_accuracy == pytest.approx([2.0 / 3.0, 1.0 / 3.0])
    assert np.array_equal(out.b, clfs.b)
    with pytest.raises(DataError):
        ev.evaluate_classifiers(clfs, fake_table([[1.0, 1.0]]))


def test_vote_single_member_matches_classifier():
    ds = waveform_pair(25, 203)
    cfg = TransformConfig(levels=2, window=4, nu=1.0, variant="nonregularised")
    fitted, coeffs = tf.fit(ds, cfg)
    best = ev.rank_classifiers(ev.make_local_classifiers(coeffs, fitted))[:1]
    report = ev.vote(best, coeffs)
    values = coeffs.detail(int(best.level[0]))[:, best.k[0] - 1]
    pred = best.s[0] * np.where(values >= best.b[0], 1.0, -1.0)
    assert np.array_equal(report.outcome, pred)
    assert report.misclassification == pytest.approx(
        float(np.mean(pred != coeffs.labels))
    )
    assert report.n_unclassified == 0
    assert report.votes.shape == (ds.n_examples, 1)


def test_vote_margin_tiebreak_and_unclassified():
    # Two members, three examples: margins break the first two vote ties, the
    # third stays tied and counts as an error.
    table = fake_table(
        [[1.0, -0.5], [-2.0, 1.0], [1.5, -1.5]], labels=[1.0, -1.0, 1.0]
    )
    report = ev.vote(fake_set([1, 2]), table)
    assert np.array_equal(report.outcome, [1.0, -1.0, 0.0])
    assert report.n_unclassified == 1
    assert report.misclassification == pytest.approx(1.0 / 3.0)


def test_vote_empty_members_rejected():
    with pytest.raises(ConfigError):
        ev.vote(fake_set([1])[:0], fake_table([[1.0]]))


def test_vote_profile_groups():
    table = fake_table([[2.0, 3.0], [-1.0, -2.0], [1.0, -1.0]])
    report = ev.vote(fake_set([1, 2]), table)
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
    table = fake_table(np.zeros((3, 1)), labels=labels)
    assert ev.permutation_test(fake_set([1])[:0], table, labels, B=100, seed=0).tolist() == []


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
    assert report.classes == (1, 2)
    assert set(report.pair_reports) == {(1, 2)}

    fitted, coeffs = tf.fit(train, cfg)
    members = ev.rank_classifiers(ev.make_local_classifiers(coeffs, fitted))[:top_t]
    table = tf.apply(fitted, test.signals, labels=test.labels)
    binary = ev.vote(members, table)
    assert np.array_equal(report.pair_reports[(1, 2)].outcome, binary.outcome)
    assert report.pair_errors[(1, 2)] == binary.misclassification
    assert report.overall_error == binary.misclassification
    mapped = np.where(binary.outcome < 0, 1, 2)
    classified = binary.outcome != 0
    assert np.array_equal(report.predictions[classified], mapped[classified])


def test_ovo_three_classes():
    train = generate_waveform(WaveformSpec(per_class_count=20, seed=206))
    test = generate_waveform(WaveformSpec(per_class_count=15, seed=207))
    cfg = TransformConfig(levels=2, window=4, nu=1.0, variant="nonregularised")
    report = ev.one_against_one(train, test, cfg, top_t=[3])[3]
    assert report.classes == (1, 2, 3)
    assert set(report.pair_reports) == {(1, 2), (1, 3), (2, 3)}
    assert set(np.unique(report.predictions)).issubset({1, 2, 3})
    assert report.predictions.shape == (45,)
    assert 0.0 <= report.overall_error <= 1.0
    for err in report.pair_errors.values():
        assert 0.0 <= err <= 1.0
    # The ensembles should do far better than chance on this easy problem.
    assert report.overall_error < 0.5


def test_ovo_validation_errors():
    train = generate_waveform(WaveformSpec(per_class_count=6, seed=208))
    test = generate_waveform(WaveformSpec(per_class_count=4, seed=209))
    cfg = TransformConfig(levels=1, window=4, nu=1.0, variant="nonregularised")
    with pytest.raises(ConfigError):
        ev.one_against_one(train, test, cfg, top_t=[0])
    unlabeled = SignalDataset(signals=train.signals)
    with pytest.raises(DataError):
        ev.one_against_one(unlabeled, test, cfg, top_t=[3])
    extra = SignalDataset(
        signals=test.signals, class_ids=np.where(test.class_ids == 3, 4, test.class_ids)
    )
    with pytest.raises(DataError, match="absent from training"):
        ev.one_against_one(train, extra, cfg, top_t=[3])
    with pytest.raises(DataError, match="absent from training"):
        ev.one_against_one_raw_psvm(train, extra, nu=1.0)


def test_raw_psvm_separates_offset_clouds():
    rng = make_rng(210)
    a = rng.normal(size=(30, 8)) + 4.0
    b = rng.normal(size=(30, 8)) - 4.0
    signals = np.vstack([a, b])
    labels = np.array([1.0] * 30 + [-1.0] * 30)
    w, gamma = ev.fit_raw_psvm(signals, labels, nu=1.0)
    assert np.array_equal(ev.psvm_predict(w, gamma, signals), labels)


def test_raw_psvm_multiclass_baseline():
    train = generate_waveform(WaveformSpec(per_class_count=30, seed=211))
    test = generate_waveform(WaveformSpec(per_class_count=30, seed=212))
    report = ev.one_against_one_raw_psvm(train, test, nu=1.0)
    assert report.classes == (1, 2, 3)
    assert report.pair_reports == {}
    assert len(report.pair_errors) == 3
    assert 0.0 <= report.overall_error <= 0.5
    assert np.all(report.classified)


def test_classifier_name():
    assert fake_set([7, 1], level=[2, 1]).names == ["d2_7", "d1_1"]
