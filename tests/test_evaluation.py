"""Classifier, ensemble, and significance tests.

fit_threshold is checked against a brute-force scan written independently
(every candidate threshold, both orientations, explicit counting). The
permutation-test calibration fixture is fully seeded, so its rejection rates
are deterministic; the asserted band is wide because with 100 examples the
correct-count statistic lives on an integer lattice, which makes the exact
test conservative (measured 0.10-0.12 at the frozen seeds against the 0.10
nominal level).
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
    """All candidate thresholds x both orientations, explicit loops."""
    v = np.sort(np.unique(values))
    cands = [float(v[0])] + [0.5 * (a + b) for a, b in zip(v[:-1], v[1:])]
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


def fake_classifier(k, b=0.0, s=1, level=1, acc=0.0, mode=ev.OPTIMAL_THRESHOLD,
                    p_value=None, support=(1,)):
    return ev.LocalClassifier(
        level=level, k=k, weights=np.zeros(1), b=b, s=s, mode=mode,
        train_accuracy=acc, support=support, p_value=p_value,
    )


def test_fit_threshold_matches_brute_force():
    rng = np.random.default_rng(30)
    for trial in range(40):
        l = int(rng.integers(3, 40))
        if trial % 2:
            values = rng.normal(size=l)
        else:
            values = rng.integers(-3, 4, size=l).astype(float)
        labels = np.where(rng.random(l) < 0.5, 1.0, -1.0)
        b_o, s_o, c_o = brute_force_threshold(values, labels)
        b, s, c = ev.fit_threshold(values, labels)
        assert c == c_o
        assert s == s_o
        assert b == pytest.approx(b_o, abs=0.0)
        pred = s * np.where(values >= b, 1.0, -1.0)
        assert int(np.sum(pred == labels)) == c


def test_threshold_simple_separation():
    values = np.array([-2.0, -1.0, 1.0, 2.0])
    labels = np.array([-1.0, -1.0, 1.0, 1.0])
    b, s, c = ev.fit_threshold(values, labels)
    assert (b, s, c) == (0.0, 1, 4)
    clf = fake_classifier(1, b=0.0, s=1)
    assert np.array_equal(ev.predict_values(clf, np.array([0.0])), [1.0])


def test_threshold_all_equal_values_majority():
    values = np.full(5, 3.3)
    b, s, c = ev.fit_threshold(values, np.array([1.0, 1.0, 1.0, -1.0, -1.0]))
    assert (b, s, c) == (3.3, 1, 3)
    b, s, c = ev.fit_threshold(values, np.array([1.0, -1.0, -1.0, -1.0, 1.0]))
    assert (b, s, c) == (3.3, -1, 3)


def waveform_pair(per_class, seed):
    return generate_waveform(WaveformSpec(per_class_count=per_class, seed=seed)).restrict_pair(1, 2)


def test_optimal_threshold_dominates_psvm_bias():
    ds = waveform_pair(30, 201)
    cfg = TransformConfig(levels=2, window=4, nu=1.0, variant="nonregularised")
    fitted, coeffs = tf.fit(ds, cfg)
    by_psvm = ev.make_local_classifiers(coeffs, fitted, mode=ev.PSVM_BIAS)
    by_scan = ev.make_local_classifiers(coeffs, fitted, mode=ev.OPTIMAL_THRESHOLD)
    assert len(by_psvm) == len(by_scan) == 16 + 8
    for a, b in zip(by_scan, by_psvm):
        assert (a.level, a.k) == (b.level, b.k)
        assert a.train_accuracy >= b.train_accuracy
        assert b.b == fitted.levels[b.level - 1][b.k - 1].gamma


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
    assert [c.name for c in clfs[:2]] == ["d1_1", "d1_2"]
    for c in clfs:
        assert c.support and all(1 <= i <= 32 for i in c.support)
        assert 0.0 <= c.train_accuracy <= 1.0


def test_rank_classifiers_order_and_ties():
    clfs = [
        fake_classifier(2, acc=0.9, level=2),
        fake_classifier(1, acc=0.95, level=1),
        fake_classifier(1, acc=0.9, level=2),
        fake_classifier(3, acc=0.9, level=1),
    ]
    ranked = ev.rank_classifiers(clfs)
    assert [(c.train_accuracy, c.level, c.k) for c in ranked] == [
        (0.95, 1, 1),
        (0.9, 1, 3),
        (0.9, 2, 1),
        (0.9, 2, 2),
    ]


def test_evaluate_classifiers_sets_test_accuracy():
    table = fake_table([[1.0], [-1.0], [2.0]], labels=[1.0, -1.0, -1.0])
    clf = fake_classifier(1, b=0.0, s=1)
    out = ev.evaluate_classifiers([clf], table)
    assert out[0] is clf
    assert clf.test_accuracy == pytest.approx(2.0 / 3.0)
    with pytest.raises(DataError):
        ev.evaluate_classifiers([clf], fake_table([[1.0]]))


def test_vote_single_member_matches_classifier():
    ds = waveform_pair(25, 203)
    cfg = TransformConfig(levels=2, window=4, nu=1.0, variant="nonregularised")
    fitted, coeffs = tf.fit(ds, cfg)
    best = ev.rank_classifiers(ev.make_local_classifiers(coeffs, fitted))[0]
    report = ev.vote([best], coeffs)
    pred = ev.predict_values(best, ev.classifier_values(coeffs, best))
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
    members = [fake_classifier(1), fake_classifier(2)]
    report = ev.vote(members, table)
    assert np.array_equal(report.outcome, [1.0, -1.0, 0.0])
    assert report.n_unclassified == 1
    assert report.misclassification == pytest.approx(1.0 / 3.0)


def test_vote_empty_members_rejected():
    with pytest.raises(ConfigError):
        ev.vote([], fake_table([[1.0]]))


def test_vote_profile_groups():
    table = fake_table([[2.0, 3.0], [-1.0, -2.0], [1.0, -1.0]])
    report = ev.vote([fake_classifier(1), fake_classifier(2)], table)
    assert ev.vote_profile(report) == [
        (1.0, ev.RED),
        (-1.0, ev.BLUE),
        (0.0, ev.GREEN),
    ]


def test_perfect_separator_has_tiny_p_value():
    rng = make_rng(301)
    labels = np.array([1.0] * 10 + [-1.0] * 10)
    values = labels + 0.01 * rng.standard_normal(20)
    clf = fake_classifier(1, b=0.0, s=1)
    [p] = ev.permutation_test([clf], values[:, None], labels, B=999, seed=302)
    assert p <= 0.005


def test_permutation_test_requires_enough_replicates():
    clf = fake_classifier(1)
    values = np.array([0.0, 1.0])
    labels = np.array([-1.0, 1.0])
    for B in (0, 99):
        with pytest.raises(ConfigError):
            ev.permutation_test([clf], values[:, None], labels, B=B, seed=0)


def test_permutation_test_deterministic_per_seed():
    rng = make_rng(303)
    values = rng.standard_normal(40)
    labels = np.where(rng.random(40) < 0.5, 1.0, -1.0)
    labels[:2] = (1.0, -1.0)
    for mode in ev.MODES:
        clf = fake_classifier(1, b=0.0, mode=mode)
        p1 = ev.permutation_test([clf], values[:, None], labels, B=199, seed=7)
        p2 = ev.permutation_test([clf], values[:, None], labels, B=199, seed=7)
        assert p1 == p2


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
        classifiers = [fake_classifier(k, b=0.25, mode=mode) for k in range(1, 5)]
        got = ev.permutation_test(classifiers, X, labels, B=120, seed=11)
        want = [reference_p_value(X[:, j], labels, mode, 0.25, 120, 11) for j in range(4)]
        assert got == want


def test_permutation_test_walk_matches_reference_ties_and_mixed_modes():
    # One call holds both modes, an odd l, heavy ties, a constant column and
    # fixed thresholds below the minimum and above the maximum.
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
    classifiers = [fake_classifier(k, b=b, mode=m) for k, (m, b) in enumerate(spec, start=1)]
    got = ev.permutation_test(classifiers, X, labels, B=120, seed=12)
    want = [reference_p_value(X[:, j], labels, m, b, 120, 12) for j, (m, b) in enumerate(spec)]
    assert got == want
    assert got[6] == got[7] == 1.0  # one predicted side for every labelling


def check_best_counts(X, plus_rows):
    """_best_counts against fit_threshold, column by column and labelling by
    labelling; column 0 of the result is the observed labelling."""
    best = ev._best_counts(X, plus_rows)
    assert best.shape == (X.shape[1], plus_rows.shape[0])
    for r, plus in enumerate(plus_rows):
        y = np.where(plus, 1.0, -1.0)
        want = [ev.fit_threshold(X[:, k], y)[2] for k in range(X.shape[1])]
        assert best[:, r].tolist() == want, r
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
    classifiers = [fake_classifier(k) for k in range(1, 6)]
    p_values = ev.permutation_test(classifiers, X, labels, B=150, seed=9)
    assert len(p_values) == 5
    assert draws == [(9, r) for r in range(150)]


def test_permutation_test_coefficient_shapes():
    clf = fake_classifier(1)
    labels = np.array([-1.0, 1.0, 1.0])
    with pytest.raises(DataError):
        ev.permutation_test([clf, clf], np.zeros((3, 1)), labels, B=100, seed=0)
    table = fake_table(np.zeros((3, 1)), labels=labels)
    assert ev.permutation_test([], table, labels, B=100, seed=0) == []


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
            clf = fake_classifier(1, b=0.0, mode=mode)
            [p] = ev.permutation_test(
                [clf], values[:, None], labels, B=199, seed=1000000 + i
            )
            rejections += p <= 0.1
        return rejections / 100.0

    assert 0.03 <= rate(ev.OPTIMAL_THRESHOLD) <= 0.20
    assert 0.03 <= rate(ev.PSVM_BIAS) <= 0.20


def test_select_significant_filters():
    keep = fake_classifier(1, acc=0.8, p_value=0.05)
    low_acc = fake_classifier(2, acc=0.7, p_value=0.01)
    high_p = fake_classifier(3, acc=0.9, p_value=0.2)
    no_p = fake_classifier(4, acc=0.9, p_value=None)
    out = ev.select_significant([keep, low_acc, high_p, no_p])
    assert out == [keep]
    assert ev.select_significant([low_acc], min_accuracy=0.6) == [low_acc]
    assert ev.select_significant([high_p], alpha=0.5) == [high_p]


def test_support_histogram():
    a = fake_classifier(1, level=1, support=(3, 4, 5))
    b = fake_classifier(2, level=2, support=(3, 4))
    hist = ev.support_histogram([a, b], signal_length=8)
    assert set(hist) == {1, 2}
    assert np.array_equal(hist[1], [0, 0, 1, 1, 1, 0, 0, 0])
    assert np.array_equal(hist[2], [0, 0, 1, 1, 0, 0, 0, 0])


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
    assert fake_classifier(7, level=2).name == "d2_7"
