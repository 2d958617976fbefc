"""End-to-end acceptance checks over the whole package.

Ten checks, one test each, run in order. Every test prints a single
`check NN <name>: PASS/FAIL (...)` line with the measured numbers before
asserting, so a verbose run doubles as a short report. The benchmark error
bands below were measured once with the frozen seeds and are asserted with
wide margins: they are regression tripwires, not noise-level comparisons.
"""

import time

import numpy as np

from discwave import evaluation as ev
from discwave import transform as tf
from discwave.core import IndexWindow, TransformConfig, make_rng
from discwave.io import read_csv
from discwave.datasets import (
    ShapeSpec,
    WaveformSpec,
    generate_shape,
    generate_waveform,
)
from discwave.solver import (
    PredictProblem,
    kkt_oracle,
    solve,
    vandermonde_constraints,
)


def report(num, label, ok, detail):
    print(f"check {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"check {num:02d} {label}: {detail}"


def waveform_pair_split(i):
    train = generate_waveform(WaveformSpec(per_class_count=100, seed=1000 + i))
    test = generate_waveform(WaveformSpec(per_class_count=1000, seed=2000 + i))
    return train.restrict_pair(1, 2), test.restrict_pair(1, 2)


REG_CFG = TransformConfig(levels=3, window=4, nu=1.0, variant="regularised")
NONREG_CFG = TransformConfig(levels=3, window=4, nu=1.0, variant="nonregularised")


def test_01_solver_agrees_with_dense_kkt_oracle():
    # Two independent routes to the same minimiser: the QR least-squares
    # solve used by the library and a dense assembly of the optimality
    # system solved in one shot. 432 random problems, 108 per variant.
    rng = np.random.default_rng(401)
    worst = 0.0
    cases = 0
    for variant, p in (
        ("regularised", 0),
        ("nonregularised", 0),
        ("nonregularised", 1),
        ("nonregularised", 2),
    ):
        for l in (10, 50, 200):
            for L in (2, 4, 8):
                for nu in (0.1, 1.0, 100.0):
                    for _ in range(4):
                        A = rng.standard_normal((l, L + 1))
                        y = np.where(rng.standard_normal(l) > 0, 1.0, -1.0)
                        if np.all(y == y[0]):
                            y[0] = -y[0]
                        B = None
                        if p > 0:
                            win = IndexWindow(k=4, indices=tuple(range(3, 3 + L)))
                            B = vandermonde_constraints(win, p)
                        prob = PredictProblem(A=A, labels=y, nu=nu, variant=variant, B=B)
                        sol, ref = solve(prob), kkt_oracle(prob)
                        scale = max(1.0, float(np.max(np.abs(ref.w))), abs(ref.gamma))
                        diff = max(
                            float(np.max(np.abs(sol.w - ref.w))),
                            abs(sol.gamma - ref.gamma),
                        ) / scale
                        worst = max(worst, diff)
                        cases += 1
    report(1, "solver vs dense oracle", cases == 432 and worst < 1e-8,
           f"{cases} problems, worst rel diff {worst:.3e}, tol 1e-08")


def test_02_nonregularised_round_trip():
    ds = generate_waveform(WaveformSpec(per_class_count=100, seed=1000)).restrict_pair(1, 2)
    fitted, table = tf.fit(ds, NONREG_CFG)
    back = tf.reconstruct(fitted, table)
    err = float(np.max(np.abs(back - ds.signals)))
    report(2, "round trip", ds.n_examples == 200 and err < 1e-8,
           f"{ds.n_examples} signals, max abs error {err:.3e}, tol 1e-08")


def test_03_base_vectors_biorthogonal():
    ds = generate_waveform(WaveformSpec(per_class_count=100, seed=1000)).restrict_pair(1, 2)
    fitted, _ = tf.fit(ds, NONREG_CFG)
    base = tf.base_vectors(fitted)
    N = ds.signal_length
    resid = float(np.max(np.abs(base.analysis @ base.synthesis - np.eye(N))))
    report(3, "biorthogonality", resid < 1e-8,
           f"max |analysis @ synthesis - I_{N}| = {resid:.3e}, tol 1e-08")


def test_04_constraints_annihilate_affine_signals():
    cfg = TransformConfig(
        levels=3, window=4, nu=1.0, variant="nonregularised", constraint_degree=2,
    )
    ds = generate_waveform(WaveformSpec(per_class_count=100, seed=1000)).restrict_pair(1, 2)
    fitted, _ = tf.fit(ds, cfg)
    t = np.arange(ds.signal_length, dtype=float)
    rng = np.random.default_rng(404)
    lines = [a + b * t for a in (-2.0, 0.0, 1.5) for b in (-0.75, 0.0, 0.5)]
    lines += [rng.normal() + rng.normal() * t for _ in range(11)]
    merged = tf.apply(fitted, np.vstack(lines))
    N = ds.signal_length
    worst = max(
        float(np.max(np.abs(merged[:, N >> m : N >> (m - 1)])))
        for m in range(1, fitted.config.levels + 1)
    )
    report(4, "affine signals vanish", worst < 1e-8,
           f"{len(lines)} degree<=1 signals, 3 levels, max |detail| {worst:.3e}, tol 1e-08")


def raw_pair_errors():
    errs = []
    for i in range(10):
        train, test = waveform_pair_split(i)
        w, g = ev.fit_raw_psvm(train.signals, train.labels, nu=1.0)
        errs.append(float(np.mean(ev.psvm_predict(w, g, test.signals) != test.labels)))
    return errs


def test_05_raw_psvm_baseline_on_waveform_pair():
    mean = float(np.mean(raw_pair_errors()))
    report(5, "raw baseline error", abs(mean - 0.10) <= 0.05,
           f"mean test error {mean:.4f} over 10 seeds, band 0.10 +- 0.05")


def test_06_best_coefficient_close_to_baseline_with_plausible_support():
    raw_mean = float(np.mean(raw_pair_errors()))
    errs, supports_ok = [], []
    for i in range(10):
        train, test = waveform_pair_split(i)
        fitted, coeffs = tf.fit(train, REG_CFG)
        best = ev.rank_classifiers(ev.make_local_classifiers(coeffs, train.labels, fitted))[:1]
        best = ev.evaluate_classifiers(best, tf.apply(fitted, test.signals), test.labels)
        errs.append(1.0 - float(best.test_accuracy[0]))
        supports_ok.append(bool(best.support[0, 8:20].any()))  # samples 9..20
    mean = float(np.mean(errs))
    ok = mean <= raw_mean + 0.10 and all(supports_ok)
    report(6, "best single coefficient", ok,
           f"mean test error {mean:.4f} vs raw {raw_mean:.4f} + 0.10; "
           f"support meets samples 9..20 in 10/10 seeds: {all(supports_ok)}")


def multiclass_errors(gen, spec_cls):
    e3, e15, eraw = [], [], []
    for i in range(10):
        train = gen(spec_cls(per_class_count=100, seed=1000 + i))
        test = gen(spec_cls(per_class_count=1000, seed=2000 + i))
        reports = ev.one_against_one(train, test, REG_CFG, top_t=(3, 15))
        e3.append(reports[3].overall_error)
        e15.append(reports[15].overall_error)
        eraw.append(ev.one_against_one_raw_psvm(train, test, nu=1.0).overall_error)
    return float(np.mean(e3)), float(np.mean(e15)), float(np.mean(eraw))


def test_07_waveform_three_class_ensembles():
    t0 = time.time()
    m3, m15, mraw = multiclass_errors(generate_waveform, WaveformSpec)
    elapsed = time.time() - t0
    ok = (
        abs(m3 - 0.155) <= 0.05
        and abs(m15 - 0.147) <= 0.05
        and abs(mraw - 0.193) <= 0.05
        and elapsed < 300.0
    )
    report(7, "waveform ensembles", ok,
           f"t=3 {m3:.4f} [0.155+-0.05], t=15 {m15:.4f} [0.147+-0.05], "
           f"raw {mraw:.4f} [0.193+-0.05], {elapsed:.0f}s < 300s")


def test_08_shape_three_class_ensembles():
    m3, m15, mraw = multiclass_errors(generate_shape, ShapeSpec)
    # Reference errors from the original three-shape study are 0.034 (t=3),
    # 0.032 (t=15) and 0.094 (raw); report the gaps but only assert the
    # ordering that survives generator drift: ensembles beat the raw baseline.
    gaps = f"refs 0.034/0.032/0.094, gaps {m3 - 0.034:+.3f}/{m15 - 0.032:+.3f}/{mraw - 0.094:+.3f}"
    report(8, "shape ensembles", m15 < mraw,
           f"t=3 {m3:.4f}, t=15 {m15:.4f}, raw {mraw:.4f}; t=15 < raw required; {gaps}")


def test_09_permutation_test_calibration():
    # Independent values and labels, so p-values should be uniform: the
    # rejection rate at alpha = 0.1 over 200 trials must sit near 0.1.
    # Frozen seeds measure 0.090; the band allows binomial noise but fails
    # on anti-conservative selection bugs.
    clf = ev.ClassifierSet(
        level=np.array([1]), k=np.array([1]), b=np.zeros(1), s=np.ones(1, dtype=int),
        count=np.zeros(1, dtype=int), support=np.ones((1, 2), dtype=bool),
        mode=ev.OPTIMAL_THRESHOLD, n_train=1000,
    )
    rejections = 0
    for i in range(200):
        rng = make_rng(911, i)
        values = rng.standard_normal(1000)
        labels = np.where(rng.random(1000) < 0.5, 1.0, -1.0)
        [p] = ev.permutation_test(clf, values[:, None], labels, B=999, seed=200000 + i)
        rejections += p <= 0.1
    rate = rejections / 200.0
    report(9, "permutation calibration", 0.07 <= rate <= 0.13,
           f"rejection rate {rate:.3f} at alpha 0.1, l=1000, B=999, 200 trials, band [0.07, 0.13]")


def test_10_feature_export_round_trips_and_feeds_a_stump(tmp_path):
    train, test = waveform_pair_split(0)
    fitted, coeffs = tf.fit(train, REG_CFG)
    path = tmp_path / "features.csv"
    tf.save_features(fitted, coeffs, train.class_ids, path)
    names, merged, ids = read_csv(path)
    lossless = (
        np.array_equal(merged, coeffs)
        and names == [name for name, _, _, _ in fitted.column_layout()]
        and np.array_equal(ids, train.class_ids)
    )
    # A one-column threshold stump on the best training feature must beat
    # always-guessing the majority class on held-out data.
    b, s, n_correct = ev.fit_thresholds(merged, train.labels)
    best_j = int(np.argmax(n_correct))  # the first column with the best count
    b, s = b[best_j], s[best_j]
    test_vals = tf.apply(fitted, test.signals)[:, best_j]
    pred = s * np.where(test_vals >= b, 1.0, -1.0)
    stump_err = float(np.mean(pred != test.labels))
    counts = np.unique(test.labels, return_counts=True)[1]
    majority_err = 1.0 - float(np.max(counts)) / test.n_examples
    ok = lossless and stump_err < majority_err
    report(10, "feature export", ok,
           f"CSV round trip lossless: {lossless}; stump on {names[best_j]} "
           f"test error {stump_err:.4f} < majority {majority_err:.4f}")
