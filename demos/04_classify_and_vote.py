"""
Local classifiers, voting ensembles, and the raw baseline
=========================================================

Every detail coefficient is a cheap classifier: threshold one column of the
training table. One ClassifierSet holds them all as arrays, one row per
coefficient. Rank them, let the top few vote, and compare against a PSVM
trained on the raw samples.
"""

import numpy as np

from discwave import evaluation as ev
from discwave import transform as tf
from discwave.core import TransformConfig
from discwave.datasets import WaveformSpec, generate_waveform

cfg = TransformConfig(levels=3, window=4, nu=1.0, variant="regularised")
train3 = generate_waveform(WaveformSpec(per_class_count=100, seed=21))
test3 = generate_waveform(WaveformSpec(per_class_count=500, seed=22))
train, test = train3.restrict_pair(1, 2), test3.restrict_pair(1, 2)

fitted, coeffs = tf.fit(train, cfg)
ranked = ev.rank_classifiers(ev.make_local_classifiers(coeffs, fitted))
print(f"{len(ranked)} coefficients; top five by training accuracy:")
top = ranked[:5]
for name, acc, b, s, support in zip(top.names, top.train_accuracy, top.b, top.s, top.support):
    samples = np.flatnonzero(support) + 1
    print(f"  {name}: train acc {acc:.3f}, threshold {b:+.3f}, "
          f"side {s:+d}, support {samples[0]}..{samples[-1]}")

test_table = tf.apply(fitted, test.signals, labels=test.labels)
ranked = ev.evaluate_classifiers(ranked, test_table)
print(f"best single coefficient {ranked.names[0]}: "
      f"test error {1 - ranked.test_accuracy[0]:.3f}")

for t in (3, 15):
    rep = ev.vote(ranked[:t], test_table)
    print(f"majority vote of top {t}: test error {rep.misclassification:.3f}, "
          f"unclassified {rep.n_unclassified}")

w, g = ev.fit_raw_psvm(train.signals, train.labels, nu=1.0)
raw_err = float(np.mean(ev.psvm_predict(w, g, test.signals) != test.labels))
print(f"raw-sample PSVM baseline: test error {raw_err:.3f}")

# The same machinery handles all three classes with one-against-one duels.
rep3 = ev.one_against_one(train3, test3, cfg, top_t=[15])[15]
print(f"three classes, one-against-one with top 15 voters: "
      f"error {rep3.overall_error:.3f} over {test3.n_examples} signals")
for pair, err in sorted(rep3.pair_errors.items()):
    print(f"  pair {pair}: duel error {err:.3f}")
