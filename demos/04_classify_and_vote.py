"""
Local classifiers, voting ensembles, and the raw baseline
=========================================================

Every detail coefficient is a cheap classifier: threshold one column of the
training table. Rank them, let the top few vote, and compare against a PSVM
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
print("top five coefficients by training accuracy:")
for clf in ranked[:5]:
    print(f"  {clf.name}: train acc {clf.train_accuracy:.3f}, threshold {clf.b:+.3f}, "
          f"side {clf.s:+d}, support {clf.support[0]}..{clf.support[-1]}")

test_table = tf.apply(fitted, test.signals, labels=test.labels)
ev.evaluate_classifiers(ranked, test_table)
best = ranked[0]
print(f"best single coefficient {best.name}: test error {1 - best.test_accuracy:.3f}")

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
