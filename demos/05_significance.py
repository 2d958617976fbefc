"""
Permutation tests: which coefficients genuinely separate the classes
====================================================================

Training accuracy alone overstates a coefficient's worth, because the
threshold was tuned on the same labels it is scored on. A label-permutation
test replays that tuning under the null and reports how often chance does as
well. Coefficients that survive the test (and a minimum accuracy) make up
the significant set.
"""

import numpy as np

from discwave import evaluation as ev
from discwave import transform as tf
from discwave.core import TransformConfig, make_rng
from discwave.datasets import WaveformSpec, generate_waveform

cfg = TransformConfig(levels=3, window=4, nu=1.0, variant="regularised")
train = generate_waveform(WaveformSpec(per_class_count=100, seed=21)).restrict_pair(1, 2)
fitted, coeffs = tf.fit(train, cfg)
ranked = ev.rank_classifiers(ev.make_local_classifiers(coeffs, fitted))

B = 999  # drawn once and shared by every coefficient of the call
p_values = ev.permutation_test(ranked, coeffs, train.labels, B=B, seed=5000)
for clf, p in zip(ranked, p_values):
    clf.p_value = p

print(f"permutation p-values with B = {B}, strongest and weakest coefficients:")
for clf in ranked[:3] + ranked[-3:]:
    print(f"  {clf.name}: train acc {clf.train_accuracy:.3f}, p = {clf.p_value:.4f}")

kept = ev.select_significant(ranked, min_accuracy=0.75, alpha=0.1)
print(f"significant at alpha 0.1 with train acc >= 0.75: {len(kept)} of {len(ranked)}")
print(f"  {[clf.name for clf in kept[:10]]}{' ...' if len(kept) > 10 else ''}")

# Sanity check the test itself: a coefficient of pure noise should only be
# flagged at the nominal rate. One draw here; the test suite repeats this
# two hundred times and checks the rate lands near alpha.
rng = make_rng(2718)
noise = rng.standard_normal(train.n_examples)
[p_noise] = ev.permutation_test([ranked[0]], noise[:, None], train.labels, B=B, seed=5001)
print(f"same test on a pure-noise column: p = {p_noise:.3f}")

hist = ev.support_histogram(kept, train.signal_length)
total = sum(hist.values())
peak = int(np.argmax(total)) + 1
print(f"supports of the significant set pile up around sample {peak} "
      f"(the class-1 vs class-2 bump region)")
