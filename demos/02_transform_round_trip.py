"""
Fitting the lifted transform and going there and back
=====================================================

Fit an update-first lifting transform on labelled training signals, look at
the coefficient layout, and check that reconstruction inverts it exactly.
"""

import numpy as np

from discwave import transform as tf
from discwave.core import TransformConfig
from discwave.datasets import WaveformSpec, generate_waveform

train = generate_waveform(WaveformSpec(per_class_count=100, seed=3)).restrict_pair(1, 2)

# One level splits the signal into odd and even samples, averages the pair
# into a coarse signal of half the length, and learns per-position prediction
# weights for the even samples from a window of coarse neighbours. The
# residual is the detail coefficient. Three levels take length 32 down to 4.
cfg = TransformConfig(levels=3, window=4, nu=1.0, variant="nonregularised")
fitted, table = tf.fit(train, cfg)

print(f"fitted {fitted.effective_levels} levels on {train.n_examples} signals")
print(f"coarse lengths per level: {[32 // 2 ** m for m in range(1, 4)]}")
print(f"merged feature matrix: {table.merged.shape}, columns "
      f"{table.column_names()[:3]} ... {table.column_names()[-2:]}")

for m in (1, 2, 3):
    d = table.detail(m)
    print(f"level {m}: {d.shape[1]} detail columns, rms {np.sqrt(np.mean(d ** 2)):.3f}")

# The transform is linear and invertible, so signals come back exactly.
back = tf.reconstruct(fitted, table)
print(f"round-trip max abs error: {np.max(np.abs(back - train.signals)):.2e}")

# Adding polynomial-reproduction constraints (degree 2 here) forces every
# detail filter to annihilate constants and ramps at all levels.
ccfg = TransformConfig(
    levels=3, window=4, nu=1.0, variant="nonregularised", constraint_degree=2,
)
cfitted, _ = tf.fit(train, ccfg)
t = np.arange(32, dtype=float)
ramps = np.vstack([2.0 + 0.0 * t, -1.0 + 0.5 * t, 4.0 - 0.25 * t])
ct = tf.apply(cfitted, ramps)
worst = max(float(np.max(np.abs(ct.detail(m)))) for m in (1, 2, 3))
print(f"constrained transform on ramps: max |detail| {worst:.2e} "
      f"(constraint residual {tf.constraint_residual(cfitted):.2e})")

# Models serialize to JSON and reload bit-for-bit.
tf.save_model(fitted, "/tmp/demo_model.json")
again = tf.load_model("/tmp/demo_model.json")
# Each level is a weight matrix (one row per position) and an offset vector.
print(f"level weight matrices: {[level.weights.shape for level in fitted.levels]}")
same = all(
    np.array_equal(a.weights, b.weights) and np.array_equal(a.gamma, b.gamma)
    for a, b in zip(fitted.levels, again.levels)
)
print(f"model JSON round trip identical: {same}")
