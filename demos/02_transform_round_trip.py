"""
Fitting the lifted transform and going there and back
=====================================================

Fit an update-first lifting transform on labelled training signals, look at
the coefficient layout, and check that reconstruction inverts it exactly.
"""

import tempfile
from pathlib import Path

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
fitted, merged = tf.fit(train, cfg)

print(f"fitted {fitted.config.levels} levels on {train.n_examples} signals")
print(f"coarse lengths per level: {[32 // 2 ** m for m in range(1, 4)]}")
# One row per signal, coarsest block first: c3 in columns 0..3, then d3,
# d2 and d1; level m's details sit in columns N/2^m..N/2^(m-1) - 1.
names = [name for name, _, _, _ in fitted.column_layout()]
print(f"merged feature matrix: {merged.shape}, columns {names[:3]} ... {names[-2:]}")

N = train.signal_length
for m in (1, 2, 3):
    d = merged[:, N >> m : N >> (m - 1)]
    print(f"level {m}: {d.shape[1]} detail columns, rms {np.sqrt(np.mean(d ** 2)):.3f}")

# The transform is linear and invertible, so signals come back exactly.
back = tf.reconstruct(fitted, merged)
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
worst = float(np.max(np.abs(ct[:, N >> 3 :])))  # every detail column of every level
print(f"constrained transform on ramps: max |detail| {worst:.2e} "
      f"(constraint residual {tf.constraint_residual(cfitted):.2e})")

# Models serialize to JSON and reload bit-for-bit.
with tempfile.TemporaryDirectory() as tmp:
    model_path = Path(tmp) / "model.json"
    tf.save_model(fitted, model_path)
    again = tf.load_model(model_path)
# Each level is a weight matrix (one row per position) and an offset vector.
print(f"level weight matrices: {[level.weights.shape for level in fitted.levels]}")
same = all(
    np.array_equal(a.weights, b.weights) and np.array_equal(a.gamma, b.gamma)
    for a, b in zip(fitted.levels, again.levels)
)
print(f"model JSON round trip identical: {same}")
