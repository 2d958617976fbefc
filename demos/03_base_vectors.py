"""
Analysis and synthesis vectors of a fitted transform
====================================================

The fitted transform is linear, so it has an explicit matrix form: analysis
rows extract coefficients, synthesis columns rebuild signals, and the two are
biorthogonal. Supports show how localized each learned filter is.
"""

import numpy as np

from discwave import transform as tf
from discwave.core import TransformConfig
from discwave.datasets import WaveformSpec, generate_waveform

train = generate_waveform(WaveformSpec(per_class_count=100, seed=3)).restrict_pair(1, 2)
cfg = TransformConfig(levels=3, window=4, nu=1.0, variant="nonregularised")
fitted, _ = tf.fit(train, cfg)

base = tf.base_vectors(fitted)
support = tf.support(base.analysis)  # |entry| > tf.SUPPORT_ATOL
N = train.signal_length
print(f"analysis {base.analysis.shape}, synthesis {base.synthesis.shape}")
print(f"biorthogonality residual |A S - I|: {np.max(np.abs(base.analysis @ base.synthesis - np.eye(N))):.2e}")

# Detail filters are local: a level-m coefficient only sees a window of
# original samples, and the window dilates with the level.
for m in (1, 2, 3):
    sizes = [
        int(support[j].sum())
        for j, (_, kind, level, _) in enumerate(fitted.column_layout())
        if kind == "detail" and level == m
    ]
    print(f"level {m} detail supports: {min(sizes)}..{max(sizes)} samples "
          f"(bound {(cfg.window + 1) * 2 ** m})")

# One concrete filter: the analysis row of d1_7 and where it lives.
j = [name for name, *_ in fitted.column_layout()].index("d1_7")
row = base.analysis[j]
sup = np.flatnonzero(support[j]) + 1
print(f"d1_7 support: samples {sup[0]}..{sup[-1]}, "
      f"largest weights {np.round(np.sort(np.abs(row[row != 0]))[-3:], 2)}")

# Any signal is the coefficient-weighted sum of synthesis vectors.
x = train.signals[:5]
coeffs = tf.apply(fitted, x)
rebuilt = coeffs @ base.synthesis.T
print(f"rebuild from synthesis vectors, max abs error: {np.max(np.abs(rebuilt - x)):.2e}")
