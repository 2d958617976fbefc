"""discwave: discriminative lifting transforms for signal classification.

A second-generation wavelet-style transform whose prediction step is learned
per window position by a proximal support vector machine, so the detail
coefficients of a fitted transform separate two signal classes instead of
merely compressing. The package covers the window solvers (with an
independent dense KKT oracle), the multi-level transform and its inverse,
coefficient-level classifiers with permutation-test certification, pairwise
multiclass voting, and the two synthetic benchmark generators used in the
demos and tests. Every name is imported from its module (`core`, `solver`,
`transform`, `datasets`, `evaluation`, `io`, `cli`); the package root holds
only `__version__`.
"""

__version__ = "0.1.0"
