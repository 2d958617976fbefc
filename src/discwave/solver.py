"""Per-window proximal-SVM solves behind the lifting predictor.

Every problem minimises (1/2)||w||^2 + (1/2)gamma^2 + (nu/2)||xi||^2 subject
to Y (a0 + At w - gamma e) + xi = e, which ties the window prediction to the
labels. The variants differ only in how A splits into a fixed part a0 and
free columns At:

  nonregularised   a0 = first column of A, At = the rest   w has L entries
  regularised      a0 = 0, At = A (every column free)      w has L+1 entries
  constrained      nonregularised plus B w = e1            p extra dual variables

Eliminating xi turns each into one regularised least-squares problem in
z = (w, gamma): minimise (1/2)||z||^2 + (nu/2)||b - H z||^2 with H = Y [F, -e]
and b = e - y * offset, where (F, offset) is (At, a0); the constrained case
first substitutes w = w0 + Z q over the null space of B. `solve` factors the
stacked [[I/sqrt(nu), 0], [H, b]] by one Householder QR and back-substitutes
in the r x r triangle (r = L+2, L+1 or L-p+1), so cost is linear in the
number of examples and the error depends on cond(H), where the normal
equations H^T H + I/nu would square it.

A level's windows share y and nu, so `solve_windows` solves them in stacks:
each stack is one stacked QR and one stacked triangular solve through the
same core as `solve`, which is its one-window case (the same bits when
unconstrained). A stack holds about STACK_BYTES of QR input, so its arrays
stay in cache and memory stays flat at any example count. Constraint bases
are built once per (window, degree) and cached read-only: every offset
pattern of B has the same null space, so one SVD gives the L - p
null-space rows N they all share, beside each pattern's B and minimum-norm
w0. Each stack gathers its windows' B and w0 (`constraint_bases`).
`kkt_oracle` solves the identical problems by one dense factorization of the
full stationarity+feasibility system and exists to arbitrate `solve` in
tests; the two routes share no linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .core import (
    NONREGULARISED,
    REGULARISED,
    VARIANTS,
    ConfigError,
    DataError,
    IndexWindow,
    NumericalError,
    constraint_degree,
    float_matrix,
    real,
    validate_labels,
)

# Violations of the solver's own optimality/feasibility checks beyond this
# (relative) bound surface as NumericalError rather than a silent bad answer.
FEASIBILITY_RTOL = 1e-8
CONSTRAINT_ATOL = 1e-8
# Budget of QR input per stack of window problems. A stack pays each numpy
# call once; past about this size (its temporaries take about four times as
# much) stacks only add memory and fall out of cache, and run slower.
STACK_BYTES = 1 << 19


@dataclass(frozen=True)
class PredictProblem:
    """One window's training problem.

    A: l x (L+1) matrix; by convention the first column holds the prediction
    targets (the even samples) and the remaining L columns hold the negated
    coarse-window values. labels: +/-1 per example. B: optional p x L
    polynomial-constraint rows (nonregularised only, p <= L), held to the
    rank rule `solve` applies (`_null_space_split`).
    """

    A: np.ndarray
    labels: np.ndarray
    nu: float
    variant: str
    B: Optional[np.ndarray] = None

    def __post_init__(self):
        A = float_matrix(self.A, "A")
        if A.shape[1] < 1:
            raise DataError(f"A must be l x (L+1) with L >= 0, got shape {A.shape}")
        y = validate_labels(self.labels, A.shape[0])
        object.__setattr__(self, "nu", real(self.nu, "nu", "(0, inf)"))
        _check_variant(self.variant, self.B is not None)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "labels", y)
        if self.B is not None:
            L = A.shape[1] - 1
            B = float_matrix(self.B, "B", L)
            if len(B) > L:  # extra rows are invisible to the singular values
                raise ConfigError(f"constraint count {len(B)} must lie in 1..{L}")
            _null_space_split(B)  # the rank rule of `solve`
            object.__setattr__(self, "B", B)

    @property
    def n_examples(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class PredictSolution:
    w: np.ndarray
    gamma: float
    u: np.ndarray  # the duals, u = nu * xi


def _check_variant(variant, constrained: bool) -> None:
    """The variant rule of `PredictProblem` and `solve_windows`."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    if constrained and variant != NONREGULARISED:
        raise ConfigError("constraints require the nonregularised variant")


def _matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M @ v slice by slice for stacks of matrices M and vectors v."""
    return np.matmul(M, v[..., None])[..., 0]


def _check(positions, *checks) -> None:
    """Raise NumericalError for the first window failing any (what, residual, bound) check.

    Checks are per-window arrays; NaN fails. `positions` (1-based k per
    window, or None for a lone problem) names the window in the message.
    """
    failed = np.array([~(residual <= bound) for _, residual, bound in checks])
    if failed.any():
        j = int(np.flatnonzero(failed.any(axis=0))[0])
        what, residual, _ = checks[int(np.argmax(failed[:, j]))]
        where = "" if positions is None else f"position k={positions[j]}: "
        raise NumericalError(f"{where}{what} {residual[j]:.3e} exceeds tolerance")


def _least_squares(F: np.ndarray, offset, y: np.ndarray, nu: float):
    """Minimise (1/2)||z||^2 + (nu/2)||b - H z||^2 with H = Y [F, -e], b = e - y * offset,
    for K problems at once that share y and nu: F is K x l x n, offset K x l or 0.

    One stacked QR of K Fortran-ordered [[I/sqrt(nu), 0], [H, b]] slices
    keeps only R, whose leading r x r triangle and last column give z by
    back substitution. The I/sqrt(nu) rows come first, so each Householder
    reflector pivots on its column's 1/sqrt(nu) entry. Pivoting on a data
    row instead adds the column's norm to that row's entry: where a column
    of H is far smaller than 1/sqrt(nu), its data is lost to rounding and z
    comes back accurate in norm only, not entry by entry. Returns z (K x r),
    the duals u = nu (b - H z) (K x l) and, per problem, the worst relative
    violation of the stationarity identity z = H^T u, entry by entry,
    against the size of the terms that cancel in it.
    """
    K, l, n = F.shape
    r = n + 1
    M = np.zeros((K, r + 1, r + l)).transpose(0, 2, 1)
    H, b = M[:, r:, :r], M[:, r:, r]
    # column by column: far faster into Fortran order
    np.multiply(F.transpose(0, 2, 1), y, out=H.transpose(0, 2, 1)[:, :n])
    np.negative(y, out=H[:, :, n])
    np.subtract(1.0, y * offset, out=b)
    M[:, np.arange(r), np.arange(r)] = 1.0 / np.sqrt(nu)
    R = np.linalg.qr(M, mode="r")
    z = np.linalg.solve(R[:, :r, :r], R[:, :r, r:])[..., 0]
    u = nu * (b - _matvec(H, z))
    absH = np.abs(H)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves worst NaN
        terms = np.abs(z) + nu * _matvec(
            absH.transpose(0, 2, 1), np.abs(b) + _matvec(absH, np.abs(z))
        )
        excess = np.abs(z - _matvec(H.transpose(0, 2, 1), u)) / np.maximum(1.0, terms)
    return z, u, np.max(excess, axis=1)


def _solve_stack(A, y: np.ndarray, nu: float, variant: str, bases=None, positions=None):
    """(w, gamma, u) of K window problems that share labels y and nu.

    A is K x l x (L+1), each slice laid out as PredictProblem.A. `bases`,
    for constrained problems, is (B, w0, N): B (K x p x L) and w0 (K x L)
    stacked per window, and the (L - p) x L null-space rows N that every
    window's B shares, so Z = N^T for the whole stack. Every check of
    `solve` runs per window with its tolerance, and the first failing
    window raises.
    """
    a0, At = (0.0, A) if variant == REGULARISED else (A[..., 0], A[..., 1:])
    F, offset = At, a0
    if bases is not None:
        B, w0, N = bases
        F, offset = At @ N.T, a0 + _matvec(At, w0)  # B @ N^T = 0 for every window
    z, u, worst = _least_squares(F, offset, y, nu)
    w, gamma = z[:, :-1], z[:, -1]
    checks = [("stationarity residual", worst, FEASIBILITY_RTOL)]
    if bases is not None:
        w = w0 + w @ N
        e1 = np.eye(B.shape[1])[0]
        with np.errstate(over="ignore", invalid="ignore"):  # a failed check may overflow
            bw = np.max(np.abs(_matvec(B, w) - e1), axis=1)
        checks.append(("constraint residual", bw,
                       CONSTRAINT_ATOL * np.maximum(1.0, np.max(np.abs(B), axis=(1, 2)))))
    _check(positions, *checks)
    return w, gamma, u


def _check_rank(s: np.ndarray) -> None:
    """The rank rule of constraint rows, on their singular values s (each
    last axis in descending order): ConfigError unless s_min > 1e-12 s_max."""
    if np.any(s[..., -1] <= s[..., 0] * 1e-12):
        raise ConfigError("constraint matrix B is numerically rank deficient")


def _null_space_split(B: np.ndarray):
    """(w0, N) of the p x L constraints B w = e1, from one SVD of B.

    w0 = B^+ e1 is the minimum-norm solution, and the L - p orthonormal rows
    of N span the null space of B (none when p = L). Raises ConfigError when
    B is numerically rank deficient (`_check_rank`).
    """
    U, s, Vt = np.linalg.svd(B, full_matrices=True)
    _check_rank(s)
    return Vt[:len(B)].T @ (U[0] / s), Vt[len(B):]  # U[0] = U^T e1


def solve(problem: PredictProblem) -> PredictSolution:
    """Solve one window problem of any variant.

    With constraints B w = e1 the weights split into a fixed particular part
    plus a free part in the null space of B: w = w0 + Z q, with B w0 = e1
    (minimum norm) and Z an orthonormal null-space basis from the SVD of B.
    Since w0 is orthogonal to that null space the objective separates, and
    (q, gamma) solve a plain nonregularised problem whose offset absorbs
    At @ w0 and whose window shrinks to L - p. Assembling w this way avoids
    the cancellation in the stationarity identity w = At^T Y u - B^T v, whose
    two terms can dwarf w itself when nu is large and the constraint
    multipliers v blow up. This is the one-window case of the stacked solve
    that `solve_windows` runs over a level: an unconstrained window gives
    the same bits either way. A constrained one takes w0 and Z from the SVD
    of its own B here, and from the cached bases of its (window, degree)
    there, so the two agree to rounding, not bit for bit.
    """
    B = problem.B
    bases = None
    if B is not None:
        w0, N = _null_space_split(B)
        bases = (B[None], w0[None], N)
    w, gamma, u = _solve_stack(problem.A[None], problem.labels, problem.nu, problem.variant, bases)
    return PredictSolution(w=w[0], gamma=float(gamma[0]), u=u[0])


def solve_windows(targets, coarse, columns, labels, nu: float, variant: str, degree: int = 0):
    """Predictors of one level's windows, solved in stacks: (weights, gamma).

    `columns` is the level's J x L window matrix (`core.window_columns`):
    row j is the window of position k = j + 1 over the 0-based coarse
    columns c = columns[j], whose problem is PredictProblem(
    A=np.column_stack([targets[:, k-1], -coarse[:, c]]), labels, nu, variant,
    B), with B = vandermonde_constraints(window, degree) of that window when
    degree > 0, and row j of the result is `solve` of that problem: bit for
    bit when unconstrained, to rounding when constrained (see `solve`). The
    problems share labels and nu, so they run through `_solve_stack` a stack
    at a time, each stack gathered straight from `coarse` and holding about
    STACK_BYTES of QR input; constraint bases come once per (window,
    degree), and each stack gathers only its own windows' B and w0.
    `labels`, `nu` and `variant` are checked once a call, as
    `PredictProblem` checks them. Errors name the failing window:
    "position k=K: ...".
    """
    labels = validate_labels(labels, len(targets))
    nu = real(nu, "nu", "(0, inf)")
    _check_variant(variant, bool(degree))
    J, L = columns.shape
    ks = np.arange(1, J + 1)
    bad = ~np.isfinite(targets).all(axis=0)[:J]
    bad |= ~np.isfinite(coarse).all(axis=0)[columns].all(axis=1)
    if bad.any():
        raise DataError(f"position k={np.argmax(bad) + 1}: A contains non-finite values")
    if degree:
        (B, w0, N), pattern = constraint_bases(columns, degree)
    l = len(labels)
    size = max(1, STACK_BYTES // (8 * (l + L + 2) * (L + 3)))  # QR input is at most this
    weights = np.empty((J, L + 1 if variant == REGULARISED else L))
    gamma = np.empty(J)
    for start in range(0, J, size):
        rows = slice(start, start + size)
        # K x (L+1) x l, so each window's l x (L+1) slice is Fortran-ordered
        # like column_stack's: the products below then round the same way.
        A = np.empty((len(ks[rows]), L + 1, l))
        A[:, 0] = targets.T[rows]
        np.negative(coarse.T[columns[rows]], out=A[:, 1:])
        bases = (B[pattern[rows]], w0[pattern[rows]], N) if degree else None
        weights[rows], gamma[rows], _ = _solve_stack(
            A.transpose(0, 2, 1), labels, nu, variant, bases, ks[rows]
        )
    return weights, gamma


def kkt_oracle(problem: PredictProblem) -> PredictSolution:
    """Reference solution by one dense factorization of the full KKT system.

    Assembles stationarity in (w, gamma), feasibility with xi eliminated as
    u/nu, and (when present) the constraint rows, then solves the whole
    (n_w + 1 + l [+ p]) system at once. A regularised window is the
    nonregularised form with every column free (a0 = 0, At = A), so one
    assembly serves both. Test arbiter for the fast paths up to constraint
    degree 6: against a 60-digit solve (24 random rows, nu = 1, windows 4-32)
    its weights erred by <= 2e-11 there, by 6e-7 at degree 8, by ~1 at 12-15.
    Above degree 6 the tests check `solve` against an exact rational solve.
    """
    l = problem.n_examples
    if l > 2000:
        raise ConfigError(f"kkt_oracle is a dense test oracle; l={l} exceeds 2000")
    A, y, nu, B = problem.A, problem.labels, problem.nu, problem.B
    a0, At = (0.0, A) if problem.variant == REGULARISED else (A[:, 0], A[:, 1:])
    n_w = At.shape[1]
    p = 0 if B is None else B.shape[0]
    f = slice(n_w + 1, n_w + 1 + l)  # feasibility rows, dual columns
    YAt = At * y[:, None]
    K = np.zeros((n_w + 1 + l + p, n_w + 1 + l + p))
    rhs = np.zeros(len(K))
    K[:n_w, :n_w] = np.eye(n_w)
    K[:n_w, f] = -YAt.T
    K[n_w, n_w] = 1.0
    K[n_w, f] = y
    K[f, :n_w] = YAt
    K[f, n_w] = -y
    K[f, f] = np.eye(l) / nu
    rhs[f] = 1.0 - y * a0
    if p:
        # w-stationarity gains +B^T v; constraint rows pin B w = e1.
        K[:n_w, f.stop :] = B.T
        K[f.stop :, :n_w] = B
        rhs[f.stop] = 1.0
    sol = np.linalg.solve(K, rhs)
    return PredictSolution(w=sol[:n_w], gamma=float(sol[n_w]), u=sol[f])


def window_knots(window: IndexWindow) -> np.ndarray:
    """Knot positions of a window's coarse samples relative to its even target.

    On the current level's grid the coarse sample at window position i sits
    half a fine step left of where even sample i was taken, and coarse samples
    are two fine steps apart: the knots 2*(i - k) - 0.5, divided by 2L (into
    (-1, 1) on the window rule's windows) to condition B. A scaling about the
    target keeps row 0 of B all ones and scales row r, so {w : B w = e1} stays
    the same; a shift would move exact reproduction off the target."""
    idx = np.asarray(window.indices, dtype=float)
    return (2.0 * (idx - float(window.k)) - 0.5) / (2 * len(window))


def vandermonde_constraints(window: IndexWindow, degree: int) -> np.ndarray:
    """First `degree` Vandermonde rows over the window's centred knots.

    Row r (1-based) holds knots**(r-1), so B w = e1 forces sum(w) = 1 and all
    higher knot moments of w to zero: the predictor then reproduces
    polynomials of degree < `degree` exactly and their details vanish.
    """
    t = window_knots(window)
    return np.vstack([t ** r for r in range(constraint_degree(degree, len(window)))])


@lru_cache(maxsize=16)
def _window_bases(window: int, degree: int):
    """Read-only (B, w0, N) of the L = `window` knot patterns, at offset + L - 1:
    row j of a window matrix starts at offset o = columns[j, 0] - j, in 1-L..0,
    and has knots (2*(o + i) - 0.5) / (2L), so every level shares these L
    patterns, full rank at each degree `core.constraint_degree` admits.

    B_o = T_o B_c for an invertible binomial shift T_o of the knots, so every
    pattern has the null space of the centred one (o = L//2 + 1 - L, the best
    conditioned): one SVD of it gives the row-space basis Q and the L - p
    null-space rows N that all L patterns share. Each pattern's minimum-norm
    w0 = c Q, with (B Q^T) c = e1, is one stacked p x p solve, and one stacked
    SVD without vectors holds every pattern to the rank rule of `solve`.
    Cached: B (L x p x L), w0 (L x L) and the one N ((L - p) x L)."""
    knots = (2.0 * (np.arange(1 - window, 1)[:, None] + np.arange(window)) - 0.5) / (2 * window)
    B = np.array([np.vstack([t ** r for r in range(degree)]) for t in knots])
    _check_rank(np.linalg.svd(B, compute_uv=False))
    Vt = np.linalg.svd(B[window // 2])[2]
    Q, N = Vt[:degree], np.asfortranarray(Vt[degree:])  # so a stack's At @ N^T runs in BLAS
    w0 = np.linalg.solve(B @ Q.T, np.eye(degree)[0]) @ Q
    B.flags.writeable = w0.flags.writeable = N.flags.writeable = False
    return B, w0, N


def constraint_bases(columns, degree: int):
    """((B, w0, N), index): the cached, read-only `_window_bases` of a level's
    window matrix `columns` (`core.window_columns`) and each row's pattern,
    offset o at o + L - 1 = (o - 1) % L (a 1-wide window's o = 1 shares its
    one). Row j's constraints are B[index[j]] with minimum-norm solution
    w0[index[j]]; the null-space rows N serve every row. `vandermonde_constraints`
    of an `IndexWindow` is the reference spelling of B, for the tests and bench."""
    J, L = columns.shape
    bases = _window_bases(L, constraint_degree(degree, L))  # a bool or list never keys the cache
    return bases, (columns[:, 0] - np.arange(J) - 1) % L
