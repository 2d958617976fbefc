"""Per-window proximal-SVM solves behind the lifting predictor.

Three problem flavours share one objective, (1/2)||w||^2 + (1/2)gamma^2 +
(nu/2)||xi||^2, subject to an equality constraint tying the window prediction
to the labels:

  regularised      Y (A w - gamma e) + xi = e          w has L+1 entries
  nonregularised   Y (a0 + At w - gamma e) + xi = e    w has L entries,
                                                       a0 = first column of A
  constrained      nonregularised plus B w = e1        p extra dual variables

Eliminating xi turns each into one regularised least-squares problem in
z = (w, gamma): minimise (1/2)||z||^2 + (nu/2)||b - H z||^2 with H = Y [F, -e]
and b = e - y * offset, where (F, offset) is (A, 0) when regularised and
(At, a0) when not; the constrained case first substitutes w = w0 + Z q over
the null space of B. `solve` factors the stacked [[I/sqrt(nu), 0], [H, b]]
by one Householder QR and back-substitutes in the r x r triangle (r = L+2,
L+1 or L-p+1), so cost is linear in the number of examples and the error
depends on cond(H), where the normal equations H^T H + I/nu would square it.
`kkt_oracle` solves the identical problems by one dense factorization of the
full stationarity+feasibility system and exists to arbitrate `solve` in
tests; the two routes share no linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    validate_labels,
)

# Violations of the solver's own optimality/feasibility checks beyond this
# (relative) bound surface as NumericalError rather than a silent bad answer.
FEASIBILITY_RTOL = 1e-8
CONSTRAINT_ATOL = 1e-8


@dataclass(frozen=True)
class PredictProblem:
    """One window's training problem.

    A: l x (L+1) matrix; by convention the first column holds the prediction
    targets (the even samples) and the remaining L columns hold the negated
    coarse-window values. labels: +/-1 per example. B: optional p x L
    polynomial-constraint rows (nonregularised only).
    """

    A: np.ndarray
    labels: np.ndarray
    nu: float
    variant: str
    B: Optional[np.ndarray] = None

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2 or A.shape[1] < 1:
            raise DataError(f"A must be l x (L+1) with L >= 0, got shape {A.shape}")
        if not np.all(np.isfinite(A)):
            raise DataError("A contains non-finite values")
        y = validate_labels(self.labels, A.shape[0])
        if not (float(self.nu) > 0 and np.isfinite(self.nu)):
            raise ConfigError(f"nu must be positive and finite, got {self.nu}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "nu", float(self.nu))
        if self.B is not None:
            if self.variant != NONREGULARISED:
                raise ConfigError("constraints require the nonregularised variant")
            B = np.asarray(self.B, dtype=float)
            L = A.shape[1] - 1
            if B.ndim != 2 or B.shape[1] != L:
                raise ConfigError(f"B must be p x {L}, got shape {B.shape}")
            if B.shape[0] > L:
                raise ConfigError(f"constraint count {B.shape[0]} exceeds window {L}")
            if np.linalg.matrix_rank(B) < B.shape[0]:
                raise ConfigError("constraint matrix B is rank deficient")
            object.__setattr__(self, "B", B)

    @property
    def n_examples(self) -> int:
        return self.A.shape[0]

    @property
    def window(self) -> int:
        return self.A.shape[1] - 1


@dataclass(frozen=True)
class PredictSolution:
    w: np.ndarray
    gamma: float
    xi_norm: float
    u: np.ndarray
    v: Optional[np.ndarray] = None


def _signed(M: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-scale M by the label vector, i.e. diag(y) @ M without forming the diagonal."""
    return M * y[:, None]


def _least_squares(F: np.ndarray, offset, y: np.ndarray, nu: float):
    """Minimise (1/2)||z||^2 + (nu/2)||b - H z||^2 with H = Y [F, -e], b = e - y * offset.

    One QR of the stacked [[I/sqrt(nu), 0], [H, b]] keeps only R, whose
    leading r x r triangle and last column give z by back substitution.
    The I/sqrt(nu) rows come first, so each Householder reflector pivots on
    its column's 1/sqrt(nu) entry. Pivoting on a data row instead adds the
    column's norm to that row's entry: where a column of H is far smaller
    than 1/sqrt(nu), its data is lost to rounding and z comes back accurate
    in norm only, not entry by entry. Returns z and the dual
    u = nu (b - H z) after checking the stationarity identity z = H^T u,
    entry by entry, against the size of the terms that cancel in it.
    """
    l, n = F.shape
    r = n + 1
    M = np.zeros((r + l, r + 1), order="F")
    H, b = M[r:, :r], M[r:, r]
    np.multiply(F.T, y, out=H.T[:n])  # column by column: far faster into Fortran order
    np.negative(y, out=H[:, n])
    np.subtract(1.0, y * offset, out=b)
    np.fill_diagonal(M[:r, :r], 1.0 / np.sqrt(nu))
    R = np.linalg.qr(M, mode="r")
    z = np.linalg.solve(R[:r, :r], R[:r, r])
    u = nu * (b - H @ z)
    absH = np.abs(H)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves worst NaN
        terms = np.abs(z) + nu * (absH.T @ (np.abs(b) + absH @ np.abs(z)))
        worst = float(np.max(np.abs(z - H.T @ u) / np.maximum(1.0, terms)))
    if not worst <= FEASIBILITY_RTOL:
        raise NumericalError(f"stationarity residual {worst:.3e} exceeds tolerance")
    return z, u


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
    multipliers blow up; v is recovered afterwards by projecting that
    identity onto the constraint rows.
    """
    A, y, nu, B = problem.A, problem.labels, problem.nu, problem.B
    a0, At = A[:, 0], A[:, 1:]
    F, offset = (A, 0.0) if problem.variant == REGULARISED else (At, a0)
    if B is not None:
        l, p = A.shape[0], B.shape[0]
        e1 = np.zeros(p)
        e1[0] = 1.0
        U, s, Vt = np.linalg.svd(B, full_matrices=True)
        if s[-1] <= s[0] * 1e-12:
            raise ConfigError("constraint matrix B is numerically rank deficient")
        w0 = Vt[:p].T @ ((U.T @ e1) / s)
        Z = Vt[p:].T  # L x (L - p), B @ Z = 0
        F, offset = At @ Z, a0 + At @ w0

    z, u = _least_squares(F, offset, y, nu)
    w, gamma, v = z[:-1], float(z[-1]), None

    if B is not None:
        w = w0 + Z @ w
        rhs = At.T @ (y * u) - w
        v = U @ ((Vt[:p] @ rhs) / s)
        bw = B @ w - e1
        if float(np.max(np.abs(bw))) > CONSTRAINT_ATOL * max(1.0, float(np.max(np.abs(B)))):
            raise NumericalError(
                f"constraint residual {float(np.max(np.abs(bw))):.3e} exceeds tolerance"
            )
        err = float(np.linalg.norm(y * (a0 + At @ w - gamma) + u / nu - np.ones(l)))
        scale = np.sqrt(l) + float(np.linalg.norm(a0)) + float(np.linalg.norm(u))
        if not np.isfinite(err) or err > FEASIBILITY_RTOL * max(1.0, scale):
            raise NumericalError(
                f"constrained feasibility residual {err:.3e} exceeds tolerance"
            )
    return PredictSolution(
        w=w, gamma=gamma, xi_norm=float(np.linalg.norm(u)) / nu, u=u, v=v
    )


def kkt_oracle(problem: PredictProblem) -> PredictSolution:
    """Reference solution by one dense factorization of the full KKT system.

    Assembles stationarity in (w, gamma), feasibility with xi eliminated as
    u/nu, and (when present) the constraint rows, then solves the whole
    (n_w + 1 + l [+ p]) system at once. Test arbiter for the fast paths.
    """
    l = problem.n_examples
    if l > 2000:
        raise ConfigError(f"kkt_oracle is a dense test oracle; l={l} exceeds 2000")
    A, y, nu = problem.A, problem.labels, problem.nu
    e = np.ones(l)
    Ye = y * e

    if problem.variant == REGULARISED:
        n_w = A.shape[1]
        YA = _signed(A, y)
        dim = n_w + 1 + l
        K = np.zeros((dim, dim))
        rhs = np.zeros(dim)
        K[:n_w, :n_w] = np.eye(n_w)
        K[:n_w, n_w + 1 :] = -YA.T
        K[n_w, n_w] = 1.0
        K[n_w, n_w + 1 :] = Ye
        K[n_w + 1 :, :n_w] = YA
        K[n_w + 1 :, n_w] = -Ye
        K[n_w + 1 :, n_w + 1 :] = np.eye(l) / nu
        rhs[n_w + 1 :] = e
        sol = np.linalg.solve(K, rhs)
        w, gamma, u = sol[:n_w], float(sol[n_w]), sol[n_w + 1 :]
        return PredictSolution(
            w=w, gamma=gamma, xi_norm=float(np.linalg.norm(u)) / nu, u=u
        )

    a0, At = A[:, 0], A[:, 1:]
    n_w = At.shape[1]
    YAt = _signed(At, y)
    p = 0 if problem.B is None else problem.B.shape[0]
    dim = n_w + 1 + l + p
    K = np.zeros((dim, dim))
    rhs = np.zeros(dim)
    K[:n_w, :n_w] = np.eye(n_w)
    K[:n_w, n_w + 1 : n_w + 1 + l] = -YAt.T
    K[n_w, n_w] = 1.0
    K[n_w, n_w + 1 : n_w + 1 + l] = Ye
    K[n_w + 1 : n_w + 1 + l, :n_w] = YAt
    K[n_w + 1 : n_w + 1 + l, n_w] = -Ye
    K[n_w + 1 : n_w + 1 + l, n_w + 1 : n_w + 1 + l] = np.eye(l) / nu
    rhs[n_w + 1 : n_w + 1 + l] = e - y * a0
    if p:
        # w-stationarity gains +B^T v; constraint rows pin B w = e1.
        K[:n_w, n_w + 1 + l :] = problem.B.T
        K[n_w + 1 + l :, :n_w] = problem.B
        rhs[n_w + 1 + l] = 1.0
    sol = np.linalg.solve(K, rhs)
    w, gamma, u = sol[:n_w], float(sol[n_w]), sol[n_w + 1 : n_w + 1 + l]
    v = sol[n_w + 1 + l :] if p else None
    return PredictSolution(
        w=w, gamma=gamma, xi_norm=float(np.linalg.norm(u)) / nu, u=u, v=v
    )


def window_knots(window: IndexWindow) -> np.ndarray:
    """Knot positions of a window's coarse samples relative to its even target.

    On the current level's grid the coarse sample at window position i sits
    half a fine step left of where even sample i was taken, and adjacent
    coarse samples are two fine steps apart, so the relative positions are
    2*(i - k) - 0.5: half-integers centred at the prediction target. Any
    affine rescaling of these knots leaves the reproduction property intact.
    """
    idx = np.asarray(window.indices, dtype=float)
    return 2.0 * (idx - float(window.k)) - 0.5


def vandermonde_constraints(window: IndexWindow, degree: int) -> np.ndarray:
    """First `degree` Vandermonde rows over the window's centred knots.

    Row r (1-based) holds knots**(r-1), so B w = e1 forces sum(w) = 1 and all
    higher knot moments of w to zero: the predictor then reproduces
    polynomials of degree < `degree` exactly and their details vanish.
    """
    p = int(degree)
    L = len(window)
    if p < 1 or p > L:
        raise ConfigError(f"degree must lie in 1..{L}, got {degree}")
    t = window_knots(window)
    return np.vstack([t ** r for r in range(p)])


def objective_value(problem: PredictProblem, solution: PredictSolution) -> float:
    """Primal objective with xi recovered from the equality constraint."""
    A, y = problem.A, problem.labels
    if problem.variant == REGULARISED:
        margin = A @ solution.w - solution.gamma
    else:
        margin = A[:, 0] + A[:, 1:] @ solution.w - solution.gamma
    xi = np.ones_like(y) - y * margin
    return 0.5 * float(solution.w @ solution.w) + 0.5 * solution.gamma ** 2 + (
        problem.nu / 2.0
    ) * float(xi @ xi)

