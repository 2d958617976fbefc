"""Per-window proximal-SVM solves behind the lifting predictor.

Three problem flavours share one objective, (1/2)||w||^2 + (1/2)gamma^2 +
(nu/2)||xi||^2, subject to an equality constraint tying the window prediction
to the labels:

  regularised      Y (A w - gamma e) + xi = e          w has L+1 entries
  nonregularised   Y (a0 + At w - gamma e) + xi = e    w has L entries,
                                                       a0 = first column of A
  constrained      nonregularised plus B w = e1        p extra dual variables

All fast paths reduce to one r x r factorization via the Sherman-Morrison-
Woodbury identity (r = L+2, L+1, or L-p+1 respectively; the constrained case
first eliminates the constraints through a null-space substitution), so cost
is linear in the number of examples. `kkt_oracle` solves the identical problems by one
dense factorization of the full stationarity+feasibility system and exists to
arbitrate the fast path in tests; the two routes share no linear algebra.
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


def smw_solve(H1: np.ndarray, H2: np.ndarray, nu: float, b: np.ndarray) -> np.ndarray:
    """Solve (I/nu + H1 @ H2.T) u = b touching only one r x r factorization.

    Expansion of the Sherman-Morrison-Woodbury identity for this shape:
    u = nu * (b - H1 @ (I/nu + H2.T @ H1)^{-1} @ (H2.T @ b)). The inner matrix
    pairs H2.T with H1; the order matters when H1 != H2.
    """
    H1 = np.asarray(H1, dtype=float)
    H2 = np.asarray(H2, dtype=float)
    b = np.asarray(b, dtype=float)
    if H1.shape != H2.shape or H1.ndim != 2 or b.shape != (H1.shape[0],):
        raise ConfigError(
            f"shape mismatch: H1 {H1.shape}, H2 {H2.shape}, b {b.shape}"
        )
    nu = float(nu)
    if not (nu > 0 and np.isfinite(nu)):
        raise ConfigError(f"nu must be positive and finite, got {nu}")
    r = H1.shape[1]
    inner = H2.T @ H1 + np.eye(r) / nu
    try:
        t = np.linalg.solve(inner, H2.T @ b)
    except np.linalg.LinAlgError as exc:
        cond = float(np.linalg.cond(inner)) if r else float("inf")
        raise NumericalError(
            f"inner {r} x {r} system is singular (cond ~ {cond:.3e})"
        ) from exc
    return nu * (b - H1 @ t)


def _signed(M: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-scale M by the label vector, i.e. diag(y) @ M without forming the diagonal."""
    return M * y[:, None]


def _check_residual(resid: np.ndarray, scale: float, what: str) -> None:
    err = float(np.linalg.norm(resid))
    if not np.isfinite(err) or err > FEASIBILITY_RTOL * max(1.0, scale):
        raise NumericalError(f"{what} residual {err:.3e} exceeds tolerance")


def solve_regularised(problem: PredictProblem) -> PredictSolution:
    """Fast path for the regularised variant (all columns carry free weights)."""
    if problem.variant != REGULARISED:
        raise ConfigError("problem.variant must be 'regularised'")
    A, y, nu = problem.A, problem.labels, problem.nu
    l = A.shape[0]
    e = np.ones(l)
    H = _signed(np.hstack([A, -e[:, None]]), y)
    u = smw_solve(H, H, nu, e)
    z = H.T @ u  # stacks (w, gamma): last entry is (-e)^T Y u
    w, gamma = z[:-1], float(z[-1])
    _check_residual(
        H @ z + u / nu - e,
        np.sqrt(l) + float(np.linalg.norm(u)),
        "regularised feasibility",
    )
    return PredictSolution(w=w, gamma=gamma, xi_norm=float(np.linalg.norm(u)) / nu, u=u)


def solve_nonregularised(problem: PredictProblem) -> PredictSolution:
    """Fast path when the first column enters with fixed unit weight."""
    if problem.variant != NONREGULARISED:
        raise ConfigError("problem.variant must be 'nonregularised'")
    if problem.B is not None:
        raise ConfigError("problem has constraints; use solve_constrained")
    A, y, nu = problem.A, problem.labels, problem.nu
    l = A.shape[0]
    e = np.ones(l)
    a0, At = A[:, 0], A[:, 1:]
    H = _signed(np.hstack([At, -e[:, None]]), y)
    b = e - y * a0
    u = smw_solve(H, H, nu, b)
    z = H.T @ u
    w, gamma = z[:-1], float(z[-1])
    _check_residual(
        H @ z + u / nu - b,
        float(np.linalg.norm(b)) + float(np.linalg.norm(u)),
        "nonregularised feasibility",
    )
    return PredictSolution(w=w, gamma=gamma, xi_norm=float(np.linalg.norm(u)) / nu, u=u)


def solve_constrained(problem: PredictProblem) -> PredictSolution:
    """Nonregularised variant with polynomial-reproduction constraints B w = e1.

    Splits the weights into a fixed particular part plus a free part in the
    null space of B: w = w0 + Z q, with B w0 = e1 (minimum norm) and Z an
    orthonormal null-space basis from the SVD of B. Since w0 is orthogonal to
    that null space the objective separates, and (q, gamma) solve a plain
    nonregularised problem whose first column absorbs At @ w0 and whose window
    shrinks to L - p. Assembling w this way avoids the cancellation in the
    stationarity identity w = At^T Y u - B^T v, whose two terms can dwarf w
    itself when nu is large and the constraint multipliers blow up; v is
    recovered afterwards by projecting that identity onto the constraint rows.
    """
    if problem.variant != NONREGULARISED or problem.B is None:
        raise ConfigError("solve_constrained needs a nonregularised problem with B")
    A, y, nu, B = problem.A, problem.labels, problem.nu, problem.B
    l, p = A.shape[0], B.shape[0]
    e1 = np.zeros(p)
    e1[0] = 1.0
    a0, At = A[:, 0], A[:, 1:]

    U, s, Vt = np.linalg.svd(B, full_matrices=True)
    if s[-1] <= s[0] * 1e-12:
        raise ConfigError("constraint matrix B is numerically rank deficient")
    w0 = Vt[:p].T @ ((U.T @ e1) / s)
    Z = Vt[p:].T  # L x (L - p), B @ Z = 0

    reduced = PredictProblem(
        A=np.hstack([(a0 + At @ w0)[:, None], At @ Z]),
        labels=y,
        nu=nu,
        variant=NONREGULARISED,
    )
    inner = solve_nonregularised(reduced)
    w = w0 + Z @ inner.w
    u = inner.u
    rhs = At.T @ (y * u) - w
    v = U @ ((Vt[:p] @ rhs) / s)

    bw = B @ w - e1
    if float(np.max(np.abs(bw))) > CONSTRAINT_ATOL * max(1.0, float(np.max(np.abs(B)))):
        raise NumericalError(
            f"constraint residual {float(np.max(np.abs(bw))):.3e} exceeds tolerance"
        )
    resid = y * (a0 + At @ w - inner.gamma) + u / nu - np.ones(l)
    _check_residual(
        resid,
        np.sqrt(l) + float(np.linalg.norm(a0)) + float(np.linalg.norm(u)),
        "constrained feasibility",
    )
    return PredictSolution(
        w=w, gamma=inner.gamma, xi_norm=inner.xi_norm, u=u, v=v
    )


def solve(problem: PredictProblem) -> PredictSolution:
    """Dispatch on variant / constraint presence."""
    if problem.variant == REGULARISED:
        return solve_regularised(problem)
    if problem.B is not None:
        return solve_constrained(problem)
    return solve_nonregularised(problem)


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

