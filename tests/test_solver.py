"""Window solvers against the dense KKT oracle, plus structural checks.

The oracle assembles the full stationarity + feasibility system and solves it
by one dense factorization; `solve` must agree with it on every
randomized problem. Derived closed-form fixtures below were computed by hand
before the solver existed and are frozen here.
"""

import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from discwave.core import (
    ConfigError,
    DataError,
    IndexWindow,
    NumericalError,
    index_window,
    window_columns,
)
from discwave import solver
from discwave.solver import (
    PredictProblem,
    PredictSolution,
    kkt_oracle,
    solve,
    vandermonde_constraints,
    window_knots,
)

REL_TOL = 1e-8


def random_problem(rng, l, L, nu, variant, p=0, scale=1.0):
    A = scale * rng.standard_normal((l, L + 1))
    y = np.where(rng.standard_normal(l) > 0, 1.0, -1.0)
    if np.all(y > 0) or np.all(y < 0):
        y[0] = -y[0]
    B = None
    if p > 0:
        win = IndexWindow(k=4, indices=tuple(range(3, 3 + L)))
        B = vandermonde_constraints(win, p)
    return PredictProblem(A=A, labels=y, nu=nu, variant=variant, B=B)


def objective_value(problem, solution):
    """Primal objective with xi recovered from the equality constraint."""
    A, y = problem.A, problem.labels
    a0, At = (0.0, A) if problem.variant == "regularised" else (A[:, 0], A[:, 1:])
    xi = 1.0 - y * (a0 + At @ solution.w - solution.gamma)
    return 0.5 * float(solution.w @ solution.w) + 0.5 * solution.gamma ** 2 + (
        problem.nu / 2.0
    ) * float(xi @ xi)


def rel_diff(sol, ref):
    scale = max(1.0, float(np.max(np.abs(ref.w))), abs(ref.gamma))
    return max(float(np.max(np.abs(sol.w - ref.w))), abs(sol.gamma - ref.gamma)) / scale


def test_regularised_unit_fixture():
    # l=2, single-column A (degenerate L=0, unit fixture only), antisymmetric
    # data: hand-solved normal equations give w = 2/3 and zero bias.
    prob = PredictProblem(
        A=np.array([[1.0], [-1.0]]),
        labels=np.array([1.0, -1.0]),
        nu=1.0,
        variant="regularised",
    )
    sol = solve(prob)
    assert sol.gamma == pytest.approx(0.0, abs=1e-12)
    assert sol.w[0] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_regularised_matches_oracle_random():
    rng = np.random.default_rng(10)
    prob = random_problem(rng, 20, 4, 1.0, "regularised")
    assert rel_diff(solve(prob), kkt_oracle(prob)) < 1e-10


def test_nonregularised_matches_oracle_random():
    rng = np.random.default_rng(11)
    prob = random_problem(rng, 30, 4, 1.0, "nonregularised")
    assert rel_diff(solve(prob), kkt_oracle(prob)) < 1e-10


def test_constrained_matches_oracle_random():
    rng = np.random.default_rng(12)
    prob = random_problem(rng, 30, 4, 1.0, "nonregularised", p=2)
    assert rel_diff(solve(prob), kkt_oracle(prob)) < REL_TOL


def test_oracle_agreement_grid():
    # The data scale sweeps far from unit size: a solve that squares cond(H)
    # loses all accuracy, or fails its own checks, by 1e6.
    rng = np.random.default_rng(13)
    cases = 0
    for variant, p in (("regularised", 0), ("nonregularised", 0), ("nonregularised", 1), ("nonregularised", 2)):
        for l in (10, 50, 200):
            for L in (2, 4, 8):
                for nu in (0.1, 1.0, 100.0):
                    for scale in (1e-6, 1.0, 1e3, 1e6, 1e9):
                        prob = random_problem(rng, l, L, nu, variant, p=p, scale=scale)
                        assert rel_diff(solve(prob), kkt_oracle(prob)) < REL_TOL, (
                            variant, p, l, L, nu, scale,
                        )
                        cases += 1
    assert cases == 4 * 3 * 3 * 3 * 5


def exact_constrained_solution(problem):
    """(w, gamma) of a constrained problem, solved exactly in rationals.

    Every float entry becomes a Fraction first. With H = Y [At, -e] and
    b = e - y * a0, stationarity and B w = e1 give the reduced KKT system
    (I + nu H^T H) z + [B, 0]^T v = nu H^T b, [B, 0] z = e1 in z = (w, gamma)
    and the multipliers v, solved by Gauss-Jordan elimination. It shares no
    arithmetic with `solve` or `kkt_oracle`.
    """
    A = [[Fraction(float(a)) for a in row] for row in problem.A]
    y = [Fraction(float(v)) for v in problem.labels]
    nu = Fraction(problem.nu)
    B = [[Fraction(float(c)) for c in row] for row in problem.B]
    n, p = len(A[0]), len(B)  # z = (w, gamma) has L + 1 = n entries
    H = [[yi * a for a in row[1:]] + [-yi] for yi, row in zip(y, A)]
    b = [1 - yi * row[0] for yi, row in zip(y, A)]
    M = [[nu * sum(h[i] * h[j] for h in H) + (i == j) for j in range(n)]
         + [B[r][i] if i < n - 1 else Fraction(0) for r in range(p)]
         + [nu * sum(h[i] * bk for h, bk in zip(H, b))] for i in range(n)]
    M += [B[r] + [Fraction(0)] * (p + 1) + [Fraction(r == 0)] for r in range(p)]
    for c in range(n + p):
        pivot = next(i for i in range(c, n + p) if M[i][c] != 0)
        M[c], M[pivot] = M[pivot], M[c]
        M[c] = [m / M[c][c] for m in M[c]]
        for i in range(n + p):
            if i != c and M[i][c] != 0:
                M[i] = [mi - M[i][c] * mc for mi, mc in zip(M[i], M[c])]
    z = [row[-1] for row in M[:n]]
    assert all(sum(br * wi for br, wi in zip(row, z)) == (r == 0) for r, row in enumerate(B))
    return np.array([float(zi) for zi in z[:-1]]), float(z[-1])


def test_constrained_solve_matches_an_exact_solve_at_high_degree():
    # kkt_oracle arbitrates only up to degree 6 (at window 16, degree 15 it
    # errs by 5e-6 to 1, by offset), so above that `solve` is checked against the exact
    # rational solution of its own problem, with B built here from the
    # window's knots (2(o + i) - 1/2)/(2L), not from constraint_bases. At the
    # centred offset o = -L/2 it holds 1e-8 at every degree. At the edge
    # offset o = 1 - L, degree 15, cond(B) is 3.9e11 and no backward-stable
    # solve can promise better than cond(B) * eps; `solve` errs by 3.6e-7
    # there. Degree 3 checks the exact solve itself against the oracle.
    rng = np.random.default_rng(35)
    l, L = 24, 16
    labels = np.repeat([1.0, -1.0], l // 2)
    for degree, o in ((3, -L // 2), (7, -L // 2), (11, -L // 2), (15, -L // 2), (15, 1 - L)):
        t = (2.0 * (o + np.arange(L)) - 0.5) / (2 * L)
        B = np.vstack([t ** r for r in range(degree)])
        prob = PredictProblem(A=rng.standard_normal((l, L + 1)), labels=labels, nu=1.0,
                              variant="nonregularised", B=B)
        w, gamma = exact_constrained_solution(prob)
        scale = max(np.max(np.abs(w)), abs(gamma))
        s = np.linalg.svd(B, compute_uv=False)
        bound = 1e-8 if o == -L // 2 else 1e-16 * s[0] / s[-1]
        for sol in [solve(prob)] + ([kkt_oracle(prob)] if degree <= 6 else []):
            error = max(np.max(np.abs(sol.w - w)), abs(sol.gamma - gamma)) / scale
            assert error <= bound, (degree, o, error)


def test_small_scale_weights_match_oracle_entrywise():
    # Far below unit data scale w is tiny beside gamma, so agreement in norm
    # says nothing about w; each entry must still match the oracle's.
    rng = np.random.default_rng(28)
    for variant, p in (("regularised", 0), ("nonregularised", 0), ("nonregularised", 2)):
        for scale in (1e-10, 1e-20):
            for nu in (0.1, 1.0, 100.0):
                prob = random_problem(rng, 50, 4, nu, variant, p=p, scale=scale)
                got, ref = solve(prob).w, kkt_oracle(prob).w
                assert np.all(np.abs(got - ref) <= REL_TOL * np.abs(ref)), (
                    variant, p, scale, nu,
                )


def test_stationarity_residuals():
    rng = np.random.default_rng(14)
    for variant, p in (("regularised", 0), ("nonregularised", 0), ("nonregularised", 2)):
        prob = random_problem(rng, 40, 4, 2.0, variant, p=p)
        sol = solve(prob)
        y = prob.labels
        yu = y * sol.u
        if variant == "regularised":
            grad_w = sol.w - prob.A.T @ yu
        else:
            grad_w = sol.w - prob.A[:, 1:].T @ yu
            if prob.B is not None:
                # w = A1^T (y u) - B^T v holds for some multipliers v exactly
                # when its residual is orthogonal to null(B), which Z spans.
                Z = np.linalg.svd(prob.B)[2][p:].T
                grad_w = Z.T @ grad_w
        assert np.max(np.abs(grad_w)) < 1e-8
        assert abs(sol.gamma + np.sum(yu)) < 1e-8


def test_feasibility_with_xi_from_dual():
    rng = np.random.default_rng(15)
    for variant, p in (("regularised", 0), ("nonregularised", 0), ("nonregularised", 1)):
        prob = random_problem(rng, 25, 4, 0.5, variant, p=p)
        sol = solve(prob)
        if variant == "regularised":
            margin = prob.A @ sol.w - sol.gamma
        else:
            margin = prob.A[:, 0] + prob.A[:, 1:] @ sol.w - sol.gamma
        resid = prob.labels * margin + sol.u / prob.nu - np.ones_like(prob.labels)
        assert np.max(np.abs(resid)) < 1e-8


def test_xi_norm_monotone_in_nu():
    rng = np.random.default_rng(16)
    for variant in ("regularised", "nonregularised"):
        A = rng.standard_normal((30, 5))
        y = np.where(rng.standard_normal(30) > 0, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        norms = []
        for nu in (0.1, 1.0, 10.0, 1e6):
            prob = PredictProblem(A=A, labels=y, nu=nu, variant=variant)
            norms.append(np.linalg.norm(solve(prob).u) / nu)
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def test_sampled_optimality():
    # The returned solution must not lose to any feasible perturbation.
    rng = np.random.default_rng(17)
    for variant, p in (("regularised", 0), ("nonregularised", 0), ("nonregularised", 2)):
        prob = random_problem(rng, 30, 4, 1.0, variant, p=p)
        sol = solve(prob)
        base = objective_value(prob, sol)
        n_w = sol.w.size
        for _ in range(50):
            dw = 0.1 * rng.standard_normal(n_w)
            if prob.B is not None:
                # project the step onto the constraint null space
                BT = prob.B.T
                dw = dw - BT @ np.linalg.solve(prob.B @ BT, prob.B @ dw)
            cand = PredictSolution(
                w=sol.w + dw,
                gamma=sol.gamma + 0.1 * rng.standard_normal(),
                u=sol.u,
            )
            assert objective_value(prob, cand) >= base - 1e-10


def test_constraint_satisfied_exactly():
    rng = np.random.default_rng(18)
    for p in (1, 2):
        prob = random_problem(rng, 40, 6, 1.0, "nonregularised", p=p)
        sol = solve(prob)
        target = np.zeros(p)
        target[0] = 1.0
        assert np.max(np.abs(prob.B @ sol.w - target)) < 1e-10


def test_constrained_p1_weights_sum_to_one():
    rng = np.random.default_rng(19)
    prob = random_problem(rng, 20, 4, 0.5, "nonregularised", p=1)
    sol = solve(prob)
    assert np.sum(sol.w) == pytest.approx(1.0, abs=1e-10)


def test_smw_factors_only_small_systems(monkeypatch):
    # structural cost check: no l x l system is ever formed. Every
    # np.linalg.solve is on an r x r triangle (r <= L+2) and every QR input
    # is l-plus-r tall but at most L+3 columns wide. Calls are stacked, so
    # the bounds apply to the trailing two axes of each shape.
    solve_shapes, qr_shapes = [], []
    real_solve, real_qr = np.linalg.solve, np.linalg.qr

    def recording_solve(a, b):
        solve_shapes.append(np.asarray(a).shape)
        return real_solve(a, b)

    def recording_qr(a, *args, **kwargs):
        qr_shapes.append(np.asarray(a).shape)
        return real_qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    monkeypatch.setattr(np.linalg, "qr", recording_qr)
    rng = np.random.default_rng(23)
    L = 4
    for variant, p in (("regularised", 0), ("nonregularised", 0), ("nonregularised", 2)):
        solve(random_problem(rng, 500, L, 1.0, variant, p=p))
    assert len(qr_shapes) == 3 and solve_shapes, (qr_shapes, solve_shapes)
    assert all(s[-2] <= L + 2 and s[-1] <= L + 2 for s in solve_shapes), solve_shapes
    assert all(s[-1] <= L + 3 for s in qr_shapes), qr_shapes


def test_wrong_solution_fails_stationarity_check(monkeypatch):
    # The solve checks its own answer: weights off by 1e-6 must raise.
    real_solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: real_solve(a, b) + 1e-6)
    rng = np.random.default_rng(29)
    for variant, p in (("regularised", 0), ("nonregularised", 0), ("nonregularised", 2)):
        for scale in (1.0, 1e6):
            prob = random_problem(rng, 50, 4, 1.0, variant, p=p, scale=scale)
            with pytest.raises(NumericalError, match="stationarity"):
                solve(prob)


def test_single_class_rejected():
    with pytest.raises(DataError):
        PredictProblem(
            A=np.ones((3, 3)),
            labels=np.array([1.0, 1.0, 1.0]),
            nu=1.0,
            variant="regularised",
        )


def test_bad_nu_rejected():
    for nu in (0.0, True, "1.0", 10**400):
        with pytest.raises(ConfigError, match=r"^nu must lie in \(0, inf\)"):
            PredictProblem(
                A=np.ones((2, 3)),
                labels=np.array([1.0, -1.0]),
                nu=nu,
                variant="regularised",
            )


def test_rank_deficient_constraints_rejected():
    B = np.array([[1.0, 1.0, 1.0, 1.0], [2.0, 2.0, 2.0, 2.0]])
    with pytest.raises(ConfigError):
        PredictProblem(
            A=np.ones((4, 5)),
            labels=np.array([1.0, -1.0, 1.0, -1.0]),
            nu=1.0,
            variant="nonregularised",
            B=B,
        )


def test_constraints_held_to_the_rank_rule_of_solve():
    # Within matrix_rank's tolerance this B has rank 2, but solve's null-space
    # split calls it rank deficient; the problem is rejected when it is built.
    B = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1e-13, 0.0, 0.0]])
    A = np.random.default_rng(29).standard_normal((12, 5))
    with pytest.raises(ConfigError, match="numerically rank deficient"):
        PredictProblem(A=A, labels=np.tile([1.0, -1.0], 6), nu=1.0,
                       variant="nonregularised", B=B)


@pytest.mark.parametrize("B, message", [
    # no rows: nothing for B w = e1 to pin
    (np.zeros((0, 4)), "B must be an l x 4 matrix with at least one row, got shape (0, 4)"),
    (np.array([[1.0, np.inf, 0.0, 0.0]]), "B contains non-finite values"),
    (np.array([[1.0, np.nan, 0.0, 0.0]]), "B contains non-finite values"),
    (np.ones((1, 3)), "B must be an l x 4 matrix, got shape (1, 3)"),
    (np.ones(4), "B must be an l x 4 matrix, got shape (4,)"),
    ([["x", 0.0, 0.0, 0.0]], "B is not a matrix of numbers"),
], ids=["no rows", "inf", "nan", "wrong width", "one row as 1-D", "string"])
def test_empty_or_non_finite_constraints_rejected(B, message):
    # B passes the one float-matrix rule: a bad matrix is a DataError.
    A = np.random.default_rng(30).standard_normal((12, 5))
    with pytest.raises(DataError, match=f"^{re.escape(message)}"):
        PredictProblem(A=A, labels=np.tile([1.0, -1.0], 6), nu=1.0,
                       variant="nonregularised", B=B)


def test_problem_of_no_columns_unknown_variant_or_regularised_constraints_rejected():
    y = np.array([1.0, -1.0])
    message = re.escape("A must be l x (L+1) with L >= 0, got shape (2, 0)")
    with pytest.raises(DataError, match=f"^{message}$"):
        PredictProblem(A=np.ones((2, 0)), labels=y, nu=1.0, variant="regularised")
    with pytest.raises(ConfigError, match="^unknown variant 'lasso'$"):
        PredictProblem(A=np.ones((2, 3)), labels=y, nu=1.0, variant="lasso")
    with pytest.raises(ConfigError, match="^constraints require the nonregularised variant$"):
        PredictProblem(A=np.ones((2, 3)), labels=y, nu=1.0, variant="regularised",
                       B=np.ones((1, 3)))


DEGREE_5_OVER_WINDOW_4 = r"^degree must lie in 1\.\.min\(window, 15\) = 1\.\.4, got 5$"


def test_vandermonde_degree_above_the_window_rejected():
    with pytest.raises(ConfigError, match=DEGREE_5_OVER_WINDOW_4):
        vandermonde_constraints(IndexWindow(k=2, indices=(1, 2, 3, 4)), 5)


def test_constraint_bases_are_the_reference_rows_of_each_window():
    # Row j's pattern holds window k = j + 1's Vandermonde rows over its
    # knots, built through IndexWindow, and their null-space split.
    for half, L in ((8, 2), (8, 4), (16, 4), (16, 8), (32, 6)):
        columns = window_columns(half, L)
        for degree in range(1, min(L, 5) + 1):
            (B, w0, N), index = solver.constraint_bases(columns, degree)
            assert B.shape == (L, degree, L) and w0.shape == (L, L)
            assert N.shape == (L, L - degree, L) and index.shape == (half,)
            for j, i in enumerate(index):
                rows = vandermonde_constraints(index_window(j + 1, half, L), degree)
                assert B[i].tobytes() == rows.tobytes(), (half, L, degree, j)
                w0_j, N_j = solver._null_space_split(rows)
                assert w0[i].tobytes() == w0_j.tobytes() and N[i].tobytes() == N_j.tobytes()


def test_every_level_has_the_offset_patterns_of_a_full_window():
    # The premise of constraint_bases' one build per (window, degree): row
    # j of any level's window matrix, taken relative to j, is one of the L
    # rows of window_columns(L, L), and each of them occurs. Only a 1-wide
    # window, whose one pattern has no knot dependence, breaks the rule.
    for L in range(2, 33):
        full = window_columns(L, L) - np.arange(L)[:, None]
        assert sorted(full[:, 0]) == list(range(1 - L, 1))
        for half in range(L, 4 * L + 3):
            relative = window_columns(half, L) - np.arange(half)[:, None]
            assert np.array_equal(np.unique(relative, axis=0), np.unique(full, axis=0)), (L, half)


def test_constraint_bases_of_a_one_wide_window_are_its_reference_rows():
    for half in (1, 2, 5):
        (B, w0, N), index = solver.constraint_bases(window_columns(half, 1), 1)
        assert N.shape == (1, 0, 1) and index.shape == (half,)
        for j, i in enumerate(index):
            rows = vandermonde_constraints(index_window(j + 1, half, 1), 1)
            w0_j, N_j = solver._null_space_split(rows)
            assert B[i].tobytes() == rows.tobytes()
            assert w0[i].tobytes() == w0_j.tobytes() and N[i].tobytes() == N_j.tobytes()


def smallest_singular_ratio(L, ks):
    # s[-1] / s[0] of the degree-15 rows of the windows k in ks over coarse
    # columns 1..L, which have the offsets 1 - k; 1e-12 is the rank rule.
    win = tuple(range(1, L + 1))
    ratios = [np.linalg.svd(vandermonde_constraints(IndexWindow(k=k, indices=win), 15),
                            compute_uv=False) for k in ks]
    return min(s[-1] / s[0] for s in ratios)


def test_constraint_rows_are_full_rank_up_to_the_degree_bound():
    # Every degree core.constraint_degree admits passes the rank rule at
    # every window: on knots scaled by 1/(2L), degree min(L, 15) does, and
    # by interlacing the ratio cannot fall when rows are dropped, so every
    # lower degree does too. Each window matrix of width L has the L offset
    # patterns of window_columns(L, L).
    for L in range(2, 129, 2):
        solver.constraint_bases(window_columns(L, L), min(L, 15))
        message = rf"^degree must lie in 1\.\.min\(window, 15\) = 1\.\.{min(L, 15)}, got "
        with pytest.raises(ConfigError, match=message):
            solver.constraint_bases(window_columns(L, L), min(L, 15) + 1)
    # wider windows by singular values only, since _window_bases holds ~L^3 floats
    for L in (256, 512):
        assert smallest_singular_ratio(L, range(1, L + 1)) > 1e-12
    assert smallest_singular_ratio(4096, (1, 4096)) > 1e-12  # the extreme offsets


def test_constraint_bases_degree_above_the_window_rejected():
    with pytest.raises(ConfigError, match=DEGREE_5_OVER_WINDOW_4):
        solver.constraint_bases(window_columns(8, 4), 5)


def test_cached_constraint_bases_are_read_only():
    # The bases are cached per (window, degree) and handed out as they are;
    # a caller's write must raise, not reach the next level's rows.
    columns = window_columns(8, 4)
    first, index = solver.constraint_bases(columns, 2)
    reference = [a.copy() for a in first]
    for a in first:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = np.nan
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] += 1.0
    second, again = solver.constraint_bases(columns, 2)
    assert again.tobytes() == index.tobytes()
    for a, b in zip(second, reference):
        assert a.tobytes() == b.tobytes()


def test_cold_window_bases_build_holds_one_pattern_beside_the_cache():
    # Filled a pattern at a time: a cold build of the L = 128, degree 3 bases
    # (16.1 MiB) peaks less than 1 MiB above what it keeps, where stacking a
    # list of per-pattern splits would hold the cache twice.
    solver._window_bases.cache_clear()
    tracemalloc.start()
    try:
        bases = solver._window_bases(128, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for a in bases)
    assert held > 16 * 2 ** 20 and peak <= held + 2 ** 20


def test_solve_windows_gathers_constraint_bases_a_stack_at_a_time():
    # A level's J x L x (L - p) stack of null-space rows is 62 MiB at 512
    # positions of window 128 and degree 3; solve_windows gathers each
    # stack's rows from the cached bases instead, so once the cache is built
    # its peak is a few stacks.
    rng = np.random.default_rng(0)
    l, half, L, degree = 40, 512, 128, 3
    targets, coarse = rng.normal(size=(l, half)), rng.normal(size=(l, half))
    labels = np.repeat([1.0, -1.0], l // 2)
    columns = window_columns(half, L)
    solver._window_bases(L, degree)
    tracemalloc.start()
    try:
        solver.solve_windows(targets, coarse, columns, labels, 1.0, "nonregularised", degree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


def test_windows_over_non_finite_coarse_values_rejected():
    # Coarse column 7 (0-based) lies in the windows of positions 6, 7 and 8.
    coarse = np.ones((4, 8))
    coarse[2, 7] = np.nan
    with pytest.raises(DataError, match="^position k=6: A contains non-finite values$"):
        solver.solve_windows(np.ones((4, 8)), coarse, window_columns(8, 4),
                             np.array([1.0, -1.0, 1.0, -1.0]), 1.0, "nonregularised")


Y4 = np.array([1.0, -1.0, 1.0, -1.0])


@pytest.mark.parametrize("labels, variant, degree, error, message", [
    (Y4, "bogus", 0, ConfigError, "unknown variant 'bogus'"),
    (Y4, "regularised", 2, ConfigError, "constraints require the nonregularised variant"),
    (np.ones(4), "nonregularised", 0, DataError, "need at least one example of each label"),
    (np.zeros(4), "nonregularised", 0, DataError, "labels must be -1 or +1"),
    (Y4[:3], "nonregularised", 0, DataError, "labels must have shape (4,), got (3,)"),
], ids=["unknown variant", "regularised constraints", "one class", "zero labels", "short labels"])
def test_windows_held_to_the_rules_of_a_problem(labels, variant, degree, error, message):
    # solve_windows applies PredictProblem's variant and label rules once a call.
    rng = np.random.default_rng(31)
    targets, coarse = rng.standard_normal((4, 8)), rng.standard_normal((4, 8))
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        solver.solve_windows(targets, coarse, window_columns(8, 4), labels, 1.0, variant, degree)


def test_too_many_constraints_rejected():
    win = IndexWindow(k=2, indices=(1, 2))
    B = vandermonde_constraints(win, 2)
    bad = np.vstack([B, [[1.0, 2.0]]])
    with pytest.raises(ConfigError):
        PredictProblem(
            A=np.ones((4, 3)),
            labels=np.array([1.0, -1.0, 1.0, -1.0]),
            nu=1.0,
            variant="nonregularised",
            B=bad,
        )


def test_regularised_oracle_is_the_nonregularised_one_on_a_zero_target():
    # A regularised window is the nonregularised form with every column free:
    # on A it is the nonregularised problem on [0 | A], bit for bit.
    rng = np.random.default_rng(28)
    for l, L, nu, scale in ((5, 2, 1e-3, 1e-6), (20, 4, 1.0, 1.0), (60, 8, 1e3, 1e7)):
        reg = random_problem(rng, l, L, nu, "regularised", scale=scale)
        non = PredictProblem(A=np.column_stack([np.zeros(l), reg.A]), labels=reg.labels,
                             nu=nu, variant="nonregularised")
        a, b = kkt_oracle(reg), kkt_oracle(non)
        for field in ("w", "gamma", "u"):
            bits = [np.asarray(getattr(sol, field)).tobytes() for sol in (a, b)]
            assert bits[0] == bits[1], field
        assert objective_value(reg, a) == objective_value(non, b)


def test_kkt_oracle_size_guard():
    A = np.ones((2001, 3))
    y = np.ones(2001)
    y[0] = -1.0
    prob = PredictProblem(A=A, labels=y, nu=1.0, variant="regularised")
    with pytest.raises(ConfigError):
        kkt_oracle(prob)


def test_window_knots_centered_half_integers():
    # half-integer fine steps, in units of 2L = 8
    win = IndexWindow(k=4, indices=(3, 4, 5, 6))
    knots = window_knots(win)
    assert knots.tolist() == [-2.5 / 8, -0.5 / 8, 1.5 / 8, 3.5 / 8]


def test_vandermonde_p1_all_ones():
    win = IndexWindow(k=1, indices=(1, 2, 3, 4))
    B = vandermonde_constraints(win, 1)
    assert B.shape == (1, 4)
    assert np.all(B == 1.0)


def test_vandermonde_p2_second_row_is_knots():
    win = IndexWindow(k=4, indices=(3, 4, 5, 6))
    B = vandermonde_constraints(win, 2)
    assert B.shape == (2, 4)
    assert np.all(B[0] == 1.0)
    assert B[1].tolist() == [-2.5 / 8, -0.5 / 8, 1.5 / 8, 3.5 / 8]


def test_constrained_weights_reproduce_linear_polynomials():
    # Under B w = e1 with knots centered at the target, any affine function
    # sampled at the knot positions must be predicted exactly at the target.
    rng = np.random.default_rng(25)
    win = IndexWindow(k=4, indices=(3, 4, 5, 6))
    B = vandermonde_constraints(win, 2)
    prob = random_problem(rng, 30, 4, 1.0, "nonregularised", p=0)
    prob = PredictProblem(
        A=prob.A, labels=prob.labels, nu=prob.nu, variant="nonregularised", B=B
    )
    sol = solve(prob)
    knots = window_knots(win)
    for a, c in ((2.0, 1.0), (-0.3, 4.0), (0.0, 1.0)):
        values = a * knots + c
        assert values @ sol.w == pytest.approx(a * 0.0 + c, abs=1e-9)


def test_objective_matches_xi_norm_definition():
    rng = np.random.default_rng(26)
    prob = random_problem(rng, 20, 4, 2.0, "regularised")
    sol = solve(prob)
    xi_norm = np.linalg.norm(sol.u) / prob.nu
    expected = 0.5 * sol.w @ sol.w + 0.5 * sol.gamma ** 2 + prob.nu / 2.0 * xi_norm ** 2
    assert objective_value(prob, sol) == pytest.approx(expected, rel=1e-8)


def test_solve_dispatches_by_variant_and_constraints():
    rng = np.random.default_rng(27)
    for variant, p in (("regularised", 0), ("nonregularised", 0), ("nonregularised", 1)):
        prob = random_problem(rng, 15, 4, 1.0, variant, p=p)
        sol = solve(prob)
        expect_len = prob.A.shape[1] if variant == "regularised" else prob.A.shape[1] - 1
        assert sol.w.size == expect_len
