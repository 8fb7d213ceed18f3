import dataclasses
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import lapack
from scipy.linalg.lapack import dgesv

import fbopt.qp as qp_module
from fbopt import (
    Infeasible,
    MaxIterations,
    MetricField,
    NotPositiveDefinite,
    QpProblem,
    RankDeficientActiveSet,
    assemble_projection_qp,
    eval_plant,
    eval_plant_jacobian,
    get_problem,
    solve_qp,
)
from oracles import enumerate_oracle, kkt_residual


def bound_problem():
    # minimize (w - 3)^2 subject to w <= 1
    return QpProblem(Q=[[2.0]], c=[-6.0], M=[[1.0]], r=[1.0])


def random_qp(rng):
    p = int(rng.integers(1, 5))
    m = int(rng.integers(0, 7))
    B = rng.normal(size=(p, p))
    Q = B @ B.T + (0.5 + rng.uniform()) * np.eye(p)
    c = rng.normal(size=p)
    M = rng.normal(size=(m, p))
    r = rng.uniform(0.1, 1.0, size=m)  # zero is strictly feasible
    return QpProblem(Q=Q, c=c, M=M, r=r)


def test_unconstrained_minimizer():
    qp = QpProblem(Q=[[1.0]], c=[-2.0], M=np.zeros((0, 1)), r=np.zeros(0))
    sol = solve_qp(qp)
    assert_allclose(sol.w, [2.0])
    assert sol.multipliers.size == 0
    assert sol.active == ()


def test_single_bound_active():
    sol = solve_qp(bound_problem())
    assert_allclose(sol.w, [1.0], atol=1e-12)
    assert_allclose(sol.multipliers, [4.0], atol=1e-10)
    assert sol.active == (0,)


def test_oracle_matches_single_bound():
    sol = enumerate_oracle(bound_problem())
    assert_allclose(sol.w, [1.0], atol=1e-12)
    assert_allclose(sol.multipliers, [4.0], atol=1e-10)


def test_oracle_unconstrained():
    Q = np.array([[3.0, 1.0], [1.0, 2.0]])
    c = np.array([1.0, -4.0])
    qp = QpProblem(Q=Q, c=c, M=np.zeros((0, 2)), r=np.zeros(0))
    sol = enumerate_oracle(qp)
    assert_allclose(sol.w, np.linalg.solve(Q, -c))


def test_duplicate_active_rows_flagged_by_solver():
    qp = QpProblem(Q=[[2.0]], c=[-6.0], M=[[1.0], [1.0]], r=[1.0, 1.0])
    with pytest.warns(RankDeficientActiveSet):
        sol = solve_qp(qp)
    assert sol.rank_deficient
    assert_allclose(sol.w, [1.0], atol=1e-10)


def test_solution_invariants_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(60):
        qp = random_qp(rng)
        sol = solve_qp(qp)
        tol = 1e-8 * qp.scale
        assert np.all(sol.multipliers >= -1e-10)
        if qp.num_constraints:
            slack = qp.M @ sol.w - qp.r
            assert np.all(slack <= 1e-9 * qp.scale)
            assert np.max(np.abs(sol.multipliers * slack)) <= tol
        stat = qp.Q @ sol.w + qp.c
        if qp.num_constraints:
            stat = stat + qp.M.T @ sol.multipliers
        assert np.linalg.norm(stat) <= tol
        assert kkt_residual(qp, sol.w, sol.multipliers) <= tol


def test_solver_agrees_with_oracle():
    rng = np.random.default_rng(5)
    for _ in range(40):
        qp = random_qp(rng)
        a = solve_qp(qp)
        b = enumerate_oracle(qp)
        assert np.linalg.norm(a.w - b.w) <= 1e-8
        assert np.max(np.abs(a.multipliers - b.multipliers), initial=0.0) <= 1e-6


def test_objective_scaling_moves_multipliers_only():
    rng = np.random.default_rng(19)
    beta = 7.5
    for _ in range(25):
        qp = random_qp(rng)
        scaled = QpProblem(Q=beta * qp.Q, c=beta * qp.c, M=qp.M, r=qp.r)
        a = solve_qp(qp)
        b = solve_qp(scaled)
        assert np.linalg.norm(a.w - b.w) <= 1e-8
        assert np.max(np.abs(beta * a.multipliers - b.multipliers), initial=0.0) <= 1e-6


def test_kkt_residual_vanishes_at_solution():
    qp = bound_problem()
    sol = solve_qp(qp)
    assert kkt_residual(qp, sol.w, sol.multipliers) <= 1e-8 * qp.scale


def test_kkt_residual_detects_free_direction_perturbation():
    Q = np.array([[3.0, 1.0], [1.0, 2.0]])
    c = np.array([1.0, -4.0])
    qp = QpProblem(Q=Q, c=c, M=np.zeros((0, 2)), r=np.zeros(0))
    w_star = np.linalg.solve(Q, -c)
    lam_min = np.linalg.eigvalsh(Q)[0]  # (5 - sqrt 5) / 2
    for e in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        res = kkt_residual(qp, w_star + 1e-3 * e, np.zeros(0))
        assert res >= lam_min * 1e-3 * 0.999
        assert res <= 4e-3


def test_kkt_residual_penalizes_negative_multiplier():
    qp = bound_problem()
    assert kkt_residual(qp, [1.0], [-1.0]) >= 1.0


def test_infeasible_raises():
    qp = QpProblem(Q=[[1.0]], c=[0.0], M=[[1.0], [-1.0]], r=[-1.0, -1.0])
    with pytest.raises(Infeasible):
        solve_qp(qp)


def test_indefinite_raises():
    qp = QpProblem(Q=[[1.0, 0.0], [0.0, -1.0]], c=[0.0, 0.0],
                   M=np.zeros((0, 2)), r=np.zeros(0))
    with pytest.raises(NotPositiveDefinite):
        solve_qp(qp)
    # singular: the Cholesky test may pass on roundoff (L_22 ~ 1e-8), but
    # the LU of Q meets an exact zero pivot; with or without rows, the
    # solver must say so rather than report an infeasible problem
    for M, r in ((np.zeros((0, 2)), np.zeros(0)), ([[1.0, 0.0]], [1.0])):
        singular = QpProblem(Q=[[2.0, 1.0], [1.0, 0.5]], c=[1.0, 0.0], M=M, r=r)
        with pytest.raises(NotPositiveDefinite):
            solve_qp(singular)


def test_iteration_budget_enforced(monkeypatch):
    # w0 = (3, 0) violates row 0 only; the start on it, w = (1, 0), is dual
    # feasible but violates row 1, so the loop goes on from it
    qp = QpProblem(Q=np.eye(2), c=[-3.0, 0.0], M=[[1.0, 0.0], [-1.0, 1.0]],
                   r=[1.0, -1.5])
    assert solve_qp(qp).iterations == 3
    monkeypatch.setattr(qp_module, "MAX_ITER_PER_ROW", 0)
    with pytest.raises(MaxIterations):
        solve_qp(qp)


def test_problem_validation():
    with pytest.raises(ValueError):
        QpProblem(Q=[[1.0, 0.5], [0.0, 1.0]], c=[0.0, 0.0],
                  M=np.zeros((0, 2)), r=np.zeros(0))  # asymmetric
    with pytest.raises(ValueError):
        QpProblem(Q=[[1.0]], c=[0.0], M=[[1.0, 2.0]], r=[1.0])  # column count
    with pytest.raises(ValueError):
        QpProblem(Q=[[1.0]], c=[0.0], M=[[1.0]], r=[1.0, 2.0])  # row count


def test_problem_rejects_non_finite_data():
    good = dict(Q=np.eye(2), c=[0.0, 0.0], M=[[1.0, 0.0]], r=[1.0])
    for key, bad in (("Q", [[1.0, 0.0], [0.0, np.nan]]), ("c", [np.inf, 0.0]),
                     ("M", [[np.nan, 0.0]]), ("r", [-np.inf])):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            solve_qp(QpProblem(**{**good, key: bad}))


# (Q, error).  The asymmetry bound is 1e-12 * max(1, max|Q|).  pytest turns
# a numpy RuntimeWarning into an error, so each case also checks that no
# arithmetic on the way warns; three are an asymmetry that overflows
# ``Q - Q.T``, an infinity facing itself and one facing another (``Q - Q.T``
# would be inf - inf), and the last two face 0.0 with -0.0, which the
# symmetry test's byte comparison tells apart.  The step QP names its
# quadratic term "alpha * metric G(u)".
NOT_FINITE = r"^(Q|alpha \* metric G\(u\)) must be finite$"
QUADRATIC_TERMS = [
    ([[1e6, 0.0], [1e-7, 1e6]], None),
    ([[1e6, 0.0], [1e-5, 1e6]], "must be symmetric"),
    ([[0.5, 0.0], [2e-12, 0.5]], "must be symmetric"),
    ([[0.5, 0.0], [8e-13, 0.5]], None),
    ([[1e308, 1e308], [1e308, 1e308]], None),  # finite, though its sum is not
    *[(Q, NOT_FINITE)
      for Q in ([[1.0, 0.0], [0.0, np.nan]], [[1.0, np.nan], [np.nan, 1.0]],
                [[1.0, np.inf], [0.0, 1.0]], [[1.0, 0.0], [-np.inf, 1.0]])],
    ([[1.0, 1e308], [-1e308, 1.0]], "must be symmetric"),
    ([[np.inf, 0.0], [0.0, 1.0]], NOT_FINITE),
    ([[1.0, np.inf], [np.inf, 1.0]], NOT_FINITE),
    ([[1.0, 0.0], [-0.0, 1.0]], None),  # symmetric, though its bytes are not
    ([[1.0, -0.0], [0.0, 1.0]], None),
]


@pytest.mark.parametrize("Q, error", QUADRATIC_TERMS)
def test_quadratic_term_checks_of_problem_and_step_qp(Q, error):
    prob = get_problem("cubic2d")
    u = np.array([0.3, -0.2])
    y, J = eval_plant(prob.plant, u), eval_plant_jacobian(prob.plant, u)
    warped = dataclasses.replace(prob, metric=MetricField.constant(Q))
    for build in (lambda: QpProblem(Q=Q, c=[0.0, 0.0], M=[[1.0, 0.0]], r=[1.0]),
                  lambda: assemble_projection_qp(warped, u, y, J, 1.0)):
        if error is None:
            assert np.array_equal(build().Q, Q)
        else:
            with pytest.raises(ValueError, match=error):
                build()


def test_scale_of_finite_data_stays_finite():
    # c·c overflows, yet c is finite: the problem is accepted, with no
    # overflow warning (pytest makes one an error) and a finite scale
    qp = QpProblem(Q=np.eye(2), c=[1e200, 0.0], M=[[1.0, 0.0]], r=[1.0])
    assert qp.scale == 1.0 + 1e200 + 1.0


def test_infeasible_origin_agrees_with_oracle():
    # every instance has rows that the origin violates
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 60:
        p = int(rng.integers(1, 5))
        m = int(rng.integers(1, 8))
        B = rng.normal(size=(p, p))
        Q = B @ B.T + (0.5 + rng.uniform()) * np.eye(p)
        c = rng.normal(size=p)
        M = rng.normal(size=(m, p))
        w0 = rng.normal(size=p) * rng.uniform(1.0, 3.0)
        r = M @ w0 + rng.uniform(0.1, 1.0, size=m)
        if np.all(r >= 0.0):
            continue
        checked += 1
        qp = QpProblem(Q=Q, c=c, M=M, r=r)
        a = solve_qp(qp)
        b = enumerate_oracle(qp)
        assert np.linalg.norm(a.w - b.w) <= 1e-8
        assert np.max(np.abs(a.multipliers - b.multipliers)) <= 1e-6


def test_random_empty_sets_raise_infeasible():
    from scipy.optimize import linprog  # independent emptiness oracle

    rng = np.random.default_rng(29)
    checked = 0
    while checked < 40:
        p = int(rng.integers(1, 5))
        m = int(rng.integers(2, 9))
        M = rng.normal(size=(m, p))
        r = rng.normal(size=m) - 0.5
        lp = linprog(np.zeros(p), A_ub=M, b_ub=r,
                     bounds=[(None, None)] * p, method="highs")
        if lp.status != 2:  # keep the sets HiGHS proves empty
            continue
        B = rng.normal(size=(p, p))
        Q = B @ B.T + (0.5 + rng.uniform()) * np.eye(p)
        with pytest.raises(Infeasible):
            solve_qp(QpProblem(Q=Q, c=rng.normal(size=p), M=M, r=r))
        checked += 1


def test_large_instances_satisfy_kkt():
    # 12 variables and 36 rows, too many for the enumeration oracle
    rng = np.random.default_rng(31)
    for _ in range(20):
        p, m = 12, 36
        B = rng.normal(size=(p, p))
        Q = B @ B.T + (0.5 + rng.uniform()) * np.eye(p)
        c = 5.0 * rng.normal(size=p)
        M = rng.normal(size=(m, p))
        w0 = rng.normal(size=p)
        r = M @ w0 + rng.uniform(0.0, 1.0, size=m)
        qp = QpProblem(Q=Q, c=c, M=M, r=r)
        sol = solve_qp(qp)
        assert sol.active
        assert kkt_residual(qp, sol.w, sol.multipliers) <= 1e-8 * qp.scale


def test_full_working_set_leaves_no_primal_step():
    # two working rows fix w in the plane; the third row is inconsistent
    # with them, and roundoff must not let it in as a third active row
    qp = QpProblem(Q=np.eye(2), c=[-1.6, -1.4],
                   M=[[-1.9, 0.0], [-0.3, 2.0], [0.2, -1.3]], r=[0.9, -1.7, -0.5])
    with pytest.raises(Infeasible):
        solve_qp(qp)


def degenerate_qp(rng, family):
    """QPs with exactly active rows: duplicate rows, a weakly active row with
    zero multiplier, or an extra row through an active box vertex."""
    p = int(rng.integers(2, 5))
    B = rng.integers(-2, 3, size=(p, p)).astype(float)
    Q = B @ B.T + np.eye(p)
    if family == "vertex":
        eye = np.eye(p)
        extra = rng.integers(1, 3, size=(int(rng.integers(1, 3)), p)).astype(float)
        M = np.vstack([eye, -eye, extra])
        r = np.concatenate([np.ones(2 * p), extra.sum(axis=1)])  # through w = 1
        return QpProblem(Q=Q, c=-20.0 * Q @ np.ones(p), M=M, r=r)
    w0 = rng.integers(-2, 3, size=p).astype(float)
    A = rng.integers(-2, 3, size=(int(rng.integers(1, p)), p)).astype(float)
    A[:, 0] = np.where(A[:, 0] == 0.0, 1.0, A[:, 0])
    lam = rng.integers(1, 4, size=A.shape[0]).astype(float)
    slack = rng.integers(-3, 3, size=(2, p)).astype(float)
    rows = [A, slack]
    rhs = [A @ w0, slack @ w0 + rng.integers(1, 4, size=2)]
    if family == "duplicate":
        rows.append(2.0 * A[:1])
        rhs.append(2.0 * A[:1] @ w0)
    else:  # weakly active: passes through w0, multiplier zero
        rows.append(rng.integers(-2, 3, size=(1, p)).astype(float) + np.eye(p)[:1])
        rhs.append(rows[-1] @ w0)
    order = rng.permutation(sum(len(x) for x in rhs))
    M, r = np.vstack(rows)[order], np.concatenate(rhs)[order]
    return QpProblem(Q=Q, c=-(Q @ w0 + A.T @ lam), M=M, r=r)


def test_rank_check_agrees_with_full_check_on_degenerate_qps():
    rng = np.random.default_rng(37)
    outside = deficient = 0
    for k in range(300):
        qp = degenerate_qp(rng, ("duplicate", "weak", "vertex")[k % 3])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sol = solve_qp(qp)
        # full check on the geometric active set, on every solve
        act = np.flatnonzero(np.abs(qp.M @ sol.w - qp.r) <= 1e-9 * qp.scale)
        full = bool(act.size) and np.linalg.matrix_rank(qp.M[act]) < act.size
        assert sol.rank_deficient == full
        assert sum(issubclass(w.category, RankDeficientActiveSet) for w in caught) == full
        outside += not set(act.tolist()) <= set(sol.active)
        deficient += full
        # w and multipliers come from one KKT solve on the sorted working
        # set, by the LAPACK routine the solver calls
        work, p = list(sol.active), qp.dim
        kkt = np.zeros((p + len(work), p + len(work)))
        kkt[:p, :p] = qp.Q
        kkt[:p, p:] = qp.M[work].T
        kkt[p:, :p] = qp.M[work]
        ref = dgesv(kkt, np.concatenate([-qp.c, qp.r[work]]))[2]
        mult = np.zeros(qp.num_constraints)
        mult[work] = ref[p:]
        assert np.array_equal(sol.w, ref[:p])
        assert np.array_equal(sol.multipliers, mult)
    assert 100 <= outside < 300 and 50 <= deficient < outside


def constrained_qp(rng, p=12, m=36):
    """A QP with a known solution ``w``: up to ``p`` of the ``m`` rows are
    active with small positive multipliers, the others have slack large
    enough that the unconstrained minimizer often violates only the active
    rows, as in a projection QP near convergence."""
    B = rng.normal(size=(p, p))
    Q = B @ B.T + (0.5 + rng.uniform()) * np.eye(p)
    M = rng.normal(size=(m, p))
    w = rng.normal(size=p)
    active = rng.permutation(m)[:int(rng.integers(0, p + 1))]
    r = M @ w + rng.uniform(0.5, 2.0, size=m)
    r[active] = M[active] @ w
    lam = np.zeros(m)
    lam[active] = rng.uniform(0.01, 0.2, size=active.size)
    return QpProblem(Q=Q, c=-(Q @ w + M.T @ lam), M=M, r=r)


def violated_rows(qp):
    """The rows the unconstrained minimizer violates: the solver's start."""
    w0 = np.linalg.solve(qp.Q, -qp.c)
    return np.flatnonzero(qp.M @ w0 > qp.r + 1e-11 * qp.scale).tolist()


def solve_counting_warnings(qp):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = solve_qp(qp)
    return sol, sum(issubclass(w.category, RankDeficientActiveSet) for w in caught)


def cold_solve(qp, monkeypatch):
    """The dual method from an empty working set: every start rejected."""
    with monkeypatch.context() as patch:
        patch.setattr(qp_module, "_independent", lambda S: False)
        return solve_counting_warnings(qp)[0]


STARTED_FAMILIES = {
    "duplicate": lambda rng: degenerate_qp(rng, "duplicate"),
    "weak": lambda rng: degenerate_qp(rng, "weak"),
    "vertex": lambda rng: degenerate_qp(rng, "vertex"),
    "random": random_qp,
    "p12": constrained_qp,
}


@pytest.mark.parametrize("family", list(STARTED_FAMILIES))
def test_started_solve_agrees_with_cold_method(family, monkeypatch):
    rng = np.random.default_rng(41)
    make = STARTED_FAMILIES[family]
    started = moved = 0
    for _ in range(40 if family == "p12" else 300):
        qp = make(rng)
        start = violated_rows(qp)
        sol, warned = solve_counting_warnings(qp)
        cold = cold_solve(qp, monkeypatch)
        work = list(sol.active)
        if work:
            assert np.linalg.matrix_rank(qp.M[work]) == len(work)
        act = np.flatnonzero(np.abs(qp.M @ sol.w - qp.r) <= 1e-9 * qp.scale)
        full = bool(act.size) and np.linalg.matrix_rank(qp.M[act]) < act.size
        assert sol.rank_deficient == full
        assert warned == full
        if qp.num_constraints <= 12:
            ref = enumerate_oracle(qp)
            assert np.linalg.norm(sol.w - ref.w) <= 1e-8 * qp.scale
        else:
            assert kkt_residual(qp, sol.w, sol.multipliers) <= 1e-8 * qp.scale
        # a weakly active row can leave a started solve on another optimal
        # working set than the cold method's: the point must still agree
        assert np.linalg.norm(sol.w - cold.w) <= 1e-14 * qp.scale
        assert kkt_residual(qp, sol.w, sol.multipliers) <= 1e-12 * qp.scale
        if not sol.rank_deficient:  # unique multipliers
            assert_allclose(sol.multipliers, cold.multipliers,
                            rtol=0.0, atol=1e-12 * qp.scale)
        if sol.active == cold.active:
            # both end with one KKT solve on the same sorted working set
            assert np.array_equal(sol.w, cold.w)
            assert np.array_equal(sol.multipliers, cold.multipliers)
        if start and work == start and sol.iterations == len(start) + 1:
            started += 1
            moved += sol.active != cold.active
    if family in ("weak", "random", "p12"):
        assert started >= 5
    if family == "weak":
        assert moved >= 5


def test_duplicate_violated_rows_go_to_cold_method(monkeypatch):
    # w0 = (3, 3, 0) violates both copies of w1 <= 1 and w2 <= 1
    qp = QpProblem(Q=np.eye(3), c=[-3.0, -3.0, 0.0],
                   M=[[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                   r=[1.0, 1.0, 1.0])
    assert violated_rows(qp) == [0, 1, 2]
    tested = []
    independent = qp_module._independent

    def spy(S):
        tested.append((S.shape[0], independent(S)))
        return tested[-1][1]

    monkeypatch.setattr(qp_module, "_independent", spy)
    with pytest.warns(RankDeficientActiveSet):
        sol = solve_qp(qp)
    assert tested == [(3, False)]
    assert sol.active == (0, 2)
    assert sol.rank_deficient
    assert_allclose(sol.w, [1.0, 1.0, 0.0], atol=1e-12)


def test_zero_violated_row_is_dropped_as_a_start():
    # a single violated row skips the batch test; a zero row must still
    # fail the start (singular KKT system) and then prove infeasibility
    qp = QpProblem(Q=np.eye(2), c=[0.0, 0.0], M=[[0.0, 0.0], [1.0, 0.0]],
                   r=[-1.0, 1.0])
    assert violated_rows(qp) == [0]
    with pytest.raises(Infeasible):
        solve_qp(qp)


def test_dual_feasible_start_is_continued_not_restarted(monkeypatch):
    # w0 = (3, 0) violates only w1 <= 1; the start's point (1, 0) then
    # violates -w1 + w2 <= -1.5, which the method adds from there
    qp = QpProblem(Q=np.eye(2), c=[-3.0, 0.0], M=[[1.0, 0.0], [-1.0, 1.0]],
                   r=[1.0, -1.5])
    assert violated_rows(qp) == [0]
    cold = cold_solve(qp, monkeypatch)
    kkt_rows = []
    kkt_solve = qp_module._kkt_solve

    def spy(Q, N, top, bottom):
        kkt_rows.append(N.shape[0])
        return kkt_solve(Q, N, top, bottom)

    monkeypatch.setattr(qp_module, "_kkt_solve", spy)
    sol = solve_qp(qp)
    # the start, adding the second row to it, the final solve; a restart
    # would add the first row again before the second
    assert kkt_rows == [1, 1, 2]
    assert sol.active == cold.active == (0, 1)
    assert sol.iterations == cold.iterations == 3
    assert np.array_equal(sol.w, cold.w)
    assert np.array_equal(sol.multipliers, cold.multipliers)
    assert_allclose(sol.w, [1.0, -0.5], atol=1e-12)
    assert_allclose(sol.multipliers, [2.5, 0.5], atol=1e-12)


def test_started_solve_counts_its_iterations_against_the_budget():
    # w0 = (3, 3) violates both bounds, and the start is the answer
    qp = QpProblem(Q=np.eye(2), c=[-3.0, -3.0], M=np.eye(2), r=[1.0, 1.0])
    sol = solve_qp(qp)
    assert sol.active == (0, 1)
    assert sol.iterations == 3
    assert_allclose(sol.w, [1.0, 1.0], atol=1e-12)
    assert_allclose(sol.multipliers, [2.0, 2.0], atol=1e-12)
    rng = np.random.default_rng(47)
    started = 0
    for _ in range(40):
        qp = constrained_qp(rng)
        start = violated_rows(qp)
        sol = solve_qp(qp)
        if not start or list(sol.active) != start:
            continue
        started += 1
        assert sol.iterations == len(sol.active) + 1
    assert started >= 5


def test_solve_calls_lapack_directly_and_factors_q_once(monkeypatch):
    counts = dict.fromkeys(("dpotrf", "dgesv", "dgetrs"), 0)

    def spy(name):
        # from SciPy, not fbopt.qp: qp binds its names at the first solve
        routine = getattr(lapack, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return routine(*args, **kwargs)
        return counted

    for name in counts:
        monkeypatch.setattr(qp_module, name, spy(name))

    def calls(qp):
        counts.update(dict.fromkeys(counts, 0))
        solve_qp(qp)
        return tuple(counts.values())  # dpotrf, dgesv, dgetrs

    # free: the definiteness test and the unconstrained step
    assert calls(QpProblem(Q=np.eye(2), c=[-0.5, 0.0], M=np.eye(2),
                           r=[1.0, 1.0])) == (1, 1, 0)
    # an accepted one-row start: one more dgesv, its KKT solve
    assert calls(bound_problem()) == (1, 2, 0)
    # an accepted two-row start: Q^-1 M_V' and its Cholesky for the test
    assert calls(QpProblem(Q=np.eye(2), c=[-3.0, -3.0], M=np.eye(2),
                           r=[1.0, 1.0])) == (2, 2, 1)
    # a continued one-row start: Q^-1 M' once, for the loop
    assert calls(QpProblem(Q=np.eye(2), c=[-3.0, 0.0],
                           M=[[1.0, 0.0], [-1.0, 1.0]], r=[1.0, -1.5])) == (1, 4, 1)

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called by a non-degenerate solve")

    for name in ("solve", "cholesky", "lstsq", "matrix_rank"):
        monkeypatch.setattr(np.linalg, name, refuse)
    rng = np.random.default_rng(53)
    for make in (random_qp,) * 100 + (constrained_qp,) * 20:
        qp = make(rng)
        sol = solve_qp(qp)
        assert kkt_residual(qp, sol.w, sol.multipliers) <= 1e-8 * qp.scale
