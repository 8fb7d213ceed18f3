"""End-to-end acceptance checks for the toolkit.

Each test exercises one externally stated capability at its stated tolerance
and prints a single PASS/FAIL line (run with ``pytest -s`` to see them).
"""

import time

import numpy as np

from fbopt import (
    QpProblem,
    SamplerSpec,
    ScenarioConfig,
    RunStatus,
    builtin_example,
    estimate_constants,
    eval_plant,
    feedback_step,
    finite_difference_check,
    get_problem,
    kkt_point_residual,
    run_trajectory,
    sample_input_set,
    solve_qp,
    transient_violation_bound,
    violation,
)
from fbopt.cli import main as cli_main
from flow import deviations
from oracles import enumerate_oracle

BUILTIN_NAMES = ("cubic2d", "quad1d")

# starting points whose trajectories cross the lower output boundary and
# incur genuine transient violations
CROSSING_STARTS = (np.array([-0.75, -0.5]),
                   np.array([-0.85, -0.6]),
                   np.array([-0.8, -0.55]))

# feasible probe points for the small-step limit; five sit exactly on an
# output face
LIMIT_POINTS = (np.array([-0.5, 1.0]), np.array([-0.5, -1.0]),
                np.array([0.5, 0.0]), np.array([-0.5, 0.0]),
                np.array([0.875, 0.5]), np.array([0.329, -0.9]),
                np.array([0.0, 1.0]), np.array([0.0, 0.0]),
                np.array([0.25, 0.5]), np.array([-0.45, 0.0]),
                np.array([-0.4, 0.0]), np.array([0.0, 0.95]))

# starts of the endpoint oracle of criterion 1
SLSQP_STARTS = (np.array([0.0, 0.0]), np.array([1.0, 1.0]),
                np.array([-1.0, -1.0]), np.array([0.5, -0.5]))


def report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: criterion {num} — {detail}")
    assert ok, detail


def grid_starts(problem, points_per_dim=5):
    return sample_input_set(problem.input_set, SamplerSpec(count=points_per_dim))


def slsqp_solutions(problem):
    """Solutions of the steady-state problem ``min Phi(u, h(u))`` subject to
    ``A u <= b`` and ``C h(u) <= d`` by SciPy's SLSQP, one per start in
    ``SLSQP_STARTS``.  Built from the problem's data and its analytic
    derivatives alone, this oracle shares no code with fbopt's controller."""
    from scipy.optimize import minimize

    plant, objective = problem.plant, problem.objective
    A, b = problem.input_set.A, problem.input_set.b
    C, d = problem.output_set.A, problem.output_set.b
    p = A.shape[1]

    def gradient(u):
        g = objective.gradient(u, plant.eval(u))
        return g[:p] + plant.jacobian(u).T @ g[p:]

    constraints = [
        {"type": "ineq", "fun": lambda u: b - A @ u, "jac": lambda u: -A},
        {"type": "ineq", "fun": lambda u: d - C @ plant.eval(u),
         "jac": lambda u: -C @ plant.jacobian(u)},
    ]
    solutions = []
    for u0 in SLSQP_STARTS:
        res = minimize(lambda u: objective.eval(u, plant.eval(u)), u0,
                       jac=gradient, constraints=constraints, method="SLSQP",
                       options={"ftol": 1e-15})
        assert res.success, res.message
        solutions.append(res.x)
    return solutions


def test_criterion_1_grid_convergence_to_kkt_points():
    prob = builtin_example()
    alpha = 0.01
    t0 = time.perf_counter()
    oracle = slsqp_solutions(prob)
    worst_oracle = 0.0
    worst_kkt = 0.0
    worst_iters = 0
    ok = True
    for u0 in grid_starts(prob):
        log = run_trajectory(ScenarioConfig(
            problem_name="cubic2d", scheme="projected", alpha=alpha,
            u0=u0, max_iters=100_000, stationarity_tol=1e-6))
        if log.status is not RunStatus.CONVERGED:
            ok = False
            break
        worst_iters = max(worst_iters, int(log.iters[-1]))
        u_end = log.u[-1]
        if not np.all(prob.input_set.A @ u_end <= prob.input_set.b + 1e-9):
            ok = False
            break
        y_end = eval_plant(prob.plant, u_end)
        if not np.all(prob.output_set.A @ y_end <= prob.output_set.b + 1e-8):
            ok = False
            break
        step = feedback_step(prob, u_end, alpha)
        kkt = kkt_point_residual(prob, u_end, step.nu, step.mu)
        worst_kkt = max(worst_kkt, kkt)
        if kkt > 1e-6:
            ok = False
            break
        dist = max(float(np.linalg.norm(u_end - u_star)) for u_star in oracle)
        worst_oracle = max(worst_oracle, dist)
        if dist > 1e-9:
            ok = False
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(1, ok, f"25 grid runs converged (max {worst_iters} iters), "
                  f"feasible endpoints, max KKT residual {worst_kkt:.2e}, "
                  f"max distance {worst_oracle:.2e} to SLSQP's solution from "
                  f"{len(oracle)} starts, {elapsed:.2f}s < 10s")


def test_criterion_2_certified_step_size_descent():
    prob = builtin_example()
    constants = estimate_constants(prob, 0.01)
    alpha = 0.9 * constants.step_size_bound
    ok = True
    worst_excess = -np.inf
    for u0 in grid_starts(prob):
        log = run_trajectory(ScenarioConfig(
            problem_name="cubic2d", scheme="projected", alpha=alpha,
            u0=u0, max_iters=100_000, stationarity_tol=1e-6), constants)
        if log.certificate_violated or log.status is RunStatus.ERROR:
            ok = False
            break
        dV = np.diff(log.V)
        excess = dV - 1e-12 * (1.0 + np.abs(log.V[:-1]))
        if excess.size and float(np.max(excess)) > 0.0:
            ok = False
            break
        if excess.size:
            worst_excess = max(worst_excess, float(np.max(excess)))
    report(2, ok, f"merit non-increasing on every step at alpha = "
                  f"0.9 * {constants.step_size_bound:.3e} "
                  f"(worst slack-adjusted increase {worst_excess:.2e})")


def test_criterion_3_transient_violations_bounded_and_quadratic():
    prob = builtin_example()
    constants = estimate_constants(prob, 0.01)
    ladder = (0.04, 0.02, 0.01, 0.005)
    peaks = {a: 0.0 for a in ladder}
    bound_ok = True
    for alpha in ladder:
        for start in CROSSING_STARTS:
            u = start
            for _ in range(5000):
                step = feedback_step(prob, u, alpha)
                viol = violation(prob.output_set,
                                 eval_plant(prob.plant, step.u_next))
                bound = transient_violation_bound(constants.output_lipschitz,
                                                  alpha, step.w)
                if np.any(viol > bound + 1e-9):
                    bound_ok = False
                peaks[alpha] = max(peaks[alpha], float(np.max(viol)))
                if step.sigma_norm_G <= 1e-8:
                    break
                u = step.u_next
    ratios = [peaks[a] / peaks[a / 2] for a in (0.04, 0.02, 0.01)]
    halving_ok = all(r >= 3.0 for r in ratios) and peaks[0.04] > 0.0
    report(3, bound_ok and halving_ok,
           f"per-step violations within the quadratic bound; halving ratios "
           f"{', '.join(f'{r:.2f}' for r in ratios)} all >= 3")


def test_criterion_4_solver_oracle_agreement():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    agreed = 0
    total = 100
    ok = True
    for _ in range(total):
        p = int(rng.integers(1, 5))
        m = int(rng.integers(0, 7))
        B = rng.normal(size=(p, p))
        Q = B @ B.T + (0.5 + rng.uniform()) * np.eye(p)
        c = rng.normal(size=p)
        M = rng.normal(size=(m, p))
        r = rng.uniform(0.1, 1.0, size=m)
        qp = QpProblem(Q=Q, c=c, M=M, r=r)
        sol = solve_qp(qp)
        if m:  # constraint qualification at the solution
            act = np.flatnonzero(np.abs(M @ sol.w - r) <= 1e-9 * qp.scale)
            if act.size and np.linalg.matrix_rank(M[act]) < act.size:
                ok = False
                break
        ref = enumerate_oracle(qp)
        if np.linalg.norm(sol.w - ref.w) <= 1e-8 and \
                np.max(np.abs(sol.multipliers - ref.multipliers),
                       initial=0.0) <= 1e-6:
            agreed += 1
    elapsed = time.perf_counter() - t0
    ok = ok and agreed == total and elapsed < 5.0
    report(4, ok, f"{agreed}/{total} random QPs agree with enumeration "
                  f"(1e-8 primal / 1e-6 dual), {elapsed:.2f}s < 5s")


def test_criterion_5_small_step_limit():
    prob = builtin_example()
    ladder = [10.0 ** (-k) for k in range(1, 7)]
    active = 0
    ok = True
    worst_tail = 0.0
    for u in LIMIT_POINTS:
        y = eval_plant(prob.plant, u)
        if np.any(np.abs(prob.output_set.A @ y - prob.output_set.b) <= 1e-12):
            active += 1
        devs = deviations(prob, u, ladder)
        if not all(a >= b - 1e-10 for a, b in zip(devs, devs[1:])):
            ok = False
        worst_tail = max(worst_tail, devs[-1])
    ok = ok and worst_tail <= 1e-8 and active >= 2 and len(LIMIT_POINTS) >= 10
    report(5, ok, f"{len(LIMIT_POINTS)} points ({active} output-active): "
                  f"deviations non-increasing, worst tail {worst_tail:.2e}")


def test_criterion_6_dual_rate_separates_schemes():
    starts = (np.array([0.0, 0.0]), np.array([0.5, 0.5]))

    def saddle_runs(gamma, rho):
        return [run_trajectory(ScenarioConfig(
            problem_name="cubic2d", scheme="saddle", alpha=0.01,
            gamma=gamma, rho=rho, u0=u0, max_iters=20_000,
            stationarity_tol=1e-6)) for u0 in starts]

    fast = saddle_runs(5.0, 1.0)
    fast_heavy = saddle_runs(5.0, 1000.0)
    slow = saddle_runs(0.5, 1.0)
    projected = [run_trajectory(ScenarioConfig(
        problem_name="cubic2d", scheme="projected", alpha=0.01,
        u0=u0, max_iters=20_000, stationarity_tol=1e-6)) for u0 in starts]

    ok = (any(log.status is not RunStatus.CONVERGED for log in fast)
          and any(log.status is not RunStatus.CONVERGED for log in fast_heavy)
          and all(log.status is RunStatus.CONVERGED for log in slow)
          and all(log.status is RunStatus.CONVERGED for log in projected))
    report(6, ok, "gamma=5 stalls (rho 1 and 1000), gamma=0.5 converges, "
                  "projected converges from the same starts")


def test_criterion_7_derivative_consistency():
    rng = np.random.default_rng(0)
    worst = 0.0
    for name in BUILTIN_NAMES:
        prob = get_problem(name)
        lo, hi = prob.input_set.bounding_box()
        pts = [rng.uniform(lo, hi) for _ in range(100)]
        rep = finite_difference_check(prob, pts)
        worst = max(worst, rep.max_error)
    ok = worst < 1e-6
    report(7, ok, f"analytic derivatives of {', '.join(BUILTIN_NAMES)} match "
                  f"central differences (worst relative error {worst:.2e})")


def test_criterion_8_byte_identical_reruns(tmp_path):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(
        "problem_name = cubic2d\nscheme = projected\nalpha = 0.01\n"
        "u0 = 0.0, 0.0\nmax_iters = 2000\nstationarity_tol = 1e-6\n",
        encoding="utf-8")
    out1, out2 = tmp_path / "first", tmp_path / "second"
    code1 = cli_main(["run", "--scenario", str(scenario), "--out", str(out1)])
    code2 = cli_main(["run", "--scenario", str(scenario), "--out", str(out2)])
    b1 = (out1 / "trajectory.csv").read_bytes()
    b2 = (out2 / "trajectory.csv").read_bytes()
    ok = code1 == 0 and code2 == 0 and b1 == b2
    report(8, ok, f"repeated scenario runs wrote byte-identical logs "
                  f"({len(b1)} bytes)")
