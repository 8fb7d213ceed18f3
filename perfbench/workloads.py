"""Workloads of the closed-loop benchmark and the correctness gate.

Each workload is built from a seed (its set-up: problem construction and
registration) and then repeated: :meth:`run` performs one timed repetition
and returns the gate's checks, which the caller evaluates after the clock
stops.  Every call into fbopt goes through a module attribute
(``controller.feedback_step``, ``harness.run_trajectory``, ...), so the span
wrappers of :mod:`tracer` see it.

Why these four (see README.md for the metrics each one moves):

* ``projected_grid`` -- the flagship control cycle at p = 2; active sets
  persist from step to step, where a warm-started QP pays off.
* ``synthetic_p12`` -- the QP layer at scale: 36 rows, large working sets and
  phase 1 on most cycles.
* ``certified`` -- the certificates layer: constant estimation, then runs
  that evaluate the merit and the transient bound on every step.
* ``saddle_budget`` -- the saddle baseline with no QP call at all (the box
  projection is a clamp): the bypass workload for every QP change.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from fbopt import certificates, controller, harness, problems
from fbopt.harness import MERIT_SLACK, RunStatus, ScenarioConfig, finite_difference_check
from fbopt.model import MetricField, ProblemSpec, eval_plant

import synthetic

STATIONARITY_TOL = 1e-6
INPUT_TOL = 1e-9
OUTPUT_TOL = 1e-8
KKT_TOL = 1e-6
FD_TOL = 1e-6
MAX_ITERS = 20_000
ALPHA = 0.01
CUBIC2D = "perfbench.cubic2d"  # the builtin cubic2d with counted plant calls


class PlantCounter:
    """Counts calls of the plant and metric callables of the benchmark's
    problems: each ``plant.eval`` call is one plant measurement."""

    def __init__(self):
        self.eval = self.jacobian = self.metric = 0

    def snapshot(self) -> tuple[int, int, int]:
        return self.eval, self.jacobian, self.metric

    def wrap(self, problem: ProblemSpec) -> ProblemSpec:
        plant, metric = problem.plant, problem.metric

        def plant_eval(u):
            self.eval += 1
            return plant.eval(u)

        def plant_jacobian(u):
            self.jacobian += 1
            return plant.jacobian(u)

        def metric_eval(u):
            self.metric += 1
            return metric.eval(u)

        return dataclasses.replace(
            problem,
            plant=dataclasses.replace(plant, eval=plant_eval, jacobian=plant_jacobian),
            metric=MetricField(eval=metric_eval))


@dataclass
class Rep:
    """What one repetition measured.  ``calls`` holds the plant eval,
    jacobian and metric calls made by the trajectories (not by set-up or
    constant estimation).  ``runs``, ``failures`` (the gate's reasons),
    ``warnings`` (those raised while timed) and ``scale`` (the host-speed
    factor for its times) are filled in by the caller."""

    seconds: float = 0.0
    steps: int = 0
    calls: tuple[int, int, int] = (0, 0, 0)
    cycles: list[float] = field(default_factory=list)
    certify_s: float | None = None
    runs: int = 0
    failures: list[str] = field(default_factory=list)
    warnings: list = field(default_factory=list)
    scale: float = 1.0


def _delta(after, before):
    return tuple(a - b for a, b in zip(after, before))


def jittered_grid(rng, k: int, lo: float = -1.0, hi: float = 1.0) -> list[np.ndarray]:
    """One uniform start in each cell of a k x k grid over the box: seeded,
    yet spread like criterion 1's lattice, so summed run lengths vary little
    between seeds."""
    edges = np.linspace(lo, hi, k + 1)
    return [np.array([rng.uniform(edges[i], edges[i + 1]),
                      rng.uniform(edges[j], edges[j + 1])])
            for i in range(k) for j in range(k)]


def endpoint_failure(problem: ProblemSpec, u, alpha: float, step=None) -> str:
    """Why the endpoint ``u`` fails the gate, or "" when it passes."""
    if not np.all(problem.input_set.A @ u <= problem.input_set.b + INPUT_TOL):
        return "endpoint input infeasible"
    y = eval_plant(problem.plant, u)
    if not np.all(problem.output_set.A @ y <= problem.output_set.b + OUTPUT_TOL):
        return "endpoint output infeasible"
    if step is None:
        step = controller.feedback_step(problem, u, alpha)
    kkt = controller.kkt_point_residual(problem, u, step.nu, step.mu)
    if not kkt <= KKT_TOL:
        return f"KKT residual {kkt:.2e}"
    return ""


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.counter = PlantCounter()

    def register(self, problem_name: str, factory) -> None:
        counter = self.counter
        problems.register_problem(problem_name, lambda: counter.wrap(factory()))

    def run(self, rep: Rep) -> list:
        raise NotImplementedError


class Driven(Workload):
    """The benchmark drives the paper's loop itself: ``feedback_step`` until
    the stationarity residual reaches ``STATIONARITY_TOL``.  ``runs`` holds
    one ``(problem name, start)`` pair per trajectory."""

    alpha = ALPHA

    def __init__(self, seed: int):
        super().__init__(seed)
        self.runs: list[tuple[str, np.ndarray]] = []
        self.invalid: dict[str, str] = {}  # problem name -> why set-up rejected it

    def run(self, rep: Rep) -> list:
        before = self.counter.snapshot()
        checks = [self._drive(name, u0, rep) for name, u0 in self.runs]
        rep.calls = _delta(self.counter.snapshot(), before)
        return checks

    def _drive(self, problem_name: str, u0, rep: Rep):
        problem = problems.get_problem(problem_name)
        cycles = rep.cycles
        u, alpha = u0, self.alpha
        step = None
        k = 0
        try:
            for k in range(MAX_ITERS + 1):
                t = perf_counter()
                step = controller.feedback_step(problem, u, alpha)
                cycles.append(perf_counter() - t)
                if step.sigma_norm_G <= STATIONARITY_TOL:
                    break
                u = step.u_next
            else:
                return lambda: "iteration budget exhausted"
        except (RuntimeError, ValueError) as exc:
            reason = f"{problem_name} step {k}: {type(exc).__name__}: {exc}"
            return lambda: reason
        finally:
            rep.steps += k + 1
        return lambda: (self.invalid.get(problem_name)
                        or endpoint_failure(problem, step.u, alpha, step))


class ProjectedGrid(Driven):
    name = "projected_grid"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.register(CUBIC2D, lambda: base_get_problem("cubic2d"))
        self.runs = [(CUBIC2D, u0) for u0 in jittered_grid(np.random.default_rng(seed), 5)]


class SyntheticP12(Driven):
    """Several generated problems per seed, one run each: run length and the
    phase-1 share differ more between problems than between starts, so
    averaging over problems keeps the totals steady from seed to seed."""

    name = "synthetic_p12"
    alpha = 0.1
    PROBLEMS = 6

    def __init__(self, seed: int):
        super().__init__(seed)
        for index in range(self.PROBLEMS):
            data = synthetic.generate(seed, index)
            name = f"perfbench.synthetic_p12.{index}"
            self.register(name, lambda data=data, name=name: synthetic.build(data, name))
            self.runs.append((name, data.start))
            rng = np.random.default_rng([seed, index, 1])
            points = [data.start] + [rng.uniform(-1.0, 1.0, size=synthetic.INPUTS)
                                     for _ in range(4)]
            error = finite_difference_check(base_get_problem(name), points).max_error
            if not error < FD_TOL:
                self.invalid[name] = f"{name}: finite-difference error {error:.2e}"


class Certified(Workload):
    """Estimate the certificate constants, then run at 0.9 times the
    certified step size with every step checked against the certificate."""

    name = "certified"
    # The seeded starts lie in a window around criterion 3's starts, whose
    # trajectories cross the lower output bound: on every seed, phase 1 runs
    # and the transient bound is checked against real violations.
    CROSSING = ((-0.9, -0.7), (-0.65, -0.45))
    SEEDED_STARTS = 3

    def __init__(self, seed: int):
        super().__init__(seed)
        self.register(CUBIC2D, lambda: base_get_problem("cubic2d"))
        rng = np.random.default_rng(seed)
        (u1_lo, u1_hi), (u2_lo, u2_hi) = self.CROSSING
        self.starts = [np.array([1.0, 1.0])] + [
            np.array([rng.uniform(u1_lo, u1_hi), rng.uniform(u2_lo, u2_hi)])
            for _ in range(self.SEEDED_STARTS)]

    def run(self, rep: Rep) -> list:
        problem = problems.get_problem(CUBIC2D)
        t = perf_counter()
        constants = certificates.estimate_constants(problem, ALPHA)
        rep.certify_s = perf_counter() - t
        alpha = 0.9 * constants.step_size_bound
        before = self.counter.snapshot()
        checks = []
        for u0 in self.starts:
            config = ScenarioConfig(problem_name=CUBIC2D, scheme="projected",
                                    alpha=alpha, u0=u0, max_iters=MAX_ITERS,
                                    stationarity_tol=STATIONARITY_TOL)
            log = run_stamped(config, constants, "feedback_step", rep)
            checks.append(lambda log=log: certified_failure(problem, log, alpha))
        rep.calls = _delta(self.counter.snapshot(), before)
        return checks


def certified_failure(problem: ProblemSpec, log, alpha: float) -> str:
    if log.status is not RunStatus.CONVERGED:
        return f"status {log.status.value}: {log.message}"
    if log.certificate_violated:
        return "certificate violated"
    V = log.V
    if np.any(V[1:] > V[:-1] + MERIT_SLACK * (1.0 + np.abs(V[:-1]))):
        return "merit increased"
    return endpoint_failure(problem, log.u[-1], alpha)


class SaddleBudget(Workload):
    """Criterion 6's saddle runs.  The starts are fixed, because the stall at
    gamma = 5 is only established there; the seed changes nothing."""

    name = "saddle_budget"
    RUNS = ((5.0, (0.0, 0.0), RunStatus.ITER_BUDGET),
            (0.5, (0.0, 0.0), RunStatus.CONVERGED),
            (0.5, (0.5, 0.5), RunStatus.CONVERGED))

    def __init__(self, seed: int):
        super().__init__(seed)
        self.register(CUBIC2D, lambda: base_get_problem("cubic2d"))

    def run(self, rep: Rep) -> list:
        before = self.counter.snapshot()
        checks = []
        for gamma, u0, expected in self.RUNS:
            config = ScenarioConfig(problem_name=CUBIC2D, scheme="saddle",
                                    alpha=ALPHA, gamma=gamma, rho=1.0, u0=np.array(u0),
                                    max_iters=MAX_ITERS, stationarity_tol=STATIONARITY_TOL)
            log = run_stamped(config, None, "saddle_point_step", rep)
            checks.append(lambda log=log, expected=expected, gamma=gamma:
                          "" if log.status is expected else
                          f"gamma={gamma}: status {log.status.value}, expected {expected.value}")
        rep.calls = _delta(self.counter.snapshot(), before)
        return checks


def run_stamped(config: ScenarioConfig, constants, step_name: str, rep: Rep):
    """``run_trajectory`` with the start of every step call time-stamped, so
    the cycles are the intervals between consecutive steps of the run: one
    loop iteration, merit and certificate checks included."""
    stamps: list[float] = []
    inner = getattr(harness, step_name)

    def stamped(*args):
        stamps.append(perf_counter())
        return inner(*args)

    setattr(harness, step_name, stamped)
    try:
        log = harness.run_trajectory(config, constants)
    finally:
        setattr(harness, step_name, inner)
    rep.cycles.extend(b - a for a, b in zip(stamps, stamps[1:]))
    rep.steps += log.num_rows
    return log


# The unwrapped lookup, for factories: a traced ``problems.get_problem``
# then records one span per run, around fbopt's own construction.
base_get_problem = problems.get_problem

WORKLOADS = {cls.name: cls for cls in (ProjectedGrid, SyntheticP12, Certified, SaddleBudget)}
