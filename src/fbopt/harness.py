"""Closed-loop simulation harness.

Runs the projected-gradient controller or the primal-dual baseline against a
plant, records one row per iteration (input, measured output, merit value,
fixed-point residual, worst output violation, multipliers), and serializes
the result to CSV with round-trip-exact floats.  Scenario files are flat
``key = value`` text; sweeps expand parameter lists (and input-grid starts)
into independent runs.

Everything here is deterministic: a config fully determines its log, and
identical configs produce byte-identical CSV files.
"""

from __future__ import annotations

import csv
import enum
import itertools
import math
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from .certificates import CertificateConstants, SamplerSpec, lyapunov_value, \
    sample_input_set, transient_violation_bound
from .controller import feedback_step
from .model import DEFAULT_ACTIVE_TOL, ProblemSpec, _check_count, _check_positive, \
    _finite, _read_only, _violation, eval_plant, eval_plant_jacobian, reduced_cost, \
    reduced_gradient
from .problems import _factory, get_problem
from .saddle import SaddlePointState, saddle_point_step

__all__ = [
    "RunStatus",
    "ScenarioConfig",
    "TrajectoryLog",
    "FiniteDifferenceReport",
    "load_scenario",
    "run_trajectory",
    "sweep",
    "finite_difference_check",
    "write_csv",
    "read_csv",
]

Array = np.ndarray

# Tolerance slack for the in-loop certificate checks: merit increase beyond
# 1e-12*(1+|V|) or a violation beyond the quadratic bound plus 1e-9 counts
# as a certificate breach.
MERIT_SLACK = 1e-12
VIOLATION_SLACK = 1e-9


class RunStatus(enum.Enum):
    """Terminal status of a trajectory."""

    CONVERGED = "Converged"
    ITER_BUDGET = "IterBudget"
    CERTIFICATE_VIOLATED = "CertificateViolated"
    ERROR = "Error"


@dataclass(frozen=True)
class ScenarioConfig:
    """One closed-loop experiment.

    ``scheme`` selects the update rule: ``"projected"`` for the projection-
    based controller, ``"saddle"`` for the primal-dual baseline (which is the
    only scheme using ``gamma`` and ``rho``).  ``u0`` is either a concrete
    start or a :class:`~fbopt.certificates.SamplerSpec` that a sweep expands
    into one run per point that :func:`~fbopt.certificates.sample_input_set`
    draws from the input set (``SamplerSpec(count=N)`` is the N-per-dimension
    grid).  ``alpha``, ``gamma`` and ``stationarity_tol`` must be positive
    and finite, ``rho`` nonnegative and finite.
    """

    problem_name: str
    scheme: str
    alpha: float
    u0: object
    max_iters: int = 100_000
    stationarity_tol: float = 1e-8
    gamma: float | None = None
    rho: float | None = None

    def __post_init__(self):
        if self.scheme not in ("projected", "saddle"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        _check_positive(self.alpha, "alpha")
        _check_count(self.max_iters, "max_iters", 0)
        _check_positive(self.stationarity_tol, "stationarity_tol")
        has_saddle = self.gamma is not None or self.rho is not None
        if self.scheme == "saddle":
            if self.gamma is None or self.rho is None:
                raise ValueError("saddle scheme requires gamma and rho")
            _check_positive(self.gamma, "gamma")
            _check_positive(self.rho, "rho", zero_ok=True)
        elif has_saddle:
            raise ValueError("gamma/rho are only valid for the saddle scheme")
        if not isinstance(self.u0, SamplerSpec):
            u0 = np.asarray(self.u0, dtype=float).reshape(-1)
            if not _finite(u0):
                raise ValueError("u0 must be finite")
            object.__setattr__(self, "u0", _read_only(u0))


@dataclass(frozen=True)
class TrajectoryLog:
    """Per-iteration record of one run.

    Row ``k`` describes iterate ``k``: its input and measured output, the
    merit value, the fixed-point residual of the scheme at that iterate, the
    worst output violation, and the multipliers (projection multipliers for
    the projected scheme, dual state for the saddle scheme).  ``status`` is
    the terminal status; logs reconstructed from CSV carry ``status=None``.
    The final residual is at most ``stationarity_tol`` exactly when the
    status is ``CONVERGED``.
    """

    iters: Array
    u: Array
    y: Array
    V: Array
    residual: Array
    max_violation: Array
    mu: Array
    status: RunStatus | None
    certificate_violated: bool = False
    message: str = ""

    def __post_init__(self):
        n = len(self.iters)
        for field in ("u", "y", "V", "residual", "max_violation", "mu"):
            if len(getattr(self, field)) != n:
                raise ValueError(f"column {field} has wrong length")

    @property
    def num_rows(self) -> int:
        return len(self.iters)


# ----------------------------------------------------------------- scenarios

def _parse_u0(text: str):
    if text.startswith("grid:"):
        return SamplerSpec(count=int(text[len("grid:"):]))
    return np.array([float(part) for part in text.split(",")])


_SCENARIO_KEYS = {
    "problem_name": str,
    "scheme": str,
    "alpha": float,
    "u0": _parse_u0,
    "max_iters": int,
    "stationarity_tol": float,
    "gamma": float,
    "rho": float,
}
_REQUIRED_KEYS = tuple(f.name for f in fields(ScenarioConfig) if f.default is MISSING)


def _read_key_values(path, kinds: dict):
    """Yield ``(key, kinds[key](value))`` for each ``key = value`` line.

    Lines starting with ``#`` and blank lines are skipped; a line without
    ``=``, with a key outside ``kinds`` or with a value its converter rejects
    raises ``ValueError`` naming ``path:lineno`` (and the key, for a value).
    """
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in kinds:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                converted = kinds[key](value.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from exc
            yield key, converted


def load_scenario(path) -> ScenarioConfig:
    """Parse a flat ``key = value`` scenario file and validate it.

    Lines starting with ``#`` and blank lines are ignored.  ``u0`` is either
    comma-separated floats or ``grid:<points per dimension>``.  The problem
    name must be registered (``KeyError`` otherwise), which is checked
    without building the problem; a concrete ``u0``'s size and input-set
    membership are checked by :func:`run_trajectory` alone.
    """
    values = dict(_read_key_values(path, _SCENARIO_KEYS))
    missing = [k for k in _REQUIRED_KEYS if k not in values]
    if missing:
        raise ValueError(f"{path}: missing keys: {', '.join(missing)}")
    config = ScenarioConfig(**values)
    _factory(config.problem_name)
    return config


# ------------------------------------------------------------------ running

class _Recorder:
    def __init__(self):
        self.rows = {k: [] for k in
                     ("iters", "u", "y", "V", "residual", "max_violation", "mu")}

    def add(self, k, u, y, V, residual, viol, mu):
        self.rows["iters"].append(k)
        self.rows["u"].append(np.array(u, dtype=float))
        self.rows["y"].append(np.array(y, dtype=float))
        self.rows["V"].append(float(V))
        self.rows["residual"].append(float(residual))
        self.rows["max_violation"].append(float(viol.max()) if viol.size else 0.0)
        self.rows["mu"].append(np.array(mu, dtype=float))

    def finish(self, status, violated, message):
        # run_trajectory logs row 0 before it can stop, so no column is empty
        r = self.rows
        return TrajectoryLog(
            iters=np.array(r["iters"], dtype=int),
            u=np.array(r["u"]),
            y=np.array(r["y"]),
            V=np.array(r["V"]),
            residual=np.array(r["residual"]),
            max_violation=np.array(r["max_violation"]),
            mu=np.array(r["mu"]),
            status=status, certificate_violated=violated, message=message)


def run_trajectory(config: ScenarioConfig,
                   constants: CertificateConstants | None = None) -> TrajectoryLog:
    """Run one closed-loop trajectory to convergence, budget, or error.

    ``config.u0`` must be a concrete start of the problem's size inside its
    input set (else ``ValueError``): the one check of a start.  ``constants``,
    when given, must hold one output Lipschitz constant per output row
    (else ``ValueError``, before the first step).  Each logged
    row costs one plant measurement: ``y`` and the sensitivity are measured
    once each at the row's input (by ``feedback_step``, or here for
    ``saddle_point_step``), and the same ``y`` fills the row and its merit
    value and violation.  The row adds no check of its own: ``eval_plant``
    (or ``feedback_step``) checks the input and the measured ``y``, the step
    checks the sensitivity and what it computes, and :func:`lyapunov_value`
    checks ``y`` once more as a public function.

    The merit column uses the penalty from ``constants`` when given and 1.0
    otherwise.  When ``constants`` are given and the step size is below their
    certified bound, every step is checked against the certificate's
    conclusions — merit non-increasing and, for the projected scheme, each
    per-row violation within the quadratic transient bound — and breaches
    are flagged; a run that hits the budget with a breach ends as
    ``CERTIFICATE_VIOLATED``.  (A converged run keeps ``CONVERGED`` and only
    the flag.)  The transient bound of step ``k -> k+1`` is checked at row
    ``k+1``, on its measurement, before that row's convergence and budget
    checks and also when its step fails.  Merit monotonicity is also checked
    for saddle runs, where a rising merit is the usual instability signature.

    Exceptions raised by a step (empty linearized set, solver or plant
    failure) end the run with status ``ERROR`` and the message recorded; the
    offending iterate is still logged, re-measured, with NaN residual and
    multipliers.  If that re-measurement fails too, its output, merit and
    worst violation are logged as NaN.
    """
    if isinstance(config.u0, SamplerSpec):
        raise ValueError("a run needs a concrete u0, not a grid start; "
                         "a sweep runs one per grid point")
    problem = get_problem(config.problem_name)
    if config.u0.size != problem.input_dim:
        raise ValueError(f"u0 has size {config.u0.size}, "
                         f"problem needs {problem.input_dim}")
    if not problem.input_set.membership(config.u0, tol=DEFAULT_ACTIVE_TOL):
        raise ValueError("u0 is outside the input set")
    l = problem.output_set.num_rows
    if constants is not None and constants.output_lipschitz.size != l:
        raise ValueError(f"output_lipschitz has {constants.output_lipschitz.size} "
                         f"entries, the problem has {l} output rows")

    penalty = constants.multiplier_bound if constants is not None else 1.0
    certify = (constants is not None
               and config.alpha < constants.step_size_bound)
    rec = _Recorder()
    violated = False
    message = ""

    # Per scheme: the start state, ``logged(state)`` -> (input, multipliers)
    # logged if the state's step fails, and ``step(state)`` -> (next state,
    # measured y, residual, multipliers, direction w or None if unprojected).
    if config.scheme == "projected":
        state = config.u0
        nan_mu = np.full(l, np.nan)

        def logged(u):
            return u, nan_mu

        def step(u):
            st = feedback_step(problem, u, config.alpha)
            return st.u_next, st.y, st.sigma_norm_G, st.mu, st.w
    else:
        state = SaddlePointState(u=config.u0, mu=np.zeros(l),
                                 alpha=config.alpha, gamma=config.gamma,
                                 rho=config.rho)

        def logged(s):
            return s.u, s.mu

        def step(s):
            # J is taken at the u that eval_plant has just checked, and
            # checked once, by saddle_point_step
            y = eval_plant(problem.plant, s.u)
            nxt = saddle_point_step(problem, s, y, problem.plant.jacobian(s.u))
            residual = (_norm(nxt.u - s.u) / config.alpha
                        + _norm(nxt.mu - s.mu) / config.gamma)
            return nxt, y, residual, s.mu, None

    prev_V = prev_w = None
    status = RunStatus.ITER_BUDGET
    for k in range(config.max_iters + 1):
        u, mu = logged(state)
        try:
            nxt, y, residual, mu, w = step(state)
        except Exception as exc:  # solver/model failures end the run
            status, message = RunStatus.ERROR, f"{type(exc).__name__}: {exc}"
            residual = np.nan
            try:
                y = eval_plant(problem.plant, u)
            except Exception:  # the plant keeps failing: log NaN
                y = None
        if y is None:
            y, V, viol = np.full(problem.output_dim, np.nan), np.nan, np.full(l, np.nan)
        else:
            V = lyapunov_value(problem, penalty, u, y)
            viol = _violation(problem.output_set, y)  # y was checked as it was measured
        rec.add(k, u, y, V, residual, viol, mu)
        if certify and prev_w is not None:  # the step into this row
            bound = transient_violation_bound(constants.output_lipschitz,
                                              config.alpha, prev_w)
            if (viol > bound + VIOLATION_SLACK).any():
                violated = True
        if status is RunStatus.ERROR:
            break
        if certify and prev_V is not None \
                and V > prev_V + MERIT_SLACK * (1.0 + abs(prev_V)):
            violated = True
        prev_V, prev_w = V, w
        if residual <= config.stationarity_tol:
            status = RunStatus.CONVERGED
            break
        if k == config.max_iters:
            break
        state = nxt

    if violated and status is not RunStatus.CONVERGED and status is not RunStatus.ERROR:
        status = RunStatus.CERTIFICATE_VIOLATED
    return rec.finish(status, violated, message)


def _norm(d: Array) -> float:
    """The bits of ``np.linalg.norm`` on a real vector ``d`` whose ``d·d`` is
    finite, and the scaled ``math.hypot`` where ``d·d`` overflows.  ``vdot``
    takes the same BLAS dot as ``d.dot(d)`` but raises no overflow warning."""
    dd = np.vdot(d, d)
    return math.sqrt(dd) if dd < math.inf else math.hypot(*d)


def sweep(base: ScenarioConfig, grid: dict,
          constants: CertificateConstants | None = None) -> list[tuple[dict, TrajectoryLog]]:
    """Run one trajectory per point of a parameter grid.

    ``grid`` maps config field names to lists of values; the sweep covers
    their Cartesian product.  A :class:`~fbopt.certificates.SamplerSpec`
    start in ``base`` is expanded into one run per point it samples from the
    input set.  Returns ``(overrides, log)`` pairs in deterministic order;
    raises if the product is empty.  Every config is built, and so checked,
    before the first run.
    """
    grid = dict(grid)
    if isinstance(base.u0, SamplerSpec) and "u0" not in grid:
        problem = get_problem(base.problem_name)
        grid["u0"] = sample_input_set(problem.input_set, base.u0)
    if not grid or any(len(v) == 0 for v in grid.values()):
        raise ValueError("sweep grid is empty")
    for key in grid:
        if key not in ScenarioConfig.__dataclass_fields__:
            raise ValueError(f"unknown config field {key!r}")
    keys = sorted(grid)
    overrides = [dict(zip(keys, combo))
                 for combo in itertools.product(*(grid[k] for k in keys))]
    configs = [replace(base, **ov) for ov in overrides]
    return [(ov, run_trajectory(config, constants))
            for ov, config in zip(overrides, configs)]


# ------------------------------------------------------- derivative checking

@dataclass(frozen=True)
class FiniteDifferenceReport:
    """Worst relative errors of the analytic derivatives versus central
    differences, over the checked points."""

    plant_jacobian: float
    objective_gradient: float
    reduced_gradient: float

    @property
    def max_error(self) -> float:
        return max(self.plant_jacobian, self.objective_gradient,
                   self.reduced_gradient)


def _central_diff(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        cols.append((np.asarray(f(x + e), dtype=float)
                     - np.asarray(f(x - e), dtype=float)) / (2.0 * h))
    return np.stack(cols, axis=-1)


def _rel_error(approx, exact):
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    return float(np.linalg.norm((approx - exact).ravel())
                 / max(1.0, float(np.linalg.norm(exact.ravel()))))


def finite_difference_check(problem: ProblemSpec, points) -> FiniteDifferenceReport:
    """Validate the plant Jacobian, the objective gradient, and the reduced
    gradient against central differences at the given input points.

    Relative errors are ``||fd - analytic|| / max(1, ||analytic||)``.  The
    objective gradient is checked in the joint ``(u, y)`` variable at
    ``y = h(u)``; the reduced gradient against differences of the composed
    cost ``u -> objective(u, h(u))``.
    """
    worst_jac = worst_obj = worst_red = 0.0
    for u in points:
        u = np.asarray(u, dtype=float).reshape(-1)
        y = eval_plant(problem.plant, u)
        J = eval_plant_jacobian(problem.plant, u)
        fd_jac = _central_diff(lambda x: problem.plant.eval(x), u)
        worst_jac = max(worst_jac, _rel_error(fd_jac, J))
        z = np.concatenate([u, y])
        p = u.size
        fd_obj = _central_diff(
            lambda v: problem.objective.eval(v[:p], v[p:]), z)
        worst_obj = max(worst_obj, _rel_error(
            fd_obj, problem.objective.gradient(u, y)))
        fd_red = _central_diff(lambda x: reduced_cost(problem, x), u)
        worst_red = max(worst_red, _rel_error(
            fd_red, reduced_gradient(problem, u, y, J)))
    return FiniteDifferenceReport(plant_jacobian=worst_jac,
                                  objective_gradient=worst_obj,
                                  reduced_gradient=worst_red)


# -------------------------------------------------------------------- CSV IO

def _csv_columns(p: int, n: int, l: int) -> list[str]:
    return (["iter"]
            + [f"u{j + 1}" for j in range(p)]
            + [f"y{j + 1}" for j in range(n)]
            + ["V", "residual", "max_violation"]
            + [f"mu{j + 1}" for j in range(l)])


def _fmt(x: float) -> str:
    # 17 significant digits: round-trip exact for binary64
    return f"{x:.17g}"


def write_csv(log: TrajectoryLog, path) -> None:
    """Write the log's rows to ``path``.

    Columns, in order: iter, u1..up, y1..yn, V, residual, max_violation,
    mu1..mul.  Floats carry 17 significant digits, so re-reading reproduces
    the rows bit-exactly; identical logs produce byte-identical files.
    """
    p = log.u.shape[1] if log.u.ndim == 2 else 0
    n = log.y.shape[1] if log.y.ndim == 2 else 0
    l = log.mu.shape[1] if log.mu.ndim == 2 else 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_csv_columns(p, n, l))
        for k in range(log.num_rows):
            row = ([str(int(log.iters[k]))]
                   + [_fmt(v) for v in log.u[k]]
                   + [_fmt(v) for v in log.y[k]]
                   + [_fmt(log.V[k]), _fmt(log.residual[k]),
                      _fmt(log.max_violation[k])]
                   + [_fmt(v) for v in log.mu[k]])
            writer.writerow(row)


def read_csv(path) -> TrajectoryLog:
    """Read a trajectory CSV back into a log.

    The terminal status is not serialized, so the result carries
    ``status=None``; all numeric columns round-trip bit-exactly.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader]
    p = sum(1 for name in header if name.startswith("u") and name != "u")
    n = sum(1 for name in header if name.startswith("y"))
    l = sum(1 for name in header if name.startswith("mu"))
    expected = _csv_columns(p, n, l)
    if header != expected:
        raise ValueError(f"unexpected CSV header {header!r}")
    data = np.array([[float(v) for v in row] for row in rows], dtype=float)
    if data.size == 0:
        data = data.reshape(0, len(header))
    return TrajectoryLog(
        iters=data[:, 0].astype(int),
        u=data[:, 1:1 + p],
        y=data[:, 1 + p:1 + p + n],
        V=data[:, 1 + p + n],
        residual=data[:, 2 + p + n],
        max_violation=data[:, 3 + p + n],
        mu=data[:, 4 + p + n:],
        status=None)
