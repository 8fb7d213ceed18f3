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

import array
import csv
import enum
import itertools
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from .certificates import CertificateConstants, SamplerSpec, _merit, \
    sample_input_set, transient_violation_bound
from .controller import feedback_step
from .model import DEFAULT_ACTIVE_TOL, ProblemSpec, _check_count, _check_positive, \
    _finite, _measure, _norm, _read_only, _vector, _violation, eval_plant, \
    eval_plant_jacobian, reduced_gradient
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

    In a log from :func:`run_trajectory` or :func:`read_csv`, every column
    but ``iters`` is a view of one float64 table in :func:`write_csv`'s
    column order, at 8 B per value; ``iters`` is an integer copy of its
    first column.
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
    ``=``, with a key outside ``kinds`` or already given, or with a value its
    converter rejects raises ``ValueError`` naming ``path:lineno`` (and the
    key, for a value).
    """
    first = {}  # key -> the line that gave it
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
            if first.setdefault(key, lineno) != lineno:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r} "
                                 f"(first on line {first[key]})")
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
    membership are checked with the problem, by :func:`run_trajectory` and,
    for every run before the first, by :func:`sweep`.
    """
    values = dict(_read_key_values(path, _SCENARIO_KEYS))
    missing = [k for k in _REQUIRED_KEYS if k not in values]
    if missing:
        raise ValueError(f"{path}: missing keys: {', '.join(missing)}")
    config = ScenarioConfig(**values)
    _factory(config.problem_name)
    return config


# ------------------------------------------------------------------ running

def run_trajectory(config: ScenarioConfig,
                   constants: CertificateConstants | None = None) -> TrajectoryLog:
    """Run one closed-loop trajectory to convergence, budget, or error.

    ``config.u0`` must be a concrete start of the problem's size inside its
    input set (else ``ValueError``, after the problem is built): the one check
    of a start, which :func:`sweep` also makes.  ``constants``, when given,
    must hold one output Lipschitz constant per output row (else
    ``ValueError``, before the first step).  Each logged row costs one plant
    measurement: ``y`` and the sensitivity are measured once each at the row's
    input (by :func:`~fbopt.controller.feedback_step`, or here for
    :func:`~fbopt.saddle.saddle_point_step`), and the same ``y`` fills the
    row, its merit value and its worst violation; the row adds no check to
    its step's.  The merit value equals
    :func:`~fbopt.certificates.lyapunov_value` bit for bit.

    The merit column uses the penalty from ``constants`` when given and 1.0
    otherwise.  When ``constants`` are given and the step size is below their
    certified bound, every step is checked against the certificate's
    conclusions — merit non-increasing and, for the projected scheme, each
    per-row violation within the quadratic transient bound — and breaches
    are flagged; a run that hits the budget with a breach ends as
    ``CERTIFICATE_VIOLATED``.  (A converged run keeps ``CONVERGED`` and only
    the flag.)  The transient bound of step ``k -> k+1`` is checked at row
    ``k+1``, on its measurement, before that row's convergence and budget
    checks and also when its step fails.  A row whose violations are all
    ``<= 0`` computes no bound: the bound ``½ℓ‖αw‖²`` is nonnegative (or
    NaN) and the breach test adds a positive slack to it, so such a row
    cannot breach it.  A row with any NaN violation has a NaN worst
    violation, and its other rows may still breach, so it is tested: a
    finite ``y`` can give a NaN row of ``C y`` (``inf - inf``) next to a
    finite one.  Merit monotonicity is also checked for saddle runs, where a
    rising merit is the usual instability signature.

    Exceptions raised by a step (empty linearized set, solver or plant
    failure) end the run with status ``ERROR`` and the message recorded; the
    offending iterate is still logged, re-measured, with NaN residual and
    multipliers.  If that re-measurement fails too, its output, merit and
    worst violation are logged as NaN.

    Each row's values are copied into one flat float64 buffer as the row is
    logged, and the log's columns are views of it, so a long run holds 8 B
    per value: 100,001 rows of cubic2d's width 9 take about 7 MB (8.2 MB at
    the traced peak), where a Python list per row peaks near 52 MB.
    """
    problem = get_problem(config.problem_name)
    _check_start(config, problem)
    l = problem.output_set.num_rows
    if constants is not None and constants.output_lipschitz.size != l:
        raise ValueError(f"output_lipschitz has {constants.output_lipschitz.size} "
                         f"entries, the problem has {l} output rows")

    penalty = constants.multiplier_bound if constants is not None else 1.0
    certify = (constants is not None
               and config.alpha < constants.step_size_bound)
    table = array.array("d")  # the rows, flat
    violated = False
    message = ""

    projected = config.scheme == "projected"
    state = config.u0 if projected else SaddlePointState(
        u=config.u0, mu=np.zeros(l), alpha=config.alpha, gamma=config.gamma,
        rho=config.rho)
    nan_mu = np.full(l, np.nan)  # a failed projected row's multipliers
    prev_V = prev_w = w = None
    status = RunStatus.ITER_BUDGET
    for k in range(config.max_iters + 1):
        u, mu = (state, nan_mu) if projected else (state.u, state.mu)
        try:
            if projected:
                st = feedback_step(problem, u, config.alpha)
                state, y, residual, mu, w = st.u_next, st.y, st.sigma_norm_G, st.mu, st.w
            else:  # u was checked as the state was built, J is checked by the step
                y = _measure(problem.plant, u)
                state = saddle_point_step(problem, state, y, problem.plant.jacobian(u))
                residual = (_norm(state.u - u) / config.alpha
                            + _norm(state.mu - mu) / config.gamma)
        except Exception as exc:  # solver/model failures end the run
            status, message = RunStatus.ERROR, f"{type(exc).__name__}: {exc}"
            residual = np.nan
            try:
                y = eval_plant(problem.plant, u)
            except Exception:  # the plant keeps failing: log NaN
                y = None
        if y is None:
            y, V, viol = np.full(problem.output_dim, np.nan), np.nan, np.full(l, np.nan)
        else:  # y was checked as it was measured
            viol = _violation(problem.output_set, y)
            V = _merit(problem, penalty, u, y, viol)
        # tolist copies u, y and mu (a plant may reuse its output buffer);
        # np.maximum.reduce is viol.max() without its Python wrapper
        worst = np.maximum.reduce(viol)
        table.fromlist([k, *u.tolist(), *y.tolist(), V, residual, worst, *mu.tolist()])
        # the step into this row; one whose violations are all <= 0 breaches
        # nothing (a NaN worst, from any NaN violation, is tested)
        if certify and prev_w is not None and not worst <= 0.0:
            bound = transient_violation_bound(constants.output_lipschitz,
                                              config.alpha, prev_w)
            if np.count_nonzero(viol > bound + VIOLATION_SLACK):
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

    if violated and status is RunStatus.ITER_BUDGET:
        status = RunStatus.CERTIFICATE_VIOLATED
    p, n = problem.input_dim, problem.output_dim
    return _log(np.frombuffer(table).reshape(-1, 4 + p + n + l), p, n,
                status, violated, message)


def _check_start(config: ScenarioConfig, problem: ProblemSpec) -> None:
    """Raise ``ValueError`` unless ``config.u0`` is a concrete start of
    ``problem``'s size inside its input set: the one check of a start."""
    if isinstance(config.u0, SamplerSpec):
        raise ValueError("a run needs a concrete u0, not a grid start; "
                         "a sweep runs one per grid point")
    if config.u0.size != problem.input_dim:
        raise ValueError(f"u0 has size {config.u0.size}, "
                         f"problem needs {problem.input_dim}")
    # ScenarioConfig holds u0 as a finite float vector
    if not problem.input_set._contains(config.u0, DEFAULT_ACTIVE_TOL):
        raise ValueError("u0 is outside the input set")


def sweep(base: ScenarioConfig, grid: dict) -> list[tuple[dict, TrajectoryLog]]:
    """Run one trajectory per point of a parameter grid.

    ``grid`` maps config field names to lists of values; the sweep covers
    their Cartesian product.  A :class:`~fbopt.certificates.SamplerSpec`
    start in ``base`` is expanded into one run per point it samples from the
    input set.  Returns ``(overrides, log)`` pairs in deterministic order;
    raises if the product is empty.  Every config is built, and so checked,
    and its start checked against its problem as by :func:`run_trajectory`,
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
    problems = {name: get_problem(name)
                for name in dict.fromkeys(c.problem_name for c in configs)}
    for config in configs:
        _check_start(config, problems[config.problem_name])
    return [(ov, run_trajectory(config)) for ov, config in zip(overrides, configs)]


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
    plant Jacobian and the reduced gradient are checked against the first
    ``n`` rows and the last row of one difference of the stacked map
    ``x -> [h(x); objective(x, h(x))]``; the objective gradient in the joint
    ``(u, y)`` variable at ``y = h(u)``, with no plant call.  A point of
    ``p`` inputs costs ``1 + 2p`` measurements, each checked as by
    :func:`~fbopt.model.eval_plant`, and one Jacobian.  Every point is
    checked before any is measured, and an empty ``points`` raises
    ``ValueError``."""
    points = [_vector(u, problem.input_dim, "u") for u in points]
    if not points:
        raise ValueError("need at least one point")

    def stacked(x):  # measured as by reduced_cost
        y = _measure(problem.plant, x)
        return np.append(y, float(problem.objective.eval(x, y)))

    worst_jac = worst_obj = worst_red = 0.0
    for u in points:
        y = _measure(problem.plant, u)
        J = eval_plant_jacobian(problem.plant, u)
        fd = _central_diff(stacked, u)
        worst_jac = max(worst_jac, _rel_error(fd[:-1], J))
        z = np.concatenate([u, y])
        p = u.size
        fd_obj = _central_diff(
            lambda v: problem.objective.eval(v[:p], v[p:]), z)
        worst_obj = max(worst_obj, _rel_error(
            fd_obj, problem.objective.gradient(u, y)))
        worst_red = max(worst_red, _rel_error(
            fd[-1], reduced_gradient(problem, u, y, J)))
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


def write_csv(log: TrajectoryLog, path) -> None:
    """Write the log's rows to ``path``.

    Columns, in order: iter, u1..up, y1..yn, V, residual, max_violation,
    mu1..mul.  Floats carry 17 significant digits, so re-reading reproduces
    the rows bit-exactly; identical logs produce byte-identical files.
    """
    table = np.column_stack((log.iters, log.u, log.y, log.V, log.residual,
                             log.max_violation, log.mu))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_csv_columns(log.u.shape[1], log.y.shape[1], log.mu.shape[1]))
        # 17 significant digits: round-trip exact for binary64
        writer.writerows([str(int(row[0]))] + [f"{v:.17g}" for v in row[1:]]
                         for row in table)


def read_csv(path) -> TrajectoryLog:
    """Read a trajectory CSV back into a log.

    The terminal status is not serialized, so the result carries
    ``status=None``; all numeric columns round-trip bit-exactly.  A header
    other than :func:`write_csv`'s (or none), a row of another width or a
    non-numeric field raises ``ValueError`` naming ``path`` (and the line).
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        p, n, l = (sum(name.startswith(c) for name in header) for c in ("u", "y", "mu"))
        if header != _csv_columns(p, n, l):
            raise ValueError(f"{path}: unexpected CSV header {header!r}")
        table = array.array("d")  # the rows, flat
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"{path}:{reader.line_num}: {len(row)} fields, "
                                 f"the header has {len(header)}")
            try:
                table.fromlist([float(v) for v in row])
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
    return _log(np.frombuffer(table).reshape(-1, len(header)), p, n)


def _log(table: Array, p: int, n: int, status: RunStatus | None = None,
         violated: bool = False, message: str = "") -> TrajectoryLog:
    """Slice a table of rows in :func:`write_csv`'s column order, ``p``
    inputs and ``n`` outputs, into a log: the one reader of a row."""
    return TrajectoryLog(
        iters=table[:, 0].astype(int),
        u=table[:, 1:1 + p],
        y=table[:, 1 + p:1 + p + n],
        V=table[:, 1 + p + n],
        residual=table[:, 2 + p + n],
        max_violation=table[:, 3 + p + n],
        mu=table[:, 4 + p + n:],
        status=status, certificate_violated=violated, message=message)
