"""One-step feedback law for driving a plant to a constrained optimum.

Each step takes the output ``y`` and the sensitivity ``J`` measured at the
input, projects the metric-scaled descent direction of the reduced cost onto a
linearization of the feasible set, and advances the input by ``alpha`` times
that direction.  Of the step functions only :func:`feedback_step` calls the
plant, to take that measurement; the others here, like the saddle baseline's
:func:`~fbopt.saddle.saddle_point_step`, are handed ``y`` and ``J``.  Inputs
remain inside their polyhedron at every step; outputs satisfy their
constraints to first order, with the quadratic remainder bounded by the
certificates module.

The projection subproblem is assembled so that its Lagrange multipliers are
exactly the stationarity multipliers of the underlying design problem: at a
fixed point of the update, ``(u, nu, mu)`` is a KKT triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    DEFAULT_ACTIVE_TOL,
    ProblemSpec,
    _check_positive,
    _jacobian,
    _vector,
    eval_plant,
    eval_plant_jacobian,
    linearized_constraints,
    reduced_gradient,
)
from .qp import Infeasible, QpProblem, solve_qp

__all__ = [
    "LinearizedSetEmpty",
    "ControllerStep",
    "LicqReport",
    "assemble_projection_qp",
    "controller_step",
    "feedback_step",
    "check_licq",
    "kkt_point_residual",
]

Array = np.ndarray

# Relative singular-value threshold below which check_licq counts a
# direction of the active rows as lost.
LICQ_RANK_TOL = 1e-9


class LinearizedSetEmpty(RuntimeError):
    """The linearized constraint set at the current point has no solution.

    This indicates the problem data violates the standing regularity
    assumption at this input; it is an error, not a recoverable state."""


@dataclass(frozen=True)
class ControllerStep:
    """Result of one controller evaluation at input ``u`` with measured ``y``.

    ``w`` is the projected direction; ``nu`` and ``mu`` are the multipliers
    of the input rows and of the linearized output rows, in the row order of
    the respective constraint sets.  ``u_next`` equals ``u + alpha * w``
    exactly, and ``sigma_norm_G`` is the metric norm of ``w`` used as the
    stationarity residual.
    """

    u: Array
    y: Array
    alpha: float
    w: Array
    nu: Array
    mu: Array
    u_next: Array
    sigma_norm_G: float


@dataclass(frozen=True)
class LicqReport:
    """Row-rank summary of the active constraint gradients at a step."""

    satisfied: bool
    num_active: int
    rank: int
    active_rows: tuple[int, ...]
    singular_values: Array


def _projection_qp(problem: ProblemSpec, u: Array, y: Array, J: Array,
                   alpha: float, G: Array) -> QpProblem:
    """The step QP from a checked ``alpha``, ``u``, ``y`` and ``J`` and the
    float array ``G``.  The gradient is checked as it is evaluated; the QP
    (only ``G`` is new) is checked once, uncopied, by ``QpProblem._adopt``."""
    g = reduced_gradient(problem, u, y, J)
    rows, slack = linearized_constraints(problem, u, y, J)
    return QpProblem._adopt(alpha * G, alpha * g, alpha * rows, slack,
                            "alpha * metric G(u)")


def assemble_projection_qp(problem: ProblemSpec, u, y, J, alpha: float,
                           G) -> QpProblem:
    """Build the per-step projection QP at ``(u, y, J)`` with ``G = G(u)``.

    The quadratic term is ``alpha * G(u)``, the linear term ``alpha`` times
    the reduced cost gradient, and the rows stack the input constraints
    above the linearized output constraints:

        alpha * A w        <= b - A u
        alpha * C J w      <= d - C y

    The first ``input_set.num_rows`` rows always belong to the input set, which
    is how multipliers are split back into ``(nu, mu)``.  ``alpha``, ``u``,
    ``y`` and ``J`` (measured at ``u``) are checked here, in that order; ``G``
    must be a symmetric ``(p, p)`` matrix, and ``G`` and the gradient must be
    finite, as must the QP after scaling by ``alpha`` (each raises
    ``ValueError``).  The QP is checked once, as it is built.
    """
    _check_positive(alpha, "alpha")
    u = _vector(u, problem.input_dim, "u")
    y = _vector(y, problem.output_dim, "y")
    J = _jacobian(J, problem.plant, u)
    return _projection_qp(problem, u, y, J, alpha, np.asarray(G, dtype=float))


def _metric(problem: ProblemSpec, u: Array) -> Array:
    """The metric ``G(u)`` as a float array."""
    return np.asarray(problem.metric.eval(u), dtype=float)


def _step(problem: ProblemSpec, u, y, J, alpha: float, G: Array) -> ControllerStep:
    """The step from a checked ``alpha``, ``u``, ``y`` and ``J`` and the
    float array ``G = G(u)``."""
    qp = _projection_qp(problem, u, y, J, alpha, G)
    try:
        sol = solve_qp(qp)
    except Infeasible as exc:
        raise LinearizedSetEmpty(
            f"linearized constraint set is empty at u={u.tolist()}") from exc
    q = problem.input_set.num_rows
    w = sol.w
    sigma_norm = math.sqrt(max(w @ G @ w, 0.0))
    return ControllerStep(u=u, y=y, alpha=float(alpha), w=w,
                          nu=sol.multipliers[:q], mu=sol.multipliers[q:],
                          u_next=u + alpha * w, sigma_norm_G=sigma_norm)


def controller_step(problem: ProblemSpec, u, y, J, alpha: float) -> ControllerStep:
    """Compute the projected direction and the next input from a measurement.

    ``y`` and ``J`` are measured at ``u``; a mismatched or estimated ``J`` is
    used as given.  Raises :class:`LinearizedSetEmpty` if the linearized
    constraints admit no direction at all.  ``alpha``, ``u``, ``y`` and ``J``
    are checked once each, in that order, so the metric never sees an unchecked
    ``u``; the step QP is checked as :func:`assemble_projection_qp` builds it.
    """
    _check_positive(alpha, "alpha")
    u = _vector(u, problem.input_dim, "u")
    y = _vector(y, problem.output_dim, "y")
    J = _jacobian(J, problem.plant, u)
    return _step(problem, u, y, J, alpha, _metric(problem, u))


def feedback_step(problem: ProblemSpec, u, alpha: float) -> ControllerStep:
    """Measure ``y`` and ``J`` at ``u``, once each, and advance one step.

    ``u`` must lie in the input set (outputs may be violated during transients;
    inputs may not).  ``alpha`` is checked first, so a bad step size costs no
    measurement; ``u`` is checked by the input set's membership test and by
    :func:`~fbopt.model.eval_plant`, which also checks ``y``, and ``J`` as it
    is evaluated.  The rest is :func:`controller_step`'s."""
    _check_positive(alpha, "alpha")
    if not problem.input_set.membership(u, tol=DEFAULT_ACTIVE_TOL):
        raise ValueError("current input lies outside the input set")
    y = eval_plant(problem.plant, u)
    u = np.asarray(u, dtype=float).reshape(-1)
    J = eval_plant_jacobian(problem.plant, u)
    return _step(problem, u, y, J, alpha, _metric(problem, u))


def check_licq(problem: ProblemSpec, u, y, J, alpha: float, w) -> LicqReport:
    """Check linear independence of the active constraint rows at ``w``.

    Activity is measured on the projection rows built from ``y`` and ``J``
    (measured at ``u``) at the absolute tolerance ``DEFAULT_ACTIVE_TOL``; the
    rank of the unscaled rows ``[A; C J]`` is computed with singular-value
    threshold ``LICQ_RANK_TOL`` times the largest singular value.  ``alpha``
    and ``J`` are checked as by :func:`controller_step`, and ``u``, ``y`` and
    ``w`` must be finite vectors of the problem's dimensions.
    """
    _check_positive(alpha, "alpha")
    u = _vector(u, problem.input_dim, "u")
    y = _vector(y, problem.output_dim, "y")
    w = _vector(w, problem.input_dim, "w")
    rows, slack = linearized_constraints(problem, u, y,
                                         _jacobian(J, problem.plant, u))
    resid = alpha * (rows @ w) - slack
    active = np.flatnonzero(np.abs(resid) <= DEFAULT_ACTIVE_TOL)
    if active.size == 0:
        return LicqReport(True, 0, 0, (), np.zeros(0))
    svals = np.linalg.svd(rows[active], compute_uv=False)
    rank = int(np.sum(svals > LICQ_RANK_TOL * svals[0]))
    return LicqReport(satisfied=rank == active.size, num_active=int(active.size),
                      rank=rank, active_rows=tuple(int(i) for i in active),
                      singular_values=svals)


def kkt_point_residual(problem: ProblemSpec, u, nu, mu) -> float:
    """First-order optimality defect of ``(u, nu, mu)`` for the design problem.

    Maximum over the stationarity defect of the reduced gradient, the input
    and output feasibility defects, dual negativity, and complementarity
    products.  At a converged controller fixed point this inherits the size
    of the final projected direction.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    nu = np.asarray(nu, dtype=float).reshape(-1)
    mu = np.asarray(mu, dtype=float).reshape(-1)
    y = eval_plant(problem.plant, u)
    J = eval_plant_jacobian(problem.plant, u)
    g = reduced_gradient(problem, u, y, J)
    rows, slack = linearized_constraints(problem, u, y, J)
    q = problem.input_set.num_rows
    stat = g + nu @ rows[:q] + mu @ rows[q:]
    in_resid = -slack[:q]
    out_resid = -slack[q:]
    pieces = [
        float(np.linalg.norm(stat, ord=np.inf)) if stat.size else 0.0,
        float(np.max(in_resid, initial=0.0)),
        float(np.max(out_resid, initial=0.0)),
        float(max(np.max(-nu, initial=0.0), np.max(-mu, initial=0.0))),
        float(np.max(np.abs(nu * in_resid), initial=0.0)),
        float(np.max(np.abs(mu * out_resid), initial=0.0)),
    ]
    return max(pieces)
