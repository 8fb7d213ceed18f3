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
    _measure,
    _vector,
    eval_plant_jacobian,
    linearized_constraints,
    reduced_gradient,
)
from .qp import Infeasible, QpProblem, _check_qp, _solve

__all__ = [
    "LinearizedSetEmpty",
    "ControllerStep",
    "assemble_projection_qp",
    "controller_step",
    "feedback_step",
    "kkt_point_residual",
]

Array = np.ndarray

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


def _projection_qp(problem: ProblemSpec, u: Array, y: Array, J: Array,
                   alpha: float, G: Array) -> tuple[Array, Array, Array, Array, float]:
    """The step QP's ``(Q, c, M, r, scale)`` from a checked ``alpha``, ``u``,
    ``y`` and ``J`` and the float array ``G``: the gradient is checked as it
    is evaluated, the uncopied QP (only ``G`` is new) by ``qp._check_qp``.
    A factor ``alpha > 1`` may overflow a finite entry to ``inf``, silently,
    so that the check names the array; one ``<= 1`` cannot."""
    g = reduced_gradient(problem, u, y, J)
    rows, slack = linearized_constraints(problem, u, y, J)
    if alpha > 1.0:
        with np.errstate(over="ignore"):
            Q, c, M = alpha * G, alpha * g, alpha * rows
    else:
        Q, c, M = alpha * G, alpha * g, alpha * rows
    return Q, c, M, slack, _check_qp(Q, c, M, slack, "alpha * metric G(u)")


def _checked(problem: ProblemSpec, u, y, J, alpha: float) -> tuple[Array, Array, Array]:
    """The step entries' argument gate: ``alpha``, ``u``, ``y`` and ``J``
    checked once each, in that order; returns the checked ``(u, y, J)``."""
    _check_positive(alpha, "alpha")
    u = _vector(u, problem.input_dim, "u")
    return u, _vector(y, problem.output_dim, "y"), _jacobian(J, problem.plant, u)


def _metric(problem: ProblemSpec, u: Array) -> Array:
    """The metric ``G(u)`` as a float array."""
    return np.asarray(problem.metric.eval(u), dtype=float)


def assemble_projection_qp(problem: ProblemSpec, u, y, J, alpha: float) -> QpProblem:
    """Build the step QP that :func:`controller_step` solves at ``(u, y, J)``.

    The quadratic term is ``alpha * G(u)``, the linear term ``alpha`` times
    the reduced cost gradient, and the rows stack the input constraints
    above the linearized output constraints:

        alpha * A w        <= b - A u
        alpha * C J w      <= d - C y

    The first ``input_set.num_rows`` rows always belong to the input set, which
    is how multipliers are split back into ``(nu, mu)``.  ``alpha``, ``u``,
    ``y`` and ``J`` (measured at ``u``) are checked here, in that order; then
    the metric ``G(u)`` is evaluated at the checked ``u``.  ``G(u)`` must be a
    symmetric ``(p, p)`` matrix, and it and the gradient must be finite, as
    must the QP after scaling by ``alpha`` (each raises ``ValueError``).  The
    builder checks the QP as it makes it; then :class:`~fbopt.qp.QpProblem`'s
    constructor checks and copies it, as for any caller.
    """
    u, y, J = _checked(problem, u, y, J, alpha)
    Q, c, M, r, _ = _projection_qp(problem, u, y, J, alpha, _metric(problem, u))
    return QpProblem(Q=Q, c=c, M=M, r=r)


def _step(problem: ProblemSpec, u, y, J, alpha: float, G: Array) -> ControllerStep:
    """The step from a checked ``alpha``, ``u``, ``y`` and ``J`` and the
    float array ``G = G(u)``.  The QP's arrays go straight to the core
    ``qp._solve``, whose rank warning names this line, and the step is
    filled as ``SaddlePointState._adopt`` fills its state."""
    qp = _projection_qp(problem, u, y, J, alpha, G)
    try:
        w, mult = _solve(*qp, 1)[:2]
    except Infeasible as exc:
        raise LinearizedSetEmpty(
            f"linearized constraint set is empty at u={u.tolist()}") from exc
    q = problem.input_set.num_rows
    sigma_norm = math.sqrt(max(w.dot(G).dot(w), 0.0))
    step = object.__new__(ControllerStep)
    vars(step).update(u=u, y=y, alpha=float(alpha), w=w, nu=mult[:q], mu=mult[q:],
                      u_next=u + alpha * w, sigma_norm_G=sigma_norm)
    return step


def controller_step(problem: ProblemSpec, u, y, J, alpha: float) -> ControllerStep:
    """Compute the projected direction and the next input from a measurement.

    ``y`` and ``J`` are measured at ``u``; a mismatched or estimated ``J`` is
    used as given.  Raises :class:`LinearizedSetEmpty` if the linearized
    constraints admit no direction at all.  ``alpha``, ``u``, ``y`` and ``J``
    are checked once each, in that order, so the metric never sees an unchecked
    ``u``; the step QP is checked once, by the builder that
    :func:`assemble_projection_qp` uses too.
    """
    u, y, J = _checked(problem, u, y, J, alpha)
    return _step(problem, u, y, J, alpha, _metric(problem, u))


def feedback_step(problem: ProblemSpec, u, alpha: float) -> ControllerStep:
    """Measure ``y`` and ``J`` at ``u``, once each, and advance one step.

    ``u`` must lie in the input set (outputs may be violated during transients;
    inputs may not).  ``alpha`` is checked first, so a bad step size costs no
    measurement; then ``u``, once, and the input set's membership test and the
    measurement of ``y`` (checked as by :func:`~fbopt.model.eval_plant`) both
    take the checked vector; ``J`` is checked as it is evaluated.  The rest is
    :func:`controller_step`'s."""
    _check_positive(alpha, "alpha")
    u = _vector(u, problem.input_dim, "u")
    if not problem.input_set._contains(u, DEFAULT_ACTIVE_TOL):
        raise ValueError("current input lies outside the input set")
    y = _measure(problem.plant, u)
    J = eval_plant_jacobian(problem.plant, u)
    return _step(problem, u, y, J, alpha, _metric(problem, u))


def kkt_point_residual(problem: ProblemSpec, u, nu, mu) -> float:
    """First-order optimality defect of ``(u, nu, mu)`` for the design problem.

    Maximum over the stationarity defect of the reduced gradient, the input
    and output feasibility defects, dual negativity, and complementarity
    products.  At a converged controller fixed point this inherits the size
    of the final projected direction.  ``nu`` and ``mu`` must be finite, with
    one entry per input row and per output row (else ``ValueError``).
    """
    u = _vector(u, problem.input_dim, "u")
    q = problem.input_set.num_rows
    nu = _vector(nu, q, "nu")
    mu = _vector(mu, problem.output_set.num_rows, "mu")
    y = _measure(problem.plant, u)
    J = eval_plant_jacobian(problem.plant, u)
    g = reduced_gradient(problem, u, y, J)
    rows, slack = linearized_constraints(problem, u, y, J)
    stat = g + nu @ rows[:q] + mu @ rows[q:]
    in_resid = -slack[:q]
    out_resid = -slack[q:]
    pieces = [
        float(np.linalg.norm(stat, ord=np.inf)),
        float(np.max(in_resid, initial=0.0)),
        float(np.max(out_resid, initial=0.0)),
        float(max(np.max(-nu, initial=0.0), np.max(-mu, initial=0.0))),
        float(np.max(np.abs(nu * in_resid), initial=0.0)),
        float(np.max(np.abs(mu * out_resid), initial=0.0)),
    ]
    return max(pieces)
