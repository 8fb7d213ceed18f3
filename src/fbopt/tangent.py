"""Tangent cones of the linearized feasible set and the small-step limit.

At a feasible point the controller's projection subproblem, divided by the
step size, has a feasible set that shrinks, as the step size goes to zero,
onto the cone of directions that keep the active constraints satisfied to
first order.  This module builds that cone, returned as its active rows
``R`` (the cone is ``{w : R w <= 0}``), projects onto it in the problem
metric, and measures how fast the direction ``w`` that
:func:`~fbopt.controller.controller_step` applies approaches the cone
projection of the scaled negative gradient.
"""

from __future__ import annotations

import numpy as np

from .controller import _metric, _step
from .model import DEFAULT_ACTIVE_TOL, ProblemSpec, _check_positive, _measure, \
    _vector, eval_plant_jacobian, linearized_constraints, reduced_gradient
from .qp import QpProblem, solve_qp

__all__ = [
    "NotFeasible",
    "tangent_cone",
    "project_tangent_cone",
    "limit_consistency",
]

Array = np.ndarray


class NotFeasible(ValueError):
    """The point does not lie in the feasible set, so no tangent cone exists."""


def _cone_at(problem: ProblemSpec, u: Array) -> tuple[Array, Array, Array]:
    """Rows of the tangent cone at the checked ``u``, with the output ``y``
    and the Jacobian ``J`` measured there.  ``u`` must satisfy the input
    constraints before the plant sees it, and then its output the output
    constraints, each within ``DEFAULT_ACTIVE_TOL``, or :class:`NotFeasible`
    is raised."""
    U = problem.input_set
    if not U._contains(u, DEFAULT_ACTIVE_TOL):
        raise NotFeasible("input lies outside the input set by "
                          f"{float((U.A.dot(u) - U.b).max()):.3e}")
    y = _measure(problem.plant, u)
    J = eval_plant_jacobian(problem.plant, u)
    rows, slack = linearized_constraints(problem, u, y, J)
    if np.any(slack < -DEFAULT_ACTIVE_TOL):
        raise NotFeasible(f"point violates constraints by {float(-slack.min()):.3e}")
    return rows[slack <= DEFAULT_ACTIVE_TOL], y, J


def tangent_cone(problem: ProblemSpec, u) -> Array:
    """Tangent cone of the feasible set at ``u``, as its rows.

    Returns the constraint rows active at ``u`` (within
    ``DEFAULT_ACTIVE_TOL``) as a float ``(k, p)`` array ``R``: the cone is
    ``{w : R w <= 0}``, and an interior point gives ``k = 0``, the whole
    space.  ``u`` is checked once and measured once; it must satisfy the
    input constraints and its measured output the output constraints (within
    ``DEFAULT_ACTIVE_TOL``), or :class:`NotFeasible` is raised; an input
    outside its set is never measured.
    """
    return _cone_at(problem, _vector(u, problem.input_dim, "u"))[0]


def project_tangent_cone(rows, G, f) -> Array:
    """Projection of ``f`` onto the cone ``{w : rows @ w <= 0}`` in the
    metric ``G``, where ``rows`` is a ``(k, p)`` array such as
    :func:`tangent_cone` returns.

    Solves ``min 1/2 (w - f)' G (w - f)`` over the cone, dropping the
    constant term.
    """
    G = np.asarray(G, dtype=float)
    f = np.asarray(f, dtype=float).reshape(-1)
    rows = np.asarray(rows, dtype=float)
    return solve_qp(QpProblem(Q=G, c=-(G @ f), M=rows, r=np.zeros(rows.shape[0]))).w


def limit_consistency(problem: ProblemSpec, u,
                      alphas) -> list[tuple[float, float]]:
    """Distance from the controller's direction to its small-step limit.

    ``u`` is checked once, and the plant output ``y``, its Jacobian ``J``
    and the metric ``G(u)`` are evaluated once each, at ``u``.  For each step
    size the direction is ``controller_step(problem, u, y, J, alpha).w``, the
    projection of ``-G(u)^{-1} grad`` onto the feasible set of the step QP
    divided by ``alpha``; the limit is the projection onto the tangent cone at
    ``u``.  Returns ``(alpha, deviation)`` pairs with the Euclidean distance
    between the two.  The step-scaled sets shrink onto the cone as ``alpha``
    decreases, so over a decreasing ladder the deviations are nonincreasing
    up to roundoff (and vanish whenever no constraint is ever hit).

    ``alphas`` must be positive, finite and strictly decreasing; raises
    :class:`NotFeasible` if ``u`` is not feasible.
    """
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ValueError("need at least one step size")
    for a in alphas:
        _check_positive(a, "step sizes")
    if any(b >= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("step sizes must be strictly decreasing")
    u = _vector(u, problem.input_dim, "u")
    cone, y, J = _cone_at(problem, u)
    G = _metric(problem, u)
    g = reduced_gradient(problem, u, y, J)
    w_limit = project_tangent_cone(cone, G, -np.linalg.solve(G, g))
    return [(a, float(np.linalg.norm(_step(problem, u, y, J, a, G).w - w_limit)))
            for a in alphas]
