"""Tangent cones of the linearized feasible set and the small-step limit.

At a feasible point the controller's projection subproblem, divided by the
step size, has a feasible set that shrinks, as the step size goes to zero,
onto the cone of directions that keep the active constraints satisfied to
first order.  This module builds that cone, projects onto it in the problem
metric, and measures how fast the direction ``w`` that
:func:`~fbopt.controller.controller_step` applies approaches the cone
projection of the scaled negative gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controller import _metric, _step
from .model import DEFAULT_ACTIVE_TOL, ProblemSpec, _check_positive, _measure, \
    _read_only, _vector, eval_plant, eval_plant_jacobian, linearized_constraints, \
    reduced_gradient
from .qp import QpProblem, solve_qp

__all__ = [
    "NotFeasible",
    "TangentCone",
    "tangent_cone",
    "project_tangent_cone",
    "limit_consistency",
]

Array = np.ndarray


class NotFeasible(ValueError):
    """The point does not lie in the feasible set, so no tangent cone exists."""


@dataclass(frozen=True)
class TangentCone:
    """Cone of first-order feasible directions at a point.

    ``rows`` holds the active constraint rows (possibly zero of them, in
    which case the cone is the whole space); ``base_point`` the point the
    cone was taken at.
    """

    rows: Array
    base_point: Array

    def __post_init__(self):
        rows = np.atleast_2d(np.asarray(self.rows, dtype=float))
        base = np.asarray(self.base_point, dtype=float).reshape(-1)
        if rows.size == 0:
            rows = rows.reshape(0, base.size)
        if rows.shape[1] != base.size:
            raise ValueError("row width does not match the base point")
        object.__setattr__(self, "rows", _read_only(rows))
        object.__setattr__(self, "base_point", _read_only(base))

    @property
    def dim(self) -> int:
        return self.base_point.size

    def membership(self, w, tol: float = 0.0) -> bool:
        """Whether ``w`` lies in the cone (active rows nonpositive up to tol)."""
        w = np.asarray(w, dtype=float).reshape(-1)
        return bool(np.all(self.rows @ w <= tol))


def _cone_at(problem: ProblemSpec, u: Array, y: Array, J: Array) -> TangentCone:
    """Tangent cone at ``u`` from the output ``y`` measured there and the
    Jacobian ``J`` evaluated there, or raise :class:`NotFeasible` if a
    constraint is violated by more than ``DEFAULT_ACTIVE_TOL``."""
    rows, slack = linearized_constraints(problem, u, y, J)
    if np.any(slack < -DEFAULT_ACTIVE_TOL):
        raise NotFeasible(f"point violates constraints by {float(-slack.min()):.3e}")
    return TangentCone(rows=rows[slack <= DEFAULT_ACTIVE_TOL], base_point=u)


def tangent_cone(problem: ProblemSpec, u) -> TangentCone:
    """Tangent cone of the feasible set at ``u``.

    ``u`` must satisfy the input constraints and its measured output the
    output constraints (within ``DEFAULT_ACTIVE_TOL``); raises
    :class:`NotFeasible` otherwise.  The cone consists of directions ``w``
    with ``row @ w <= 0`` for every constraint row active at ``u``.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    return _cone_at(problem, u, eval_plant(problem.plant, u),
                    eval_plant_jacobian(problem.plant, u))


def project_tangent_cone(cone: TangentCone, G, f) -> Array:
    """Projection of ``f`` onto the cone in the metric ``G``.

    Solves ``min 1/2 (w - f)' G (w - f)`` over the cone, dropping the
    constant term.
    """
    G = np.asarray(G, dtype=float)
    f = np.asarray(f, dtype=float).reshape(-1)
    rows = cone.rows
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
    y = _measure(problem.plant, u)
    J = eval_plant_jacobian(problem.plant, u)
    cone = _cone_at(problem, u, y, J)
    G = _metric(problem, u)
    g = reduced_gradient(problem, u, y, J)
    w_limit = project_tangent_cone(cone, G, -np.linalg.solve(G, g))
    return [(a, float(np.linalg.norm(_step(problem, u, y, J, a, G).w - w_limit)))
            for a in alphas]
