"""Tangent cones of the linearized feasible set and the small-step limit.

At a feasible point the projection subproblem's feasible set shrinks, as the
step size goes to zero, onto the cone of directions that keep the active
constraints satisfied to first order.  This module builds that cone, projects
onto it in the problem metric, and measures how fast the finite-step update
direction approaches the cone projection of the scaled negative gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DEFAULT_ACTIVE_TOL, ProblemSpec, _read_only, eval_plant, \
    eval_plant_jacobian, linearized_constraints, reduced_gradient
from .qp import QpProblem, solve_qp

__all__ = [
    "NotFeasible",
    "TangentCone",
    "tangent_cone",
    "project_tangent_cone",
    "finite_step_projection_qp",
    "limit_consistency",
]

Array = np.ndarray


class NotFeasible(ValueError):
    """The point does not lie in the feasible set, so no tangent cone exists."""


def _feasible_rows(problem: ProblemSpec, u: Array,
                   tol: float) -> tuple[Array, Array, Array, Array]:
    """Measure the plant and its sensitivity once at ``u``; return ``(y, J,
    rows, slack)`` with the linearized constraints, or raise
    :class:`NotFeasible` if ``u`` violates a constraint by more than ``tol``."""
    y = eval_plant(problem.plant, u)
    J = eval_plant_jacobian(problem.plant, u)
    rows, slack = linearized_constraints(problem, u, y, J)
    if np.any(slack < -tol):
        raise NotFeasible(f"point violates constraints by {float(-slack.min()):.3e}")
    return y, J, rows, slack


def _target(problem: ProblemSpec, u: Array, y: Array, J: Array) -> tuple[Array, Array]:
    """Metric ``G(u)`` and the scaled negative gradient ``-G^{-1} grad``."""
    G = np.asarray(problem.metric.eval(u), dtype=float)
    return G, -np.linalg.solve(G, reduced_gradient(problem, u, y, J))


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
        if self.rows.shape[0] == 0:
            return True
        return bool(np.all(self.rows @ w <= tol))


def tangent_cone(problem: ProblemSpec, u, tol: float = DEFAULT_ACTIVE_TOL) -> TangentCone:
    """Tangent cone of the feasible set at ``u``.

    ``u`` must satisfy the input constraints and its measured output the
    output constraints (within ``tol``); raises :class:`NotFeasible`
    otherwise.  The cone consists of directions ``w`` with ``row @ w <= 0``
    for every constraint row active at ``u``.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    _, _, rows, slack = _feasible_rows(problem, u, tol)
    return TangentCone(rows=rows[slack <= tol], base_point=u)


def _projection_qp(G: Array, f: Array, rows: Array, rhs: Array) -> QpProblem:
    # min 1/2 (w-f)' G (w-f) s.t. rows w <= rhs, dropping the constant term
    return QpProblem(Q=G, c=-(G @ f), M=rows, r=rhs)


def project_tangent_cone(cone: TangentCone, G, f) -> Array:
    """Projection of ``f`` onto the cone in the metric ``G``.

    Solves ``min 1/2 (w - f)' G (w - f)`` over the cone.
    """
    G = np.asarray(G, dtype=float)
    f = np.asarray(f, dtype=float).reshape(-1)
    rows = cone.rows
    rhs = np.zeros(rows.shape[0])
    return solve_qp(_projection_qp(G, f, rows, rhs)).w


def finite_step_projection_qp(problem: ProblemSpec, u, alpha: float,
                              tol: float = DEFAULT_ACTIVE_TOL,
                              zero_active: bool = False) -> QpProblem:
    """Projection of the scaled negative gradient onto the step-``alpha``
    feasible set, as a quadratic program in the update direction.

    The target is ``-G(u)^{-1} grad`` and the feasible set
    ``{w : rows w <= slack / alpha}``.  With ``zero_active`` the right-hand
    side of the rows active at ``u`` is replaced by exactly zero — useful
    for comparing against the tangent cone without the ``slack / alpha``
    roundoff.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    if alpha <= 0.0:
        raise ValueError("step size must be positive")
    y, J, rows, slack = _feasible_rows(problem, u, tol)
    G, f = _target(problem, u, y, J)
    rhs = slack / alpha
    if zero_active:
        rhs = np.where(slack <= tol, 0.0, rhs)
    return _projection_qp(G, f, rows, rhs)


def limit_consistency(problem: ProblemSpec, u,
                      alphas) -> list[tuple[float, float]]:
    """Distance from the finite-step update direction to its small-step limit.

    For each step size the update direction is the metric projection of
    ``-G(u)^{-1} grad`` onto the step-scaled feasible set; the limit is the
    projection onto the tangent cone at ``u``.  Returns ``(alpha,
    deviation)`` pairs with the Euclidean distance between the two.  The
    step-scaled sets shrink onto the cone as ``alpha`` decreases, so over a
    decreasing ladder the deviations are nonincreasing (and exactly zero
    whenever no constraint is ever hit).

    ``alphas`` must be positive and strictly decreasing.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ValueError("need at least one step size")
    if any(a <= 0.0 for a in alphas):
        raise ValueError("step sizes must be positive")
    if any(b >= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("step sizes must be strictly decreasing")
    y, J, rows, slack = _feasible_rows(problem, u, DEFAULT_ACTIVE_TOL)
    G, f = _target(problem, u, y, J)
    cone = TangentCone(rows=rows[slack <= DEFAULT_ACTIVE_TOL], base_point=u)
    w_limit = project_tangent_cone(cone, G, f)
    out = []
    for a in alphas:
        w = solve_qp(_projection_qp(G, f, rows, slack / a)).w
        out.append((a, float(np.linalg.norm(w - w_limit))))
    return out
