"""The controller's small-step limit, over fbopt's public API.

At a feasible point the step QP, divided by the step size, has a feasible
set that closes, as the step size goes to zero, onto the tangent cone
``{w : R w <= 0}`` of the rows active there.  So the direction that
:func:`fbopt.controller_step` applies tends to the cone projection of the
scaled negative gradient: the projected-gradient flow that the controller
discretizes.
"""

import numpy as np

from fbopt import (DEFAULT_ACTIVE_TOL, QpProblem, controller_step, eval_plant,
                   eval_plant_jacobian, linearized_constraints, reduced_gradient,
                   solve_qp)


def cone_rows(problem, u):
    """Rows ``R`` of the tangent cone at the feasible ``u``: the constraint
    rows whose slack is at most ``DEFAULT_ACTIVE_TOL``, as a ``(k, p)``
    array (``k = 0`` at an interior point)."""
    y = eval_plant(problem.plant, u)
    rows, slack = linearized_constraints(problem, u, y, eval_plant_jacobian(problem.plant, u))
    assert np.all(slack >= -DEFAULT_ACTIVE_TOL), f"{u} is not feasible"
    return rows[slack <= DEFAULT_ACTIVE_TOL]


def project(rows, G, f):
    """Projection of ``f`` onto the cone ``{w : rows @ w <= 0}`` in the
    metric ``G``."""
    return solve_qp(QpProblem(Q=G, c=-(G @ f), M=rows, r=np.zeros(len(rows)))).w


def deviations(problem, u, alphas):
    """``‖controller_step(problem, u, y, J, alpha).w − w_limit‖`` for each
    step size, where ``w_limit`` projects ``-G(u)⁻¹ grad`` onto the cone at
    ``u``."""
    u = np.asarray(u, dtype=float)
    y = eval_plant(problem.plant, u)
    J = eval_plant_jacobian(problem.plant, u)
    G = np.asarray(problem.metric.eval(u), dtype=float)
    w_limit = project(cone_rows(problem, u), G,
                      -np.linalg.solve(G, reduced_gradient(problem, u, y, J)))
    return [float(np.linalg.norm(controller_step(problem, u, y, J, a).w - w_limit))
            for a in alphas]
