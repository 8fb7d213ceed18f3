"""Projected primal-dual baseline on an augmented Lagrangian.

Handles the output constraints through explicit multipliers instead of a
projection subproblem: the input update is a projected gradient step on the
augmented Lagrangian, the multiplier update a projected (nonnegative) ascent
step on the constraint residuals.  Same measurement model as the controller
— only steady-state outputs and sensitivities are used — so the two schemes
are directly comparable on a problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Polyhedron, ProblemSpec, _read_only, _vector, \
    eval_plant_jacobian, reduced_gradient
from .qp import QpProblem, solve_qp

__all__ = [
    "SaddlePointState",
    "augmented_lagrangian_gradients",
    "saddle_point_step",
    "project_polyhedron",
]

Array = np.ndarray


def project_polyhedron(set_: Polyhedron, x) -> Array:
    """Euclidean projection onto a polyhedron.

    Boxes are clamped coordinatewise; general polyhedra go through the
    quadratic program ``min ||z - x||^2 s.t. A z <= b``.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != set_.dim:
        raise ValueError(f"point has size {x.size}, set has dimension {set_.dim}")
    if set_.is_box:
        lo, hi = set_.bounding_box()
        return np.minimum(np.maximum(x, lo), hi)
    qp = QpProblem(Q=2.0 * np.eye(set_.dim), c=-2.0 * x, M=set_.A, r=set_.b)
    return solve_qp(qp).w


@dataclass(frozen=True)
class SaddlePointState:
    """One iterate of the primal-dual scheme.

    ``u`` is the plant input, ``mu`` the output multipliers, ``alpha`` /
    ``gamma`` the primal / dual step sizes, and ``rho`` the quadratic
    penalty weight of the augmented Lagrangian.
    """

    u: Array
    mu: Array
    alpha: float
    gamma: float
    rho: float

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float).reshape(-1)
        mu = np.asarray(self.mu, dtype=float).reshape(-1)
        if not (np.isfinite(u).all() and np.isfinite(mu).all()):
            raise ValueError("state contains non-finite entries")
        if (mu < 0.0).any():
            raise ValueError("multipliers must be nonnegative")
        if not (self.alpha > 0.0 and self.gamma > 0.0):  # NaN fails too
            raise ValueError("step sizes must be positive")
        if not self.rho >= 0.0:
            raise ValueError("penalty weight must be nonnegative")
        object.__setattr__(self, "u", _read_only(u))
        object.__setattr__(self, "mu", _read_only(mu))


def _residual(problem: ProblemSpec, y: Array) -> Array:
    # C h(u) - d, signed
    return problem.output_set.A @ y - problem.output_set.b


def augmented_lagrangian_gradients(problem: ProblemSpec, u, mu, rho: float,
                                   y) -> tuple[Array, Array]:
    """Gradients of the augmented Lagrangian in ``u`` and ``mu``, from the
    output ``y`` measured at ``u`` by the caller.

    Returns ``(grad_u, grad_mu)`` with

        grad_u  = reduced gradient + (mu + rho * max(0, C y - d)) C J(u)
        grad_mu = C y - d

    The sensitivity ``J(u)`` is evaluated once, here.  The penalty gradient
    uses the value 0 exactly on the constraint boundary (the squared
    positive part makes this the continuous choice).  The arrays are used
    as given: :func:`saddle_point_step` checks them.
    """
    J = eval_plant_jacobian(problem.plant, u)
    resid = _residual(problem, y)
    weights = mu + rho * np.maximum(resid, 0.0)
    grad_u = reduced_gradient(problem, u, y, J) + weights @ (problem.output_set.A @ J)
    return grad_u, resid


def saddle_point_step(problem: ProblemSpec, state: SaddlePointState,
                      y) -> SaddlePointState:
    """One primal-dual update from the output ``y`` measured at ``state.u``.

    The caller takes the measurement, so one step costs one plant
    measurement and one sensitivity evaluation.  Projected gradient descent
    on ``u`` (Euclidean projection onto the input set), projected gradient
    ascent on ``mu`` (clipped at zero).  The state checked its entries when
    it was built; this checks ``y`` and the state's lengths.
    """
    if (state.u.size, state.mu.size) != (problem.input_dim, problem.output_set.num_rows):
        raise ValueError(f"state has {state.u.size} inputs and {state.mu.size} "
                         f"multipliers, problem needs {problem.input_dim} and "
                         f"{problem.output_set.num_rows}")
    y = _vector(y, problem.output_dim, "y")
    grad_u, grad_mu = augmented_lagrangian_gradients(problem, state.u, state.mu,
                                                     state.rho, y)
    u_next = project_polyhedron(problem.input_set, state.u - state.alpha * grad_u)
    mu_next = np.maximum(state.mu + state.gamma * grad_mu, 0.0)
    return SaddlePointState(u=u_next, mu=mu_next, alpha=state.alpha,
                            gamma=state.gamma, rho=state.rho)
