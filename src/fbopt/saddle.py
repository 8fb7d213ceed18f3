"""Projected primal-dual baseline on an augmented Lagrangian.

Handles the output constraints through explicit multipliers instead of a
projection subproblem: the input update is a projected gradient step on the
augmented Lagrangian, the multiplier update a projected (nonnegative) ascent
step on the constraint residuals.  Same measurement model as the controller
— each step takes the output ``y`` and the sensitivity ``J`` measured at its
input, and nothing here calls the plant — so the two schemes are directly
comparable on a problem, and either can be fed a mismatched ``J``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Polyhedron, ProblemSpec, _check_positive, _finite, _jacobian, \
    _read_only, _vector, reduced_gradient
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
    quadratic program ``min ||z - x||^2 s.t. A z <= b``.  ``x`` is checked
    by :func:`~fbopt.model._vector` on both paths.
    """
    return _project(set_, _vector(x, set_.dim, "x"))


def _project(set_: Polyhedron, x: Array) -> Array:
    """:func:`project_polyhedron` of a float vector ``x`` of the set's
    dimension that the caller has built."""
    if set_.is_box:
        return np.minimum(np.maximum(x, set_.lower), set_.upper)
    qp = QpProblem(Q=2.0 * np.eye(set_.dim), c=-2.0 * x, M=set_.A, r=set_.b)
    return solve_qp(qp).w


@dataclass(frozen=True)
class SaddlePointState:
    """One iterate of the primal-dual scheme.

    ``u`` is the plant input, ``mu`` the output multipliers, ``alpha`` /
    ``gamma`` the primal / dual step sizes, and ``rho`` the quadratic
    penalty weight of the augmented Lagrangian.  The constructor copies
    ``u`` and ``mu`` into read-only float vectors and checks that both are
    finite (by :func:`~fbopt.model._finite`, as every stepped state is),
    that ``mu >= 0``, that ``0 < alpha, gamma < inf`` and that
    ``0 <= rho < inf`` (each raises ``ValueError``).  Their lengths are
    checked against a problem by :func:`saddle_point_step`.
    """

    u: Array
    mu: Array
    alpha: float
    gamma: float
    rho: float

    def __post_init__(self):
        self._store(_read_only(np.reshape(self.u, -1)),
                    _read_only(np.reshape(self.mu, -1)))
        if (self.mu < 0.0).any():
            raise ValueError("multipliers must be nonnegative")
        _check_positive(self.alpha, "alpha")
        _check_positive(self.gamma, "gamma")
        _check_positive(self.rho, "rho", zero_ok=True)

    @classmethod
    def _adopt(cls, u: Array, mu: Array, alpha: float, gamma: float,
               rho: float) -> "SaddlePointState":
        """The state of float vectors ``u`` and ``mu >= 0`` that the caller
        has just created and keeps no other use of, with the step sizes and
        penalty weight of a checked state: only the finiteness of ``u`` and
        ``mu`` is checked, as by the constructor, and they are marked
        read-only in place, not copied."""
        state = object.__new__(cls)
        vars(state).update(alpha=alpha, gamma=gamma, rho=rho)
        state._store(u, mu)
        return state

    def _store(self, u: Array, mu: Array) -> None:
        """Check ``u`` and ``mu`` with ``_finite``, then keep them read-only."""
        if not (_finite(u) and _finite(mu)):
            raise ValueError("state contains non-finite entries")
        u.setflags(write=False)
        mu.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "mu", mu)


def augmented_lagrangian_gradients(problem: ProblemSpec, u, mu, rho: float,
                                   y, J) -> tuple[Array, Array]:
    """Gradients of the augmented Lagrangian in ``u`` and ``mu``, from the
    output ``y`` and the sensitivity ``J`` measured at ``u`` by the caller.

    Returns ``(grad_u, grad_mu)`` with

        grad_u  = reduced gradient + (mu + rho * max(0, C y - d)) C J
        grad_mu = C y - d

    The penalty gradient uses the value 0 exactly on the constraint boundary
    (the squared positive part makes this the continuous choice).  The
    arrays are used as given: :func:`saddle_point_step` checks them.
    """
    resid = problem.output_set.A.dot(y) - problem.output_set.b  # C y - d, signed
    weights = mu + rho * np.maximum(resid, 0.0)
    grad_u = reduced_gradient(problem, u, y, J) + weights.dot(problem.output_set.A.dot(J))
    return grad_u, resid


def saddle_point_step(problem: ProblemSpec, state: SaddlePointState,
                      y, J) -> SaddlePointState:
    """One primal-dual update from the output ``y`` and the sensitivity ``J``
    measured at ``state.u``.

    The caller takes the measurements, so one step costs one plant
    measurement and one sensitivity evaluation; a mismatched or estimated
    ``J`` is used as given.  Projected gradient descent on ``u`` (Euclidean
    projection onto the input set), projected gradient ascent on ``mu``
    (clipped at zero).  The state checked its entries when it was built;
    this checks the state's lengths, then ``y`` and ``J`` once each, and the
    gradient as it is evaluated.  The next state is built by
    ``SaddlePointState._adopt``: of its values only the new ``u`` and ``mu``
    are checked, for finiteness (an overflowing step raises ``ValueError``),
    and they are not copied.
    """
    if (state.u.size, state.mu.size) != (problem.input_dim, problem.output_set.num_rows):
        raise ValueError(f"state has {state.u.size} inputs and {state.mu.size} "
                         f"multipliers, problem needs {problem.input_dim} and "
                         f"{problem.output_set.num_rows}")
    y = _vector(y, problem.output_dim, "y")
    J = _jacobian(J, problem.plant, state.u)
    grad_u, grad_mu = augmented_lagrangian_gradients(problem, state.u, state.mu,
                                                     state.rho, y, J)
    u_next = _project(problem.input_set, state.u - state.alpha * grad_u)
    mu_next = np.maximum(state.mu + state.gamma * grad_mu, 0.0)
    return SaddlePointState._adopt(u_next, mu_next, state.alpha, state.gamma,
                                   state.rho)
