"""Built-in problems and the registry the command line pulls from.

``cubic2d`` is the flagship: a two-input, one-output plant with a cubic
steady-state map, a quadratic-plus-output cost, box input constraints, and an
interval output constraint.  Its reduced cost is a strictly convex quadratic,

    1.5 u1^2 + u2^2 + u1 u2 - 4 u2 + u1 + 2,

so the optimizer, the active constraints, and the optimal multipliers are
known in closed form: the solution sits at ``u* = (-1/2, 1)`` where the input
box (upper bound on u2) and the lower output bound ``h(u) >= 0`` are both
active, with multipliers 3.5 and 0.5.

``quad1d`` is a trivial identity-plant problem used for smoke tests.
"""

from __future__ import annotations

import numpy as np

from .model import MetricField, ObjectiveSpec, PlantModel, Polyhedron, ProblemSpec

__all__ = [
    "register_problem",
    "get_problem",
    "problem_names",
    "builtin_example",
]

_REGISTRY: dict[str, object] = {}


def register_problem(name: str, factory) -> None:
    """Register a problem factory (a zero-argument callable) under ``name``."""
    if not name:
        raise ValueError("problem name must be nonempty")
    if name in _REGISTRY:
        raise ValueError(f"problem {name!r} already registered")
    _REGISTRY[name] = factory


def get_problem(name: str) -> ProblemSpec:
    """Instantiate the registered problem ``name``."""
    return _factory(name)()


def _factory(name: str):
    """The factory registered under ``name``: a name check that builds
    nothing.  An unknown name raises ``KeyError`` listing the known ones."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "none"
        raise KeyError(f"unknown problem {name!r} (registered: {known})") from None


def problem_names() -> list[str]:
    """Sorted names of all registered problems."""
    return sorted(_REGISTRY)


def _cubic2d() -> ProblemSpec:
    def plant_eval(u):
        return np.array([u[1] ** 3 + u[0] - u[1] + 0.5])

    def plant_jacobian(u):
        return np.array([[1.0, 3.0 * u[1] ** 2 - 1.0]])

    def cost(u, y):
        return (1.5 * u[0] ** 2 + u[1] ** 2 - u[1] ** 3 + u[0] * u[1]
                - 3.0 * u[1] + 1.5 + y[0])

    def cost_gradient(u, y):
        return np.array([3.0 * u[0] + u[1],
                         2.0 * u[1] - 3.0 * u[1] ** 2 + u[0] - 3.0,
                         1.0])

    plant = PlantModel(input_dim=2, output_dim=1, eval=plant_eval,
                       jacobian=plant_jacobian)
    objective = ObjectiveSpec(eval=cost, gradient=cost_gradient)
    input_set = Polyhedron.box(lower=[-1.0, -1.0], upper=[1.0, 1.0])
    output_set = Polyhedron.box(lower=[0.0], upper=[1.0])
    return ProblemSpec(plant=plant, objective=objective, input_set=input_set,
                       output_set=output_set, metric=MetricField.identity(2),
                       name="cubic2d")


def _quad1d() -> ProblemSpec:
    def plant_eval(u):
        return np.array([u[0]])

    def plant_jacobian(u):
        return np.array([[1.0]])

    def cost(u, y):
        return (u[0] - 2.0) ** 2

    def cost_gradient(u, y):
        return np.array([2.0 * (u[0] - 2.0), 0.0])

    plant = PlantModel(input_dim=1, output_dim=1, eval=plant_eval,
                       jacobian=plant_jacobian)
    objective = ObjectiveSpec(eval=cost, gradient=cost_gradient)
    return ProblemSpec(plant=plant, objective=objective,
                       input_set=Polyhedron.box(lower=[-1.0], upper=[1.0]),
                       output_set=Polyhedron.box(lower=[-2.0], upper=[2.0]),
                       metric=MetricField.identity(1), name="quad1d")


register_problem("cubic2d", _cubic2d)
register_problem("quad1d", _quad1d)


def builtin_example() -> ProblemSpec:
    """The cubic two-input example with its known optimizer (see module docs)."""
    return get_problem("cubic2d")
