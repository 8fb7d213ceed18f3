"""Problem data for steady-state feedback optimization.

The central object is :class:`ProblemSpec`.  It bundles a static plant map
(the steady-state response of the physical system), a cost on input/output
pairs, polyhedral constraint sets for inputs and outputs, and a metric
field on the input space.  All containers are frozen dataclasses holding
read-only arrays; instances are safe to share across threads.

Plants and objectives are ordinary callables supplied by the user (or by
the builtin registry in :mod:`fbopt.problems`); nothing here parses
expressions.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "DEFAULT_ACTIVE_TOL",
    "PlantModel",
    "Polyhedron",
    "ObjectiveSpec",
    "MetricField",
    "ProblemSpec",
    "eval_plant",
    "eval_plant_jacobian",
    "reduced_gradient",
    "reduced_cost",
    "linearized_constraints",
    "violation",
]

# Activity of a constraint row is decided at this absolute tolerance.
DEFAULT_ACTIVE_TOL = 1e-9

Array = np.ndarray


def _finite(x: Array) -> bool:
    """Whether every entry of the float array ``x`` is finite: the one
    finiteness test of the step path.  ``x·x`` is finite only if every entry
    is, so the elementwise test runs only when the sum of squares is not
    (a non-finite entry, or entries above about 1.3e154); the verdict is
    always that of ``np.isfinite(x).all()``.  ``vdot`` flattens ``x`` and,
    unlike ``x.dot(x)``, raises no overflow warning."""
    return np.vdot(x, x) < math.inf or bool(np.isfinite(x).all())


def _norm(d: Array) -> float:
    """The bits of ``np.linalg.norm`` on a real vector ``d`` whose ``d·d`` is
    finite, and the scaled ``math.hypot`` where ``d·d`` overflows.  ``vdot``
    takes the same BLAS dot as ``d.dot(d)`` but raises no overflow warning."""
    dd = np.vdot(d, d)
    return math.sqrt(dd) if dd < math.inf else math.hypot(*d)


def _vector(x, dim: int, name: str) -> Array:
    """``x`` as a float vector of length ``dim`` with finite entries (by
    :func:`_finite`): the check a public function runs once on each array
    its caller passes."""
    v = np.asarray(x, dtype=float).reshape(-1)
    if v.size != dim:
        raise ValueError(f"{name} must have length {dim}, got {v.size}")
    if not _finite(v):
        raise ValueError(f"{name} must be finite")
    return v


def _check_positive(x: float, name: str, zero_ok: bool = False) -> None:
    """Raise ``ValueError`` unless ``0 < x < inf`` (``0 <= x < inf`` when
    ``zero_ok``): the rule of every step size, penalty weight and
    certificate constant.  Written so that a NaN fails it too."""
    if not (0.0 < x < math.inf or zero_ok and x == 0.0):
        raise ValueError(f"{name} must be {'nonnegative' if zero_ok else 'positive'} "
                         "and finite")


def _check_count(x, name: str, minimum: int) -> None:
    """Raise ``ValueError`` unless ``x`` is an integer ``>= minimum``: the rule
    of every budget and point count.  A float with an integer value is not
    one, nor is a bool."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral) or x < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}")


def _read_only(a: Array) -> Array:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PlantModel:
    """Static input-to-output map of the plant together with its sensitivity.

    ``eval`` maps an input vector of length ``input_dim`` to the measured
    steady-state output of length ``output_dim``; ``jacobian`` returns the
    (output_dim, input_dim) sensitivity matrix at the same point.
    """

    input_dim: int
    output_dim: int
    eval: Callable[[Array], Array]
    jacobian: Callable[[Array], Array]

    def __post_init__(self):
        for name in ("input_dim", "output_dim"):
            _check_count(getattr(self, name), name, 1)


@dataclass(frozen=True)
class Polyhedron:
    """Finite intersection of halfspaces ``{x : A x <= b}``.

    Boxes are stored in the same row form; :meth:`box` builds the
    2p-row encoding (upper bounds first, then lower bounds) and keeps
    read-only copies of the bounds as ``lower`` and ``upper``, so that
    callers can use cheap clamping and sampling paths.  Only :meth:`box`
    sets them: the constructor takes no bounds, and a set made any other
    way (``dataclasses.replace`` of a box too) is not a box.  Every entry of
    ``A`` and ``b`` must be finite (a row ``a x <= inf`` constrains
    nothing, so leave it out); the error names the bad rows.
    """

    A: Array
    b: Array
    lower: Array | None = field(default=None, init=False)
    upper: Array | None = field(default=None, init=False)

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.asarray(self.b, dtype=float).reshape(-1)
        if A.shape[0] != b.size:
            raise ValueError(f"row mismatch: A has {A.shape[0]} rows, b has {b.size}")
        if A.shape[0] == 0:
            raise ValueError("a polyhedron needs at least one row")
        bad = ~(np.isfinite(A).all(axis=1) & np.isfinite(b))
        if bad.any():
            raise ValueError("rows with non-finite entries are not allowed "
                             f"(rows {np.flatnonzero(bad)})")
        zero = ~np.any(A != 0.0, axis=1)
        if np.any(zero):
            raise ValueError(f"rows with zero norm are not allowed (rows {np.flatnonzero(zero)})")
        object.__setattr__(self, "A", _read_only(A))
        object.__setattr__(self, "b", _read_only(b))

    @classmethod
    def box(cls, lower, upper) -> "Polyhedron":
        lo = np.asarray(lower, dtype=float).reshape(-1)
        hi = np.asarray(upper, dtype=float).reshape(-1)
        if lo.size != hi.size:
            raise ValueError("lower and upper must have the same length")
        if np.any(lo > hi):
            raise ValueError("box must satisfy lower <= upper")
        eye = np.eye(lo.size)
        box = cls(A=np.vstack([eye, -eye]), b=np.concatenate([hi, -lo]))
        object.__setattr__(box, "lower", _read_only(lo))
        object.__setattr__(box, "upper", _read_only(hi))
        return box

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]

    @property
    def is_box(self) -> bool:
        return self.lower is not None

    def membership(self, x, tol: float = 0.0) -> bool:
        return self._contains(_vector(x, self.dim, "x"), tol)

    def _contains(self, x: Array, tol: float) -> bool:
        """:meth:`membership` of a float vector ``x`` that the caller has
        checked."""
        inside = self.A.dot(x) <= self.b + tol
        return np.count_nonzero(inside) == inside.size

    def bounding_box(self) -> tuple[Array, Array]:
        """Componentwise bounds of the set.  Exact for boxes, solved by
        linear programs otherwise; raises if the set is unbounded."""
        if self.is_box:
            return self.lower, self.upper
        from scipy.optimize import linprog

        lo = np.empty(self.dim)
        hi = np.empty(self.dim)
        for j in range(self.dim):
            e = np.zeros(self.dim)
            e[j] = 1.0
            for sign, dest in ((1.0, lo), (-1.0, hi)):
                res = linprog(sign * e, A_ub=self.A, b_ub=self.b,
                              bounds=[(None, None)] * self.dim, method="highs")
                if res.status != 0:
                    raise ValueError("polyhedron must be bounded and nonempty")
                dest[j] = sign * res.fun
        return lo, hi


@dataclass(frozen=True)
class ObjectiveSpec:
    """Cost on input/output pairs.

    ``eval(u, y)`` returns a scalar, ``gradient(u, y)`` the row vector of
    partial derivatives with respect to ``(u, y)`` (length p + n).
    """

    eval: Callable[[Array, Array], float]
    gradient: Callable[[Array, Array], Array]


@dataclass(frozen=True)
class MetricField:
    """Symmetric positive definite weighting of the input space, as a
    function of the current input."""

    eval: Callable[[Array], Array]

    @classmethod
    def identity(cls, dim: int) -> "MetricField":
        return cls.constant(np.eye(dim))

    @classmethod
    def constant(cls, matrix) -> "MetricField":
        G = _read_only(np.atleast_2d(np.asarray(matrix, dtype=float)))
        return cls(eval=lambda u, _G=G: np.array(_G))


@dataclass(frozen=True)
class ProblemSpec:
    """A complete closed-loop design problem.

    Ties together plant, objective, the input set ``{u : A u <= b}``, the
    output set ``{y : C y <= d}`` and the input-space metric.  Dimensions
    are checked once at construction.
    """

    plant: PlantModel
    objective: ObjectiveSpec
    input_set: Polyhedron
    output_set: Polyhedron
    metric: MetricField
    name: str = ""

    def __post_init__(self):
        if self.input_set.dim != self.plant.input_dim:
            raise ValueError("input set dimension does not match the plant")
        if self.output_set.dim != self.plant.output_dim:
            raise ValueError("output set dimension does not match the plant")

    @property
    def input_dim(self) -> int:
        return self.plant.input_dim

    @property
    def output_dim(self) -> int:
        return self.plant.output_dim


def eval_plant(plant: PlantModel, u) -> Array:
    """Evaluate the steady-state output for input ``u``.

    ``u`` is checked by :func:`_vector`.  Raises ``ValueError`` if the plant
    returns an output of the wrong length or one that fails :func:`_finite`."""
    return _measure(plant, _vector(u, plant.input_dim, "u"))


def _measure(plant: PlantModel, u: Array) -> Array:
    """:func:`eval_plant` at a float vector ``u`` that the caller has
    checked: the check of every measured ``y``."""
    y = np.asarray(plant.eval(u), dtype=float).reshape(-1)
    if y.size != plant.output_dim:
        raise ValueError(f"plant returned {y.size} outputs, expected {plant.output_dim}")
    if not _finite(y):
        raise ValueError(f"plant output must be finite, got {y.tolist()} "
                         f"at u={u.tolist()}")
    return y


def eval_plant_jacobian(plant: PlantModel, u) -> Array:
    """Evaluate the steady-state sensitivity matrix at an input ``u`` that
    the caller has checked (as :func:`eval_plant` does).

    Raises ``ValueError`` if the plant returns a non-finite matrix."""
    return _jacobian(plant.jacobian(u), plant, u)


def _jacobian(J, plant: PlantModel, u) -> Array:
    """``J`` as a float ``(n, p)`` matrix that passes :func:`_finite`: the
    check of every ``J``."""
    J = np.atleast_2d(np.asarray(J, dtype=float))
    if J.shape != (plant.output_dim, plant.input_dim):
        raise ValueError(
            f"jacobian shape {J.shape} does not match ({plant.output_dim}, {plant.input_dim})"
        )
    if not _finite(J):
        raise ValueError(f"plant jacobian must be finite, got {J.tolist()} "
                         f"at u={np.asarray(u).tolist()}")
    return J


def reduced_gradient(problem: ProblemSpec, u, y, J) -> Array:
    """Gradient of the cost along the plant manifold, as a function of the
    input alone.

    The caller supplies the checked input ``u``, the output ``y`` measured
    there and the sensitivity ``J = eval_plant_jacobian(problem.plant, u)``;
    the chain rule folds the output sensitivity into the input coordinates:
    ``grad_u cost + grad_y cost @ J``.  Raises ``ValueError`` if the
    objective returns a gradient of the wrong length or one that fails
    :func:`_finite`.
    """
    p = problem.input_dim
    g = np.asarray(problem.objective.gradient(u, y), dtype=float).reshape(-1)
    if g.size != p + problem.output_dim:
        raise ValueError(f"objective gradient must have length {p + problem.output_dim}")
    if not _finite(g):
        raise ValueError(f"objective gradient must be finite, got {g.tolist()} "
                         f"at u={np.asarray(u).tolist()}")
    return g[:p] + g[p:].dot(J)


def reduced_cost(problem: ProblemSpec, u) -> float:
    """Cost evaluated on the plant manifold: ``cost(u, plant(u))``."""
    u = _vector(u, problem.input_dim, "u")
    return float(problem.objective.eval(u, _measure(problem.plant, u)))


def linearized_constraints(problem: ProblemSpec, u, y, J) -> tuple[Array, Array]:
    """Constraint rows linearized at input ``u`` with measured output ``y``
    and sensitivity ``J``, both supplied by the caller.

    Returns ``rows = [A; C J]`` and ``slack = [b - A u; d - C y]``: the
    input rows come first, and an input increment ``du`` keeps every
    constraint satisfied to first order when ``rows @ du <= slack``.
    """
    A, b = problem.input_set.A, problem.input_set.b
    C, d = problem.output_set.A, problem.output_set.b
    return np.concatenate([A, C.dot(J)]), np.concatenate([b - A.dot(u), d - C.dot(y)])


def violation(set_: Polyhedron, x) -> Array:
    """Componentwise constraint violations ``max(0, A x - b)``."""
    return _violation(set_, _vector(x, set_.dim, "x"))


def _violation(set_: Polyhedron, x: Array) -> Array:
    """:func:`violation` at a float vector ``x`` that the caller has checked."""
    return np.maximum(set_.A.dot(x) - set_.b, 0.0)
