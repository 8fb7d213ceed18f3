"""Seeded synthetic problems for the ``synthetic_p12`` workload.

Twelve box-bounded inputs drive six outputs through a cubic polynomial plant

    h(u) = B u + D (u ** 3) + e,

with ``B`` six orthonormal rows, so every generated problem gives the
reduced cost a similar curvature spectrum and runs of similar length.  The cost
``0.5 |u - u_t|^2 + 0.5 |y - y_t|^2`` is a convex quadratic in ``(u, y)``
whose output target lies beyond one bound of every output, so all six output
rows end active and transients keep crossing them: the projection QP has 36
rows (24 input, 12 output) and often needs its phase-1 LP.

The output box encloses the output of the start and of ``u = 0`` with a
margin, so each run starts feasible and the linearized set stays nonempty
along the trajectory.  A problem that still fails is counted as failed by
the workload, never replaced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fbopt.model import MetricField, ObjectiveSpec, PlantModel, Polyhedron, ProblemSpec

INPUTS = 12
OUTPUTS = 6
START_RADIUS = 0.3     # starts are uniform in [-0.3, 0.3]^12
CUBIC_SCALE = 0.2
BOX_HALF_WIDTH = 0.3   # output box half-width around h(0), at least
START_MARGIN = 0.02    # output box clearance around the start's output
TARGET_PUSH = 1.0      # distance of the output target beyond its bound


@dataclass(frozen=True)
class SyntheticData:
    """Arrays of one generated problem and its starting input."""

    B: np.ndarray
    D: np.ndarray
    e: np.ndarray
    u_target: np.ndarray
    y_target: np.ndarray
    y_lower: np.ndarray
    y_upper: np.ndarray
    start: np.ndarray


def generate(seed: int, index: int) -> SyntheticData:
    """Problem ``index`` of workload seed ``seed``."""
    rng = np.random.default_rng([seed, index])
    B = np.linalg.qr(rng.normal(size=(INPUTS, INPUTS)))[0][:OUTPUTS]
    D = CUBIC_SCALE * rng.normal(size=(OUTPUTS, INPUTS)) / np.sqrt(INPUTS)
    e = 0.1 * rng.normal(size=OUTPUTS)
    u_target = rng.uniform(-0.5, 0.5, size=INPUTS)
    start = rng.uniform(-START_RADIUS, START_RADIUS, size=INPUTS)
    y_start = B @ start + D @ start ** 3 + e
    y_lower = np.minimum(y_start - START_MARGIN, e - BOX_HALF_WIDTH)
    y_upper = np.maximum(y_start + START_MARGIN, e + BOX_HALF_WIDTH)
    above = rng.random(OUTPUTS) < 0.5
    y_target = np.where(above, y_upper + TARGET_PUSH, y_lower - TARGET_PUSH)
    return SyntheticData(B=B, D=D, e=e, u_target=u_target, y_target=y_target,
                         y_lower=y_lower, y_upper=y_upper, start=start)


def build(data: SyntheticData, name: str) -> ProblemSpec:
    """The problem of ``data``; new callables on every call, like a builtin."""
    B, D, e = data.B, data.D, data.e
    u_t, y_t = data.u_target, data.y_target

    def plant_eval(u):
        return B @ u + D @ u ** 3 + e

    def plant_jacobian(u):
        return B + 3.0 * D * u ** 2

    def cost(u, y):
        du, dy = u - u_t, y - y_t
        return 0.5 * float(du @ du) + 0.5 * float(dy @ dy)

    def cost_gradient(u, y):
        return np.concatenate([u - u_t, y - y_t])

    return ProblemSpec(
        plant=PlantModel(input_dim=INPUTS, output_dim=OUTPUTS, eval=plant_eval,
                         jacobian=plant_jacobian),
        objective=ObjectiveSpec(eval=cost, gradient=cost_gradient),
        input_set=Polyhedron.box(lower=-np.ones(INPUTS), upper=np.ones(INPUTS)),
        output_set=Polyhedron.box(lower=data.y_lower, upper=data.y_upper),
        metric=MetricField.identity(INPUTS), name=name)
