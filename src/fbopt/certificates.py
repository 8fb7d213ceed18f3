"""Descent certificates for the closed loop.

Provides the merit function (reduced cost plus weighted output violations),
:func:`estimate_constants` for the constants that enter the certified step
size, and the quadratic bound on transient output violations.

The estimate is deliberately simple: one deterministic sample of the input
set, with the plant measured once per sampled point (on a real plant each
measurement is an experiment).  From that sample come the worst pairwise
difference quotients for the Lipschitz constants, the largest observed
constraint multiplier for the penalty weight, each inflated by a safety
factor, and the smallest metric eigenvalue.  The certificate is only as good
as these estimates; the harness flags trajectories that contradict them
instead of aborting.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .controller import LinearizedSetEmpty, _metric, _step
from .model import (
    Polyhedron,
    ProblemSpec,
    _check_count,
    _check_positive,
    _read_only,
    _vector,
    _violation,
    eval_plant,
    eval_plant_jacobian,
    reduced_gradient,
)

__all__ = [
    "SamplerSpec",
    "CertificateConstants",
    "sample_input_set",
    "lyapunov_value",
    "estimate_constants",
    "transient_violation_bound",
]

Array = np.ndarray

# Safety inflation applied to sampled Lipschitz estimates and to the largest
# observed multiplier, plus floors that keep the certificate finite.
LIPSCHITZ_SAFETY = 1.1
LIPSCHITZ_FLOOR = 1e-12
MULTIPLIER_SAFETY = 2.0
MULTIPLIER_FLOOR = 1.0

# Rows of the pair table that _max_pair_slopes holds at once.
PAIR_BLOCK_ROWS = 256


@dataclass(frozen=True)
class SamplerSpec:
    """Deterministic sampling plan for the input set.

    ``kind`` is ``"grid"`` (``count`` points per dimension) or ``"random"``
    (``count`` points total, uniform over the bounding box with membership
    rejection, seeded).  ``count`` must be an integer ``>= 2``.
    """

    kind: str = "grid"
    count: int = 15
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("grid", "random"):
            raise ValueError(f"unknown sampler kind {self.kind!r}")
        _check_count(self.count, "count", 2)


def sample_input_set(input_set: Polyhedron, spec: SamplerSpec) -> Array:
    """Sample points of the input set according to ``spec`` (N x p array)."""
    lo, hi = input_set.bounding_box()
    p = input_set.dim
    if spec.kind == "grid":
        axes = [np.linspace(lo[j], hi[j], spec.count) for j in range(p)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        keep = np.all(input_set.A @ pts.T <= input_set.b[:, None] + 1e-12, axis=0)
        return pts[keep]
    rng = np.random.default_rng(spec.seed)
    out = []
    attempts = 0
    while len(out) < spec.count:
        x = lo + (hi - lo) * rng.uniform(size=p)
        attempts += 1
        if input_set.membership(x, tol=1e-12):
            out.append(x)
        if attempts > 1000 * spec.count:
            raise RuntimeError("rejection sampling failed; set too thin")
    return np.array(out)


@dataclass(frozen=True)
class CertificateConstants:
    """Constants entering the certified step size.

    ``grad_lipschitz`` bounds the variation of the reduced cost gradient,
    ``output_lipschitz`` the variation of each linearized output row,
    ``multiplier_bound`` the output multipliers along trajectories, and
    ``metric_floor`` the smallest metric eigenvalue.  ``step_size_bound``,
    the largest step size covered by the descent certificate, is derived
    from the other fields at construction and cannot be passed:

        2 * metric_floor / (grad_lipschitz + multiplier_bound * sum(output_lipschitz))
    """

    grad_lipschitz: float
    output_lipschitz: Array
    multiplier_bound: float
    metric_floor: float
    step_size_bound: float = field(init=False)

    def __post_init__(self):
        ell = np.asarray(self.output_lipschitz, dtype=float).reshape(-1)
        # a NaN constant would make step_size_bound NaN, and `alpha < nan`
        # would then turn certification off without a word
        for name in ("grad_lipschitz", "multiplier_bound", "metric_floor"):
            _check_positive(getattr(self, name), name)
        if not ((ell >= 0.0) & (ell < np.inf)).all():
            raise ValueError("output Lipschitz constants must be nonnegative and finite")
        object.__setattr__(self, "output_lipschitz", _read_only(ell))
        object.__setattr__(self, "step_size_bound", 2.0 * self.metric_floor / (
            self.grad_lipschitz + self.multiplier_bound * float(np.sum(ell))))


def lyapunov_value(problem: ProblemSpec, penalty: float, u, y) -> float:
    """Merit value: cost plus ``penalty`` times summed output violations.

    The caller supplies the output ``y`` measured at ``u``, so the value is
    the reduced cost plus the penalty term at that measurement.  Coincides
    with the reduced cost on the feasible set; non-increasing along
    closed-loop trajectories whenever the step size is below the certified
    bound computed with the same penalty.  ``y`` is checked here, once (its
    length and finiteness); ``u`` reaches the objective as a float vector.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    y = _vector(y, problem.output_dim, "y")
    return (float(problem.objective.eval(u, y))
            + penalty * float(_violation(problem.output_set, y).sum()))


def _max_pair_slopes(points: Array, value_sets) -> list[float]:
    """Worst difference quotient ||v_i - v_j|| / ||x_i - x_j|| over all pairs,
    one for each ``values`` array in ``value_sets``.

    The pairs are taken ``PAIR_BLOCK_ROWS`` values of ``i`` at a time, and
    each block's distance table serves every value array, so memory grows
    with the number of points, not with its square.
    """
    worst = [0.0] * len(value_sets)
    for i in range(0, len(points), PAIR_BLOCK_ROWS):
        block = slice(i, i + PAIR_BLOCK_ROWS)
        dist = np.linalg.norm(points[block, None, :] - points[None, :, :], axis=2)
        mask = dist > 1e-12
        if not np.any(mask):
            continue
        dist = dist[mask]
        for k, values in enumerate(value_sets):
            num = np.linalg.norm(values[block, None, :] - values[None, :, :], axis=2)
            worst[k] = max(worst[k], float(np.max(num[mask] / dist)))
    return worst


def estimate_lipschitz_constants(problem: ProblemSpec, pts: Array, ys,
                                 Js) -> tuple[float, Array]:
    """Estimate the gradient and output-row Lipschitz constants from a sample.

    ``pts`` holds the sampled inputs (N x p), ``ys`` and ``Js`` the ``y`` and
    ``J`` measured there.  Returns ``(grad_lipschitz, output_lipschitz)`` where
    the first bounds the reduced cost gradient and the second holds one
    constant per output row (the map ``u -> C_i J(u)``).  Worst pairwise
    difference quotients over the sample, inflated by ``LIPSCHITZ_SAFETY``.
    """
    C = problem.output_set.A
    grads, rows = [], []
    for u, y, J in zip(pts, ys, Js):
        grads.append(reduced_gradient(problem, u, y, J))
        rows.append(C @ J)
    rows = np.array(rows)
    slopes = _max_pair_slopes(pts, [np.array(grads)]
                              + [rows[:, i, :] for i in range(C.shape[0])])
    ell = np.array([max(LIPSCHITZ_SAFETY * s, LIPSCHITZ_FLOOR) for s in slopes[1:]])
    return max(LIPSCHITZ_SAFETY * slopes[0], LIPSCHITZ_FLOOR), ell


def estimate_multiplier_bound(problem: ProblemSpec, alpha: float, pts: Array,
                              ys, Js, Gs) -> float:
    """Bound the output multipliers of the projection subproblem from a sample.

    Runs the controller at every sampled input ``pts[k]`` with the output
    ``ys[k]`` and the sensitivity ``Js[k]`` measured there and the metric
    ``Gs[k]`` (a float array) evaluated there, and doubles the largest
    observed output multiplier; points where the linearized set is empty
    are skipped with a warning.  Floored at ``MULTIPLIER_FLOOR`` so the
    certificate stays finite when no output constraint is ever active.
    ``alpha`` is checked once, before any step; the points and measurements
    are used as given, as :func:`estimate_constants` checked them when it
    sampled and measured them.
    """
    _check_positive(alpha, "alpha")
    mu_max = 0.0
    for u, y, J, G in zip(pts, ys, Js, Gs):
        try:
            step = _step(problem, u, y, J, alpha, G)
        except LinearizedSetEmpty:
            warnings.warn(f"skipping sample {u.tolist()}: linearized set empty",
                          stacklevel=2)
            continue
        if step.mu.size:
            mu_max = max(mu_max, float(np.max(step.mu)))
    return max(MULTIPLIER_SAFETY * mu_max, MULTIPLIER_FLOOR)


def estimate_constants(problem: ProblemSpec, alpha: float,
                       sampler: SamplerSpec | None = None) -> CertificateConstants:
    """Estimate all certificate constants from one sample of the input set.

    The input set is sampled once, and ``y``, ``J`` and the metric are
    evaluated once per sampled point; the Lipschitz constants, the multiplier
    bound and the metric floor all come from those points.  The multiplier
    bound depends on the step size used to linearize the output constraints,
    hence the ``alpha`` argument.  Deterministic for a given sampler.
    """
    pts = sample_input_set(problem.input_set, sampler or SamplerSpec())
    if pts.shape[0] < 2:
        raise ValueError("sampler produced fewer than two feasible points")
    ys = [eval_plant(problem.plant, u) for u in pts]
    Js = [eval_plant_jacobian(problem.plant, u) for u in pts]
    Gs = [_metric(problem, u) for u in pts]
    grad_lipschitz, ell = estimate_lipschitz_constants(problem, pts, ys, Js)
    mult = estimate_multiplier_bound(problem, alpha, pts, ys, Js, Gs)
    floor = np.inf
    for G in Gs:
        floor = min(floor, float(np.linalg.eigvalsh(G)[0]))
    if not np.isfinite(floor) or floor <= 0.0:
        raise ValueError("metric must be positive definite on the input set")
    return CertificateConstants(grad_lipschitz=grad_lipschitz,
                                output_lipschitz=ell,
                                multiplier_bound=mult,
                                metric_floor=floor)


def transient_violation_bound(output_lipschitz, alpha: float, w) -> Array:
    """Per-row bound on the output violation committed by one step.

    A step of size ``alpha * w`` that satisfies the linearized output
    constraints can overshoot each true constraint by at most
    ``output_lipschitz_i / 2 * ||alpha * w||^2``.
    """
    ell = np.asarray(output_lipschitz, dtype=float).reshape(-1)
    d = float(alpha) * np.asarray(w, dtype=float).reshape(-1)
    return 0.5 * ell * float(d @ d)
