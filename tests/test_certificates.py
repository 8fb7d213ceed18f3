import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fbopt import (
    CertificateConstants,
    MetricField,
    ObjectiveSpec,
    PlantModel,
    Polyhedron,
    ProblemSpec,
    SamplerSpec,
    builtin_example,
    estimate_constants,
    eval_plant,
    get_problem,
    lyapunov_value,
    reduced_cost,
    sample_input_set,
    transient_violation_bound,
)

from fbopt import certificates
from fbopt import controller as controller_module
from fbopt import model as model_module
from fbopt.certificates import PAIR_BLOCK_ROWS, _max_pair_slopes

GRAD_CURVATURE = (5.0 + np.sqrt(5.0)) / 2.0  # top eigenvalue of the cost Hessian


def scalar_plant():
    return PlantModel(input_dim=1, output_dim=1,
                      eval=lambda u: np.array(u, dtype=float),
                      jacobian=lambda u: np.eye(1))


def test_lyapunov_feasible_point_ignores_penalty():
    prob = builtin_example()
    for penalty in (0.0, 1.0, 50.0):
        assert_allclose(lyapunov_value(prob, penalty, [0.0, 0.0],
                                       eval_plant(prob.plant, [0.0, 0.0])), 2.0)


def test_lyapunov_adds_scaled_violation():
    prob = builtin_example()
    u = np.array([0.7, 0.0])  # output lands at 1.2, violating the upper bound
    y = eval_plant(prob.plant, u)
    assert y[0] == 1.2
    expected = reduced_cost(prob, u) + 10.0 * (1.2 - 1.0)
    assert_allclose(lyapunov_value(prob, 10.0, u, y), expected, rtol=1e-12)
    assert_allclose(lyapunov_value(prob, 10.0, u, y), reduced_cost(prob, u) + 2.0,
                    rtol=1e-12)


def test_lyapunov_penalty_independent_on_feasible_samples():
    prob = builtin_example()
    rng = np.random.default_rng(13)
    count = 0
    while count < 25:
        u = rng.uniform(-1.0, 1.0, size=2)
        y = eval_plant(prob.plant, u)
        if not prob.output_set.membership(y):
            continue
        count += 1
        assert lyapunov_value(prob, 1.0, u, y) == lyapunov_value(prob, 100.0, u, y)


def test_gradient_curvature_estimate():
    prob = builtin_example()
    L = estimate_constants(prob, 0.01).grad_lipschitz
    raw = L / 1.1  # undo the safety inflation
    assert abs(raw - GRAD_CURVATURE) <= 0.05 * GRAD_CURVATURE
    assert L > raw  # stored value keeps the safety margin


def test_output_row_curvature_estimate():
    prob = builtin_example()
    ell = estimate_constants(prob, 0.01).output_lipschitz
    assert ell.shape == (2,)
    # the two output rows are mirrored, so their constants coincide
    assert_allclose(ell[0], ell[1], rtol=1e-12)
    raw = ell / 1.1
    assert np.all(np.abs(raw - 6.0) <= 0.6)
    assert np.all(ell >= 6.0)  # inflated estimate dominates the true constant


def test_affine_rows_hit_curvature_floor():
    prob = get_problem("quad1d")  # identity plant: output rows are constant
    ell = estimate_constants(prob, 0.01).output_lipschitz
    assert np.all(ell > 0.0)
    assert np.all(ell <= 1e-10)


def all_pairs_slope(points, values):
    dist = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    num = np.linalg.norm(values[:, None, :] - values[None, :, :], axis=2)
    mask = dist > 1e-12
    return float(np.max(num[mask] / dist[mask]))


def test_pair_slope_blocks_match_all_pairs_bitwise():
    rng = np.random.default_rng(8)
    for n in (225, PAIR_BLOCK_ROWS + 44, 700):
        points = rng.uniform(-1.0, 1.0, size=(n, 2))
        points[n // 2] = points[3]  # a repeated point has no quotient
        value_sets = [np.sin(3.0 * points) @ rng.normal(size=(2, 3)),
                      np.cos(points) @ rng.normal(size=(2, 2)),
                      points[:, :1] ** 3]
        assert _max_pair_slopes(points, value_sets) == [
            all_pairs_slope(points, values) for values in value_sets]


def test_pair_slope_memory_grows_linearly():
    rng = np.random.default_rng(9)
    points = rng.uniform(size=(1500, 3))
    value_sets = [rng.uniform(size=(1500, 3)) for _ in range(3)]
    tracemalloc.start()
    try:
        _max_pair_slopes(points, value_sets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6  # the all-pairs table of 1,500 points peaks at 216 MB


def test_estimate_constants_measures_each_sample_once(monkeypatch):
    prob = builtin_example()
    evals, jacobians, samples = [], [], []

    def measured(u):
        evals.append(u)
        return prob.plant.eval(u)

    def sensitivity(u):
        jacobians.append(u)
        return prob.plant.jacobian(u)

    def sampled(*args):
        samples.append(args)
        return sample_input_set(*args)

    monkeypatch.setattr(certificates, "sample_input_set", sampled)
    counted = dataclasses.replace(prob, plant=dataclasses.replace(
        prob.plant, eval=measured, jacobian=sensitivity))
    estimate_constants(counted, 0.01)
    assert len(samples) == 1
    assert len(evals) == len(sample_input_set(prob.input_set, SamplerSpec())) == 225
    assert len(jacobians) == 225


def test_estimate_constants_evaluates_metric_once_per_sample():
    # one G(u) per sampled point serves the multiplier bound and the metric
    # floor; the constants are those of two evaluations per point, bit for bit
    calls = []

    def metric(u):
        calls.append(u)
        return np.array([[2.0 + u[0], 0.5 * u[1]], [0.5 * u[1], 2.0]])

    prob = dataclasses.replace(builtin_example(), metric=MetricField(eval=metric))
    constants = estimate_constants(prob, 0.01)
    assert len(calls) == 225
    assert constants.grad_lipschitz == float.fromhex("0x1.fd6b1b39907e1p+1")
    assert constants.output_lipschitz.tolist() == \
        [float.fromhex("0x1.883a83a83a83dp+2")] * 2
    assert constants.multiplier_bound == float.fromhex("0x1.043dd9c46c503p+9")
    assert constants.metric_floor == float.fromhex("0x1.95f619980c434p-1")
    assert constants.step_size_bound == float.fromhex("0x1.047b6789aa63ap-12")


def test_estimate_constants_checks_each_value_once(monkeypatch):
    # each sampled u, y and J is checked as it is measured, and the
    # multiplier bound checks none of them again
    checked = {"vector": 0, "J": 0}
    vector, jacobian = model_module._vector, model_module._jacobian

    def counted_vector(*args):
        checked["vector"] += 1
        return vector(*args)

    def counted_jacobian(*args):
        checked["J"] += 1
        return jacobian(*args)

    for module in (model_module, controller_module, certificates):
        monkeypatch.setattr(module, "_vector", counted_vector)
    for module in (model_module, controller_module):
        monkeypatch.setattr(module, "_jacobian", counted_jacobian)
    estimate_constants(builtin_example(), 0.01)
    # u by eval_plant and J by eval_plant_jacobian, at each of 225 points
    assert checked == {"vector": 225, "J": 225}


def test_multiplier_bound_checks_alpha_before_any_step(monkeypatch):
    prob = builtin_example()
    pts = sample_input_set(prob.input_set, SamplerSpec(count=3))
    ys = [eval_plant(prob.plant, u) for u in pts]
    Js = [prob.plant.jacobian(u) for u in pts]
    Gs = [prob.metric.eval(u) for u in pts]
    steps = []
    monkeypatch.setattr(certificates, "_step", lambda *args: steps.append(args))
    for alpha in (np.nan, 0.0, -1.0, np.inf):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            certificates.estimate_multiplier_bound(prob, alpha, pts, ys, Js, Gs)
    assert steps == []


def test_estimate_constants_needs_two_points():
    # |u1| + |u2| <= 1: a 2 x 2 grid over its bounding box has only the
    # four corners, and every one lies outside
    diamond = Polyhedron(A=[[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]],
                         b=[1.0, 1.0, 1.0, 1.0])
    prob = dataclasses.replace(builtin_example(), input_set=diamond)
    with pytest.raises(ValueError, match="fewer than two"):
        estimate_constants(prob, 0.01, SamplerSpec(kind="grid", count=2))


def test_multiplier_bound_floor_when_outputs_inactive():
    prob = get_problem("quad1d")
    assert estimate_constants(prob, 0.01).multiplier_bound == 1.0


def test_multiplier_bound_known_single_active_sample():
    # y = u, cost (u - 2)^2, y <= 0.25: only the sample u = 1 activates the
    # output row, with multiplier (0.75 + 0.02) / 0.01 = 77 at alpha = 0.01
    plant = scalar_plant()
    obj = ObjectiveSpec(eval=lambda u, y: float((u[0] - 2.0) ** 2),
                        gradient=lambda u, y: np.array([2.0 * (u[0] - 2.0), 0.0]))
    prob = ProblemSpec(plant=plant, objective=obj,
                       input_set=Polyhedron.box([-1.0], [1.0]),
                       output_set=Polyhedron(A=[[1.0]], b=[0.25]),
                       metric=MetricField.identity(1))
    xi = estimate_constants(prob, 0.01, SamplerSpec(kind="grid", count=2)).multiplier_bound
    assert_allclose(xi, 2.0 * 77.0, rtol=1e-9)


def test_multiplier_bound_scales_with_objective_and_metric():
    prob = builtin_example()
    doubled = dataclasses.replace(
        prob,
        objective=ObjectiveSpec(
            eval=lambda u, y: 2.0 * prob.objective.eval(u, y),
            gradient=lambda u, y: 2.0 * prob.objective.gradient(u, y)),
        metric=MetricField.constant(2.0 * np.eye(2)))
    xi = estimate_constants(prob, 0.01).multiplier_bound
    xi2 = estimate_constants(doubled, 0.01).multiplier_bound
    assert xi > 1.0  # well above the floor, so doubling is observable
    assert_allclose(xi2, 2.0 * xi, rtol=1e-9)


def test_certified_step_size_example():
    constants = CertificateConstants(grad_lipschitz=4.0,
                                     output_lipschitz=[6.0, 6.0],
                                     multiplier_bound=1.0,
                                     metric_floor=1.0)
    assert constants.step_size_bound == 0.125


def test_certified_step_size_matches_stored_field():
    prob = builtin_example()
    constants = estimate_constants(prob, 0.01)
    assert constants.step_size_bound == 2.0 * constants.metric_floor / (
        constants.grad_lipschitz
        + constants.multiplier_bound * float(np.sum(constants.output_lipschitz)))
    assert 0.0 < constants.step_size_bound < 1.0
    assert constants.metric_floor == 1.0


def test_certified_step_size_decreases_with_multiplier_bound():
    base = dict(grad_lipschitz=4.0, output_lipschitz=[6.0, 6.0], metric_floor=1.0)
    bounds = [CertificateConstants(multiplier_bound=m, **base).step_size_bound
              for m in (0.5, 1.0, 2.0, 8.0)]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))


def test_step_size_bound_cannot_be_passed():
    with pytest.raises(TypeError):
        CertificateConstants(grad_lipschitz=4.0, output_lipschitz=[6.0, 6.0],
                             multiplier_bound=1.0, metric_floor=1.0,
                             step_size_bound=123.0)


def test_constants_validation():
    good = dict(grad_lipschitz=1.0, output_lipschitz=[1.0],
                multiplier_bound=1.0, metric_floor=1.0)
    for key, bad in (("grad_lipschitz", 0.0), ("multiplier_bound", -1.0),
                     ("metric_floor", 0.0), ("output_lipschitz", [-1.0]),
                     ("grad_lipschitz", np.nan), ("grad_lipschitz", np.inf),
                     ("multiplier_bound", np.nan), ("multiplier_bound", np.inf),
                     ("metric_floor", np.nan), ("metric_floor", np.inf),
                     ("output_lipschitz", [np.nan]), ("output_lipschitz", [np.inf])):
        kwargs = dict(good)
        kwargs[key] = bad
        message = ("output Lipschitz constants must be nonnegative and finite"
                   if key == "output_lipschitz" else f"{key} must be positive and finite")
        with pytest.raises(ValueError, match=message):
            CertificateConstants(**kwargs)


def test_estimate_constants_deterministic():
    prob = builtin_example()
    a = estimate_constants(prob, 0.01)
    b = estimate_constants(prob, 0.01)
    assert a.grad_lipschitz == b.grad_lipschitz
    assert np.array_equal(a.output_lipschitz, b.output_lipschitz)
    assert a.multiplier_bound == b.multiplier_bound
    assert a.step_size_bound == b.step_size_bound


def test_transient_bound_zero_direction():
    assert_allclose(transient_violation_bound([6.0, 6.0], 0.01, [0.0, 0.0]),
                    [0.0, 0.0])


def test_transient_bound_example():
    bound = transient_violation_bound([6.0, 6.0], 0.01, [-1.0, 4.0])
    assert_allclose(bound, [3.0 * 17e-4, 3.0 * 17e-4], rtol=1e-12)


def test_transient_bound_quadratic_in_alpha():
    w = np.array([-1.0, 4.0])
    b1 = transient_violation_bound([6.0], 0.02, w)
    b2 = transient_violation_bound([6.0], 0.01, w)
    assert_allclose(b1, 4.0 * b2, rtol=1e-12)


def test_grid_sampler_covers_box():
    box = Polyhedron.box([-1.0, -1.0], [1.0, 1.0])
    pts = sample_input_set(box, SamplerSpec(kind="grid", count=5))
    assert pts.shape == (25, 2)
    assert np.all(np.abs(pts) <= 1.0)


def test_grid_sampler_filters_infeasible():
    # simplex: the grid over the bounding box keeps only feasible nodes
    poly = Polyhedron(A=np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
                      b=np.array([1.0, 0.0, 0.0]))
    pts = sample_input_set(poly, SamplerSpec(kind="grid", count=5))
    assert pts.shape[0] < 25
    assert np.all(poly.A @ pts.T <= poly.b[:, None] + 1e-9)


def test_random_sampler_deterministic():
    box = Polyhedron.box([-1.0, -1.0], [1.0, 1.0])
    a = sample_input_set(box, SamplerSpec(kind="random", count=30, seed=3))
    b = sample_input_set(box, SamplerSpec(kind="random", count=30, seed=3))
    c = sample_input_set(box, SamplerSpec(kind="random", count=30, seed=4))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (30, 2)


def test_sampler_validation():
    with pytest.raises(ValueError):
        SamplerSpec(kind="sobol")
    with pytest.raises(ValueError):
        SamplerSpec(count=1)


# count=2.5 used to construct, and the random kind then drew 3 points
@pytest.mark.parametrize("count", [2.5, 3.0, np.nan, True, "3"])
def test_sampler_count_must_be_an_integer(count):
    for kind in ("grid", "random"):
        with pytest.raises(ValueError, match="count must be an integer >= 2"):
            SamplerSpec(kind=kind, count=count)
    assert SamplerSpec(count=np.int64(3)).count == 3
