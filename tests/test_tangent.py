import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fbopt import (
    MetricField,
    NotFeasible,
    ObjectiveSpec,
    PlantModel,
    Polyhedron,
    ProblemSpec,
    assemble_projection_qp,
    builtin_example,
    controller_step,
    eval_plant,
    eval_plant_jacobian,
    limit_consistency,
    project_tangent_cone,
    reduced_gradient,
    tangent_cone,
)

OPTIMUM = np.array([-0.5, 1.0])


def wide_output_problem():
    # sum plant with a roomy output set: only input constraints can activate
    plant = PlantModel(input_dim=2, output_dim=1,
                       eval=lambda u: np.array([u[0] + u[1]]),
                       jacobian=lambda u: np.array([[1.0, 1.0]]))
    obj = ObjectiveSpec(eval=lambda u, y: float(u @ u),
                        gradient=lambda u, y: np.array([2 * u[0], 2 * u[1], 0.0]))
    return ProblemSpec(plant=plant, objective=obj,
                       input_set=Polyhedron.box([-1.0, -1.0], [1.0, 1.0]),
                       output_set=Polyhedron.box([-10.0], [10.0]),
                       metric=MetricField.identity(2))


def test_interior_point_cone_is_whole_space():
    prob = builtin_example()
    cone = tangent_cone(prob, [0.0, 0.0])
    assert type(cone) is np.ndarray and cone.dtype == np.float64
    assert cone.shape == (0, 2)
    assert np.all(cone @ [100.0, -7.0] <= 0.0)


def test_output_face_single_row():
    prob = builtin_example()
    u = np.array([0.329, -0.9])  # output exactly on its upper bound
    cone = tangent_cone(prob, u)
    assert cone.shape == (1, 2)
    assert_allclose(cone[0], [1.0, 3 * 0.81 - 1.0])  # C_1 times jacobian


def test_optimum_has_two_active_rows():
    prob = builtin_example()
    cone = tangent_cone(prob, OPTIMUM)
    # input upper bound on u2 and the lower output row
    assert_allclose(cone, [[0.0, 1.0], [-1.0, -2.0]])


def test_corner_without_output_activity():
    prob = wide_output_problem()
    cone = tangent_cone(prob, [1.0, 1.0])
    assert_allclose(cone, [[1.0, 0.0], [0.0, 1.0]])
    assert np.all(cone @ [-1.0, -2.0] <= 0.0)
    assert not np.all(cone @ [1.0, 0.0] <= 0.0)


def test_infeasible_points_rejected():
    prob = builtin_example()
    with pytest.raises(NotFeasible):
        tangent_cone(prob, [1.0, 1.0])  # output 1.5 above the bound
    with pytest.raises(NotFeasible):
        tangent_cone(prob, [1.5, 0.0])  # outside the input box
    with pytest.raises(NotFeasible):
        limit_consistency(prob, [1.0, 1.0], [0.01])

    # an input outside its set is never measured: at (2, 0) the input row
    # is violated by 1.0 (and the output row by 1.5)
    def unreachable(u):
        raise AssertionError("the plant was called")

    offline = dataclasses.replace(prob, plant=dataclasses.replace(
        prob.plant, eval=unreachable, jacobian=unreachable))
    message = r"^input lies outside the input set by 1\.000e\+00$"
    with pytest.raises(NotFeasible, match=message):
        tangent_cone(offline, [2.0, 0.0])
    with pytest.raises(NotFeasible, match=message):
        limit_consistency(offline, [2.0, 0.0], [0.01])


def test_project_halfspace_cone():
    cone = np.array([[1.0, 0.0]])
    assert_allclose(project_tangent_cone(cone, np.eye(2), [1.0, 1.0]),
                    [0.0, 1.0], atol=1e-12)


def test_project_feasible_direction_unchanged():
    cone = np.array([[1.0, 0.0]])
    assert_allclose(project_tangent_cone(cone, np.eye(2), [-1.0, 0.3]),
                    [-1.0, 0.3], atol=1e-12)


def test_project_whole_space_identity():
    cone = np.zeros((0, 2))
    f = np.array([2.5, -1.5])
    assert_allclose(project_tangent_cone(cone, np.eye(2), f), f, atol=1e-14)


def test_projection_positively_homogeneous():
    prob = builtin_example()
    cone = tangent_cone(prob, OPTIMUM)
    rng = np.random.default_rng(6)
    for _ in range(15):
        f = rng.normal(size=2)
        base = project_tangent_cone(cone, np.eye(2), f)
        for t in (0.5, 2.0, 10.0):
            scaled = project_tangent_cone(cone, np.eye(2), t * f)
            assert np.linalg.norm(scaled - t * base) <= 1e-9 * max(1.0, t)


def test_projection_lands_in_cone():
    prob = builtin_example()
    cone = tangent_cone(prob, OPTIMUM)
    rng = np.random.default_rng(14)
    for _ in range(20):
        f = rng.normal(size=2) * 3.0
        w = project_tangent_cone(cone, np.eye(2), f)
        assert np.all(cone @ w <= 1e-9)
        assert np.all(cone @ (5.0 * w) <= 1e-8)  # cones are scale-closed


def test_zeroed_active_rows_match_cone_data():
    # the step QP's rows active at u carry zero slack: they are alpha times
    # the cone rows, bit for bit
    prob = builtin_example()
    y = eval_plant(prob.plant, OPTIMUM)
    J = eval_plant_jacobian(prob.plant, OPTIMUM)
    qp = assemble_projection_qp(prob, OPTIMUM, y, J, 0.01)
    cone = tangent_cone(prob, OPTIMUM)
    active = np.flatnonzero(qp.r == 0.0)
    assert list(active) == [1, 5]  # u2 upper bound, lower output row
    assert np.array_equal(qp.M[active], 0.01 * cone)


def test_limit_deviation_zero_at_interior_point():
    prob = builtin_example()
    ladder = [10.0 ** (-k) for k in range(1, 7)]
    for alpha, dev in limit_consistency(prob, [0.0, 0.0], ladder):
        assert dev == 0.0


def test_limit_deviation_nonincreasing_and_vanishing():
    prob = builtin_example()
    ladder = [10.0 ** (-k) for k in range(1, 7)]
    for u in (OPTIMUM, np.array([0.329, -0.9]), np.array([-0.45, 0.0])):
        devs = [dev for _, dev in limit_consistency(prob, u, ladder)]
        assert all(a >= b - 1e-10 for a, b in zip(devs, devs[1:]))
        assert devs[-1] <= 1e-8


def test_limit_deviation_is_controller_direction_to_cone_projection():
    prob = builtin_example()
    ladder = [10.0 ** (-k) for k in range(1, 7)]
    for u in (OPTIMUM, np.array([0.329, -0.9]), np.array([-0.45, 0.0])):
        y = eval_plant(prob.plant, u)
        J = eval_plant_jacobian(prob.plant, u)
        G = prob.metric.eval(u)
        grad = reduced_gradient(prob, u, y, J)
        w_limit = project_tangent_cone(tangent_cone(prob, u), G,
                                       -np.linalg.solve(G, grad))
        for alpha, dev in limit_consistency(prob, u, ladder):
            w = controller_step(prob, u, y, J, alpha).w
            assert dev == float(np.linalg.norm(w - w_limit))


def test_limit_consistency_measures_plant_once():
    prob = builtin_example()
    calls, jacobians, metrics = [], [], []

    def measured(u):
        calls.append(u)
        return prob.plant.eval(u)

    def sensitivity(u):
        jacobians.append(u)
        return prob.plant.jacobian(u)

    def metric(u):
        metrics.append(u)
        return prob.metric.eval(u)

    counted = dataclasses.replace(
        prob, plant=dataclasses.replace(prob.plant, eval=measured, jacobian=sensitivity),
        metric=MetricField(eval=metric))
    alphas = [10.0 ** (-k) for k in range(1, 7)]
    limit_consistency(counted, OPTIMUM, alphas)
    assert len(calls) == 1
    assert len(jacobians) == 1
    # G(u) too: one read serves the cone projection and every step size
    assert len(metrics) == 1


def test_limit_consistency_validates_ladder():
    prob = builtin_example()
    with pytest.raises(ValueError):
        limit_consistency(prob, [0.0, 0.0], [])
    with pytest.raises(ValueError):
        limit_consistency(prob, [0.0, 0.0], [0.1, -0.01])
    with pytest.raises(ValueError, match="positive"):
        limit_consistency(prob, [0.0, 0.0], [np.nan])
    # inf passed a bare a > 0 test and failed only inside controller_step
    with pytest.raises(ValueError, match="step sizes must be positive and finite"):
        limit_consistency(prob, [0.0, 0.0], [np.inf, 1.0])
    with pytest.raises(ValueError):
        limit_consistency(prob, [0.0, 0.0], [0.01, 0.1])

