import numpy as np
from numpy.testing import assert_allclose

from fbopt import (
    MetricField,
    ObjectiveSpec,
    PlantModel,
    Polyhedron,
    ProblemSpec,
    assemble_projection_qp,
    builtin_example,
    eval_plant,
    eval_plant_jacobian,
)
from flow import cone_rows, deviations, project

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
    cone = cone_rows(prob, [0.0, 0.0])
    assert type(cone) is np.ndarray and cone.dtype == np.float64
    assert cone.shape == (0, 2)
    assert np.all(cone @ [100.0, -7.0] <= 0.0)


def test_output_face_single_row():
    prob = builtin_example()
    u = np.array([0.329, -0.9])  # output exactly on its upper bound
    cone = cone_rows(prob, u)
    assert cone.shape == (1, 2)
    assert_allclose(cone[0], [1.0, 3 * 0.81 - 1.0])  # C_1 times jacobian


def test_optimum_has_two_active_rows():
    prob = builtin_example()
    cone = cone_rows(prob, OPTIMUM)
    # input upper bound on u2 and the lower output row
    assert_allclose(cone, [[0.0, 1.0], [-1.0, -2.0]])


def test_corner_without_output_activity():
    prob = wide_output_problem()
    cone = cone_rows(prob, [1.0, 1.0])
    assert_allclose(cone, [[1.0, 0.0], [0.0, 1.0]])
    assert np.all(cone @ [-1.0, -2.0] <= 0.0)
    assert not np.all(cone @ [1.0, 0.0] <= 0.0)


def test_project_halfspace_cone():
    cone = np.array([[1.0, 0.0]])
    assert_allclose(project(cone, np.eye(2), [1.0, 1.0]),
                    [0.0, 1.0], atol=1e-12)


def test_project_feasible_direction_unchanged():
    cone = np.array([[1.0, 0.0]])
    assert_allclose(project(cone, np.eye(2), [-1.0, 0.3]),
                    [-1.0, 0.3], atol=1e-12)


def test_project_whole_space_identity():
    cone = np.zeros((0, 2))
    f = np.array([2.5, -1.5])
    assert_allclose(project(cone, np.eye(2), f), f, atol=1e-14)


def test_projection_positively_homogeneous():
    prob = builtin_example()
    cone = cone_rows(prob, OPTIMUM)
    rng = np.random.default_rng(6)
    for _ in range(15):
        f = rng.normal(size=2)
        base = project(cone, np.eye(2), f)
        for t in (0.5, 2.0, 10.0):
            scaled = project(cone, np.eye(2), t * f)
            assert np.linalg.norm(scaled - t * base) <= 1e-9 * max(1.0, t)


def test_projection_lands_in_cone():
    prob = builtin_example()
    cone = cone_rows(prob, OPTIMUM)
    rng = np.random.default_rng(14)
    for _ in range(20):
        f = rng.normal(size=2) * 3.0
        w = project(cone, np.eye(2), f)
        assert np.all(cone @ w <= 1e-9)
        assert np.all(cone @ (5.0 * w) <= 1e-8)  # cones are scale-closed


def test_zeroed_active_rows_match_cone_data():
    # the step QP's rows active at u carry zero slack: they are alpha times
    # the cone rows, bit for bit
    prob = builtin_example()
    y = eval_plant(prob.plant, OPTIMUM)
    J = eval_plant_jacobian(prob.plant, OPTIMUM)
    qp = assemble_projection_qp(prob, OPTIMUM, y, J, 0.01)
    cone = cone_rows(prob, OPTIMUM)
    active = np.flatnonzero(qp.r == 0.0)
    assert list(active) == [1, 5]  # u2 upper bound, lower output row
    assert np.array_equal(qp.M[active], 0.01 * cone)


def test_limit_deviation_zero_at_interior_point():
    prob = builtin_example()
    ladder = [10.0 ** (-k) for k in range(1, 7)]
    assert deviations(prob, [0.0, 0.0], ladder) == [0.0] * len(ladder)


def test_limit_deviation_nonincreasing_and_vanishing():
    prob = builtin_example()
    ladder = [10.0 ** (-k) for k in range(1, 7)]
    for u in (OPTIMUM, np.array([0.329, -0.9]), np.array([-0.45, 0.0])):
        devs = deviations(prob, u, ladder)
        assert all(a >= b - 1e-10 for a, b in zip(devs, devs[1:]))
        assert devs[-1] <= 1e-8
