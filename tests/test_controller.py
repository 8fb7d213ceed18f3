import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fbopt import (
    LinearizedSetEmpty,
    MetricField,
    ObjectiveSpec,
    PlantModel,
    Polyhedron,
    ProblemSpec,
    assemble_projection_qp,
    builtin_example,
    check_licq,
    controller_step,
    enumerate_oracle,
    eval_plant,
    eval_plant_jacobian,
    feedback_step,
    kkt_point_residual,
)

OPTIMUM = np.array([-0.5, 1.0])


def random_feasible_input(prob, rng):
    lo, hi = prob.input_set.bounding_box()
    while True:
        u = rng.uniform(lo, hi)
        if prob.input_set.membership(u):
            return u


def test_assemble_origin():
    prob = builtin_example()
    u = np.zeros(2)
    y = eval_plant(prob.plant, u)
    qp = assemble_projection_qp(prob, u, y, 0.01, prob.metric.eval(u))
    assert_allclose(qp.Q, 0.01 * np.eye(2))
    assert_allclose(qp.c, 0.01 * np.array([1.0, -4.0]))
    assert qp.num_constraints == 6
    # input rows first: alpha * A, rhs b - A u
    assert_allclose(qp.M[:4], 0.01 * prob.input_set.A)
    assert_allclose(qp.r[:4], np.ones(4))
    # linearized output rows: alpha * C J, rhs d - C y
    J = eval_plant_jacobian(prob.plant, u)
    assert_allclose(qp.M[4:], 0.01 * prob.output_set.A @ J)
    assert_allclose(qp.r[4:], [0.5, 0.5])


def test_assemble_face_rhs_zero():
    prob = builtin_example()
    u = np.array([1.0, 0.0])
    y = eval_plant(prob.plant, u)
    qp = assemble_projection_qp(prob, u, y, 0.01, prob.metric.eval(u))
    assert qp.r[0] == 0.0  # u1 upper bound tight


def test_assemble_rejects_bad_alpha():
    prob = builtin_example()
    u = np.zeros(2)
    y = eval_plant(prob.plant, u)
    for alpha in (0.0, -0.1):
        with pytest.raises(ValueError):
            assemble_projection_qp(prob, u, y, alpha, prob.metric.eval(u))


def test_step_at_origin_is_negative_gradient():
    prob = builtin_example()
    st = feedback_step(prob, np.zeros(2), 0.01)
    assert_allclose(st.w, [-1.0, 4.0], atol=1e-10)
    assert_allclose(st.nu, np.zeros(4), atol=1e-12)
    assert_allclose(st.mu, np.zeros(2), atol=1e-12)
    assert_allclose(st.u_next, [-0.01, 0.04], atol=1e-14)


def test_step_matches_enumeration_oracle():
    prob = builtin_example()
    rng = np.random.default_rng(2)
    for _ in range(20):
        u = random_feasible_input(prob, rng)
        y = eval_plant(prob.plant, u)
        st = controller_step(prob, u, y, 0.01)
        qp = assemble_projection_qp(prob, u, y, 0.01, prob.metric.eval(u))
        ref = enumerate_oracle(qp)
        assert np.linalg.norm(st.w - ref.w) <= 1e-8
        mult = np.concatenate([st.nu, st.mu])
        assert np.max(np.abs(mult - ref.multipliers)) <= 1e-6


def test_optimum_is_fixed_point():
    prob = builtin_example()
    st = feedback_step(prob, OPTIMUM, 0.01)
    assert st.sigma_norm_G <= 1e-10
    assert_allclose(st.u_next, OPTIMUM, atol=1e-12)


def test_active_output_row_lands_on_boundary_exactly():
    prob = builtin_example()
    u = np.array([0.329, -0.9])
    y = eval_plant(prob.plant, u)
    assert y[0] == 1.0  # starts on the upper output bound
    st = controller_step(prob, u, y, 0.01)
    assert st.mu[0] > 0.0
    J = eval_plant_jacobian(prob.plant, u)
    lin = prob.output_set.A @ (y + st.alpha * (J @ st.w))
    assert lin[0] == prob.output_set.b[0]  # linearized output stays on the face


def test_restoration_step_keeps_input_feasible():
    # output infeasible corner: the step must restore without leaving U
    prob = builtin_example()
    st = feedback_step(prob, np.array([1.0, 1.0]), 0.01)
    assert np.all(prob.input_set.A @ st.u_next <= prob.input_set.b + 1e-9)
    assert st.sigma_norm_G > 1.0  # genuinely a restoration move, not a fixed point


def test_input_feasibility_preserved_random():
    prob = builtin_example()
    rng = np.random.default_rng(8)
    A, b = prob.input_set.A, prob.input_set.b
    for _ in range(50):
        u = random_feasible_input(prob, rng)
        alpha = float(rng.uniform(1e-3, 0.5))
        st = feedback_step(prob, u, alpha)
        assert np.all(A @ st.u_next <= b + 1e-9)


def test_near_fixed_points_are_output_feasible():
    prob = builtin_example()
    C, d = prob.output_set.A, prob.output_set.b
    pts = [OPTIMUM, np.array([-0.5, -1.0]), np.array([0.5, 0.0]),
           np.array([0.0, 1.0]), np.array([1.0, 1.0])]
    for u in pts:
        st = feedback_step(prob, u, 0.01)
        if st.sigma_norm_G <= 1e-10:
            assert np.all(C @ st.y <= d + 1e-8)


def test_feedback_step_equals_measured_controller_step():
    prob = builtin_example()
    rng = np.random.default_rng(4)
    for _ in range(10):
        u = random_feasible_input(prob, rng)
        a = feedback_step(prob, u, 0.01)
        b = controller_step(prob, u, eval_plant(prob.plant, u), 0.01)
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.u_next, b.u_next)


def test_feedback_step_rejects_outside_input():
    prob = builtin_example()
    with pytest.raises(ValueError):
        feedback_step(prob, np.array([1.5, 0.0]), 0.01)


# wrong length (long and short) and non-finite inputs and outputs of cubic2d
BAD_INPUTS = [np.zeros(3), np.zeros(1), np.array([np.nan, 0.0]), np.array([0.0, np.inf])]
BAD_OUTPUTS = [np.zeros(2), np.zeros(0), np.array([np.nan]), np.array([-np.inf])]


def test_feedback_step_rejects_malformed_input():
    prob = builtin_example()
    for u in BAD_INPUTS:
        with pytest.raises(ValueError):
            feedback_step(prob, u, 0.01)


def test_step_and_assembly_reject_malformed_input_or_output():
    prob = builtin_example()
    u = np.zeros(2)
    y = eval_plant(prob.plant, u)
    G = prob.metric.eval(u)
    for bad_u in BAD_INPUTS:
        with pytest.raises(ValueError):
            controller_step(prob, bad_u, y, 0.01)
        with pytest.raises(ValueError):
            assemble_projection_qp(prob, bad_u, y, 0.01, G)
    for bad_y in BAD_OUTPUTS:
        with pytest.raises(ValueError):
            controller_step(prob, u, bad_y, 0.01)
        with pytest.raises(ValueError):
            assemble_projection_qp(prob, u, bad_y, 0.01, G)


def test_step_checks_input_before_metric_reads_it():
    # a metric that indexes u must not see a too-short input
    prob = dataclasses.replace(
        builtin_example(),
        metric=MetricField(eval=lambda u: np.diag([1.0, 1.0 + u[1] ** 2])))
    y = eval_plant(prob.plant, np.zeros(2))
    with pytest.raises(ValueError, match="u must have length 2"):
        controller_step(prob, np.zeros(1), y, 0.01)


def test_fixed_point_invariant_under_metric_change():
    prob = builtin_example()
    rng = np.random.default_rng(21)
    for _ in range(10):
        B = rng.normal(size=(2, 2))
        G = B @ B.T + (0.5 + rng.uniform()) * np.eye(2)
        warped = dataclasses.replace(prob, metric=MetricField.constant(G))
        st = feedback_step(warped, OPTIMUM, 0.01)
        assert np.linalg.norm(st.w) <= 1e-8


def test_stationarity_residual_metric_norm():
    prob = builtin_example()
    st = feedback_step(prob, np.zeros(2), 0.01)
    assert_allclose(st.sigma_norm_G, np.sqrt(17.0), atol=1e-9)
    st_fix = feedback_step(prob, OPTIMUM, 0.01)
    assert st_fix.sigma_norm_G <= 1e-10


def test_check_licq_interior():
    prob = builtin_example()
    u = np.zeros(2)
    y = eval_plant(prob.plant, u)
    st = controller_step(prob, u, y, 0.01)
    rep = check_licq(prob, u, y, 0.01, st.w)
    assert rep.satisfied
    assert rep.num_active == 0


def test_check_licq_output_active():
    prob = builtin_example()
    u = np.array([0.329, -0.9])
    y = eval_plant(prob.plant, u)
    st = controller_step(prob, u, y, 0.01)
    rep = check_licq(prob, u, y, 0.01, st.w)
    assert rep.satisfied
    assert rep.num_active >= 1
    assert rep.rank == rep.num_active


def test_check_licq_duplicate_rows():
    plant = PlantModel(input_dim=1, output_dim=1,
                       eval=lambda u: np.array(u, dtype=float),
                       jacobian=lambda u: np.eye(1))
    obj = ObjectiveSpec(eval=lambda u, y: float((u[0] - 2.0) ** 2),
                        gradient=lambda u, y: np.array([2.0 * (u[0] - 2.0), 0.0]))
    # u <= 1 twice: active rows at the bound are dependent
    prob = ProblemSpec(plant=plant, objective=obj,
                       input_set=Polyhedron(A=[[1.0], [1.0], [-1.0]], b=[1.0, 1.0, 1.0]),
                       output_set=Polyhedron.box([-5.0], [5.0]),
                       metric=MetricField.identity(1))
    u = np.array([1.0])
    y = eval_plant(plant, u)
    with pytest.warns(Warning):
        st = controller_step(prob, u, y, 0.01)
    rep = check_licq(prob, u, y, 0.01, st.w)
    assert not rep.satisfied
    assert rep.num_active == 2
    assert rep.rank == 1


def test_kkt_point_residual_at_optimum():
    prob = builtin_example()
    nu = np.array([0.0, 3.5, 0.0, 0.0])  # upper bound on u2
    mu = np.array([0.0, 0.5])  # lower output bound
    assert kkt_point_residual(prob, OPTIMUM, nu, mu) <= 1e-12


def test_kkt_point_residual_flags_wrong_multiplier():
    prob = builtin_example()
    nu = np.zeros(4)
    mu = np.zeros(2)
    assert kkt_point_residual(prob, OPTIMUM, nu, mu) >= 1.0


def test_linearized_set_empty():
    plant = PlantModel(input_dim=1, output_dim=1,
                       eval=lambda u: np.array(u, dtype=float),
                       jacobian=lambda u: np.eye(1))
    obj = ObjectiveSpec(eval=lambda u, y: float(u[0] ** 2),
                        gradient=lambda u, y: np.array([2.0 * u[0], 0.0]))
    # output rows demand y <= -2 and y >= 2 simultaneously
    prob = ProblemSpec(plant=plant, objective=obj,
                       input_set=Polyhedron.box([-1.0], [1.0]),
                       output_set=Polyhedron(A=[[1.0], [-1.0]], b=[-2.0, -2.0]),
                       metric=MetricField.identity(1))
    with pytest.raises(LinearizedSetEmpty):
        feedback_step(prob, np.zeros(1), 0.01)


def test_tiny_step_size_keeps_nonempty_linearization():
    # rows of order alpha ~ 1e-10 must not make a nonempty set look empty
    prob = builtin_example()
    u = np.array([1.0, 1.0])
    st = controller_step(prob, u, eval_plant(prob.plant, u), alpha=1e-10)
    assert np.all(np.isfinite(st.w))
    assert np.all(np.isfinite(st.u_next))
    assert prob.input_set.membership(st.u_next, tol=1e-12)


def scaled_cost(prob, s):
    obj = prob.objective
    return dataclasses.replace(prob, objective=ObjectiveSpec(
        eval=lambda u, y: s * obj.eval(u, y),
        gradient=lambda u, y: s * np.asarray(obj.gradient(u, y))))


@pytest.mark.parametrize("s", [1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9])
def test_trajectory_invariant_under_cost_and_step_scaling(s):
    # scaling the cost by s and alpha by 1/s leaves every increment
    # alpha * w unchanged, so the inputs must follow the same path
    prob = builtin_example()
    scaled = scaled_cost(prob, s)
    u = v = np.array([1.0, 1.0])
    for _ in range(200):
        u = feedback_step(prob, u, 0.01).u_next
        v = feedback_step(scaled, v, 0.01 / s).u_next
        assert np.max(np.abs(u - v)) <= 1e-10
