import dataclasses
import importlib
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import fbopt.certificates as certificates_module
import fbopt.controller as controller_module
import fbopt.model as model_module
from fbopt import (
    ControllerStep,
    LinearizedSetEmpty,
    MetricField,
    NotPositiveDefinite,
    ObjectiveSpec,
    PlantModel,
    Polyhedron,
    ProblemSpec,
    QpProblem,
    RankDeficientActiveSet,
    SaddlePointState,
    assemble_projection_qp,
    augmented_lagrangian_gradients,
    builtin_example,
    controller_step,
    eval_plant,
    eval_plant_jacobian,
    feedback_step,
    get_problem,
    kkt_point_residual,
    linearized_constraints,
    reduced_gradient,
    saddle_point_step,
    solve_qp,
)
from oracles import enumerate_oracle

OPTIMUM = np.array([-0.5, 1.0])
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def measure(prob, u):
    """The output and the sensitivity of the plant at ``u``."""
    return eval_plant(prob.plant, u), eval_plant_jacobian(prob.plant, u)


def random_feasible_input(prob, rng):
    lo, hi = prob.input_set.bounding_box()
    while True:
        u = rng.uniform(lo, hi)
        if prob.input_set.membership(u):
            return u


def test_assemble_origin():
    prob = builtin_example()
    u = np.zeros(2)
    y, J = measure(prob, u)
    qp = assemble_projection_qp(prob, u, y, J, 0.01)
    assert_allclose(qp.Q, 0.01 * np.eye(2))
    assert_allclose(qp.c, 0.01 * np.array([1.0, -4.0]))
    assert qp.num_constraints == 6
    # input rows first: alpha * A, rhs b - A u
    assert_allclose(qp.M[:4], 0.01 * prob.input_set.A)
    assert_allclose(qp.r[:4], np.ones(4))
    # linearized output rows: alpha * C J, rhs d - C y
    assert_allclose(qp.M[4:], 0.01 * prob.output_set.A @ J)
    assert_allclose(qp.r[4:], [0.5, 0.5])


def test_assemble_face_rhs_zero():
    prob = builtin_example()
    u = np.array([1.0, 0.0])
    y, J = measure(prob, u)
    qp = assemble_projection_qp(prob, u, y, J, 0.01)
    assert qp.r[0] == 0.0  # u1 upper bound tight


def test_assemble_rejects_bad_alpha():
    prob = builtin_example()
    u = np.zeros(2)
    y, J = measure(prob, u)
    for alpha in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="alpha must be positive"):
            assemble_projection_qp(prob, u, y, J, alpha)


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
        y, J = measure(prob, u)
        st = controller_step(prob, u, y, J, 0.01)
        qp = assemble_projection_qp(prob, u, y, J, 0.01)
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
    y, J = measure(prob, u)
    assert y[0] == 1.0  # starts on the upper output bound
    st = controller_step(prob, u, y, J, 0.01)
    assert st.mu[0] > 0.0
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
        b = controller_step(prob, u, *measure(prob, u), 0.01)
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
    y, J = measure(prob, u)
    for bad_u in BAD_INPUTS:
        with pytest.raises(ValueError):
            controller_step(prob, bad_u, y, J, 0.01)
        with pytest.raises(ValueError):
            assemble_projection_qp(prob, bad_u, y, J, 0.01)
    for bad_y in BAD_OUTPUTS:
        with pytest.raises(ValueError):
            controller_step(prob, u, bad_y, J, 0.01)
        with pytest.raises(ValueError):
            assemble_projection_qp(prob, u, bad_y, J, 0.01)


def test_step_checks_input_before_metric_reads_it():
    # a metric that indexes u must not see a too-short input
    prob = dataclasses.replace(
        builtin_example(),
        metric=MetricField(eval=lambda u: np.diag([1.0, 1.0 + u[1] ** 2])))
    y, J = measure(prob, np.zeros(2))
    for entry in (controller_step, assemble_projection_qp):
        with pytest.raises(ValueError, match="u must have length 2"):
            entry(prob, np.zeros(1), y, J, 0.01)


def warped_cubic2d():
    """cubic2d under a constant, non-identity metric."""
    return dataclasses.replace(builtin_example(), metric=MetricField.constant(
        [[2.0, 0.6], [0.6, 0.5]]))


@pytest.mark.parametrize("make", [builtin_example, lambda: get_problem("quad1d"),
                                  warped_cubic2d],
                         ids=["cubic2d", "quad1d", "cubic2d_warped"])
def test_step_equals_solve_of_publicly_built_qp(make):
    # the step builds its QP without the public constructor; the bits of
    # the direction and the multipliers must not depend on that
    prob = make()
    rng = np.random.default_rng(31)
    for alpha in (0.01, 0.3):
        for _ in range(15):
            u = random_feasible_input(prob, rng)
            y = eval_plant(prob.plant, u)
            J = eval_plant_jacobian(prob.plant, u)
            rows, slack = linearized_constraints(prob, u, y, J)
            ref = solve_qp(QpProblem(Q=alpha * prob.metric.eval(u),
                                     c=alpha * reduced_gradient(prob, u, y, J),
                                     M=alpha * rows, r=slack))
            st = controller_step(prob, u, y, J, alpha)
            assert np.array_equal(st.w, ref.w)
            assert np.array_equal(np.concatenate([st.nu, st.mu]), ref.multipliers)
            assert np.array_equal(feedback_step(prob, u, alpha).w, ref.w)


@pytest.mark.parametrize("make", [builtin_example, lambda: get_problem("quad1d")],
                         ids=["cubic2d", "quad1d"])
def test_given_sensitivity_equals_wrapper_plant_step(make):
    # a mismatched J passed to the step acts exactly as a plant whose
    # jacobian returns that J
    prob = make()
    rng = np.random.default_rng(47)
    for alpha in (0.01, 0.3):
        for _ in range(30):
            u = random_feasible_input(prob, rng)
            y, J = measure(prob, u)
            E = 0.1 * rng.normal(size=J.shape)
            wrapped = dataclasses.replace(prob, plant=dataclasses.replace(
                prob.plant, jacobian=lambda x, E=E: eval_plant_jacobian(prob.plant, x) + E))
            st = controller_step(prob, u, y, J + E, alpha)
            ref = feedback_step(wrapped, u, alpha)
            for field in ("w", "nu", "mu", "u_next"):
                assert np.array_equal(getattr(st, field), getattr(ref, field))


def test_step_math_makes_no_plant_call():
    def unreachable(u):
        raise AssertionError("the plant was called")

    prob = builtin_example()
    offline = dataclasses.replace(prob, plant=dataclasses.replace(
        prob.plant, eval=unreachable, jacobian=unreachable))
    rng = np.random.default_rng(5)
    for u in [OPTIMUM] + [random_feasible_input(prob, rng) for _ in range(9)]:
        y, J = measure(prob, u)
        st = controller_step(offline, u, y, J, 0.01)
        assert np.array_equal(st.w, controller_step(prob, u, y, J, 0.01).w)
        qp = assemble_projection_qp(offline, u, y, J, 0.01)
        assert np.array_equal(qp.M, assemble_projection_qp(prob, u, y, J, 0.01).M)
        # the saddle baseline's step math is handed y and J the same way
        s = SaddlePointState(u=u, mu=[0.0, 0.5], alpha=0.01, gamma=0.5, rho=1.0)
        assert np.array_equal(saddle_point_step(offline, s, y, J).u,
                              saddle_point_step(prob, s, y, J).u)
        grads = augmented_lagrangian_gradients(offline, s.u, s.mu, s.rho, y, J)
        for got, ref in zip(grads, augmented_lagrangian_gradients(
                prob, s.u, s.mu, s.rho, y, J)):
            assert np.array_equal(got, ref)


# wrong shape (cubic2d's J is 1 x 2) and non-finite sensitivities
BAD_JACOBIANS = [np.zeros((2, 2)), np.zeros((1, 3)), np.zeros((2, 1)),
                 np.array([[np.nan, 0.0]]), np.array([[0.0, -np.inf]]),
                 np.zeros((1, 1, 2))]
# a J of fewer dimensions is read as one row: (problem, J's shape), for
# cubic2d's 1 x 2 and quad1d's 1 x 1 J
ONE_ROW_JACOBIANS = [("cubic2d", (2,)), ("quad1d", ())]


@pytest.mark.parametrize("name, bad_J",
                         [*(("cubic2d", J) for J in BAD_JACOBIANS), *ONE_ROW_JACOBIANS],
                         ids=["2x2", "1x3", "2x1", "nan", "inf", "1x1x2", "1d", "0d"])
def test_step_and_assembly_reject_malformed_sensitivity(name, bad_J):
    prob = get_problem(name)
    u = np.array([0.3, -0.2])[:prob.input_dim]
    y, J = measure(prob, u)
    if isinstance(bad_J, tuple):  # accepted: the same step as the 2-D J's
        flat = J.reshape(bad_J)
        st, ref = controller_step(prob, u, y, flat, 0.01), controller_step(prob, u, y, J, 0.01)
        for f in dataclasses.fields(ControllerStep):
            assert np.array_equal(getattr(st, f.name), getattr(ref, f.name))
        assert np.array_equal(assemble_projection_qp(prob, u, y, flat, 0.01).M,
                              assemble_projection_qp(prob, u, y, J, 0.01).M)
        return
    message = "jacobian shape" if bad_J.shape != J.shape else "jacobian must be finite"
    with pytest.raises(ValueError, match=message):
        controller_step(prob, u, y, bad_J, 0.01)
    with pytest.raises(ValueError, match=message):
        assemble_projection_qp(prob, u, y, bad_J, 0.01)


def test_step_checks_each_value_once(monkeypatch):
    checked = []
    post_inits = []
    vector, post_init = model_module._vector, QpProblem.__post_init__
    jacobian = model_module._jacobian

    def counted_vector(x, dim, name):
        checked.append(name)
        return vector(x, dim, name)

    def counted_jacobian(J, plant, u):
        checked.append("J")
        return jacobian(J, plant, u)

    def counted_post_init(self):
        post_inits.append(self)
        post_init(self)

    monkeypatch.setattr(model_module, "_vector", counted_vector)
    monkeypatch.setattr(controller_module, "_vector", counted_vector)
    monkeypatch.setattr(model_module, "_jacobian", counted_jacobian)
    monkeypatch.setattr(controller_module, "_jacobian", counted_jacobian)
    monkeypatch.setattr(QpProblem, "__post_init__", counted_post_init)
    prob = builtin_example()
    u = np.array([0.3, -0.2])
    feedback_step(prob, u, 0.01)
    # u once, for both the input set's membership test and the measurement;
    # J by eval_plant_jacobian
    assert checked == ["u", "J"]
    assert post_inits == []
    y, J = measure(prob, u)
    checked.clear()
    controller_step(prob, u, y, J, 0.01)
    assert checked == ["u", "y", "J"]
    assert post_inits == []
    # the two public entries share one gate: alpha, u, y, J; the assembled
    # QP comes from QpProblem's one constructor, which keeps it read-only
    checked.clear()
    qp = assemble_projection_qp(prob, u, y, J, 0.01)
    assert checked == ["u", "y", "J"]
    assert len(post_inits) == 1 and post_inits[0] is qp
    assert not any(a.flags.writeable for a in (qp.Q, qp.c, qp.M, qp.r))


# a user metric's bad G(u), and the start of the error that names it
BAD_METRICS = [
    (lambda u: np.array([[1.0, 0.5], [0.0, 1.0]]), "must be symmetric"),
    (lambda u: np.array([[1.0, 0.0], [0.0, np.nan]]), "must be finite"),
    (lambda u: np.eye(3), "must be (2, 2), got (3, 3)"),
    (lambda u: np.ones(2), "must be (2, 2), got (2,)"),
]


@pytest.mark.parametrize("metric, message", BAD_METRICS,
                         ids=["asymmetric", "non_finite", "too_large", "vector"])
def test_bad_metric_is_named_by_every_entry(metric, message):
    message = re.escape(f"alpha * metric G(u) {message}")
    prob = dataclasses.replace(builtin_example(), metric=MetricField(eval=metric))
    u = np.array([0.3, -0.2])
    y, J = measure(prob, u)
    with pytest.raises(ValueError, match=message):
        feedback_step(prob, u, 0.01)
    with pytest.raises(ValueError, match=message):
        controller_step(prob, u, y, J, 0.01)
    with pytest.raises(ValueError, match=message):
        assemble_projection_qp(prob, u, y, J, 0.01)


def test_indefinite_metric_raises():
    prob = dataclasses.replace(builtin_example(),
                               metric=MetricField.constant(np.diag([1.0, -1.0])))
    with pytest.raises(NotPositiveDefinite):
        feedback_step(prob, np.array([0.3, -0.2]), 0.01)


def test_overflowing_step_size_raises():
    # alpha * G (or, with G = I, alpha * g) overflows to inf: the built QP
    # must not take it, and the overflow must not warn first (pytest makes
    # a RuntimeWarning an error)
    u = np.array([0.3, -0.2])
    for G, message in ((4.0 * np.eye(2), r"^alpha \* metric G\(u\) must be finite$"),
                       (np.eye(2), "^c must be finite$")):
        prob = dataclasses.replace(builtin_example(), metric=MetricField.constant(G))
        y, J = measure(prob, u)
        with pytest.raises(ValueError, match=message):
            feedback_step(prob, u, 1e308)
        with pytest.raises(ValueError, match=message):
            controller_step(prob, u, y, J, 1e308)
        with pytest.raises(ValueError, match=message):
            assemble_projection_qp(prob, u, y, J, 1e308)


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


def duplicate_bound_problem():
    """A 1-input problem that lists its bound ``u <= 1`` twice, so at
    ``u = 1`` the step QP's active rows are dependent."""
    plant = PlantModel(input_dim=1, output_dim=1,
                       eval=lambda u: np.array(u, dtype=float),
                       jacobian=lambda u: np.eye(1))
    obj = ObjectiveSpec(eval=lambda u, y: float((u[0] - 2.0) ** 2),
                        gradient=lambda u, y: np.array([2.0 * (u[0] - 2.0), 0.0]))
    return ProblemSpec(plant=plant, objective=obj,
                       input_set=Polyhedron(A=[[1.0], [1.0], [-1.0]], b=[1.0, 1.0, 1.0]),
                       output_set=Polyhedron.box([-5.0], [5.0]),
                       metric=MetricField.identity(1))


def test_step_qp_rank_flag_reports_licq():
    # the step QP's rank test is the one LICQ signal: dependent active rows
    # warn and set rank_deficient; two independent active rows do neither
    prob = duplicate_bound_problem()
    u = np.array([1.0])
    y, J = measure(prob, u)
    with pytest.warns(RankDeficientActiveSet):
        controller_step(prob, u, y, J, 0.01)
    qp = assemble_projection_qp(prob, u, y, J, 0.01)
    with pytest.warns(RankDeficientActiveSet):
        assert solve_qp(qp).rank_deficient
    prob = builtin_example()
    y, J = measure(prob, OPTIMUM)
    qp = assemble_projection_qp(prob, OPTIMUM, y, J, 0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RankDeficientActiveSet)
        sol = solve_qp(qp)
        controller_step(prob, OPTIMUM, y, J, 0.01)
    assert not sol.rank_deficient
    active = np.flatnonzero(np.abs(qp.M @ sol.w - qp.r) <= 1e-9 * qp.scale)
    assert active.size == 2


def test_rank_warning_names_the_solve_qp_caller_and_the_controller():
    # solve_qp's warning names the line that called it; a step's names
    # controller.py, whichever entry took the step (the estimator too)
    prob = duplicate_bound_problem()
    u = np.array([1.0])
    y, J = measure(prob, u)
    qp = assemble_projection_qp(prob, u, y, J, 0.01)
    in_controller = controller_module.__file__
    for call, filename in (
            (lambda: solve_qp(qp), __file__),
            (lambda: controller_step(prob, u, y, J, 0.01), in_controller),
            (lambda: feedback_step(prob, u, 0.01), in_controller),
            (lambda: certificates_module.estimate_multiplier_bound(
                prob, 0.01, u[None], [y], [J], [np.eye(1)]), in_controller)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert [(w.category, w.filename) for w in caught] == [
            (RankDeficientActiveSet, filename)]


def synthetic_p12(monkeypatch):
    """Problem 0 of seed 1 of perfbench's 12-input family, and its start."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    synthetic = importlib.import_module("synthetic")
    data = synthetic.generate(1, 0)
    return synthetic.build(data, "synthetic_p12"), data.start


# (problem and input, alpha, the solve's working set, iterations and rank
# flag), one case per path of the solver
SOLVER_PATHS = {
    "free": (lambda mp: (builtin_example(), np.zeros(2)), 0.01, ((), 1, False)),
    "one_row_start": (lambda mp: (builtin_example(), np.array([0.0, 1.0])), 0.01,
                      ((1,), 2, False)),
    # the start {1} is dual feasible but violates row 5; the guess grows by it
    "vertex_continued_start": (lambda mp: (builtin_example(), OPTIMUM), 0.01,
                               ((1, 5), 3, False)),
    "p12_two_row_start": (synthetic_p12, 0.1, ((28, 33), 3, False)),
    "p12_six_row_loop": (synthetic_p12, 1.0, ((25, 26, 28, 29, 30, 33), 7, False)),
    "rank_deficient": (lambda mp: (duplicate_bound_problem(), np.array([1.0])), 0.01,
                       ((0,), 2, True)),
}


@pytest.mark.parametrize("make, alpha, path", SOLVER_PATHS.values(), ids=SOLVER_PATHS.keys())
def test_step_equals_solve_of_assembled_qp_on_every_solver_path(monkeypatch, make, alpha, path):
    # the step hands its QP's arrays to the solver core: the bits must be
    # solve_qp's on the QP that assemble_projection_qp builds
    prob, u = make(monkeypatch)
    y, J = measure(prob, u)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = solve_qp(assemble_projection_qp(prob, u, y, J, alpha))
        st = controller_step(prob, u, y, J, alpha)
    assert (sol.active, sol.iterations, sol.rank_deficient) == path
    assert len(caught) == 2 * sol.rank_deficient
    q = prob.input_set.num_rows
    assert np.array_equal(st.w, sol.w)
    assert np.array_equal(st.nu, sol.multipliers[:q])
    assert np.array_equal(st.mu, sol.multipliers[q:])
    # still a frozen ControllerStep, equal to one its constructor builds
    assert type(st) is ControllerStep
    with pytest.raises(dataclasses.FrozenInstanceError):
        st.w = sol.w
    ref = ControllerStep(**{f.name: getattr(st, f.name)
                            for f in dataclasses.fields(ControllerStep)})
    assert st == ref and vars(st).keys() == vars(ref).keys()


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


def test_kkt_point_residual_checks_multipliers():
    # a 3-entry mu used to fail inside matmul, naming neither argument, and a
    # NaN multiplier gave a NaN residual
    prob = builtin_example()
    nu, mu = np.zeros(4), np.zeros(2)
    for bad_nu, bad_mu, message in ((nu, np.zeros(3), "mu must have length 2"),
                                    (np.zeros(2), mu, "nu must have length 4"),
                                    ([np.nan, 0, 0, 0], mu, "nu must be finite"),
                                    (nu, [0.0, np.nan], "mu must be finite")):
        with pytest.raises(ValueError, match=message):
            kkt_point_residual(prob, OPTIMUM, bad_nu, bad_mu)


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
    st = controller_step(prob, u, *measure(prob, u), alpha=1e-10)
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
