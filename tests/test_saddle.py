import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fbopt import (
    MetricField,
    ObjectiveSpec,
    PlantModel,
    Polyhedron,
    ProblemSpec,
    RunStatus,
    SaddlePointState,
    ScenarioConfig,
    augmented_lagrangian_gradients,
    builtin_example,
    eval_plant,
    eval_plant_jacobian,
    project_polyhedron,
    register_problem,
    run_trajectory,
    saddle_point_step,
)

OPTIMUM = np.array([-0.5, 1.0])
OPT_MU = np.array([0.0, 0.5])


def measure(prob, u):
    """The output and the sensitivity of the plant at ``u``."""
    return eval_plant(prob.plant, u), eval_plant_jacobian(prob.plant, u)


def test_dual_gradient_is_constraint_residual():
    prob = builtin_example()
    for rho in (0.0, 7.0):
        _, grad_mu = augmented_lagrangian_gradients(
            prob, [0.0, 0.0], [0.0, 0.0], rho, *measure(prob, [0.0, 0.0]))
        assert_allclose(grad_mu, [-0.5, -0.5])


def test_primal_gradient_reduces_to_cost_gradient():
    prob = builtin_example()
    grad_u, _ = augmented_lagrangian_gradients(
        prob, [0.0, 0.0], [0.0, 0.0], 0.0, *measure(prob, [0.0, 0.0]))
    assert_allclose(grad_u, [1.0, -4.0])


def test_step_from_origin():
    prob = builtin_example()
    state = SaddlePointState(u=np.zeros(2), mu=np.zeros(2),
                             alpha=0.01, gamma=0.5, rho=1.0)
    nxt = saddle_point_step(prob, state, *measure(prob, state.u))
    assert_allclose(nxt.u, [-0.01, 0.04], atol=1e-14)
    assert_allclose(nxt.mu, [0.0, 0.0])  # both output rows slack at the start


def test_optimal_pair_is_fixed_point():
    prob = builtin_example()
    state = SaddlePointState(u=OPTIMUM, mu=OPT_MU, alpha=0.01, gamma=0.5, rho=0.0)
    nxt = saddle_point_step(prob, state, *measure(prob, state.u))
    assert_allclose(nxt.u, OPTIMUM, atol=1e-12)
    assert_allclose(nxt.mu, OPT_MU, atol=1e-12)


def test_residual_positive_away_from_saddle():
    prob = builtin_example()
    state = SaddlePointState(u=np.zeros(2), mu=np.zeros(2),
                             alpha=0.01, gamma=0.5, rho=1.0)
    nxt = saddle_point_step(prob, state, *measure(prob, state.u))
    displacement = (np.linalg.norm(nxt.u - state.u) / state.alpha
                    + np.linalg.norm(nxt.mu - state.mu) / state.gamma)
    assert displacement > 1.0


def test_dual_iterates_stay_nonnegative():
    prob = builtin_example()
    rng = np.random.default_rng(17)
    for _ in range(20):
        state = SaddlePointState(u=rng.uniform(-1.0, 1.0, size=2),
                                 mu=rng.uniform(0.0, 2.0, size=2),
                                 alpha=0.01, gamma=float(rng.uniform(0.1, 5.0)),
                                 rho=float(rng.uniform(0.0, 10.0)))
        for _ in range(5):
            state = saddle_point_step(prob, state, *measure(prob, state.u))
            assert np.all(state.mu >= 0.0)
            assert prob.input_set.membership(state.u, tol=1e-12)


def test_project_box_clamps():
    box = Polyhedron.box([-1.0, -1.0], [1.0, 1.0])
    assert_allclose(project_polyhedron(box, [2.0, 0.5]), [1.0, 0.5])


def test_project_interior_point_unchanged():
    box = Polyhedron.box([-1.0, -1.0], [1.0, 1.0])
    x = np.array([0.3, -0.4])
    assert np.array_equal(project_polyhedron(box, x), x)


def test_project_halfspace():
    half = Polyhedron(A=[[1.0, 0.0]], b=[0.0])
    assert_allclose(project_polyhedron(half, [1.0, 1.0]), [0.0, 1.0], atol=1e-10)


def test_project_idempotent():
    box = Polyhedron.box([-1.0, 0.0], [1.0, 2.0])
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = rng.uniform(-3.0, 3.0, size=2)
        once = project_polyhedron(box, x)
        assert_allclose(project_polyhedron(box, once), once, atol=1e-12)


def test_project_clamp_agrees_with_qp_route():
    lo, hi = np.array([-1.0, -2.0]), np.array([1.0, 0.5])
    box = Polyhedron.box(lo, hi)
    # same rows, but without the box tag: forces the general QP path
    rows = Polyhedron(A=box.A, b=box.b)
    assert not rows.is_box
    rng = np.random.default_rng(23)
    for _ in range(30):
        x = rng.uniform(-4.0, 4.0, size=2)
        assert np.linalg.norm(project_polyhedron(box, x)
                              - project_polyhedron(rows, x)) <= 1e-10


def test_projection_of_replaced_box_stays_in_its_rows():
    # the projection follows the rows, not the bounds of the original box
    moved = dataclasses.replace(Polyhedron.box([-1.0], [1.0]), b=[0.5, 0.5])
    z = project_polyhedron(moved, [0.9])
    assert moved.membership(z, tol=1e-12)
    assert_allclose(z, [0.5], atol=1e-10)


@pytest.mark.parametrize("x, message", [([np.nan, 0.0], "x must be finite"),
                                        ([0.5], "x must have length 2, got 1")],
                         ids=["nan", "wrong_length"])
def test_projection_checks_its_point_on_both_paths(x, message):
    # the box clamp used to return [nan, 0.] where the triangle's QP raised
    # "c must be finite", and a wrong length had a message of its own
    box = Polyhedron.box([0.0, 0.0], [1.0, 1.0])
    triangle = Polyhedron(A=[[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], b=[1.0, 0.0, 0.0])
    for set_ in (box, triangle):
        with pytest.raises(ValueError, match=message):
            project_polyhedron(set_, x)


def test_projection_nonexpansive():
    box = Polyhedron.box([-1.0, -1.0], [1.0, 1.0])
    rng = np.random.default_rng(31)
    for _ in range(50):
        x, z = rng.uniform(-3.0, 3.0, size=(2, 2))
        px, pz = project_polyhedron(box, x), project_polyhedron(box, z)
        assert np.linalg.norm(px - pz) <= np.linalg.norm(x - z) + 1e-12


def test_state_validation():
    good = dict(u=np.zeros(2), mu=np.zeros(2), alpha=0.01, gamma=0.5, rho=1.0)
    messages = {"mu": "multipliers must be nonnegative",
                "alpha": "alpha must be positive and finite",
                "gamma": "gamma must be positive and finite",
                "rho": "rho must be nonnegative and finite"}
    for key, bad in (("mu", np.array([-0.1, 0.0])), ("alpha", 0.0),
                     ("gamma", -1.0), ("rho", -0.5), ("alpha", np.nan),
                     ("gamma", np.nan), ("rho", np.nan), ("alpha", np.inf),
                     ("gamma", np.inf), ("rho", np.inf)):
        kwargs = dict(good)
        kwargs[key] = bad
        with pytest.raises(ValueError, match=messages[key]):
            SaddlePointState(**kwargs)
    SaddlePointState(**{**good, "rho": 0.0})  # rho = 0, no penalty, is allowed


def test_state_accepts_huge_finite_entries_only():
    # u.u and mu.mu overflow here, so a bare sum-of-squares test would fail
    state = SaddlePointState(u=[1e200, -1e200], mu=[1e200, 0.0],
                             alpha=0.01, gamma=0.5, rho=1.0)
    assert np.array_equal(state.u, [1e200, -1e200])
    assert np.array_equal(state.mu, [1e200, 0.0])
    for bad in (np.nan, np.inf, -np.inf):
        for key, value in (("u", [1e200, bad]), ("mu", [0.0, abs(bad)])):
            kwargs = dict(u=np.zeros(2), mu=np.zeros(2), alpha=0.01, gamma=0.5, rho=1.0)
            kwargs[key] = value
            with pytest.raises(ValueError, match="^state contains non-finite entries$"):
                SaddlePointState(**kwargs)


@pytest.mark.parametrize("scheme, extra", [("projected", {}),
                                           ("saddle", dict(gamma=0.5, rho=1.0))])
def test_steps_make_no_elementwise_finiteness_test(monkeypatch, scheme, extra):
    # on finite data every check of a row is decided by one sum of squares
    prob = builtin_example()
    name = f"cubic2d.prebuilt.{scheme}"
    register_problem(name, lambda: prob)  # built before the spy is set
    calls = []
    isfinite = np.isfinite

    def counted(*args, **kwargs):
        calls.append(args)
        return isfinite(*args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counted)
    assert not np.isfinite(np.array([np.inf])).all() and len(calls) == 1  # the spy works
    del calls[:]
    log = run_trajectory(ScenarioConfig(problem_name=name, scheme=scheme, alpha=0.01,
                                        u0=np.array([1.0, 1.0]), max_iters=50, **extra))
    assert log.num_rows == 51
    assert calls == []


def test_step_rejects_malformed_input_or_output():
    prob = builtin_example()
    good = dict(u=np.zeros(2), mu=np.zeros(2), alpha=0.01, gamma=0.5, rho=1.0)
    y, J = measure(prob, good["u"])
    for bad_u in (np.zeros(3), np.zeros(1), np.array([np.nan, 0.0]),
                  np.array([0.0, np.inf])):
        with pytest.raises(ValueError):
            saddle_point_step(prob, SaddlePointState(**{**good, "u": bad_u}), y, J)
    state = SaddlePointState(**good)
    for bad_y in (np.zeros(2), np.zeros(0), np.array([np.nan]), np.array([np.inf])):
        with pytest.raises(ValueError):
            saddle_point_step(prob, state, bad_y, J)
    # the messages of eval_plant_jacobian (cubic2d's J is 1 x 2)
    for bad_J, message in ((np.zeros((2, 2)), "jacobian shape"),
                           (np.zeros((1, 3)), "jacobian shape"),
                           (np.array([[np.nan, 0.0]]), "jacobian must be finite"),
                           (np.array([[0.0, -np.inf]]), "jacobian must be finite")):
        with pytest.raises(ValueError, match=message):
            saddle_point_step(prob, state, y, bad_J)


def test_step_rejects_multipliers_of_wrong_length():
    # a single multiplier used to broadcast over both output rows
    prob = builtin_example()
    y, J = measure(prob, np.zeros(2))
    for mu in (np.zeros(1), np.zeros(3)):
        state = SaddlePointState(u=np.zeros(2), mu=mu, alpha=0.01, gamma=0.5, rho=1.0)
        with pytest.raises(ValueError, match="multipliers"):
            saddle_point_step(prob, state, y, J)


def test_step_uses_the_given_sensitivity():
    # a mismatched J goes straight into the step, as for controller_step
    prob = builtin_example()
    C, d = prob.output_set.A, prob.output_set.b
    rng = np.random.default_rng(53)
    for _ in range(20):
        state = SaddlePointState(u=rng.uniform(-1.0, 1.0, size=2),
                                 mu=rng.uniform(0.0, 2.0, size=2),
                                 alpha=0.01, gamma=0.5, rho=1.0)
        y, J = measure(prob, state.u)
        JE = J + 0.1 * rng.normal(size=J.shape)
        resid = C @ y - d
        g = prob.objective.gradient(state.u, y)
        grad_u = (g[:2] + g[2:] @ JE
                  + (state.mu + state.rho * np.maximum(resid, 0.0)) @ (C @ JE))
        nxt = saddle_point_step(prob, state, y, JE)
        assert np.array_equal(nxt.u, project_polyhedron(
            prob.input_set, state.u - state.alpha * grad_u))
        assert np.array_equal(nxt.mu, np.maximum(state.mu + state.gamma * resid, 0.0))
        assert not np.array_equal(nxt.u, saddle_point_step(prob, state, y, J).u)


def test_step_builds_next_state_without_the_constructor(monkeypatch):
    post_inits = []
    post_init = SaddlePointState.__post_init__

    def counted_post_init(self):
        post_inits.append(self)
        post_init(self)

    monkeypatch.setattr(SaddlePointState, "__post_init__", counted_post_init)
    prob = builtin_example()
    state = SaddlePointState(u=np.zeros(2), mu=np.zeros(2),
                             alpha=0.01, gamma=0.5, rho=1.0)
    assert len(post_inits) == 1  # the spy works
    for _ in range(5):
        state = saddle_point_step(prob, state, *measure(prob, state.u))
    assert len(post_inits) == 1
    assert (state.alpha, state.gamma, state.rho) == (0.01, 0.5, 1.0)


def test_stepped_state_holds_read_only_arrays():
    prob = builtin_example()
    state = SaddlePointState(u=np.zeros(2), mu=np.zeros(2),
                             alpha=0.01, gamma=0.5, rho=1.0)
    nxt = saddle_point_step(prob, state, *measure(prob, state.u))
    for a in (state.u, state.mu, nxt.u, nxt.mu):
        assert a.dtype == float and a.ndim == 1 and not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0


def steep_problem():
    """y = 1e9 u on u in [-1, 1], output set y <= 0: a huge residual."""
    plant = PlantModel(input_dim=1, output_dim=1,
                       eval=lambda u: 1e9 * np.asarray(u, dtype=float),
                       jacobian=lambda u: np.array([[1e9]]))
    obj = ObjectiveSpec(eval=lambda u, y: float(u[0] ** 2),
                        gradient=lambda u, y: np.array([2.0 * u[0], 0.0]))
    return ProblemSpec(plant=plant, objective=obj,
                       input_set=Polyhedron.box([-1.0], [1.0]),
                       output_set=Polyhedron(A=[[1.0]], b=[0.0]),
                       metric=MetricField.identity(1), name="steep1d")


def test_overflowing_dual_step_is_rejected():
    # mu + gamma * (C y - d) = 1e300 * 5e8 overflows: the stepped state is
    # checked for finiteness as the public constructor would check it
    prob = steep_problem()
    state = SaddlePointState(u=[0.5], mu=[0.0], alpha=0.01, gamma=1e300, rho=1.0)
    with np.errstate(over="ignore"), \
            pytest.raises(ValueError, match="state contains non-finite entries"):
        saddle_point_step(prob, state, *measure(prob, state.u))
    try:
        register_problem("steep1d", steep_problem)
    except ValueError:
        pass  # registered by an earlier run in this session
    with np.errstate(over="ignore"):
        log = run_trajectory(ScenarioConfig(problem_name="steep1d", scheme="saddle",
                                            alpha=0.01, gamma=1e300, rho=1.0,
                                            u0=[0.5], max_iters=10))
    assert log.status is RunStatus.ERROR
    assert log.message == "ValueError: state contains non-finite entries"
    assert log.num_rows == 1 and np.isnan(log.residual[0])
