import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import fbopt.certificates as certificates_module
import fbopt.controller as controller_module
import fbopt.harness as harness_module
import fbopt.model as model_module
import fbopt.saddle as saddle_module
from fbopt import (
    CertificateConstants,
    MetricField,
    ObjectiveSpec,
    PlantModel,
    Polyhedron,
    ProblemSpec,
    RunStatus,
    SaddlePointState,
    SamplerSpec,
    ScenarioConfig,
    TrajectoryLog,
    augmented_lagrangian_gradients,
    builtin_example,
    estimate_constants,
    eval_plant,
    eval_plant_jacobian,
    feedback_step,
    finite_difference_check,
    get_problem,
    load_scenario,
    lyapunov_value,
    project_polyhedron,
    read_csv,
    register_problem,
    run_trajectory,
    sample_input_set,
    sweep,
    violation,
    write_csv,
)
from fbopt.cli import main as cli_main

BASE = dict(problem_name="cubic2d", scheme="projected", alpha=0.01,
            u0=np.array([0.0, 0.0]))


def make_config(**overrides):
    kwargs = dict(BASE)
    kwargs.update(overrides)
    return ScenarioConfig(**kwargs)


@pytest.fixture(scope="module")
def clashing_problem():
    # output rows demand y <= -2 and y >= 2: every linearization is empty
    plant = PlantModel(input_dim=1, output_dim=1,
                       eval=lambda u: np.array(u, dtype=float),
                       jacobian=lambda u: np.eye(1))
    obj = ObjectiveSpec(eval=lambda u, y: float(u[0] ** 2),
                        gradient=lambda u, y: np.array([2.0 * u[0], 0.0]))
    prob = ProblemSpec(plant=plant, objective=obj,
                       input_set=Polyhedron.box([-1.0], [1.0]),
                       output_set=Polyhedron(A=[[1.0], [-1.0]], b=[-2.0, -2.0]),
                       metric=MetricField.identity(1), name="clash1d")
    try:
        register_problem("clash1d", lambda: prob)
    except ValueError:
        pass  # already registered by an earlier test module
    return prob


def write_scenario(path, **overrides):
    fields = {"problem_name": "cubic2d", "scheme": "projected", "alpha": "0.01",
              "u0": "0.0, 0.0", "max_iters": "2000", "stationarity_tol": "1e-6"}
    fields.update({k: str(v) for k, v in overrides.items()})
    lines = ["# scenario"] + [f"{k} = {v}" for k, v in fields.items() if v != ""]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# concrete starts that load_scenario passes on and run_trajectory rejects
BAD_STARTS = [("2.0, 0.0", "u0 is outside the input set"),
              ("0.0", "u0 has size 1, problem needs 2")]


# ----------------------------------------------------------- configuration

def test_config_validation():
    with pytest.raises(ValueError):
        make_config(scheme="newton")
    with pytest.raises(ValueError):
        make_config(alpha=0.0)
    # max_iters feeds range(): anything but an integer >= 0 is rejected
    for max_iters in (-1, 2.5, np.nan, True):
        with pytest.raises(ValueError, match="max_iters must be an integer >= 0"):
            make_config(max_iters=max_iters)
    assert make_config(max_iters=np.int64(3)).max_iters == 3
    with pytest.raises(ValueError):
        make_config(stationarity_tol=0.0)
    with pytest.raises(ValueError):
        make_config(gamma=0.5)  # saddle knobs on the projected scheme
    with pytest.raises(ValueError):
        make_config(scheme="saddle", gamma=0.5)  # rho missing
    with pytest.raises(ValueError):
        make_config(u0=np.array([np.nan, 0.0]))
    # a NaN fails every comparison, so it must not pass as positive
    for overrides in (dict(alpha=np.nan), dict(stationarity_tol=np.nan),
                      dict(scheme="saddle", gamma=np.nan, rho=1.0),
                      dict(scheme="saddle", gamma=0.5, rho=np.nan)):
        with pytest.raises(ValueError):
            make_config(**overrides)
    # an infinite step size passed as positive: a saddle run with gamma=inf
    # read a zero dual residual and ran silently to its budget
    for overrides, message in ((dict(alpha=np.inf), "alpha must be positive and finite"),
                               (dict(scheme="saddle", gamma=np.inf, rho=1.0), "gamma"),
                               (dict(scheme="saddle", gamma=0.5, rho=np.inf), "rho"),
                               # every residual is below inf: a run would
                               # report Converged at row 0
                               (dict(stationarity_tol=np.inf), "stationarity_tol")):
        with pytest.raises(ValueError, match=message):
            make_config(**overrides)


def test_config_u0_stored_read_only():
    config = make_config()
    with pytest.raises(ValueError):
        config.u0[0] = 1.0


def test_run_status_labels_stable():
    assert RunStatus.CONVERGED.value == "Converged"
    assert RunStatus.ITER_BUDGET.value == "IterBudget"
    assert RunStatus.CERTIFICATE_VIOLATED.value == "CertificateViolated"
    assert RunStatus.ERROR.value == "Error"


def test_input_grid_counts():
    prob = builtin_example()
    pts = sample_input_set(prob.input_set, SamplerSpec(count=5))
    assert len(pts) == 25
    for u in pts:
        assert prob.input_set.membership(u)


# -------------------------------------------------------------- scenarios

def test_load_scenario_round_trip(tmp_path):
    path = write_scenario(tmp_path / "s.txt", max_iters="500")
    config = load_scenario(path)
    assert config.problem_name == "cubic2d"
    assert config.scheme == "projected"
    assert config.alpha == 0.01
    assert config.max_iters == 500
    assert_allclose(config.u0, [0.0, 0.0])


def test_load_scenario_grid_start(tmp_path):
    path = write_scenario(tmp_path / "s.txt", u0="grid:5")
    config = load_scenario(path)
    assert config.u0 == SamplerSpec(count=5)


def test_load_scenario_saddle_fields(tmp_path):
    path = write_scenario(tmp_path / "s.txt", scheme="saddle",
                          gamma="0.5", rho="1.0")
    config = load_scenario(path)
    assert config.gamma == 0.5
    assert config.rho == 1.0


# a run draws no random numbers, so a seed would be read and ignored; the
# output directory is the CLI's --out
@pytest.mark.parametrize("key, value", [("seed", "3"), ("output_dir", "x")])
def test_load_scenario_rejects_seed(tmp_path, key, value):
    path = write_scenario(tmp_path / "s.txt", **{key: value})
    with pytest.raises(ValueError, match=f"unknown key '{key}'"):
        load_scenario(path)


def test_load_scenario_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("problem_name = cubic2d\nscheme = projected\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_scenario(bad)  # missing alpha and u0
    bad.write_text("problem_name = cubic2d\nnot a key value line\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_scenario(bad)
    write_scenario(bad, turbo="on")
    with pytest.raises(ValueError):
        load_scenario(bad)  # unknown key
    for u0, message in BAD_STARTS:
        write_scenario(bad, u0=u0)
        config = load_scenario(bad)
        with pytest.raises(ValueError, match=message):
            run_trajectory(config)
    write_scenario(bad, u0="grid:1")
    with pytest.raises(ValueError, match="count must be an integer >= 2"):
        load_scenario(bad)  # a one-point grid
    # a value its converter rejects names the file, the line and the key
    for key, value, lineno, message in [
            ("alpha", "abc", 4, "could not convert string to float: 'abc'"),
            ("u0", "grid:2.5", 5, "invalid literal for int() with base 10: '2.5'"),
            ("u0", "0, x", 5, "could not convert string to float: ' x'")]:
        write_scenario(bad, **{key: value})
        with pytest.raises(ValueError) as err:
            load_scenario(bad)
        assert str(err.value) == f"{bad}:{lineno}: {key}: {message}"
    write_scenario(bad, problem_name="unknownproblem")
    with pytest.raises(KeyError):
        load_scenario(bad)


# ------------------------------------------------------------------- runs

def test_projected_run_converges_to_optimum():
    log = run_trajectory(make_config(max_iters=2000, stationarity_tol=1e-6))
    assert log.status is RunStatus.CONVERGED
    assert_allclose(log.u[-1], [-0.5, 1.0], atol=1e-5)
    assert log.residual[-1] <= 1e-6
    assert log.num_rows <= 2001


def test_converged_iff_final_residual_below_tol():
    for max_iters, tol in ((2000, 1e-6), (30, 1e-6), (0, 1e-6), (2000, 1e-13)):
        log = run_trajectory(make_config(max_iters=max_iters,
                                         stationarity_tol=tol))
        assert (log.status is RunStatus.CONVERGED) == (log.residual[-1] <= tol)
        assert log.num_rows <= max_iters + 1


def test_zero_budget_logs_single_row():
    log = run_trajectory(make_config(max_iters=0))
    assert log.num_rows == 1
    assert log.status is RunStatus.ITER_BUDGET
    assert_allclose(log.residual[0], np.sqrt(17.0), rtol=1e-9)


def test_run_rejects_grid_start():
    config = make_config(u0=SamplerSpec(count=3))
    with pytest.raises(ValueError):
        run_trajectory(config)


def test_run_rejects_infeasible_start():
    with pytest.raises(ValueError):
        run_trajectory(make_config(u0=np.array([1.5, 0.0])))


def test_run_is_deterministic():
    a = run_trajectory(make_config(max_iters=500, stationarity_tol=1e-6))
    b = run_trajectory(make_config(max_iters=500, stationarity_tol=1e-6))
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.V, b.V)
    assert np.array_equal(a.residual, b.residual)
    assert np.array_equal(a.mu, b.mu)


def test_error_status_records_failure(clashing_problem):
    log = run_trajectory(ScenarioConfig(problem_name="clash1d",
                                        scheme="projected", alpha=0.01,
                                        u0=np.zeros(1), max_iters=10))
    assert log.status is RunStatus.ERROR
    assert log.num_rows == 1
    assert np.isnan(log.residual[0])
    assert np.all(np.isnan(log.mu[0]))
    assert "LinearizedSetEmpty" in log.message


def test_certified_run_keeps_merit_monotone():
    prob = builtin_example()
    constants = estimate_constants(prob, 0.01)
    alpha = 0.9 * constants.step_size_bound
    log = run_trajectory(make_config(alpha=alpha, u0=np.array([0.8, -0.6]),
                                     stationarity_tol=1e-6), constants)
    assert log.status is RunStatus.CONVERGED
    assert not log.certificate_violated
    dV = np.diff(log.V)
    assert np.all(dV <= 1e-12 * (1.0 + np.abs(log.V[:-1])))


def test_saddle_run_converges_with_small_dual_rate():
    log = run_trajectory(make_config(scheme="saddle", gamma=0.5, rho=1.0,
                                     max_iters=5000, stationarity_tol=1e-6))
    assert log.status is RunStatus.CONVERGED
    assert_allclose(log.u[-1], [-0.5, 1.0], atol=1e-4)
    assert np.all(log.mu >= 0.0)


def test_saddle_run_diverges_with_large_dual_rate():
    log = run_trajectory(make_config(scheme="saddle", gamma=5.0, rho=1.0,
                                     max_iters=3000, stationarity_tol=1e-6))
    assert log.status is RunStatus.ITER_BUDGET


class CountedCubic2d:
    """cubic2d registered under ``name`` with its plant's ``eval`` and
    ``jacobian`` calls counted; with ``fail_after`` set, every plant call
    after that many raises."""

    def __init__(self, name, fail_after=None):
        self.name = name
        self.fail_after = fail_after
        self.calls = {"eval": 0, "jacobian": 0}
        self.failed = []  # numbers of the plant calls that raised
        register_problem(name, self.problem)

    def problem(self):
        prob = get_problem("cubic2d")
        plant = prob.plant
        return dataclasses.replace(prob, plant=dataclasses.replace(
            plant, eval=self._counted("eval", plant.eval),
            jacobian=self._counted("jacobian", plant.jacobian)))

    def _counted(self, kind, fn):
        def call(u):
            self.calls[kind] += 1
            n = sum(self.calls.values())
            if self.fail_after is not None and n > self.fail_after:
                self.failed.append(n)
                raise RuntimeError(f"plant offline (call {n})")
            return fn(u)
        return call


def test_feedback_step_measures_plant_once():
    plant = CountedCubic2d("counted.feedback_step")
    feedback_step(get_problem(plant.name), np.array([1.0, 1.0]), 0.01)
    assert plant.calls == {"eval": 1, "jacobian": 1}


@pytest.mark.parametrize("alpha", [np.nan, 0.0, -1.0, np.inf])
def test_feedback_step_rejects_bad_alpha_before_measuring(alpha):
    plant = CountedCubic2d(f"counted.bad_alpha.{alpha}")
    with pytest.raises(ValueError, match="alpha must be positive"):
        feedback_step(get_problem(plant.name), np.zeros(2), alpha)
    assert plant.calls == {"eval": 0, "jacobian": 0}


def test_feedback_step_evaluates_metric_once():
    prob = builtin_example()
    calls = []

    def metric(u):
        calls.append(u)
        return np.eye(2)

    feedback_step(dataclasses.replace(prob, metric=MetricField(eval=metric)),
                  np.array([1.0, 1.0]), 0.01)
    assert len(calls) == 1


def test_certified_run_measures_plant_once_per_row():
    constants = estimate_constants(builtin_example(), 0.01)
    plant = CountedCubic2d("counted.certified")
    log = run_trajectory(make_config(problem_name=plant.name,
                                     alpha=0.9 * constants.step_size_bound,
                                     u0=np.array([1.0, 1.0]),
                                     stationarity_tol=1e-6), constants)
    assert log.status is RunStatus.CONVERGED
    assert plant.calls == {"eval": log.num_rows, "jacobian": log.num_rows}


def test_saddle_run_measures_plant_once_per_row():
    plant = CountedCubic2d("counted.saddle")
    log = run_trajectory(make_config(problem_name=plant.name, scheme="saddle",
                                     gamma=0.5, rho=1.0, max_iters=5000,
                                     stationarity_tol=1e-6))
    assert log.status is RunStatus.CONVERGED
    assert plant.calls == {"eval": log.num_rows, "jacobian": log.num_rows}


@pytest.mark.parametrize("scheme, extra", [("projected", {}),
                                           ("saddle", dict(gamma=0.5, rho=1.0))])
def test_plant_that_stays_down_ends_run_with_error(scheme, extra):
    plant = CountedCubic2d(f"offline.{scheme}", fail_after=40)
    log = run_trajectory(make_config(problem_name=plant.name, scheme=scheme,
                                     max_iters=1000, **extra))
    assert log.status is RunStatus.ERROR
    assert len(plant.failed) == 2  # the step's measurement and the re-measurement
    assert log.message == f"RuntimeError: plant offline (call {plant.failed[0]})"
    assert log.num_rows > 1
    assert np.all(np.isfinite(log.y[:-1])) and np.all(np.isfinite(log.V[:-1]))
    for column in (log.y[-1], log.V[-1], log.max_violation[-1], log.residual[-1]):
        assert np.all(np.isnan(column))


def _nan_below(u1):
    """cubic2d whose plant returns NaN for u1 <= ``u1``."""
    prob = get_problem("cubic2d")
    h = prob.plant.eval
    plant = dataclasses.replace(
        prob.plant, eval=lambda u: np.array([np.nan]) if u[0] <= u1 else h(u))
    return dataclasses.replace(prob, plant=plant)


@pytest.mark.parametrize("scheme, extra", [("projected", {}),
                                           ("saddle", dict(gamma=0.5, rho=1.0))])
def test_non_finite_plant_output_ends_run_with_error(scheme, extra):
    name = f"nan_plant.{scheme}"
    register_problem(name, lambda: _nan_below(-0.05))
    log = run_trajectory(make_config(problem_name=name, scheme=scheme,
                                     alpha=0.01, u0=np.array([0.0, 0.0]),
                                     max_iters=5000, **extra))
    assert log.status is RunStatus.ERROR
    assert log.message.startswith("ValueError: plant output")
    assert log.num_rows > 1
    assert log.u[-1, 0] <= -0.05
    assert np.all(np.isfinite(log.y[:-1])) and np.all(np.isfinite(log.V[:-1]))
    for column in (log.y[-1], log.V[-1], log.max_violation[-1], log.residual[-1]):
        assert np.all(np.isnan(column))


def _nan_model_below(part, u1):
    """cubic2d whose plant Jacobian or objective gradient is NaN for u1 <=
    ``u1``."""
    prob = get_problem("cubic2d")
    if part == "jacobian":
        J = prob.plant.jacobian
        return dataclasses.replace(prob, plant=dataclasses.replace(
            prob.plant, jacobian=lambda u: np.full((1, 2), np.nan) if u[0] <= u1 else J(u)))
    g = prob.objective.gradient
    return dataclasses.replace(prob, objective=dataclasses.replace(
        prob.objective,
        gradient=lambda u, y: np.full(3, np.nan) if u[0] <= u1 else g(u, y)))


@pytest.mark.parametrize("part, message", [
    ("jacobian", "ValueError: plant jacobian must be finite"),
    ("gradient", "ValueError: objective gradient must be finite")])
@pytest.mark.parametrize("scheme, extra", [("projected", {}),
                                           ("saddle", dict(gamma=0.5, rho=1.0))])
def test_non_finite_model_data_ends_run_with_error(part, message, scheme, extra):
    # reported as what it is, not as an empty linearized set or a bad state
    name = f"nan_{part}.{scheme}"
    register_problem(name, lambda: _nan_model_below(part, -0.05))
    log = run_trajectory(make_config(problem_name=name, scheme=scheme,
                                     alpha=0.01, u0=np.array([0.0, 0.0]),
                                     max_iters=5000, **extra))
    assert log.status is RunStatus.ERROR
    assert log.message.startswith(message)
    assert f"at u={log.u[-1].tolist()}" in log.message
    assert log.num_rows > 1
    assert log.u[-1, 0] <= -0.05
    assert np.all(np.isfinite(log.y)) and np.isnan(log.residual[-1])


def test_transient_bound_breach_is_flagged():
    # zero output Lipschitz constants make any overshoot of the output set a
    # breach of the transient bound, while the merit still decreases
    c = estimate_constants(builtin_example(), 0.01)
    constants = CertificateConstants(grad_lipschitz=c.grad_lipschitz,
                                     output_lipschitz=[0.0, 0.0],
                                     multiplier_bound=c.multiplier_bound,
                                     metric_floor=c.metric_floor)
    assert 0.04 < constants.step_size_bound
    for max_iters, status in ((1, RunStatus.CERTIFICATE_VIOLATED),
                              (100_000, RunStatus.CONVERGED)):
        log = run_trajectory(make_config(alpha=0.04, u0=np.array([1.0, 1.0]),
                                         max_iters=max_iters), constants)
        assert log.status is status
        assert log.certificate_violated
        V = log.V
        assert np.all(V[1:] <= V[:-1] + 1e-12 * (1.0 + np.abs(V[:-1])))


@pytest.mark.parametrize("ell", [[6.0], [6.0, 6.0, 6.0]])
def test_constants_must_fit_the_output_rows(monkeypatch, ell):
    # one entry used to broadcast over cubic2d's two output rows, three to
    # raise numpy's broadcast error after row 0, outside the step's try
    c = estimate_constants(builtin_example(), 0.01)
    constants = CertificateConstants(grad_lipschitz=c.grad_lipschitz,
                                     output_lipschitz=ell,
                                     multiplier_bound=c.multiplier_bound,
                                     metric_floor=c.metric_floor)
    steps = []
    monkeypatch.setattr(harness_module, "feedback_step",
                        lambda *args: steps.append(args))
    message = f"output_lipschitz has {len(ell)} entries, the problem has 2 output rows"
    with pytest.raises(ValueError, match=message):
        run_trajectory(make_config(alpha=0.01, u0=np.array([1.0, 1.0])), constants)
    assert steps == []


def hand_saddle_log(config):
    """The saddle run of ``config`` rebuilt from the public functions: each
    state through the public constructor, the residual by np.linalg.norm."""
    prob = get_problem(config.problem_name)
    s = SaddlePointState(u=config.u0, mu=np.zeros(prob.output_set.num_rows),
                         alpha=config.alpha, gamma=config.gamma, rho=config.rho)
    cols = {k: [] for k in ("u", "y", "V", "residual", "max_violation", "mu")}
    for k in range(config.max_iters + 1):
        y = eval_plant(prob.plant, s.u)
        grad_u, grad_mu = augmented_lagrangian_gradients(
            prob, s.u, s.mu, s.rho, y, eval_plant_jacobian(prob.plant, s.u))
        nxt = SaddlePointState(
            u=project_polyhedron(prob.input_set, s.u - s.alpha * grad_u),
            mu=np.maximum(s.mu + s.gamma * grad_mu, 0.0),
            alpha=s.alpha, gamma=s.gamma, rho=s.rho)
        residual = (float(np.linalg.norm(nxt.u - s.u)) / s.alpha
                    + float(np.linalg.norm(nxt.mu - s.mu)) / s.gamma)
        for key, value in (("u", s.u), ("y", y), ("V", lyapunov_value(prob, 1.0, s.u, y)),
                           ("residual", residual),
                           ("max_violation", np.max(violation(prob.output_set, y))),
                           ("mu", s.mu)):
            cols[key].append(value)
        if residual <= config.stationarity_tol:
            return cols, RunStatus.CONVERGED
        s = nxt
    return cols, RunStatus.ITER_BUDGET


@pytest.mark.parametrize("gamma", [0.5, 5.0])
@pytest.mark.parametrize("u0", [(0.0, 0.0), (0.5, 0.5), (-0.8, 0.9)])
def test_saddle_run_equals_hand_loop_of_public_calls(gamma, u0):
    config = make_config(scheme="saddle", gamma=gamma, rho=1.0, u0=np.array(u0),
                         max_iters=1000, stationarity_tol=1e-6)
    log = run_trajectory(config)
    cols, status = hand_saddle_log(config)
    assert log.status is status
    assert np.array_equal(log.iters, np.arange(len(cols["u"])))
    for key, column in cols.items():
        assert np.array_equal(getattr(log, key), np.array(column)), key


def test_certified_run_merit_and_violation_columns_equal_public_calls():
    prob = builtin_example()
    constants = estimate_constants(prob, 0.01)
    log = run_trajectory(make_config(alpha=0.9 * constants.step_size_bound,
                                     u0=np.array([-0.75, -0.5]),
                                     stationarity_tol=1e-6), constants)
    assert log.status is RunStatus.CONVERGED and log.max_violation.max() > 0.0
    for k in range(log.num_rows):
        y = eval_plant(prob.plant, log.u[k])
        assert np.array_equal(log.y[k], y)
        assert log.V[k] == lyapunov_value(prob, constants.multiplier_bound, log.u[k], y)
        assert log.max_violation[k] == np.max(violation(prob.output_set, y))


def spy_checks(monkeypatch):
    """Record the name of every ``_vector`` check, and ``"J"`` for every
    ``_jacobian`` check, in every module using them."""
    names = []
    vector, jacobian = model_module._vector, model_module._jacobian

    def counted(x, dim, name):
        names.append(name)
        return vector(x, dim, name)

    def counted_jacobian(J, plant, u):
        names.append("J")
        return jacobian(J, plant, u)

    for module in (model_module, saddle_module, certificates_module, controller_module):
        monkeypatch.setattr(module, "_vector", counted)
    for module in (model_module, saddle_module, controller_module):
        monkeypatch.setattr(module, "_jacobian", counted_jacobian)
    return names


def test_saddle_row_checks_each_value_once(monkeypatch):
    names = spy_checks(monkeypatch)
    log = run_trajectory(make_config(scheme="saddle", gamma=0.5, rho=1.0,
                                     max_iters=20))
    assert log.num_rows == 21
    # the start's membership test, then per row: u by eval_plant, y and J by
    # saddle_point_step and y by lyapunov_value; the harness adds no check
    assert names == ["x"] + ["u", "y", "J", "y"] * log.num_rows


def test_projected_row_adds_no_check_of_y(monkeypatch):
    names = spy_checks(monkeypatch)
    log = run_trajectory(make_config(max_iters=20))
    assert log.num_rows == 21
    # the start's membership test, then per row: feedback_step's membership
    # test, eval_plant's check of u and eval_plant_jacobian's of J, and
    # lyapunov_value's check of y
    assert names == ["x"] + ["x", "u", "J", "y"] * log.num_rows


def test_saddle_residual_stays_finite_under_huge_dual_rate():
    # each dual step is about gamma = 1e300, so dmu.dmu overflows while
    # ||dmu|| / gamma is of order one; no overflow warning may be raised
    log = run_trajectory(make_config(scheme="saddle", gamma=1e300, rho=1.0,
                                     u0=np.array([1.0, 0.0]), max_iters=50))
    assert log.status is RunStatus.ITER_BUDGET and log.num_rows == 51
    assert np.isfinite(log.residual).all()
    for k in range(log.num_rows - 1):
        du, dmu = log.u[k + 1] - log.u[k], log.mu[k + 1] - log.mu[k]
        assert log.residual[k] == pytest.approx(
            math.hypot(*du) / 0.01 + math.hypot(*dmu) / 1e300, rel=1e-12)


# ------------------------------------------------------------------ sweeps

def test_sweep_alpha_ladder_orders_violations():
    base = make_config(u0=np.array([-0.75, -0.5]), max_iters=3000,
                       stationarity_tol=1e-8)
    results = sweep(base, {"alpha": [0.005, 0.01, 0.02, 0.04]})
    assert [ov["alpha"] for ov, _ in results] == [0.005, 0.01, 0.02, 0.04]
    peaks = [float(np.max(log.max_violation)) for _, log in results]
    assert all(a < b for a, b in zip(peaks, peaks[1:]))
    for _, log in results:
        assert log.status is RunStatus.CONVERGED


def test_sweep_expands_grid_start():
    base = make_config(u0=SamplerSpec(count=3), max_iters=2000,
                       stationarity_tol=1e-6)
    results = sweep(base, {})
    assert len(results) == 9
    for overrides, log in results:
        assert log.status is RunStatus.CONVERGED
        assert "u0" in overrides


def test_sweep_checks_every_config_before_running(monkeypatch):
    runs = []

    def counted(config, constants=None):
        runs.append(config)
        return run_trajectory(config, constants)

    monkeypatch.setattr(harness_module, "run_trajectory", counted)
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        sweep(make_config(), {"alpha": [0.01, 0.02, -1.0]})
    assert runs == []


def test_sweep_validation():
    base = make_config()
    with pytest.raises(ValueError):
        sweep(base, {})  # concrete start and nothing to vary
    with pytest.raises(ValueError):
        sweep(base, {"alpha": []})
    with pytest.raises(ValueError):
        sweep(base, {"momentum": [0.9]})


# --------------------------------------------------- derivative validation

def test_finite_difference_builtin():
    prob = builtin_example()
    rng = np.random.default_rng(0)
    pts = [rng.uniform(-1.0, 1.0, size=2) for _ in range(50)]
    report = finite_difference_check(prob, pts)
    assert report.max_error < 1e-6
    assert report.plant_jacobian < 1e-6
    assert report.objective_gradient < 1e-6
    assert report.reduced_gradient < 1e-6


def test_finite_difference_affine_problem():
    prob = get_problem("quad1d")
    pts = [np.array([x]) for x in np.linspace(-1.0, 1.0, 11)]
    report = finite_difference_check(prob, pts)
    assert report.max_error < 1e-8


def test_finite_difference_flags_wrong_jacobian():
    plant = PlantModel(input_dim=2, output_dim=1,
                       eval=lambda u: np.array([u[0] + u[1]]),
                       jacobian=lambda u: np.array([[1.0, 1.5]]))  # wrong
    obj = ObjectiveSpec(eval=lambda u, y: float(u @ u),
                        gradient=lambda u, y: np.array([2 * u[0], 2 * u[1], 0.0]))
    prob = ProblemSpec(plant=plant, objective=obj,
                       input_set=Polyhedron.box([-1, -1], [1, 1]),
                       output_set=Polyhedron.box([-10], [10]),
                       metric=MetricField.identity(2))
    report = finite_difference_check(prob, [np.array([0.2, -0.3])])
    assert report.plant_jacobian > 1e-2
    assert report.max_error > 1e-2


# --------------------------------------------------------------------- csv

def test_csv_round_trip(tmp_path):
    log = run_trajectory(make_config(max_iters=200, stationarity_tol=1e-6))
    path = tmp_path / "t.csv"
    write_csv(log, path)
    back = read_csv(path)
    assert back.status is None
    assert back.num_rows == log.num_rows
    assert np.array_equal(back.u, log.u)
    assert np.array_equal(back.y, log.y)
    assert np.array_equal(back.V, log.V)
    assert np.array_equal(back.residual, log.residual)
    assert np.array_equal(back.max_violation, log.max_violation)
    assert np.array_equal(back.mu, log.mu)


def test_csv_repeat_runs_byte_identical(tmp_path):
    config = make_config(max_iters=500, stationarity_tol=1e-6)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(run_trajectory(config), p1)
    write_csv(run_trajectory(config), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_empty_log_header_only(tmp_path):
    log = TrajectoryLog(iters=np.zeros(0, dtype=int), u=np.zeros((0, 2)),
                        y=np.zeros((0, 1)), V=np.zeros(0),
                        residual=np.zeros(0), max_violation=np.zeros(0),
                        mu=np.zeros((0, 2)), status=None)
    path = tmp_path / "empty.csv"
    write_csv(log, path)
    text = path.read_text(encoding="utf-8")
    assert text == "iter,u1,u2,y1,V,residual,max_violation,mu1,mu2\n"
    assert read_csv(path).num_rows == 0


def test_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("time,state\n0,1\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_csv(path)


def test_log_column_length_validation():
    with pytest.raises(ValueError):
        TrajectoryLog(iters=np.array([0, 1]), u=np.zeros((1, 2)),
                      y=np.zeros((2, 1)), V=np.zeros(2),
                      residual=np.zeros(2), max_violation=np.zeros(2),
                      mu=np.zeros((2, 2)), status=None)


# --------------------------------------------------------------------- cli

def test_cli_run(tmp_path):
    scenario = write_scenario(tmp_path / "s.txt")
    out = tmp_path / "out"
    assert cli_main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    assert (out / "trajectory.csv").exists()


def test_cli_run_byte_identical(tmp_path):
    scenario = write_scenario(tmp_path / "s.txt")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli_main(["run", "--scenario", str(scenario), "--out", str(out1)]) == 0
    assert cli_main(["run", "--scenario", str(scenario), "--out", str(out2)]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == \
        (out2 / "trajectory.csv").read_bytes()


def test_cli_run_rejects_grid_scenario(tmp_path):
    scenario = write_scenario(tmp_path / "s.txt", u0="grid:3")
    out = tmp_path / "out"
    assert cli_main(["run", "--scenario", str(scenario), "--out", str(out)]) == 1
    assert not out.exists()  # a rejected start writes nothing


# the start is checked by run_trajectory alone, and --out is made after the runs
@pytest.mark.parametrize("command, u0, message",
                         [(c, u0, m) for c in ("run", "sweep", "compare")
                          for u0, m in BAD_STARTS]
                         + [("compare", "grid:3", "not a grid start")])
def test_cli_rejects_bad_start_and_writes_nothing(tmp_path, capsys, command, u0, message):
    scenario = write_scenario(tmp_path / "s.txt", u0=u0, scheme="saddle",
                              gamma="0.5", rho="1.0")
    grid = tmp_path / "grid.txt"
    grid.write_text("alpha = 0.005, 0.01\n", encoding="utf-8")
    out = tmp_path / "out"
    extra = {"run": ["--out", str(out)], "sweep": ["--grid", str(grid), "--out", str(out)],
             "compare": []}[command]
    assert cli_main([command, "--scenario", str(scenario)] + extra) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_tests_start_membership_twice(tmp_path, monkeypatch):
    # run_trajectory's check of the start and feedback_step's own gate
    calls = []
    membership = Polyhedron.membership

    def counted(self, x, tol=0.0):
        calls.append(tuple(np.asarray(x, dtype=float)))
        return membership(self, x, tol)

    monkeypatch.setattr(Polyhedron, "membership", counted)
    scenario = write_scenario(tmp_path / "s.txt", u0="1.0, 1.0", max_iters="0")
    assert cli_main(["run", "--scenario", str(scenario),
                     "--out", str(tmp_path / "out")]) == 2
    assert calls == [(1.0, 1.0)] * 2


def test_cli_builds_the_problem_once_per_run(tmp_path):
    # load_scenario checks the name without calling the factory
    builds = []

    def factory():
        builds.append(1)
        return builtin_example()

    register_problem("cubic2d.counted", factory)
    scenario = write_scenario(tmp_path / "s.txt", problem_name="cubic2d.counted",
                              scheme="saddle", gamma="0.5", rho="1.0",
                              max_iters="5")
    assert cli_main(["compare", "--scenario", str(scenario)]) == 0
    assert len(builds) == 2
    del builds[:]
    assert cli_main(["run", "--scenario", str(scenario),
                     "--out", str(tmp_path / "out")]) == 2
    assert len(builds) == 1
    # an unknown name is still a KeyError naming the registered problems
    with pytest.raises(KeyError, match="unknown problem 'nope'.*cubic2d.counted"):
        load_scenario(write_scenario(tmp_path / "u.txt", problem_name="nope"))


def test_cli_sweep(tmp_path):
    scenario = write_scenario(tmp_path / "s.txt")
    grid = tmp_path / "grid.txt"
    grid.write_text("alpha = 0.005, 0.01\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli_main(["sweep", "--scenario", str(scenario),
                     "--grid", str(grid), "--out", str(out)]) == 0
    assert (out / "run_000.csv").exists()
    assert (out / "run_001.csv").exists()


@pytest.mark.parametrize("line", ["beta = 0.1, 0.2", "alpha 0.1", "seed = 1, 2",
                                  "alpha = 0.005, abc"])
def test_cli_sweep_rejects_bad_grid_line(tmp_path, capsys, line):
    scenario = write_scenario(tmp_path / "s.txt")
    grid = tmp_path / "grid.txt"
    grid.write_text(f"# ladder\n{line}\n", encoding="utf-8")
    assert cli_main(["sweep", "--scenario", str(scenario), "--grid", str(grid),
                     "--out", str(tmp_path / "out")]) == 1
    assert f"{grid}:2:" in capsys.readouterr().err


# compare exits 0 unless a run errors, also when the saddle run stalls
@pytest.mark.parametrize("gamma, saddle_status", [("0.5", "Converged"),
                                                  ("5", "IterBudget")])
def test_cli_compare(tmp_path, capsys, gamma, saddle_status):
    scenario = write_scenario(tmp_path / "s.txt", scheme="saddle",
                              gamma=gamma, rho="1.0", max_iters="5000")
    assert cli_main(["compare", "--scenario", str(scenario)]) == 0
    text = capsys.readouterr().out
    assert "projected" in text
    assert f"saddle  {saddle_status} " in text


def test_cli_compare_needs_saddle_scenario(tmp_path):
    scenario = write_scenario(tmp_path / "s.txt")
    assert cli_main(["compare", "--scenario", str(scenario)]) == 1


def test_cli_check(tmp_path, capsys):
    assert cli_main(["check", "--problem", "cubic2d"]) == 0
    text = capsys.readouterr().out
    assert "step_size_bound" in text
    assert "derivative check" in text


def test_cli_missing_file(tmp_path):
    assert cli_main(["run", "--scenario", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "out")]) == 1
