import dataclasses
import importlib
import math
import re
import tracemalloc
from pathlib import Path

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
    FiniteDifferenceReport,
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
    problem_names,
    project_polyhedron,
    read_csv,
    reduced_cost,
    reduced_gradient,
    register_problem,
    run_trajectory,
    sample_input_set,
    sweep,
    transient_violation_bound,
    violation,
    write_csv,
)
from fbopt.cli import main as cli_main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
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


def test_load_scenario_rejects_duplicate_key(tmp_path):
    # the second alpha used to win without a word
    path = write_scenario(tmp_path / "s.txt")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("alpha = 0.5\n")
    with pytest.raises(ValueError) as err:
        load_scenario(path)
    assert str(err.value) == f"{path}:8: duplicate key 'alpha' (first on line 4)"


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


def test_multiplier_bound_skips_samples_with_empty_linearization(clashing_problem):
    with pytest.warns(UserWarning, match="skipping sample") as record:
        constants = estimate_constants(clashing_problem, 0.01, SamplerSpec(count=3))
    assert sum("skipping sample" in str(w.message) for w in record) == 3
    assert constants.multiplier_bound == 1.0  # the floor: no multiplier seen


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


# criterion 3's starts, whose trajectories cross the lower output boundary
CROSSING_STARTS = ([-0.75, -0.5], [-0.85, -0.6], [-0.8, -0.55])


def _zero_lipschitz(c):
    """``c`` with zero output Lipschitz constants: any violation above
    ``VIOLATION_SLACK`` breaches the transient bound."""
    return CertificateConstants(grad_lipschitz=c.grad_lipschitz, output_lipschitz=[0.0, 0.0],
                                multiplier_bound=c.multiplier_bound,
                                metric_floor=c.metric_floor)


def _spy_bound(monkeypatch):
    """Record each transient bound that ``run_trajectory`` computes; returns
    the list of their arguments."""
    calls = []

    def counted(*args):
        calls.append(args)
        return transient_violation_bound(*args)

    monkeypatch.setattr(harness_module, "transient_violation_bound", counted)
    return calls


def test_only_violated_rows_compute_the_transient_bound(monkeypatch):
    # a bound is >= 0, so a row with no positive violation cannot breach it
    c = estimate_constants(builtin_example(), 0.01)
    calls = _spy_bound(monkeypatch)
    for constants, flagged in ((c, False), (_zero_lipschitz(c), True)):
        for start in CROSSING_STARTS:
            del calls[:]
            log = run_trajectory(make_config(alpha=0.9 * c.step_size_bound,
                                             u0=np.array(start), max_iters=20_000),
                                 constants)
            assert log.status is RunStatus.CONVERGED
            assert log.certificate_violated is flagged
            violated = np.count_nonzero(log.max_violation[1:] > 0.0)
            assert violated and len(calls) == violated
            assert not np.isnan(log.max_violation).any()


def _nan_above(u2):
    """cubic2d whose plant returns NaN for u2 >= ``u2``."""
    prob = get_problem("cubic2d")
    h = prob.plant.eval
    plant = dataclasses.replace(
        prob.plant, eval=lambda u: np.array([np.nan]) if u[1] >= u2 else h(u))
    return dataclasses.replace(prob, plant=plant)


def test_certified_run_ending_in_error_keeps_its_flag(monkeypatch):
    # the plant turns NaN after the trajectory has crossed the output
    # boundary: the all-NaN error row is tested and breaches no bound, the
    # rows before it breach the zero-Lipschitz bound, and the run stays an
    # error
    register_problem("nan_plant.certified", lambda: _nan_above(0.0))
    c = estimate_constants(builtin_example(), 0.01)
    calls = _spy_bound(monkeypatch)
    for constants in (c, _zero_lipschitz(c)):
        del calls[:]
        log = run_trajectory(make_config(problem_name="nan_plant.certified",
                                         alpha=0.9 * c.step_size_bound,
                                         u0=np.array(CROSSING_STARTS[0]), max_iters=20_000),
                             constants)
        assert log.status is RunStatus.ERROR
        assert log.message.startswith("ValueError: plant output")
        assert np.isnan(log.max_violation[-1])
        breached = np.count_nonzero(log.max_violation[1:] > harness_module.VIOLATION_SLACK)
        assert breached
        assert log.certificate_violated is (constants is not c)
        assert len(calls) == np.count_nonzero(log.max_violation[1:] > 0.0) + 1


def test_partly_nan_violation_row_is_tested(monkeypatch):
    # a finite y of about 1e308 can make a row of C y NaN (inf - inf, as the
    # BLAS kernel sums it) next to a finite one; here the upper row of each
    # measured violation is NaN, so each row's worst violation is NaN, and
    # the lower row's violations still breach the zero-Lipschitz bound
    violation_of = harness_module._violation

    def partly_nan(set_, y):
        viol = violation_of(set_, y)
        viol[0] = np.nan
        return viol

    monkeypatch.setattr(harness_module, "_violation", partly_nan)
    c = estimate_constants(builtin_example(), 0.01)
    calls = _spy_bound(monkeypatch)
    log = run_trajectory(make_config(alpha=0.9 * c.step_size_bound,
                                     u0=np.array(CROSSING_STARTS[0]), max_iters=20_000),
                         _zero_lipschitz(c))
    assert np.isnan(log.max_violation).all()
    assert log.certificate_violated
    assert len(calls) == log.num_rows - 1


def test_merit_increase_is_flagged():
    # step_size_bound is about 10, and output Lipschitz constants of 100 keep
    # every violation within its transient bound: the flag comes from the
    # merit check alone
    constants = CertificateConstants(grad_lipschitz=1e-3, output_lipschitz=[100.0, 100.0],
                                     multiplier_bound=1.0, metric_floor=1000.0)
    assert 1.2 < constants.step_size_bound
    output_set = builtin_example().output_set
    for max_iters, status in ((1, RunStatus.CERTIFICATE_VIOLATED),
                              (100, RunStatus.CONVERGED)):
        log = run_trajectory(make_config(alpha=1.2, u0=np.array([-1.0, 0.5]),
                                         max_iters=max_iters), constants)
        assert log.status is status
        assert log.certificate_violated
        assert log.V[1] > log.V[0]  # 1.125 -> 1.86
        for k in range(1, log.num_rows):
            step = log.u[k] - log.u[k - 1]
            assert np.all(violation(output_set, log.y[k])
                          <= transient_violation_bound(constants.output_lipschitz, 1.0, step))
    # the saddle scheme's usual instability signature
    log = run_trajectory(make_config(scheme="saddle", gamma=5.0, rho=1.0,
                                     max_iters=3000), constants)
    assert log.status is RunStatus.CERTIFICATE_VIOLATED
    assert log.certificate_violated
    assert np.count_nonzero(np.diff(log.V) > 0)


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
    # the start is a checked ScenarioConfig value and every later state's u
    # was checked as the state was built, so per row only: y and J by
    # saddle_point_step; the harness adds no check
    assert names == ["y", "J"] * log.num_rows


def test_projected_row_adds_no_check_of_y(monkeypatch):
    names = spy_checks(monkeypatch)
    log = run_trajectory(make_config(max_iters=20))
    assert log.num_rows == 21
    # per row: feedback_step's one check of u and eval_plant_jacobian's of J;
    # the row's merit takes the y that feedback_step checked
    assert names == ["u", "J"] * log.num_rows


def test_run_calls_the_step_names_the_benchmark_patches(monkeypatch):
    # perfbench's run_stamped replaces harness.feedback_step or
    # harness.saddle_point_step to time-stamp each step, and its tracer
    # wraps every traced name wherever a measured module holds it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    patched = {(module, name) for module, name, _, _ in tracer.Tracer()._patches}
    assert {(harness_module, "feedback_step"), (harness_module, "saddle_point_step"),
            (harness_module, "eval_plant"), (harness_module, "run_trajectory")} <= patched
    for name, config in (
            ("feedback_step", make_config(max_iters=20)),
            ("saddle_point_step", make_config(scheme="saddle", gamma=0.5, rho=1.0,
                                              max_iters=20))):
        calls = []
        step = getattr(harness_module, name)
        monkeypatch.setattr(harness_module, name,
                            lambda *args, step=step: calls.append(args) or step(*args))
        log = run_trajectory(config)
        assert log.num_rows == 21
        assert len(calls) == log.num_rows


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


def test_long_run_holds_its_rows_in_one_float64_table():
    # the saddle run at gamma = 5 stalls, so every step up to the budget is
    # logged; a Python list of floats per row peaked at about 7x the table
    log_width = 9  # iter, u1, u2, y1, V, residual, max_violation, mu1, mu2
    tracemalloc.start()
    try:
        log = run_trajectory(make_config(scheme="saddle", gamma=5.0, rho=1.0,
                                         max_iters=3000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert log.status is RunStatus.ITER_BUDGET and log.num_rows == 3001
    assert peak < 2 * log.num_rows * log_width * 8
    table = log.u.base
    assert table.dtype == np.float64 and table.size == log.num_rows * log_width
    for column in (log.u, log.y, log.V, log.mu):
        assert column.dtype == np.float64 and column.base is table


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


def box_problem(p: int) -> ProblemSpec:
    """``p`` inputs in the unit box, one output ``y = sum(u) <= 1``, cost
    ``u.u``."""
    return ProblemSpec(
        plant=PlantModel(input_dim=p, output_dim=1,
                         eval=lambda u: np.array([u.sum()]),
                         jacobian=lambda u: np.ones((1, p))),
        objective=ObjectiveSpec(eval=lambda u, y: float(u @ u),
                                gradient=lambda u, y: np.append(2.0 * u, 0.0)),
        input_set=Polyhedron.box([-1.0] * p, [1.0] * p),
        output_set=Polyhedron(A=[[1.0]], b=[1.0]),
        metric=MetricField.identity(p))


def test_sweep_grid_start_obeys_grid_budget():
    register_problem("box5.sweep", lambda: box_problem(5))
    base = make_config(problem_name="box5.sweep", u0=SamplerSpec(count=11))
    with pytest.raises(ValueError, match=r"count=11 per dimension over 5 inputs "
                                         r"has 161,051 points"):
        sweep(base, {})


def test_sweep_checks_every_config_before_running(monkeypatch):
    runs = []

    def counted(config, constants=None):
        runs.append(config)
        return run_trajectory(config, constants)

    monkeypatch.setattr(harness_module, "run_trajectory", counted)
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        sweep(make_config(), {"alpha": [0.01, 0.02, -1.0]})
    assert runs == []


def test_sweep_checks_every_start_before_running(monkeypatch):
    runs = []

    def counted(config, constants=None):
        runs.append(config)
        return run_trajectory(config, constants)

    monkeypatch.setattr(harness_module, "run_trajectory", counted)
    with pytest.raises(ValueError, match="u0 is outside the input set"):
        sweep(make_config(), {"u0": [(0.0, 0.0), (0.5, 0.5), (2.0, 0.0)]})
    with pytest.raises(ValueError, match="u0 has size 3, problem needs 2"):
        sweep(make_config(), {"u0": [(0.0, 0.0), (0.0, 0.0, 0.0)]})
    with pytest.raises(ValueError, match="not a grid start"):
        sweep(make_config(), {"u0": [(0.0, 0.0), SamplerSpec(count=2)]})
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


def test_finite_difference_checks_every_point_before_measuring():
    # an empty list used to pass, a report of zero errors with nothing checked
    prob = builtin_example()
    evals = []
    counted = dataclasses.replace(prob, plant=dataclasses.replace(
        prob.plant, eval=lambda u: evals.append(u) or prob.plant.eval(u)))
    with pytest.raises(ValueError, match="need at least one point"):
        finite_difference_check(counted, [])
    with pytest.raises(ValueError, match="u must be finite"):
        finite_difference_check(counted, [[0.2, -0.3], [np.nan, 0.0]])
    assert evals == []


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


def counting_plant(prob, evals, jacobians):
    """``prob`` with a plant that records each input it is evaluated at."""
    plant = prob.plant
    return dataclasses.replace(prob, plant=dataclasses.replace(
        plant, eval=lambda u: evals.append(tuple(u)) or plant.eval(u),
        jacobian=lambda u: jacobians.append(tuple(u)) or plant.jacobian(u)))


def two_pass_report(prob, points, h=1e-6):
    """The derivative report by separate differences of ``plant.eval`` and
    of ``reduced_cost``, over public names only."""
    def diff(f, x):
        cols = []
        for j in range(x.size):
            e = np.zeros_like(x)
            e[j] = h
            cols.append((np.asarray(f(x + e), dtype=float)
                         - np.asarray(f(x - e), dtype=float)) / (2.0 * h))
        return np.stack(cols, axis=-1)

    def rel(approx, exact):
        approx, exact = np.asarray(approx, dtype=float), np.asarray(exact, dtype=float)
        return float(np.linalg.norm((approx - exact).ravel())
                     / max(1.0, float(np.linalg.norm(exact.ravel()))))

    jac = obj = red = 0.0
    for u in points:
        u = np.asarray(u, dtype=float)
        y = eval_plant(prob.plant, u)
        J = eval_plant_jacobian(prob.plant, u)
        jac = max(jac, rel(diff(prob.plant.eval, u), J))
        p = u.size
        obj = max(obj, rel(diff(lambda v: prob.objective.eval(v[:p], v[p:]),
                                np.concatenate([u, y])),
                           prob.objective.gradient(u, y)))
        red = max(red, rel(diff(lambda x: reduced_cost(prob, x), u),
                           reduced_gradient(prob, u, y, J)))
    return FiniteDifferenceReport(plant_jacobian=jac, objective_gradient=obj,
                                  reduced_gradient=red)


def synthetic_problem(monkeypatch):
    """Problem 0 of seed 1 of perfbench's 12-input family, and its start."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    synthetic = importlib.import_module("synthetic")
    data = synthetic.generate(1, 0)
    return synthetic.build(data, "synthetic.fd"), data.start


def test_finite_difference_report_matches_two_pass_reference(monkeypatch):
    rng = np.random.default_rng(4)
    synthetic, start = synthetic_problem(monkeypatch)
    cases = [(builtin_example(), [rng.uniform(-1.0, 1.0, size=2) for _ in range(20)]),
             (get_problem("quad1d"), [np.array([x]) for x in np.linspace(-1.0, 1.0, 11)]),
             (synthetic, [start + rng.uniform(-0.1, 0.1, size=12) for _ in range(3)])]
    for prob, pts in cases:
        assert finite_difference_check(prob, pts) == two_pass_report(prob, pts)


@pytest.mark.parametrize("name", ["cubic2d", "quad1d", "synthetic"])
def test_finite_difference_measures_each_offset_once(name, monkeypatch):
    # a second difference through reduced_cost used to measure the 2p
    # offsets again: k (1 + 4p) evaluations instead of k (1 + 2p)
    rng = np.random.default_rng(5)
    if name == "synthetic":
        prob, start = synthetic_problem(monkeypatch)
        pts = [start + rng.uniform(-0.1, 0.1, size=12) for _ in range(3)]
    else:
        prob = get_problem(name)
        pts = [rng.uniform(-0.9, 0.9, size=prob.input_dim) for _ in range(7)]
    evals, jacobians = [], []
    finite_difference_check(counting_plant(prob, evals, jacobians), pts)
    k, p = len(pts), prob.input_dim
    assert len(evals) == k * (1 + 2 * p)
    assert len(set(evals)) == len(evals)
    assert jacobians == [tuple(u) for u in pts]


def test_finite_difference_names_the_offset_point_it_measured():
    prob = builtin_example()
    u = np.array([0.2, -0.3])
    below = u - np.array([0.0, 1e-6])  # u - h e2, formed as the check forms it
    plant = dataclasses.replace(prob.plant, eval=lambda x: np.array([np.nan])
                                if np.array_equal(x, below) else prob.plant.eval(x))
    message = f"plant output must be finite, got [nan] at u={below.tolist()}"
    with pytest.raises(ValueError, match=re.escape(message)):
        finite_difference_check(dataclasses.replace(prob, plant=plant), [u])
    # every offset is checked as a measurement: a wrong length used to fail
    # in numpy's stack ("all input arrays must have the same shape")
    above = u + np.array([1e-6, 0.0])
    plant = dataclasses.replace(prob.plant, eval=lambda x: np.array([1.0, 2.0])
                                if np.array_equal(x, above) else prob.plant.eval(x))
    with pytest.raises(ValueError, match="plant returned 2 outputs, expected 1"):
        finite_difference_check(dataclasses.replace(prob, plant=plant), [u])


# --------------------------------------------------------------------- csv

@pytest.fixture(scope="module")
def nan_plant_problem():
    try:
        register_problem("nan_plant.csv", lambda: _nan_below(-0.05))
    except ValueError:
        pass  # already registered
    return "nan_plant.csv"


# a converged projected run, a saddle run with nonzero multipliers, and a run
# that ends with an error on a NaN row
ROUND_TRIP_RUNS = {
    "projected": dict(max_iters=200, stationarity_tol=1e-6),
    "saddle": dict(scheme="saddle", gamma=0.5, rho=1.0, u0=np.array([1.0, 1.0]),
                   max_iters=300),
    "error": dict(problem_name="nan_plant.csv", max_iters=5000),
}


@pytest.mark.parametrize("run", sorted(ROUND_TRIP_RUNS))
def test_csv_round_trip(tmp_path, nan_plant_problem, run):
    log = run_trajectory(make_config(**ROUND_TRIP_RUNS[run]))
    if run == "saddle":
        assert np.count_nonzero(log.mu)
    if run == "error":
        assert log.status is RunStatus.ERROR and np.isnan(log.y[-1, 0])
    path = tmp_path / "t.csv"
    write_csv(log, path)
    back = read_csv(path)
    assert back.status is None
    assert back.num_rows == log.num_rows
    for field in ("iters", "u", "y", "V", "residual", "max_violation", "mu"):
        assert np.array_equal(getattr(back, field), getattr(log, field),
                              equal_nan=True), field


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


@pytest.mark.parametrize("body, lineno, fields", [
    ("0,0,0,0,1,2,0,0\n1,0,0,0,1,2,0,0\n", 2, 8),
    ("0,0,0,0,1,2,0,0,0\n1,0,0,0,1,2,0,0\n", 3, 8),
    ("0,0,0,0,1,2,0,0,0,7\n", 2, 10),
    ("0,0,0,0,1,2,0,0,0\n\n", 3, 0),
], ids=["every_row_short", "one_row_short", "one_row_long", "trailing_blank_line"])
def test_csv_rejects_row_of_other_width(tmp_path, body, lineno, fields):
    path = tmp_path / "short.csv"
    path.write_text("iter,u1,u2,y1,V,residual,max_violation,mu1,mu2\n" + body,
                    encoding="utf-8")
    with pytest.raises(ValueError, match=f"short.csv:{lineno}: {fields} fields, "
                                         f"the header has 9"):
        read_csv(path)


@pytest.mark.parametrize("text, match", [
    ("", r"bad\.csv: unexpected CSV header \[\]"),
    ("iter,u1,y1,V,residual,max_violation,mu1\n0,0,0,1,2,0,0\n1,x,0,1,2,0,0\n",
     r"bad\.csv:3: could not convert string to float: 'x'"),
], ids=["zero_bytes", "non_numeric_field"])
def test_csv_rejects_malformed_file_naming_it(tmp_path, text, match):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=match):
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


def test_cli_run_error_prints_message(tmp_path, capsys, clashing_problem):
    scenario = write_scenario(tmp_path / "s.txt", problem_name="clash1d",
                              u0="0.0", max_iters="10")
    assert cli_main(["run", "--scenario", str(scenario),
                     "--out", str(tmp_path / "out")]) == 1
    assert "message: LinearizedSetEmpty: " in capsys.readouterr().out


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
    # run_trajectory's check of the start and feedback_step's own gate, both
    # through the membership test of a checked vector
    calls = []
    contains = Polyhedron._contains

    def counted(self, x, tol):
        calls.append(tuple(x))
        return contains(self, x, tol)

    monkeypatch.setattr(Polyhedron, "_contains", counted)
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


def test_cli_sweep_names_each_grid_start(tmp_path, capsys):
    scenario = write_scenario(tmp_path / "s.txt", u0="grid:2", max_iters="5")
    assert cli_main(["sweep", "--scenario", str(scenario),
                     "--out", str(tmp_path / "out")]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert all(re.search(r"\[u0=\(-?[0-9.]+, -?[0-9.]+\)\]$", line) for line in lines[:4])


@pytest.mark.parametrize("line", ["beta = 0.1, 0.2", "alpha 0.1", "seed = 1, 2",
                                  "alpha = 0.005, abc"])
def test_cli_sweep_rejects_bad_grid_line(tmp_path, capsys, line):
    scenario = write_scenario(tmp_path / "s.txt")
    grid = tmp_path / "grid.txt"
    grid.write_text(f"# ladder\n{line}\n", encoding="utf-8")
    assert cli_main(["sweep", "--scenario", str(scenario), "--grid", str(grid),
                     "--out", str(tmp_path / "out")]) == 1
    assert f"{grid}:2:" in capsys.readouterr().err


def test_cli_sweep_rejects_duplicate_grid_key(tmp_path, capsys):
    # the second alpha line used to replace the first, dropping two runs
    scenario = write_scenario(tmp_path / "s.txt")
    grid = tmp_path / "grid.txt"
    grid.write_text("alpha = 0.01, 0.02\nalpha = 0.03\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli_main(["sweep", "--scenario", str(scenario), "--grid", str(grid),
                     "--out", str(out)]) == 1
    assert f"{grid}:2: duplicate key 'alpha' (first on line 1)" in capsys.readouterr().err
    assert not out.exists()


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


def test_cli_compare_needs_saddle_scenario(tmp_path, capsys):
    scenario = write_scenario(tmp_path / "s.txt")
    assert cli_main(["compare", "--scenario", str(scenario)]) == 1
    assert capsys.readouterr().err == (
        "error: compare needs a saddle scenario (gamma and rho set); "
        "the projected twin is derived from it\n")


def test_cli_prints_each_erroring_runs_message(tmp_path, capsys):
    # each summary line is followed by its run's message: run's before the
    # path it wrote, sweep's after the overrides, compare's for both runs
    register_problem("nan_plant.cli", lambda: _nan_below(-0.05))
    scenario = write_scenario(tmp_path / "s.txt", problem_name="nan_plant.cli",
                              max_iters="5000")
    message = "message: ValueError: plant output"
    assert cli_main(["run", "--scenario", str(scenario),
                     "--out", str(tmp_path / "run")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith(message)
    assert lines[2] == f"wrote {tmp_path / 'run' / 'trajectory.csv'}"
    grid = tmp_path / "grid.txt"
    grid.write_text("alpha = 0.01\n", encoding="utf-8")
    assert cli_main(["sweep", "--scenario", str(scenario), "--grid", str(grid),
                     "--out", str(tmp_path / "sweep")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("   run_000  Error ")
    assert lines[0].endswith("  [alpha=0.01]")
    assert lines[1].startswith(message)
    saddle = write_scenario(tmp_path / "saddle.txt", problem_name="nan_plant.cli",
                            scheme="saddle", gamma="0.5", rho="1.0", max_iters="5000")
    assert cli_main(["compare", "--scenario", str(saddle)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith(" projected  Error ")
    assert lines[2].startswith(message)
    assert lines[3].startswith("    saddle  Error ")
    assert lines[4].startswith(message)


def test_cli_check(tmp_path, capsys):
    assert cli_main(["check", "--problem", "cubic2d"]) == 0
    text = capsys.readouterr().out
    assert "step_size_bound" in text
    assert "derivative check" in text


def test_cli_check_unknown_problem(tmp_path, capsys):
    # the KeyError's message, not its quoted repr; earlier tests may have
    # registered more problems
    line = f"error: unknown problem 'nope' (registered: {', '.join(problem_names())})\n"
    assert cli_main(["check", "--problem", "nope"]) == 1
    assert capsys.readouterr().err == line
    scenario = write_scenario(tmp_path / "s.txt", problem_name="nope")
    assert cli_main(["run", "--scenario", str(scenario),
                     "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == line


def test_cli_check_flags_wrong_jacobian(capsys):
    def factory():
        prob = builtin_example()
        jacobian = prob.plant.jacobian
        return dataclasses.replace(prob, plant=dataclasses.replace(
            prob.plant, jacobian=lambda u: 1.5 * jacobian(u)))

    register_problem("cubic2d.wrong_jacobian", factory)
    assert cli_main(["check", "--problem", "cubic2d.wrong_jacobian"]) == 1
    assert "derivative check FAILED" in capsys.readouterr().err


def test_cli_check_rejects_metric_not_positive_definite(capsys):
    # used to end in a NotPositiveDefinite traceback from the multiplier bound
    register_problem("cubic2d.negative_metric", lambda: dataclasses.replace(
        builtin_example(), metric=MetricField.constant(-np.eye(2))))
    assert cli_main(["check", "--problem", "cubic2d.negative_metric"]) == 1
    assert capsys.readouterr().err == \
        "error: metric must be positive definite on the input set\n"


def test_cli_check_rejects_bad_alpha_before_measuring(capsys):
    # the derivative check used to measure 100 points and print its report
    # before the constants' estimate rejected the step size
    evals = []

    def factory():
        prob = builtin_example()
        h = prob.plant.eval
        return dataclasses.replace(prob, plant=dataclasses.replace(
            prob.plant, eval=lambda u: evals.append(u) or h(u)))

    register_problem("cubic2d.check_counted", factory)
    for alpha in ("0", "nan", "-1", "inf"):
        assert cli_main(["check", "--problem", "cubic2d.check_counted",
                         "--alpha", alpha]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: alpha must be positive and finite\n"
    assert evals == []


def test_cli_check_estimates_constants_over_its_random_sample(capsys):
    # the derivative check's random points also give the constants; the
    # default 15-per-dimension grid over 5 inputs (759,375 points) is over
    # the grid budget
    register_problem("box5.check", lambda: box_problem(5))
    assert cli_main(["check", "--problem", "box5.check", "--points", "50"]) == 0
    text = capsys.readouterr().out
    assert "derivative check over 50 random points:" in text
    assert "certificate constants over the same points (alpha=0.01):" in text
    assert "step_size_bound" in text


def test_cli_check_measures_each_offset_once():
    # 100 points at 1 + 2p = 5 measurements and one Jacobian each, then the
    # constants' estimate measures each point again (ROADMAP item 6)
    plant = CountedCubic2d("cubic2d.check_offsets")
    assert cli_main(["check", "--problem", plant.name]) == 0
    assert plant.calls == {"eval": 600, "jacobian": 200}


def test_cli_check_reports_thin_input_set(capsys):
    # the sampler's RuntimeError used to end in a traceback out of main
    def factory():
        prob = builtin_example()
        box = prob.input_set
        strip = Polyhedron(A=np.vstack([box.A, [[1.0, -1.0], [-1.0, 1.0]]]),
                           b=np.concatenate([box.b, [1e-9, 1e-9]]))
        return dataclasses.replace(prob, input_set=strip)

    register_problem("cubic2d.thin", factory)
    assert cli_main(["check", "--problem", "cubic2d.thin", "--points", "5"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: rejection sampling failed; set too thin\n"


def test_cli_missing_file(tmp_path):
    assert cli_main(["run", "--scenario", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "out")]) == 1
