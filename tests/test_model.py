import dataclasses
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fbopt import (
    MetricField,
    ObjectiveSpec,
    PlantModel,
    Polyhedron,
    ProblemSpec,
    builtin_example,
    eval_plant,
    eval_plant_jacobian,
    linearized_constraints,
    reduced_cost,
    reduced_gradient,
    violation,
)
from fbopt.model import _finite, _jacobian, _vector


def identity_plant(dim):
    return PlantModel(input_dim=dim, output_dim=dim,
                      eval=lambda u: np.array(u, dtype=float),
                      jacobian=lambda u: np.eye(dim))


def test_eval_plant_builtin_origin():
    prob = builtin_example()
    assert_allclose(eval_plant(prob.plant, [0.0, 0.0]), [0.5])


def test_eval_plant_builtin_ones():
    prob = builtin_example()
    assert_allclose(eval_plant(prob.plant, [1.0, 1.0]), [1.5])


def test_eval_plant_identity():
    plant = identity_plant(1)
    assert_allclose(eval_plant(plant, [3.0]), [3.0])


def test_eval_plant_rejects_wrong_dimension():
    prob = builtin_example()
    with pytest.raises(ValueError):
        eval_plant(prob.plant, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("x", [
    np.array([1e200, -1e200]),           # x.x overflows: the elementwise fallback
    np.array([0.0, np.nan]),
    np.array([np.inf, 1.0]),
    np.array([-np.inf]),
    np.zeros(0),
    np.arange(6.0).reshape(2, 3).T,      # not contiguous
    np.array([[1.0, np.nan], [0.0, 2.0]]).T,
    np.array([5e-324]),                  # x.x underflows to 0
    np.full((36, 12), 1e160),
    np.full((36, 12), 0.5),
])
def test_finite_agrees_with_elementwise_test(x):
    assert bool(_finite(x)) == bool(np.isfinite(x).all())


def huge_output_problem(y):
    """A two-input, two-output problem whose plant returns the constant
    ``y``, whose Jacobian is filled with ``y[0]`` and whose objective
    gradient carries ``y``."""
    plant = PlantModel(input_dim=2, output_dim=2,
                       eval=lambda u: np.array(y),
                       jacobian=lambda u: np.full((2, 2), y[0]))
    obj = ObjectiveSpec(eval=lambda u, out: 0.0,
                        gradient=lambda u, out: np.array([y[0], y[1], 0.0, 0.0]))
    return ProblemSpec(plant=plant, objective=obj,
                       input_set=Polyhedron.box([-1.0, -1.0], [1.0, 1.0]),
                       output_set=Polyhedron.box([-1.0, -1.0], [1.0, 1.0]),
                       metric=MetricField.identity(2))


def test_huge_finite_values_pass_every_check():
    # the sum of squares of these overflows, so a bare x.x test would
    # reject them
    y = [1e200, -1e200]
    prob = huge_output_problem(y)
    assert np.array_equal(eval_plant(prob.plant, [0.0, 0.0]), y)
    assert np.array_equal(eval_plant_jacobian(prob.plant, [0.0, 0.0]), np.full((2, 2), 1e200))
    assert np.array_equal(_vector(y, 2, "y"), y)
    assert np.array_equal(reduced_gradient(prob, np.zeros(2), np.zeros(2), np.zeros((2, 2))), y)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_keep_their_messages(bad):
    y = [1e200, bad]
    prob = huge_output_problem(y)
    u = np.zeros(2)
    with pytest.raises(ValueError, match=re.escape(
            f"plant output must be finite, got {np.array(y).tolist()} at u=[0.0, 0.0]")):
        eval_plant(prob.plant, u)
    with pytest.raises(ValueError, match="^plant jacobian must be finite, got "):
        _jacobian(np.array([[1.0, bad]]), builtin_example().plant, u)
    with pytest.raises(ValueError, match="^objective gradient must be finite, got "):
        reduced_gradient(prob, u, np.zeros(2), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="^u must be finite$"):
        eval_plant(prob.plant, [0.0, bad])
    with pytest.raises(ValueError, match="^x must be finite$"):
        prob.input_set.membership([bad, 0.0])


def test_jacobian_builtin_origin():
    prob = builtin_example()
    assert_allclose(eval_plant_jacobian(prob.plant, [0.0, 0.0]), [[1.0, -1.0]])


def test_jacobian_builtin_point():
    prob = builtin_example()
    assert_allclose(eval_plant_jacobian(prob.plant, [0.0, 1.0]), [[1.0, 2.0]])


def test_jacobian_identity_plant():
    plant = identity_plant(3)
    assert_allclose(eval_plant_jacobian(plant, [1.0, 2.0, 3.0]), np.eye(3))


def test_reduced_gradient_builtin_origin():
    prob = builtin_example()
    y = eval_plant(prob.plant, [0.0, 0.0])
    assert_allclose(reduced_gradient(
        prob, [0.0, 0.0], y, eval_plant_jacobian(prob.plant, [0.0, 0.0])), [1.0, -4.0])


def test_reduced_gradient_builtin_ones():
    prob = builtin_example()
    y = eval_plant(prob.plant, [1.0, 1.0])
    assert_allclose(reduced_gradient(
        prob, [1.0, 1.0], y, eval_plant_jacobian(prob.plant, [1.0, 1.0])), [5.0, -1.0])


def test_reduced_gradient_output_only_cost():
    # cost depends on y alone; identity plant collapses the chain rule
    plant = identity_plant(2)
    obj = ObjectiveSpec(eval=lambda u, y: float(np.sum(y)),
                        gradient=lambda u, y: np.array([0.0, 0.0, 1.0, 1.0]))
    prob = ProblemSpec(plant=plant, objective=obj,
                       input_set=Polyhedron.box([-1, -1], [1, 1]),
                       output_set=Polyhedron.box([-2, -2], [2, 2]),
                       metric=MetricField.identity(2))
    y = eval_plant(plant, [0.3, -0.2])
    assert_allclose(reduced_gradient(
        prob, [0.3, -0.2], y, eval_plant_jacobian(plant, [0.3, -0.2])), [1.0, 1.0])


def test_reduced_cost_matches_objective_composition():
    prob = builtin_example()
    u = np.array([0.25, -0.5])
    y = eval_plant(prob.plant, u)
    assert reduced_cost(prob, u) == prob.objective.eval(u, y)


def test_linearized_constraints_at_optimum():
    prob = builtin_example()
    u = np.array([-0.5, 1.0])
    rows, slack = linearized_constraints(prob, u, eval_plant(prob.plant, u),
                                         eval_plant_jacobian(prob.plant, u))
    assert_allclose(rows, [[1, 0], [0, 1], [-1, 0], [0, -1], [1, 2], [-1, -2]])
    assert_allclose(slack, [1.5, 0, 0.5, 2, 1, 0])


def test_violation_feasible():
    Y = Polyhedron.box([0.0], [1.0])
    assert_allclose(violation(Y, [0.5]), [0.0, 0.0])


def test_violation_above_upper():
    Y = Polyhedron.box([0.0], [1.0])
    assert_allclose(violation(Y, [1.2]), [0.2, 0.0])


def test_violation_below_lower():
    Y = Polyhedron.box([0.0], [1.0])
    assert_allclose(violation(Y, [-0.3]), [0.0, 0.3])


def test_violation_zero_iff_membership():
    box = Polyhedron.box([-1.0, 0.0], [2.0, 0.5])
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = rng.uniform(-2.0, 2.0, size=2)
        viol = violation(box, x)
        assert (np.all(viol == 0.0)) == box.membership(x)


def test_box_encoding():
    box = Polyhedron.box([-1.0, -2.0], [1.0, 2.0])
    assert box.num_rows == 4
    assert_allclose(box.A, np.vstack([np.eye(2), -np.eye(2)]))
    assert_allclose(box.b, [1.0, 2.0, 1.0, 2.0])
    assert box.is_box


def test_box_bounding_box_round_trip():
    box = Polyhedron.box([-1.5, 0.0], [0.5, 3.0])
    lo, hi = box.bounding_box()
    assert_allclose(lo, [-1.5, 0.0])
    assert_allclose(hi, [0.5, 3.0])


def test_general_polyhedron_bounding_box():
    # simplex u1 + u2 <= 1, u >= 0
    poly = Polyhedron(A=np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
                      b=np.array([1.0, 0.0, 0.0]))
    lo, hi = poly.bounding_box()
    assert_allclose(lo, [0.0, 0.0], atol=1e-9)
    assert_allclose(hi, [1.0, 1.0], atol=1e-9)


def test_zero_row_rejected():
    with pytest.raises(ValueError):
        Polyhedron(A=np.array([[1.0, 0.0], [0.0, 0.0]]), b=np.array([1.0, 1.0]))


def test_non_finite_rows_rejected_by_name():
    # a NaN or an infinite bound used to pass here and fail every controller
    # step later with "r must be finite", naming neither the set nor the row
    for make, rows in (
            (lambda: Polyhedron(A=[[1.0, np.nan]], b=[1.0]), "[0]"),
            (lambda: Polyhedron(A=[[1.0, 0.0], [0.0, 1.0]], b=[1.0, np.nan]), "[1]"),
            (lambda: Polyhedron(A=[[1.0], [-1.0]], b=[-np.inf, np.nan]), "[0 1]"),
            (lambda: Polyhedron.box([-0.5], [np.inf]), "[0]"),
            (lambda: Polyhedron.box([np.nan], [1.0]), "[1]")):  # passes lo <= hi
        with pytest.raises(ValueError, match=f"non-finite entries .*rows {re.escape(rows)}"):
            make()


def test_box_bounds_come_only_from_box():
    # the rows are the one description of the set: no bounds can be given
    # beside them, and a box whose rows are replaced is no longer a box
    with pytest.raises(TypeError):
        Polyhedron(A=[[1.0], [-1.0]], b=[1.0, 1.0], lower=[-5.0], upper=[5.0])
    box = Polyhedron.box([-1.0, 0.0], [1.0, 2.0])
    assert np.array_equal(box.lower, [-1.0, 0.0]) and np.array_equal(box.upper, [1.0, 2.0])
    for bound in (box.lower, box.upper):
        with pytest.raises(ValueError):
            bound[0] = 0.5  # read-only
    moved = dataclasses.replace(box, b=[0.5, 1.0, 0.5, 0.0])
    assert not moved.is_box and moved.lower is None and moved.upper is None
    lo, hi = moved.bounding_box()
    assert_allclose(lo, [-0.5, 0.0], atol=1e-9)
    assert_allclose(hi, [0.5, 1.0], atol=1e-9)


def test_membership_tolerance():
    box = Polyhedron.box([0.0], [1.0])
    assert not box.membership([1.0 + 1e-6])
    assert box.membership([1.0 + 1e-6], tol=1e-5)


def test_metric_field_identity_and_constant():
    G = np.array([[2.0, 0.5], [0.5, 1.0]])
    field = MetricField.constant(G)
    assert_allclose(field.eval(np.array([0.3, 0.7])), G)
    assert_allclose(MetricField.identity(2).eval(np.zeros(2)), np.eye(2))


def test_metric_symmetry_on_builtin_samples():
    prob = builtin_example()
    rng = np.random.default_rng(3)
    for _ in range(20):
        u = rng.uniform(-1.0, 1.0, size=2)
        G = prob.metric.eval(u)
        assert np.max(np.abs(G - G.T)) <= 1e-12
        assert np.linalg.eigvalsh(G)[0] > 0.0


def test_problem_spec_dimension_mismatch():
    prob = builtin_example()
    with pytest.raises(ValueError):
        ProblemSpec(plant=prob.plant, objective=prob.objective,
                    input_set=Polyhedron.box([-1], [1]),  # wrong input dim
                    output_set=prob.output_set, metric=prob.metric)


# each validation error of the model, and the start of its message
MODEL_ERRORS = {
    "plant_dims": (lambda: identity_plant(0), "input_dim must be an integer >= 1"),
    "row_mismatch": (lambda: Polyhedron(A=np.eye(2), b=[1.0]),
                     "row mismatch: A has 2 rows, b has 1"),
    "no_rows": (lambda: Polyhedron(A=np.zeros((0, 2)), b=[]),
                "a polyhedron needs at least one row"),
    "box_lengths": (lambda: Polyhedron.box([0.0], [1.0, 2.0]),
                    "lower and upper must have the same length"),
    "box_order": (lambda: Polyhedron.box([1.0], [0.0]), "box must satisfy lower <= upper"),
    "unbounded": (lambda: Polyhedron(A=[[1.0, 0.0]], b=[1.0]).bounding_box(),
                  "polyhedron must be bounded and nonempty"),
    "output_set_dim": (lambda: dataclasses.replace(
        builtin_example(), output_set=Polyhedron.box([0.0, 0.0], [1.0, 1.0])),
        "output set dimension does not match the plant"),
    "plant_outputs": (lambda: eval_plant(dataclasses.replace(
        builtin_example().plant, eval=lambda u: np.zeros(2)), [0.0, 0.0]),
        "plant returned 2 outputs, expected 1"),
    "gradient_length": (lambda: reduced_gradient(dataclasses.replace(
        builtin_example(), objective=ObjectiveSpec(
            eval=lambda u, y: 0.0, gradient=lambda u, y: np.zeros(2))),
        np.zeros(2), np.zeros(1), np.ones((1, 2))),
        "objective gradient must have length 3"),
}


@pytest.mark.parametrize("name", sorted(MODEL_ERRORS))
def test_model_validation_errors(name):
    make, message = MODEL_ERRORS[name]
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


@pytest.mark.parametrize("field", ["input_dim", "output_dim"])
@pytest.mark.parametrize("value", [2.5, True])
def test_plant_dimensions_are_counts(field, value):
    # a float or a bool passed the old `dim < 1` test
    kwargs = dict(input_dim=1, output_dim=1, eval=lambda u: u, jacobian=lambda u: np.eye(1))
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
        PlantModel(**kwargs)


def test_immutable_arrays():
    box = Polyhedron.box([-1.0], [1.0])
    with pytest.raises(ValueError):
        box.A[0, 0] = 5.0
