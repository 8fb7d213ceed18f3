import ast
import inspect
import os
import subprocess
import textwrap
import sys
from pathlib import Path

import pytest

import fbopt
from fbopt import certificates, controller, harness, model, problems, qp, saddle

MODULES = (model, qp, controller, certificates, saddle, problems, harness)


def test_module_exports_resolve():
    for module in MODULES:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
            assert getattr(fbopt, name) is getattr(module, name)


def test_no_name_exported_by_two_modules():
    owner = {}
    for module in MODULES:
        for name in module.__all__:
            assert name not in owner, f"{name} in {owner.get(name)} and {module.__name__}"
            owner[name] = module.__name__


def test_package_exports_union_of_modules():
    union = {name for module in MODULES for name in module.__all__}
    assert set(fbopt.__all__) == union | {"__version__"}
    assert len(fbopt.__all__) == len(union) + 1


# test-only diagnostics: the oracle and the KKT residual live in
# tests/oracles.py, the small-step limit in tests/flow.py, and the step QP's
# rank flag is the one LICQ signal
@pytest.mark.parametrize("name", ["enumerate_oracle", "kkt_residual",
                                  "check_licq", "LicqReport", "NotFeasible",
                                  "tangent_cone", "project_tangent_cone",
                                  "limit_consistency", "tangent"])
def test_oracles_are_not_exported(name):
    assert name not in fbopt.__all__
    for module in (fbopt,) + MODULES:
        assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_oracles_import_numpy_only():
    # the oracle must not drift back onto the solver's code
    tree = ast.parse((Path(__file__).resolve().parent / "oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            imported.add(node.module.split(".")[0])
    assert imported <= {"itertools", "typing", "numpy"}


def test_flow_uses_public_names_only():
    # the small-step check must not drift back onto the controller's privates
    tree = ast.parse((Path(__file__).resolve().parent / "flow.py").read_text())
    from_fbopt = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(alias.name.split(".")[0] != "fbopt" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "fbopt":
            assert node.module == "fbopt", node.module
            from_fbopt.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            assert not node.attr.startswith("_"), node.attr
    assert from_fbopt
    for name in from_fbopt:
        assert name in fbopt.__all__ and not name.startswith("_"), name


SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports fbopt from ``src``, so
    no module an earlier test imported is loaded; fail on a non-zero exit,
    else return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_readme_quick_start_prints_what_its_comment_says():
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    code = readme.split("```python\n", 1)[1].split("```", 1)[0]
    lines = code.splitlines()
    last_print = max(i for i, line in enumerate(lines) if line.startswith("print("))
    expected = lines[last_print + 1]
    assert expected == "# RunStatus.CONVERGED False [-0.5  1. ]"
    assert run_fresh(code).splitlines()[-1] == expected[2:]


# appended to code run by ``run_fresh``: fail if any part of SciPy is loaded
NO_SCIPY = ("loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n")


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize and scipy.linalg alike: the first QP solve imports LAPACK
    run_fresh("import sys, fbopt\n" + NO_SCIPY)


def test_qp_linprog_resolves_to_scipys():
    # perfbench/tracer.py looks the name up on fbopt.qp
    run_fresh("import fbopt, scipy.optimize\n"
              "assert fbopt.qp.linprog is scipy.optimize.linprog\n"
              "try:\n"
              "    fbopt.qp.no_such_name\n"
              "except AttributeError as exc:\n"
              "    assert 'no_such_name' in str(exc)\n"
              "else:\n"
              "    raise AssertionError('fbopt.qp.no_such_name resolved')\n")


def test_non_box_bounding_box_imports_linprog_lazily():
    run_fresh("import sys\n"
              "from fbopt import Polyhedron\n"
              "triangle = Polyhedron(A=[[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]],\n"
              "                      b=[0.0, 0.0, 1.0])\n"
              "lo, hi = triangle.bounding_box()\n"
              "assert abs(lo).max() < 1e-9 and abs(hi - 1.0).max() < 1e-9, (lo, hi)\n"
              "assert 'scipy.optimize' in sys.modules\n")


SADDLE_RUN = ("import sys\n"
              "from fbopt import ScenarioConfig, run_trajectory\n"
              "log = run_trajectory(ScenarioConfig('cubic2d', 'saddle', 0.01, (0.0, 0.0),\n"
              "                                    max_iters=50, gamma=0.5, rho=1.0))\n"
              "assert log.iters.size == 51, log.iters.size\n")


@pytest.mark.parametrize("code", [
    SADDLE_RUN,
    SADDLE_RUN + "from fbopt import read_csv, write_csv\n"
                 "write_csv(log, {csv!r})\n"
                 "assert (read_csv({csv!r}).u == log.u).all()\n",
    "import os, sys\n"
    "from fbopt.cli import main\n"
    "assert main(['run', '--scenario', {scenario!r}, '--out', {out!r}]) == 0\n"
    "assert os.path.getsize(os.path.join({out!r}, 'trajectory.csv'))\n",
], ids=["saddle_run", "csv_round_trip", "cli_run_saddle"])
def test_saddle_run_and_csv_tools_load_no_scipy(tmp_path, code):
    # the saddle baseline on a box input set clamps and solves no QP
    scenario = tmp_path / "saddle.txt"
    scenario.write_text("problem_name = cubic2d\nscheme = saddle\nalpha = 0.01\n"
                        "gamma = 0.5\nrho = 1.0\nu0 = 0.0, 0.0\nmax_iters = 5000\n"
                        "stationarity_tol = 1e-6\n", encoding="utf-8")
    run_fresh(code.format(csv=str(tmp_path / "t.csv"), scenario=str(scenario),
                          out=str(tmp_path / "out")) + NO_SCIPY)


@pytest.mark.parametrize("call", [
    "parts(solve_qp(loop_qp))",
    "(project_polyhedron(triangle, [1.0, 1.0]),)",
    # the step calls the solver core, not solve_qp: cubic2d's vertex QP
    "step_parts(feedback_step(builtin_example(), [-0.5, 1.0], 0.01))",
], ids=["solve_qp", "project_polyhedron", "feedback_step"])
def test_first_qp_solve_binds_lapack_and_matches_a_warm_solve(call):
    run_fresh("import sys\n"
              "import numpy as np\n"
              "from fbopt import Polyhedron, QpProblem, builtin_example, feedback_step, \\\n"
              "    project_polyhedron, qp, solve_qp\n"
              "loop_qp = QpProblem(Q=np.eye(2), c=[-3.0, 0.0],\n"
              "                    M=[[1.0, 0.0], [-1.0, 1.0]], r=[1.0, -1.5])\n"
              "triangle = Polyhedron(A=[[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]],\n"
              "                      b=[0.0, 0.0, 1.0])\n"
              "parts = lambda sol: (sol.w, sol.multipliers)\n"
              "step_parts = lambda st: (st.w, st.nu, st.mu, st.u_next)\n"
              "assert 'scipy.linalg' not in sys.modules\n"
              f"cold = {call}\n"
              "assert 'scipy.linalg.lapack' in sys.modules\n"
              "assert None not in (qp.dgesv, qp.dgetrs, qp.dpotrf)\n"
              f"warm = {call}\n"
              "assert all(np.array_equal(a, b) for a, b in zip(cold, warm, strict=True))\n"
              "assert np.allclose(project_polyhedron(triangle, [1.0, 1.0]), 0.5)\n")


# Every product and every all/any verdict on a per-step or per-row path goes
# through numpy's C entry points: ``ndarray.dot`` and ``np.count_nonzero``.
# ``@`` dispatches through the matmul gufunc, and ``.all``/``.any``/``.max``
# and ``np.argmax`` through Python wrappers, each costing several times the
# arithmetic at the sizes of a step.
STEP_PATH = (model.Polyhedron._contains, model.reduced_gradient,
             model.linearized_constraints, model._violation, model._jacobian,
             controller._projection_qp, controller._step, controller.feedback_step,
             qp._check_qp, qp._independent, qp.solve_qp, qp._solve, qp._finish,
             qp._kkt_solve, qp._equality_solve,
             saddle.augmented_lagrangian_gradients, harness.run_trajectory,
             certificates.transient_violation_bound,
             certificates.estimate_lipschitz_constants)
# the one exception: qp._check_qp, the one check of every QP, measures an
# asymmetry only once an exact comparison of bytes has found one
ASYMMETRY_PATH = "Q.tobytes() != Q.T.tobytes()"
SLOW_FUNCTIONS = ("np.argmax",)


def test_step_path_uses_numpy_entry_points():
    exempt = 0
    for func in STEP_PATH:
        tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
        for node in ast.walk(tree):
            if isinstance(node, ast.If) and ast.unparse(node.test) == ASYMMETRY_PATH:
                node.body = []
                exempt += 1
        slow = [ast.unparse(node) for node in ast.walk(tree)
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
                or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and (node.func.attr in ("all", "any", "max")
                     or ast.unparse(node.func) in SLOW_FUNCTIONS)]
        assert not slow, f"{func.__qualname__}: {slow}"
    assert exempt == 1
