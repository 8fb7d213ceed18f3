import ast
import inspect
import os
import subprocess
import textwrap
import sys
from pathlib import Path

import fbopt
from fbopt import certificates, controller, harness, model, problems, qp, saddle, tangent

MODULES = (model, qp, controller, certificates, saddle, tangent, problems, harness)


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


SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(code: str) -> None:
    """Run ``code`` in a new interpreter that imports fbopt from ``src``, so
    no module an earlier test imported is loaded; fail on a non-zero exit."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_scipy_optimize_unloaded():
    run_fresh("import sys, fbopt\n"
              "assert 'scipy.optimize' not in sys.modules\n")


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


# Every product and every all/any verdict on a per-step or per-row path goes
# through numpy's C entry points: ``ndarray.dot`` and ``np.count_nonzero``.
# ``@`` dispatches through the matmul gufunc, and ``.all``/``.any``/``.max``
# through Python wrappers, each costing several times the arithmetic at the
# sizes of a step.
STEP_PATH = (model.Polyhedron._contains, model.reduced_gradient,
             model.linearized_constraints, model._violation, controller._step,
             qp.QpProblem._store, qp._independent, qp.solve_qp, saddle._residual,
             saddle.augmented_lagrangian_gradients, harness.run_trajectory,
             certificates.transient_violation_bound,
             certificates.estimate_lipschitz_constants)
# the one exception: QpProblem._store measures an asymmetry only once an
# exact comparison has found one
ASYMMETRY_PATH = "np.count_nonzero(Q != Q.T)"


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
                and node.func.attr in ("all", "any", "max")]
        assert not slow, f"{func.__qualname__}: {slow}"
    assert exempt == 1
