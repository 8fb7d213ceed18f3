import os
import subprocess
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
