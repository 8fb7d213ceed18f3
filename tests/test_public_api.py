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
