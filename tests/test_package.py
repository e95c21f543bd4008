"""The package's public list is the union of its modules' lists, so each
public name is declared once, in its module's ``__all__``."""

import importlib
import types

import infoot

MODULES = ("points", "kernels", "sinkhorn", "solver", "projection",
           "datasets", "pipelines")


def _module(name: str) -> types.ModuleType:
    # ``infoot.sinkhorn`` is the function, so modules come from the importer.
    return importlib.import_module(f"infoot.{name}")


def test_package_list_is_the_union_of_the_module_lists():
    expected = ["__version__", "BACKEND"]
    for name in MODULES:
        expected += _module(name).__all__
    assert infoot.__all__ == expected
    assert len(set(expected)) == len(expected)
    assert "limit_check" not in expected


def test_each_public_name_is_its_module_object():
    for name in MODULES:
        module = _module(name)
        for attr in module.__all__:
            assert getattr(infoot, attr) is getattr(module, attr), attr


def test_sinkhorn_is_the_function_and_imports_as_the_module():
    module = _module("sinkhorn")
    assert isinstance(module, types.ModuleType)
    assert infoot.sinkhorn is module.sinkhorn


def test_retired_readers_are_gone():
    # CSVs read back with np.loadtxt; see the README.
    for name in ("load_points_csv", "load_distance_csv"):
        assert not hasattr(infoot, name)
        assert not any(hasattr(_module(m), name) for m in MODULES)
