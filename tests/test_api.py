"""Every name the package and its modules export in ``__all__`` resolves,
so ``import *`` never fails on a stale entry."""

import importlib
import pkgutil

import pytest

import boxqi

MODULES = ["boxqi", *sorted(f"boxqi.{info.name}" for info in
                            pkgutil.iter_modules(boxqi.__path__))]


def test_the_pipeline_modules_declare_their_exports():
    for name in ("boxqi", "boxqi.qi", "boxqi.convergence",
                 "boxqi.isosurface"):
        assert importlib.import_module(name).__all__, name


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])  # bernstein declares none
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
