"""Every name a module exports through ``__all__`` must exist, and a star
import of every module, the package root included, must succeed.

A deleted function whose ``__all__`` entry stays behind breaks
``from nsdq.<module> import *`` and nothing else, so no other test sees it.
"""

import importlib
import pkgutil

import pytest

import nsdq

MODULES = ["nsdq"] + [f"nsdq.{info.name}" for info in pkgutil.iter_modules(nsdq.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
