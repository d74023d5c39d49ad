"""Every name a fivevertex module exports must exist, so that deleting a
function cannot leave a stale entry in its module's __all__."""

import importlib
import pkgutil

import pytest

import fivevertex

MODULES = ["fivevertex"] + [f"fivevertex.{m.name}"
                            for m in pkgutil.iter_modules(fivevertex.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
