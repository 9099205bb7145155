import importlib
import pkgutil
import types

import pytest

import driftlab

MODULES = ["driftlab"] + [
    f"driftlab.{info.name}" for info in pkgutil.iter_modules(driftlab.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_existing_non_module_names(name):
    # a module object in __all__ would let `from driftlab import *`
    # overwrite a caller's variable of the same name (say, `rng`)
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    modules = [n for n in exported if isinstance(getattr(module, n, None), types.ModuleType)]
    assert missing == [] and modules == []
