"""Every exported name resolves: a class or function that is deleted or
renamed cannot stay listed in an ``__all__``."""
from __future__ import annotations

import importlib
import pkgutil

import pytest

import waveflow

MODULES = ["waveflow"] + [f"waveflow.{m.name}" for m in pkgutil.iter_modules(waveflow.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported, f"{name} has no __all__"
    assert len(set(exported)) == len(exported), f"{name}.__all__ lists a name twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ names what it does not define: {missing}"
