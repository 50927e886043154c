"""Every exported name resolves and every imported name is used: a class
or function that is deleted or renamed cannot stay listed in an
``__all__``, nor leave an import of it behind."""
from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

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


SOURCES = sorted((Path(waveflow.__file__).parent).glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    """A deletion cannot leave an import behind: every imported name is read
    or listed in ``__all__``, unless its line says ``# noqa: F401``."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"line {node.lineno}: {name}")
    assert unused == [], f"{path.name} imports names it never uses: {unused}"
