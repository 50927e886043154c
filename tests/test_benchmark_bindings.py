"""The benchmark's tracer wraps package names by attribute; a simplification
that deletes or renames one of them must fail here, not in the benchmark."""
from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Wrapped bindings at the time the benchmark was defined.
EXPECTED_PATCHES = 44


def test_tracer_patches_every_binding_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    trace = tracer.Tracer()
    with tracer.traced(trace):
        patches = list(trace._patches)
        wrapped = [getattr(owner, attr) for owner, attr, _ in patches]
    assert len(patches) == EXPECTED_PATCHES
    assert all(now is not original for now, (_, _, original) in zip(wrapped, patches))
    assert trace._patches == []
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, f"{owner}.{attr} was not restored"
