"""The benchmark's span tracer must find every function it names.

The tracer wraps package functions by module and attribute name, so a
renamed function would otherwise only surface when a traced benchmark runs.
"""

import importlib
import inspect
import sys
from pathlib import Path

import clique_blowup  # noqa: F401  (the tracer patches loaded package modules)

ROOT = Path(__file__).resolve().parent.parent


def _binding(target):
    owner = sys.modules[target.module]
    *cls_path, attr = target.attr.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    return inspect.getattr_static(owner, attr)


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    tracer = importlib.import_module("bench.tracer")
    assert len(tracer.TARGETS) == 23
    originals = [_binding(t) for t in tracer.TARGETS]
    spans = tracer.Tracer()
    try:
        spans.wrap()
        unpatched = [
            t.layer for t, raw in zip(tracer.TARGETS, originals) if _binding(t) is raw
        ]
    finally:
        spans.unwrap()
    assert unpatched == []
    assert all(_binding(t) is raw for t, raw in zip(tracer.TARGETS, originals))
