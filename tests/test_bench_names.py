"""bench/layers.py: every function the traced run wraps by name exists, so a
rename fails the suite, not only the traced benchmark run."""

import importlib

from conftest import REPO


def test_every_wrapped_function_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    layers = importlib.import_module("layers")
    names = [(module, fn) for module, fn, _, _ in layers.TARGETS] + list(layers._FIT.values())
    assert len(names) == len(layers.TARGETS) + len(layers.CLASSIFIERS)
    missing = [
        f"{module}.{fn}" for module, fn in names
        if not callable(getattr(importlib.import_module(module), fn, None))
    ]
    assert missing == []
