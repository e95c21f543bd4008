"""Guards for the benchmark's tracing, which patches library names from outside.

``perfbench/spans.py`` replaces functions under the module attributes their
callers look up. A rename or removal in the library would otherwise surface
only when the traced benchmark runs; these checks catch it in the unit tests.
"""

import importlib
import sys
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans(monkeypatch) -> types.ModuleType:
    # Executed from its source text, so nothing (no bytecode cache) is
    # written next to the benchmark's files. Dataclasses look their module
    # up in sys.modules while the class body is processed.
    module = types.ModuleType("perfbench_spans")
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_traced_names_exist(monkeypatch):
    spans = _load_spans(monkeypatch)
    missing = [f"{mod}.{attr}" for mod, attr, *_ in spans._TARGETS
               if not hasattr(importlib.import_module(mod), attr)]
    assert not missing
    for mod in spans._PARALLEL_USERS:
        assert hasattr(importlib.import_module(mod), "parallel_map"), mod
    assert callable(importlib.import_module("infoot._parallel").thread_count)
