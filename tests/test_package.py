import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import saakiqa


def test_all_matches_public_bindings():
    names = saakiqa.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(saakiqa, name), name
    public = {name for name, value in vars(saakiqa).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert set(names) - {"__version__"} == public


def test_traced_benchmark_functions_resolve(monkeypatch):
    # The traced benchmark run wraps each (layer, name) of perfbench's
    # TRACED list by looking it up in saakiqa.<layer>; a rename there would
    # only show as an AttributeError in that run.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    # Read-only: no bytecode cache is written next to it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for layer, name in spans.TRACED:
        module = importlib.import_module(f"saakiqa.{layer}")
        assert callable(getattr(module, name, None)), f"saakiqa.{layer}.{name}"
