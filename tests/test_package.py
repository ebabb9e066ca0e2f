import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import saakiqa
from conftest import make_textured_image
from saakiqa import synth_distort


def test_all_matches_public_bindings():
    names = saakiqa.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(saakiqa, name), name
    public = {name for name, value in vars(saakiqa).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert set(names) - {"__version__"} == public


def _load_spans(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    # Read-only: no bytecode cache is written next to it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    return spans


def test_traced_benchmark_functions_resolve(monkeypatch):
    # The traced benchmark run wraps each (layer, name) of perfbench's
    # TRACED list by looking it up in saakiqa.<layer>; a rename there would
    # only show as an AttributeError in that run.
    spans = _load_spans(monkeypatch)
    assert spans.TRACED
    for layer, name in spans.TRACED:
        module = importlib.import_module(f"saakiqa.{layer}")
        assert callable(getattr(module, name, None)), f"saakiqa.{layer}.{name}"


def test_traced_assess_fills_layer_metrics(monkeypatch):
    # The traced run names spans and derives layer metrics from where the
    # wrapped functions are called and from their positional arguments
    # (train_stage's channel count, extract_training_patches' block and
    # stride). A call moved or re-ordered would only show as a metric
    # reading 0 there.
    spans = _load_spans(monkeypatch)
    ref = make_textured_image(41, 64, 64)
    dist = synth_distort(ref, 16.0)
    tracer = spans.Tracer()
    with tracer.installed():
        saakiqa.assess(ref, dist)
    m = spans.layer_metrics(tracer.spans, per=1, pairs=1, references=1)
    for name in ("saak.train_stage1.ms", "saak.train_stage2.ms", "saak.forward.ms",
                 "metric.channel_stats.ms", "image.gaussian_filter.ms"):
        assert m[name] > 0.0, name
    assert 0.0 < m["saak.stage1.keep_ratio"] <= 1.0
    assert m["harness.train_per_pair"] == 1.0
