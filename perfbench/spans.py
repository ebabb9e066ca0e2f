"""Spans around the package's public functions, and the per-layer metrics
derived from them.

The layers are measured from outside: while ``Tracer.installed()`` is
active, each function in ``TRACED`` is replaced, in every ``saakiqa``
module that binds it, by a wrapper that records a span (name, start, end,
parent, thread, attributes). The originals are restored on exit; the
package itself is never modified. A span's parent is the innermost open
span of the same thread, so pair scoring inside ``run_eval``'s worker
threads starts new roots.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import os
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

TRACED = (
    ("image", "read_pgm"),
    ("image", "gaussian_filter"),
    ("saak", "train_model"),
    ("saak", "train_stage"),
    ("saak", "extract_training_patches"),
    ("saak", "extract_feature_windows"),
    ("saak", "forward"),
    ("metric", "assess"),
    ("metric", "channel_stats"),
    ("stats", "logistic5_fit"),
    ("stats", "spearman"),
    ("stats", "kendall_tau_b"),
    ("harness", "parse_manifest"),
    ("harness", "run_eval"),
    ("harness", "emit_report"),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _span_name(name, args, kwargs) -> str:
    # train_model trains stage 1 on pixels (1 channel), stage 2 on the
    # S/P-converted stage-1 output.
    if name == "saak.train_stage":
        return "saak.train_stage1" if _arg(args, kwargs, 2, "input_channels", 1) == 1 \
            else "saak.train_stage2"
    return name


def _attrs(name, args, kwargs, result) -> dict:
    if name == "image.read_pgm":
        return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}
    if name == "saak.extract_training_patches":
        h, w = _arg(args, kwargs, 0, "img").shape
        block, stride = _arg(args, kwargs, 1, "block"), _arg(args, kwargs, 2, "stride")
        sampled = math.ceil((h - block + 1) / stride) * math.ceil((w - block + 1) / stride)
        return {"sampled": sampled, "kept": result.shape[0]}
    if name == "saak.extract_feature_windows":
        return {"rows": result.shape[0], "dim": result.shape[1]}
    if name == "stats.logistic5_fit":
        return {"iterations": result.iterations, "sse": result.sse}
    return {}


class Tracer:
    """Collects spans in memory; write them out with :meth:`write`."""

    # Allocation peak is recorded with tracemalloc only here: it is the
    # call whose memory grows with the square of the input.
    ALLOC_TRACKED = frozenset({"stats.kendall_tau_b"})

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()

    @contextmanager
    def installed(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "saakiqa" or n.startswith("saakiqa.")]
        patched = []
        try:
            for layer, fn_name in TRACED:
                orig = getattr(importlib.import_module(f"saakiqa.{layer}"), fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", orig)
                for m in modules:
                    if getattr(m, fn_name, None) is orig:
                        setattr(m, fn_name, wrapper)
                        patched.append((m, fn_name, orig))
            yield self
        finally:
            for m, fn_name, orig in patched:
                setattr(m, fn_name, orig)

    def _wrap(self, name, fn):
        track_alloc = name in self.ALLOC_TRACKED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            if track_alloc:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            attrs = _attrs(name, args, kwargs, result)
            if track_alloc:
                attrs["alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            span = Span(span_id, _span_name(name, args, kwargs), start, end,
                        parent, threading.get_ident(), attrs)
            with self._lock:
                self.spans.append(span)
            return result

        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(asdict(s)) + "\n")


def self_seconds(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it covered by its child spans."""
    covered, cur_start, cur_end = 0.0, None, None
    for c in sorted(children, key=lambda c: c.start):
        s, e = max(c.start, span.start), min(c.end, span.end)
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        covered += cur_end - cur_start
    return span.seconds - covered


def layer_metrics(spans: list[Span], per: int, pairs: int, references: int) -> dict:
    """Per-layer values from one traced pass.

    Times are milliseconds per ``per`` (pairs scored, or statistics
    passes); a layer the workload does not reach reads 0, and so does a
    ratio whose base is 0.
    """
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def ratio(a, b):
        return a / b if b else 0.0

    def ms(name):
        return ratio(1e3 * sum(s.seconds for s in by_name[name]), per)

    def total(name, key):
        return sum(s.attrs[key] for s in by_name[name])

    def mean(name, key):
        return ratio(total(name, key), len(by_name[name]))

    windows = by_name["saak.extract_feature_windows"]
    assess = by_name["metric.assess"]
    return {
        "image.read_pgm.ms": ms("image.read_pgm"),
        "image.read_pgm.mb": ratio(total("image.read_pgm", "bytes") / 1e6, per),
        "image.gaussian_filter.ms": ms("image.gaussian_filter"),
        "saak.train_model.ms": ms("saak.train_model"),
        "saak.train_stage1.ms": ms("saak.train_stage1"),
        "saak.train_stage2.ms": ms("saak.train_stage2"),
        "saak.extract_feature_windows.ms": ms("saak.extract_feature_windows"),
        "saak.forward.ms": ms("saak.forward"),
        "saak.stage1.keep_ratio": ratio(total("saak.extract_training_patches", "kept"),
                                        total("saak.extract_training_patches", "sampled")),
        "saak.stage2.windows": ratio(total("saak.extract_feature_windows", "rows"), per),
        "saak.stage2.window_mb": ratio(
            sum(8 * s.attrs["rows"] * s.attrs["dim"] for s in windows) / 1e6, len(windows)),
        "metric.assess.ms": ms("metric.assess"),
        "metric.assess.self_ms": ratio(
            1e3 * sum(self_seconds(s, children[s.id]) for s in assess), per),
        "metric.channel_stats.ms": ms("metric.channel_stats"),
        "stats.logistic5_fit.ms": ms("stats.logistic5_fit"),
        "stats.logistic5_fit.iterations": mean("stats.logistic5_fit", "iterations"),
        "stats.logistic5_fit.sse": mean("stats.logistic5_fit", "sse"),
        "stats.spearman.ms": ms("stats.spearman"),
        "stats.kendall_tau_b.ms": ms("stats.kendall_tau_b"),
        "stats.kendall_tau_b.alloc_mb": max(
            (s.attrs["alloc_bytes"] / 1e6 for s in by_name["stats.kendall_tau_b"]),
            default=0.0),
        "harness.run_eval.ms": ms("harness.run_eval"),
        "harness.parse_manifest.ms": ms("harness.parse_manifest"),
        "harness.emit_report.ms": ms("harness.emit_report"),
        "harness.train_per_pair": ratio(len(by_name["saak.train_model"]), pairs),
        "harness.ref_reuse": ratio(pairs, references),
        "harness.workers": len({s.thread for s in assess}),
    }
