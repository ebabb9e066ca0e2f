"""Tests of the benchmark itself: metric names and units, the golden gate,
and traced/untraced identity.

    python3 -m pytest -q perfbench/tests
"""

import copy
import json
import os
import re
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

run.import_program()

import golden  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_spec_names_units_and_bounds():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics + SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("higher", "lower") for m in metrics)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_declared_metric(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stats-3000",
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in declared}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_golden_gate_passes_then_trips_on_perturbed_values(tmp_path):
    want = golden.load()["stats-3000"][0]
    got = golden.golden_outputs("stats-3000", str(tmp_path))[0]
    assert golden.compare(got, want) == []

    better = copy.deepcopy(want)
    better["stats"]["all"]["sse"] *= 1.0 + 1e-3
    assert golden.compare(got, better) == []

    for key, perturb in (("srcc", lambda v: v + 1e-15),
                         ("krcc", lambda v: v - 1e-15),
                         ("sse", lambda v: v * (1.0 - 1e-5))):
        bad = copy.deepcopy(want)
        bad["stats"]["all"][key] = perturb(bad["stats"]["all"][key])
        failures = golden.compare(got, bad)
        assert [item for item, _ in failures] == ["stats[all]"], key
        assert key in failures[0][1].lower()


def test_golden_gate_score_tolerance():
    want = golden.load()["eval-shared"][0]
    got = copy.deepcopy(want)
    got["scores"][3] *= 1.0 + 0.5 * golden.SCORE_RTOL
    assert golden.compare(got, want) == []
    got["scores"][3] = want["scores"][3] * (1.0 + 2.0 * golden.SCORE_RTOL)
    got["scores"][7] = None
    assert [item for item, _ in golden.compare(got, want)] == ["score[3]", "score[7]"]


def _small_eval(tmp_path):
    wl = workloads.make("eval-shared", 5, str(tmp_path))
    wl.size, wl.rows, wl.refs = 64, 20, 2
    wl.pairs_per_unit = wl.items_per_unit = wl.rows
    return wl


def _assess_small():
    wl = workloads.make("assess-512", 5, "")
    wl.size = 64
    return wl


@pytest.mark.parametrize("make_wl", ["assess", "eval", "stats"])
def test_traced_outputs_identical_to_untraced(make_wl, tmp_path):
    wl = {"assess": _assess_small,
          "eval": lambda: _small_eval(tmp_path),
          "stats": lambda: workloads.make("stats-3000", 5, "")}[make_wl]()
    plain = run.Loop(wl, units=2)
    tracer = spans.Tracer()
    originals = {name: getattr(sys.modules[f"saakiqa.{layer}"], name)
                 for layer, name in spans.TRACED}
    with tracer.installed():
        traced = run.Loop(wl, units=2)
    assert traced.outputs == plain.outputs
    assert tracer.spans
    for layer, name in spans.TRACED:
        assert getattr(sys.modules[f"saakiqa.{layer}"], name) is originals[name]


def test_spans_nest_and_layer_metrics_cover_declared_names(tmp_path):
    wl = _small_eval(tmp_path)
    tracer = spans.Tracer()
    with tracer.installed():
        run.Loop(wl, units=1)
    by_id = {s.id: s for s in tracer.spans}
    for s in tracer.spans:
        if s.name == "saak.train_model":
            assert by_id[s.parent].name == "metric.assess"
        if s.name in ("saak.train_stage1", "saak.train_stage2"):
            assert by_id[s.parent].name == "saak.train_model"
    metrics = spans.layer_metrics(tracer.spans, per=wl.rows, pairs=wl.rows,
                                  references=wl.references(1))
    added_by_run = {"harness.cpu_per_wall", "harness.serial_speedup",
                    "trace.overhead_frac", "error_rate"}
    assert set(metrics) | added_by_run == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["harness.train_per_pair"] == 1.0
    assert metrics["harness.ref_reuse"] == 10.0
    assert metrics["saak.stage2.windows"] == 13 * 13
    path = tmp_path / "spans.jsonl"
    tracer.write(str(path))
    assert len(path.read_text().splitlines()) == len(tracer.spans)


def test_self_time_subtracts_union_of_children():
    parent = spans.Span(0, "p", 0.0, 10.0, None, 1)
    kids = [spans.Span(1, "a", 1.0, 4.0, 0, 1), spans.Span(2, "b", 3.0, 5.0, 0, 1),
            spans.Span(3, "c", 8.0, 12.0, 0, 1)]
    assert spans.self_seconds(parent, kids) == pytest.approx(10.0 - 4.0 - 2.0)


def test_inputs_are_a_function_of_the_seed(tmp_path):
    a, b = inputs.assess_pair(9, 3, 64), inputs.assess_pair(9, 3, 64)
    assert (a.ref == b.ref).all() and (a.dist == b.dist).all() and a.codec == b.codec
    assert not (inputs.assess_pair(10, 3, 64).ref == a.ref).all()
    one, two = tmp_path / "one", tmp_path / "two"
    one.mkdir()
    two.mkdir()
    m1 = inputs.write_manifest(4, str(one), 20, 2, 64)
    m2 = inputs.write_manifest(4, str(two), 20, 2, 64)
    assert open(m1).read() == open(m2).read()
    assert (one / "dist013.pgm").read_bytes() == (two / "dist013.pgm").read_bytes()
