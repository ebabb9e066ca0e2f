import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import saakiqa
from conftest import make_textured_image
from saakiqa import synth_distort

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_all_matches_public_bindings():
    names = saakiqa.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(saakiqa, name), name
    public = {name for name, value in vars(saakiqa).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert set(names) - {"__version__"} == public


def test_import_needs_only_numpy():
    # numpy is the only runtime dependency: importing the package loads no
    # other third-party module. A fresh interpreter sees only its own
    # imports.
    code = ("import sys; before = set(sys.modules); import saakiqa; "
            "print('\\n'.join(sorted(set(sys.modules) - before)))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60,
                         cwd=Path(saakiqa.__file__).resolve().parents[1])
    assert run.returncode == 0, run.stderr
    top = {name.partition(".")[0] for name in run.stdout.split()}
    assert "saakiqa" in top
    assert top - sys.stdlib_module_names - {"numpy", "saakiqa"} == set()


def test_settings_live_beside_the_score_they_set():
    # QualityConfig and CODEC_LAMBDAS are defined in metric, with C and H.
    assert saakiqa.QualityConfig is saakiqa.metric.QualityConfig
    assert saakiqa.CODEC_LAMBDAS is saakiqa.metric.CODEC_LAMBDAS
    assert importlib.util.find_spec("saakiqa.config") is None


def test_sigma_has_one_owner():
    # The pre-filter width is set where a reference is prepared, and read
    # from the prepared Reference; no per-distortion setting repeats it.
    # Error classes take only a message and have no signature to read.
    api = [(name, getattr(saakiqa, name)) for name in saakiqa.__all__]
    api = [(name, value) for name, value in api if callable(value)
           and not (inspect.isclass(value) and issubclass(value, BaseException))]
    api.append(("QualityConfig.for_codec", saakiqa.QualityConfig.for_codec))
    takes_sigma = {name for name, value in api
                   if "sigma" in inspect.signature(value).parameters}
    assert takes_sigma == {"Reference", "prepare_reference", "run_eval",
                           "gaussian_filter"}


@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
def test_version_has_one_owner():
    # pyproject.toml reads the version from saakiqa._version at build time.
    pyproject = pytest.importorskip("setuptools.config.pyprojecttoml")
    path = Path(__file__).resolve().parents[1] / "pyproject.toml"
    config = pyproject.read_configuration(path, expand=True)
    assert config["project"]["dynamic"] == ["version"]
    assert config["project"]["version"] == saakiqa.__version__


def test_array_dataclasses_compare_by_identity():
    # Frozen dataclasses with array fields: a generated __eq__ would compare
    # arrays (ambiguous truth value) and the generated __hash__ would hash
    # them (TypeError), so these compare and hash by identity.
    ref = make_textured_image(42, 64, 64)
    dist = synth_distort(ref, 16.0)
    prepared, other = saakiqa.prepare_reference(ref), saakiqa.prepare_reference(ref)
    _, stats = saakiqa.assess(prepared, dist)
    x = np.linspace(0.0, 1.0, 20)
    fit = saakiqa.logistic5_fit(x, 3.0 * x + np.sin(7.0 * x))
    for obj, twin in ((prepared, other), (prepared.model[0], other.model[0]),
                      (stats, saakiqa.assess(other, dist)[1]),
                      (fit, saakiqa.logistic5_fit(x, 3.0 * x + np.sin(7.0 * x)))):
        assert hash(obj) == hash(obj)
        assert obj in [twin, obj] and obj not in [twin]
        assert {obj: 1}[obj] == 1


def _load_perfbench(monkeypatch, name, as_name=None):
    # Read-only: no bytecode cache is written next to it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        as_name or name, _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses, and its siblings' imports, look it up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _load_spans(monkeypatch):
    return _load_perfbench(monkeypatch, "spans", "_perfbench_spans")


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
    # wrapped functions are called and from their arguments (train_stage's
    # input_channels keyword, extract_training_patches' positional block and
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


def test_untraced_benchmark_units_match_golden(monkeypatch, tmp_path):
    # The timed, untraced benchmark run calls the package's public API
    # directly (QualityConfig.for_codec, run_eval, emit_report); a changed
    # signature there would only show as a failed benchmark. Golden unit 0
    # of three workloads runs here; the fit SSE is not pinned, since it
    # moves with the BLAS thread count.
    _, workloads, golden = [_load_perfbench(monkeypatch, name)
                            for name in ("inputs", "workloads", "golden")]
    want = golden.load()
    for name in ("assess-512", "eval-shared", "stats-3000"):
        workdir = tmp_path / name
        workdir.mkdir()
        wl = workloads.make(name, golden.GOLDEN_SEED, str(workdir))
        unit = wl.unit(0)
        out = wl.outputs(unit, wl.run(unit))
        assert workloads.check(out) == [], name
        scores = want[name][0]["scores"]
        assert len(out["scores"]) == len(scores), name
        for got, w in zip(out["scores"], scores):
            assert abs(got - w) <= golden.SCORE_RTOL * abs(w), name
