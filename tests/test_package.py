import ast
import hashlib
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import saakiqa
from conftest import ROOT, blas_threads, make_textured_image, run_python
from saakiqa import prepare_reference, synth_distort

_PERFBENCH = ROOT / "perfbench"


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
    run = run_python("-c", code)
    assert run.returncode == 0, run.stderr
    top = {name.partition(".")[0] for name in run.stdout.split()}
    assert "saakiqa" in top
    assert top - sys.stdlib_module_names - {"numpy", "saakiqa"} == set()


def _reference_bits():
    """The SHA-256, in hex, of a 64 x 64 prepared reference's stage kernels
    and features. Their last bits differ between one and two BLAS threads,
    so a switch that did nothing would not give a one-thread run's digest."""
    ref = prepare_reference(make_textured_image(41, 64, 64))
    digest = hashlib.sha256()
    for array in (*(stage.kernels for stage in ref.model), ref.f_ref):
        digest.update(array.tobytes())
    return digest.hexdigest()


def test_blas_threads_gives_a_one_thread_interpreters_bits():
    # Workers take one BLAS thread from the environment when numpy loads;
    # the tests pin it in-process. Both must prepare the same reference.
    # Scoring is compared by the contract table's worker-count cells. The
    # block restores the count it found.
    with blas_threads(1) as (get, before):
        assert get() == 1
        pinned = _reference_bits()
    assert get() == before
    run = run_python(
        "-c", "from test_package import _reference_bits; print(_reference_bits())",
        blas_thread_count=1)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == pinned


def test_fresh_interpreters_have_one_owner():
    # conftest.run_python sets the import path and the BLAS thread count of
    # every interpreter the tests start, and conftest.blas_threads the count
    # in this one, so no other test module imports subprocess or ctypes.
    importers = set()
    for path in (ROOT / "tests").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            importers.update((path.name, m.partition(".")[0]) for m in modules
                             if m.partition(".")[0] in ("ctypes", "subprocess"))
    assert importers == {("conftest.py", "ctypes"), ("conftest.py", "subprocess")}


def test_no_name_defined_twice_in_one_scope():
    # A second def or class of a name silently replaces the first, so a
    # shadowed test class is never collected. Each module body and class
    # body of the package and of the tests may bind a name by def or class
    # once.
    files = [*Path(saakiqa.__file__).resolve().parent.glob("*.py"),
             *(ROOT / "tests").glob("*.py")]
    twice = []
    for path in sorted(files):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for scope in (tree, *(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef))):
            seen = set()
            for node in scope.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    if node.name in seen:
                        twice.append(f"{path.name}:{node.lineno} {node.name}")
                    seen.add(node.name)
    assert twice == []


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


def _package_owners(match):
    """``module.function`` of each node in the package that ``match``
    accepts, once per node."""
    owners = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = f"{owner}.{node.name}"
        if match(node):
            owners.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for path in Path(saakiqa.__file__).resolve().parent.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return owners


def _package_readers(name):
    """``module.function`` of every place in the package that reads
    ``name``, as a bare name or as an attribute."""
    return set(_package_owners(
        lambda node: isinstance(node, (ast.Name, ast.Attribute))
        and isinstance(node.ctx, ast.Load)
        and name in (getattr(node, "id", None), getattr(node, "attr", None))))


def test_covariance_and_kernels_have_one_owner_each():
    # train_stage composes two halves: the centring block is read only
    # where the covariance is summed, and eigh is called only where the
    # covariance becomes kernels, so a change to one half edits one function.
    assert _package_readers("_CENTRED_BLOCK") == {"saak._centred_gram"}
    assert _package_readers("eigh") == {"saak._kernels"}


def test_scoring_pool_has_one_owner():
    # _workers decides how many workers a batch gets, starts them and stops
    # them: the usable CPUs, the cost model and the workers' BLAS thread
    # variables are read only there, so a change to the pool edits one
    # module. harness imports it only inside run_eval, since an import at
    # the top would make runpy warn in every worker it starts.
    for name in ("sched_getaffinity", "_ROW_AND_START_COSTS", "_WORKER_SLOWDOWN",
                 "_MAX_WORKERS", "_BLAS_THREAD_VARS"):
        owners = _package_readers(name)
        assert owners and {owner.partition(".")[0] for owner in owners} == {"_workers"}, name
    assert _package_owners(lambda node: isinstance(node, ast.ImportFrom) and any(
        alias.name == "_workers" for alias in node.names)) == ["harness.run_eval"]


def test_stats_sums_products_in_one_place():
    # A BLAS dot splits a long sum across its threads, so its last bits
    # move with the thread count; stats sums every product through
    # _sum_products instead, and calls no BLAS dot.
    tree = ast.parse(Path(saakiqa.stats.__file__).read_text(encoding="utf-8"))
    dots = [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, ast.MatMult)
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("dot", "vdot", "inner")]
    assert dots == []


def test_filter_pads_once():
    # The Gaussian pre-filter mirrors the border once, in both axes, and
    # both tap passes read that one padded copy.
    def np_pad_call(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "pad" and getattr(node.func.value, "id", None) == "np")

    assert _package_owners(np_pad_call) == ["image.gaussian_filter"]


def test_api_is_declared_once():
    # __init__.py's import block is the one list of the public names;
    # __all__ is derived from it, so no literal list spells them again.
    def spelled_all(node):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            return False
        return (any(getattr(t, "id", None) == "__all__" for t in targets)
                and isinstance(node.value, (ast.List, ast.Tuple))
                and sum(isinstance(e, ast.Constant) and isinstance(e.value, str)
                        for e in node.value.elts) > 1)

    assert _package_owners(spelled_all) == []


def test_sampling_settings_are_constants():
    # The paper fixes Saak's sampling: the texture threshold and the
    # stage-2 window geometry are constants, not arguments. Stage 1 keeps
    # block and stride, which the traced benchmark reads positionally.
    assert list(inspect.signature(saakiqa.saak.extract_training_patches).parameters) == [
        "img", "block", "stride"]
    assert list(inspect.signature(saakiqa.saak.extract_feature_windows).parameters) == [
        "features"]
    assert saakiqa.saak.STD_THRESHOLD == 2.0


def test_readme_library_use_runs(tmp_path, monkeypatch):
    # The first python block of the README runs as written, on images and
    # a manifest with the file names it uses.
    readme = (ROOT / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    ref = make_textured_image(43, 64, 64)
    saakiqa.write_pgm(ref, tmp_path / "lighthouse.pgm")
    rows = ["ref,dist,mos,codec"]
    for q in (10, 30):
        saakiqa.write_pgm(synth_distort(ref, 2.0 * q), tmp_path / f"lighthouse_q{q}.pgm")
        rows.append(f"lighthouse.pgm,lighthouse_q{q}.pgm,{q / 10},jpeg")
    (tmp_path / "pairs.csv").write_text("\n".join(rows) + "\n")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert [r.ok for r in namespace["report"].results] == [True, True]


@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
def test_version_has_one_owner():
    # pyproject.toml reads the version from saakiqa._version at build time.
    pyproject = pytest.importorskip("setuptools.config.pyprojecttoml")
    config = pyproject.read_configuration(ROOT / "pyproject.toml", expand=True)
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


def test_pooled_benchmark_unit_matches_golden(monkeypatch, tmp_path):
    # eval-unique gives every row its own reference, so run_eval scores it
    # in worker processes wherever two CPUs are usable; golden unit 0 here
    # checks that path's scores and ranks as the benchmark's gate does.
    # The fit SSE is not pinned, as above.
    _, workloads, golden = [_load_perfbench(monkeypatch, name)
                            for name in ("inputs", "workloads", "golden")]
    want = golden.load()["eval-unique"][0]
    wl = workloads.make("eval-unique", golden.GOLDEN_SEED, str(tmp_path))
    unit = wl.unit(0)
    out = wl.outputs(unit, wl.run(unit))
    assert workloads.check(out) == []
    assert len(out["scores"]) == len(want["scores"])
    for got, w in zip(out["scores"], want["scores"]):
        assert abs(got - w) <= golden.SCORE_RTOL * abs(w)
    for codec, w in want["stats"].items():
        assert (out["stats"][codec]["srcc"], out["stats"][codec]["krcc"]) == (
            w["srcc"], w["krcc"]), codec
