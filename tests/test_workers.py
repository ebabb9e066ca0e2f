"""The worker processes run_eval scores reference groups on.

Each test runs its caller in a fresh interpreter through
``conftest.run_python``: workers outlive the run_eval call that starts
them, and some tests kill one.
"""

import json
import os
import shutil

import pytest

from conftest import POOL, ROOT, make_textured_image, run_python
from saakiqa import synth_distort, write_pgm

# Each caller forces the pool: up to POOL workers, one per group.
_POOLED = f"_workers._worker_count = lambda sizes: min(len(sizes), {POOL})\n"


def _write_batch(tmp_path, refs=(0, 1)):
    """Two 64x64 rows per reference; returns the manifest path."""
    lines = ["ref,dist,mos,codec"]
    for k in refs:
        ref = make_textured_image(500 + k, 64, 64)
        write_pgm(ref, tmp_path / f"ref{k}.pgm")
        for q in (8, 64):
            write_pgm(synth_distort(ref, q), tmp_path / f"d{k}_{q}.pgm")
            lines.append(f"ref{k}.pgm,d{k}_{q}.pgm,{-q},jpeg")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def _run(tmp_path, body, *args):
    script = tmp_path / "caller.py"
    script.write_text("import os, sys\n" + body)
    run = run_python(str(script), *map(str, args), timeout=120)
    assert run.returncode == 0, run.stderr
    return run


def test_workers_run_one_blas_thread_on_the_callers_source(tmp_path):
    # The caller imports a copy of the package from elsewhere, ahead of the
    # PYTHONPATH it inherits, and runs with no BLAS thread variable set. Its
    # module body has no __main__ guard and runs run_eval at import.
    shutil.copytree(ROOT / "src" / "saakiqa", tmp_path / "copy" / "saakiqa",
                    ignore=shutil.ignore_patterns("__pycache__"))
    body = (
        "sys.path.insert(0, sys.argv[1])\n"
        "import json, saakiqa\n"
        "from saakiqa import _workers, parse_manifest, run_eval\n"
        + _POOLED +
        "before = dict(os.environ)\n"
        "report = run_eval(parse_manifest(sys.argv[2]))\n"
        "probe = ('[__import__(\"os\").getpid(), __import__(\"saakiqa\").__file__, '\n"
        "         '[__import__(\"os\").environ.get(k) for k in '\n"
        "         '(\"OPENBLAS_NUM_THREADS\", \"OMP_NUM_THREADS\", \"MKL_NUM_THREADS\")]]')\n"
        "n = len(_workers._workers)\n"
        "print(json.dumps({'caller': saakiqa.__file__,\n"
        "                  'workers': _workers.map(eval, [(probe, {})] * n, n),\n"
        "                  'environ_unchanged': dict(os.environ) == before,\n"
        "                  'scored': [r.ok for r in report.results]}))\n")
    run = _run(tmp_path, body, tmp_path / "copy", _write_batch(tmp_path))
    # Nothing warns, in the caller or in its workers, which share its stderr.
    assert run.stderr == ""
    out = json.loads(run.stdout)
    assert out["caller"] == str(tmp_path / "copy" / "saakiqa" / "__init__.py")
    assert out["scored"] == [True] * 4
    assert out["environ_unchanged"]
    pids = [pid for pid, _, _ in out["workers"]]
    assert len(set(pids)) == len(pids) == POOL
    for _, source, blas in out["workers"]:
        assert source == out["caller"]
        assert blas == ["1", "1", "1"]
    # The caller has exited, and its workers with it.
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
def test_killed_worker_makes_run_eval_raise(tmp_path):
    # The largest group's reference is a named pipe: the first worker blocks
    # reading it until the caller opens the pipe for writing and kills it.
    manifest = _write_batch(tmp_path, refs=(1, 2))
    os.mkfifo(tmp_path / "ref0.pgm")
    manifest.write_text(manifest.read_text().replace(
        "codec\n", "codec\n" + "ref0.pgm,d1_8.pgm,1.0,jpeg\n" * 3, 1))
    body = (
        "import signal, threading\n"
        "from saakiqa import _workers, parse_manifest, run_eval\n"
        + _POOLED +
        "def kill_blocked_worker():\n"
        "    with open(sys.argv[2], 'wb'):\n"
        "        os.kill(_workers._workers[0].pid, signal.SIGKILL)\n"
        "threading.Thread(target=kill_blocked_worker, daemon=True).start()\n"
        "records = parse_manifest(sys.argv[1])\n"
        "try:\n"
        "    run_eval(records)\n"
        "except RuntimeError as exc:\n"
        "    print(exc)\n"
        "print([r.ok for r in run_eval(records[3:]).results])\n"
        "idle = _workers._workers[0]\n"
        "os.kill(idle.pid, signal.SIGKILL)\n"
        "idle.wait()\n"
        "print([r.ok for r in run_eval(records[3:]).results])\n")
    out = _run(tmp_path, body, manifest, tmp_path / "ref0.pgm").stdout.splitlines()
    assert out[0].startswith("scoring worker process ")
    assert out[0].endswith(" exited with code -9 mid-batch")
    # The next call starts new workers, and replaces one killed between calls.
    assert out[1:] == [str([True] * 4)] * 2


def test_worker_that_stopped_reading_makes_map_raise(tmp_path):
    # A worker that has closed its stdin but not yet exited breaks the pipe
    # under the next call, which stays in the caller's buffer. Stopping the
    # workers must still raise the worker's exit, not the broken pipe.
    body = (
        "from saakiqa import _workers\n"
        "code = ('import os, threading, time; os.close(0); '\n"
        "        'threading.Thread(target=time.sleep, args=(1,)).start()')\n"
        "_workers.map(exec, [(code, {})], 1)\n"
        "try:\n"
        "    _workers.map(eval, [('1', {})], 1)\n"
        "except RuntimeError as exc:\n"
        "    print(exc)\n"
        "print(_workers.map(eval, [('1 + 1', {})], 1))\n")
    out = _run(tmp_path, body).stdout.splitlines()
    assert out[0].startswith("scoring worker process ")
    assert out[0].endswith(" exited with code 1 mid-batch")
    assert out[1:] == ["[2]"]


def test_worker_errors_match_the_calling_thread(tmp_path):
    # No path at all is a bug in the caller, not a row error: a worker
    # raises it as the calling thread does. Row errors are compared in
    # test_harness.py::TestReferenceGrouping.
    body = (
        "import json\n"
        "from saakiqa import EvalRecord, _workers, run_eval\n"
        + _POOLED +
        "bad = [EvalRecord(None, 'd.pgm', 1.0, 'jpeg'), EvalRecord('r.pgm', 'd.pgm', 1.0, 'jpeg')]\n"
        "raised = []\n"
        "for count in (_workers._worker_count, lambda sizes: 0):\n"
        "    _workers._worker_count = count\n"
        "    try:\n"
        "        run_eval(bad)\n"
        "    except TypeError as exc:\n"
        "        raised.append([str(exc), str(exc.__cause__)])\n"
        "print(json.dumps(raised))\n")
    (pooled, cause), (inline, _) = json.loads(_run(tmp_path, body).stdout)
    assert pooled == inline
    assert pooled.startswith("expected str, bytes or os.PathLike object")
    # The worker's traceback rides along as the cause.
    assert cause.startswith("in a scoring worker:\nTraceback")


def test_unpicklable_worker_error_reaches_the_caller(tmp_path):
    # An exception of a class the caller cannot import, and one that pickles
    # but cannot be rebuilt from its arguments, arrive as a RuntimeError
    # naming them, with the worker's traceback as the cause.
    body = (
        "from saakiqa import _workers\n"
        "codes = ['class Local(Exception): pass\\nraise Local(\"boom\")',\n"
        "         'from xml.sax import SAXParseException, xmlreader\\n'\n"
        "         'raise SAXParseException(\"boom\", None, xmlreader.Locator())']\n"
        "for code in codes:\n"
        "    try:\n"
        "        _workers.map(exec, [(code, {})], 1)\n"
        "    except RuntimeError as exc:\n"
        "        print(exc, '|', str(exc.__cause__).splitlines()[-1])\n"
        "print(_workers.map(eval, [('1 + 1', {})], 1))\n")
    assert _run(tmp_path, body).stdout.splitlines() == [
        "Local('boom') | Local: boom",
        "SAXParseException('boom') | xml.sax._exceptions.SAXParseException: <unknown>:-1:-1: boom",
        "[2]"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_starts_its_own_workers(tmp_path):
    # A forked child holds copies of its parent's worker pipes; sharing
    # them would interleave two processes' calls.
    body = (
        "import json\n"
        "from saakiqa import _workers\n"
        "probe = [('__import__(\"os\").getpid()', {})]\n"
        "before = _workers.map(eval, probe, 1)\n"
        "child = os.fork()\n"
        "if child == 0:\n"
        "    print(json.dumps(_workers.map(eval, probe, 1)), flush=True)\n"
        "    os._exit(0)\n"
        "os.waitpid(child, 0)\n"
        "print(json.dumps([before, _workers.map(eval, probe, 1)]))\n")
    in_child, (before, after) = map(json.loads, _run(tmp_path, body).stdout.splitlines())
    assert before == after
    assert in_child != before
