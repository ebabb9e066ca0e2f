"""Persistent worker processes that score reference groups for ``run_eval``.

A worker is a fresh interpreter running ``python -m saakiqa._workers``.
Its environment is the caller's plus ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` set to 1, which numpy reads
when it loads, so each worker's BLAS runs one thread; ``PYTHONPATH``
leads with the directory the caller imported ``saakiqa`` from, so the
worker runs the same source. Workers are started with ``subprocess``,
not ``multiprocessing``, so they never import the caller's ``__main__``.

Calls and replies are pickles on the worker's stdin and stdout. The
caller sends ``(cwd, fn, args)``; the worker runs ``fn(*args)`` in
``cwd`` and answers ``(True, result, None)`` or
``(False, exception, traceback text)``. Workers start on first use and
serve every later call in the same process. Each exits when its stdin
closes: at the caller's interpreter exit, or when the caller dies.
"""

from __future__ import annotations

import atexit
import os
import pickle
import sys
import threading
import traceback

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_workers = []  # subprocess.Popen objects, in start order
_lock = threading.Lock()  # one batch at a time on the pipes


def _start():
    import subprocess

    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, **dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-m", __name__], cwd=src, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)


def _pool(n: int) -> list:
    """The first ``n`` live workers, started as needed. A worker that has
    exited is dropped; so are a parent's workers in a forked child, where
    ``poll`` cannot wait for them and reports them gone."""
    for worker in [w for w in _workers if w.poll() is not None]:
        _workers.remove(worker)
        _stop(worker)
    while len(_workers) < n:
        _workers.append(_start())
    return _workers[:n]


def _stop(worker, kill=False) -> None:
    if kill:
        worker.kill()
    for pipe in (worker.stdin, worker.stdout):
        try:
            pipe.close()
        except OSError:  # a flush into a dead worker's stdin
            pass
    worker.wait()


def close(kill=False) -> None:
    """Stop every worker: close its stdin, so it exits at its next read,
    or kill it; then reap it."""
    while _workers:
        _stop(_workers.pop(), kill)


atexit.register(close)


def _exited(worker) -> RuntimeError:
    return RuntimeError(f"scoring worker process {worker.pid} exited "
                        f"with code {worker.wait()} mid-batch")


def map(fn, tasks: list, n: int) -> list:
    """``[fn(*args) for args in tasks]``, run on ``n`` workers; each worker
    takes the next task when it answers the last. Calls from several
    threads take turns. An exception that ``fn`` raises in a worker is
    raised here, and a worker that dies raises ``RuntimeError``; either
    way every worker is killed first, and the next call starts new ones."""
    import selectors

    cwd = os.getcwd()
    todo = iter(enumerate(tasks))
    results = [None] * len(tasks)
    busy = {}

    def give(worker):
        for i, args in todo:
            try:
                pickle.dump((cwd, fn, args), worker.stdin, pickle.HIGHEST_PROTOCOL)
                worker.stdin.flush()
            except BrokenPipeError:
                raise _exited(worker) from None
            busy[worker] = i
            return
        sel.unregister(worker.stdout)

    with _lock:
        try:
            with selectors.DefaultSelector() as sel:
                for worker in _pool(n):
                    sel.register(worker.stdout, selectors.EVENT_READ, worker)
                    give(worker)
                while busy:
                    for key, _ in sel.select():
                        worker = key.data
                        try:
                            ok, value, trace = pickle.load(worker.stdout)
                        except EOFError:
                            raise _exited(worker) from None
                        if not ok:
                            raise value from RuntimeError(f"in a scoring worker:\n{trace}")
                        results[busy.pop(worker)] = value
                        give(worker)
        except BaseException:
            close(kill=True)
            raise
    return results


def _encode(reply: tuple) -> bytes:
    """``reply`` as a pickle. A result that cannot be pickled, or an
    exception that cannot be pickled or rebuilt from its pickle, is sent
    as a ``RuntimeError`` that names it, with the traceback."""
    ok, value, trace = reply
    try:
        data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
        if not ok:
            pickle.loads(data)
        return data
    except Exception as exc:
        if ok:
            value, trace = exc, traceback.format_exc()
        return pickle.dumps((False, RuntimeError(repr(value)), trace), pickle.HIGHEST_PROTOCOL)


def main() -> None:
    import signal

    # Ctrl-C reaches the whole process group; the caller handles it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # stray output goes to stderr, not into the replies
    while True:
        try:
            cwd, fn, args = pickle.load(sys.stdin.buffer)
        except EOFError:
            return
        try:
            os.chdir(cwd)
            reply = (True, fn(*args), None)
        except Exception as exc:
            reply = (False, exc, traceback.format_exc())
        replies.write(_encode(reply))
        replies.flush()


if __name__ == "__main__":
    main()
