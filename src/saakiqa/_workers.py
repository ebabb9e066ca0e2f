"""Persistent worker processes that score reference groups for ``run_eval``.

``run_eval`` pools a batch only where ``_worker_count`` says that two
workers finish it sooner than the calling thread, their start included
(the cost model below): about 20 or more references of few rows each,
with at least two usable CPUs.

A worker is a fresh interpreter running ``python -m
saakiqa._workers``. Its environment is the caller's plus
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` set
to 1, which numpy reads when it loads, so each worker's BLAS runs one
thread and its rows score as the calling thread's do under one BLAS
thread, bit for bit; under more BLAS threads a pooled row can differ
from a calling-thread one in its last bits, by up to 3.3e-7 relative for
a 64x64 reference, whose stage-2 covariance is rank-deficient.
``PYTHONPATH`` leads with the directory the caller imported ``saakiqa``
from, so the worker runs the same source; patches of the package in the
caller do not reach it. Workers are started with ``subprocess``, not
``multiprocessing``, so they never import the caller's ``__main__``.

Calls and replies are pickles on the worker's stdin and stdout. The
caller sends ``(cwd, fn, args)``; the worker runs ``fn(*args)`` in
``cwd`` and answers ``(True, result, None)`` or
``(False, exception, traceback text)``. Workers start together on first
use, in about 0.2 s, and serve every later call in the same process.
They are killed at the caller's interpreter exit, not sent EOF; a worker
whose stdin closes, as when the caller dies, exits at its next read.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import pickle
import sys
import threading
import traceback

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_workers = []  # subprocess.Popen objects, in start order
_lock = threading.Lock()  # one batch at a time on the pipes

# The cost model behind _worker_count, in units of one reference read and
# trained on the calling thread. Measured on two vCPUs: a row costs 0.05
# of a reference at 64x64 and 0.17 at 512x512; starting the workers takes
# about 0.2 s, four references at 64x64 or 1.2 at 512x512; a worker, on
# one BLAS thread beside a second worker, runs up to 1.6x slower than the
# calling thread. The pool must win at both sizes, with its start charged
# on every call, so the choice depends only on the batch and the CPUs.
# Two workers is the most that was measured.
_ROW_AND_START_COSTS = ((0.05, 4.0), (0.2, 1.2))  # 64x64, 512x512 (rounded up)
_WORKER_SLOWDOWN = 1.6
_MAX_WORKERS = 2


def _worker_count(group_sizes: list[int]) -> int:
    """Worker processes to score reference groups of ``group_sizes`` rows
    on, largest group first: one per usable CPU, up to ``_MAX_WORKERS``
    and one per group; or 0, the calling thread, when that is fewer than
    two or the cost model says the calling thread finishes no later."""
    workers = min(_MAX_WORKERS, len(group_sizes), _usable_cpus())
    if workers < 2:
        return 0
    for row, start in _ROW_AND_START_COSTS:
        work = [1 + row * n for n in group_sizes]
        if _WORKER_SLOWDOWN * max(max(work), sum(work) / workers) + start >= sum(work):
            return 0
    return workers


def _usable_cpus(cgroup: str = "/sys/fs/cgroup", membership: str = "/proc/self/cgroup") -> int:
    """CPUs this process may run on: its affinity mask, cut to the smallest
    CPU quota, rounded down, of any cgroup on the process's own path from
    its leaf up to the mount root; 1 where the platform cannot tell.
    Without a ``membership`` file only the root quota is read."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    cpus = len(os.sched_getaffinity(0))
    v2 = v1 = "/"  # this process's cgroup v2 and v1 cpu paths
    try:
        with open(membership) as fh:
            for line in fh:
                _, controllers, path = line.rstrip("\n").split(":", 2)
                if not controllers:
                    v2 = path
                elif "cpu" in controllers.split(","):
                    v1 = path
    except OSError:
        pass
    for root, path in ((cgroup, v2), (os.path.join(cgroup, "cpu"), v1)):
        parts = [part for part in path.split("/") if part]
        for depth in range(len(parts) + 1):
            quota = _cgroup_quota(os.path.join(root, *parts[:depth]))
            if quota is not None:
                cpus = min(cpus, quota)
    return cpus


def _cgroup_quota(level: str) -> int | None:
    """The CPU quota of the cgroup directory ``level`` in whole CPUs,
    rounded down and at least 1; None where it holds no quota files or
    sets no quota."""
    try:  # cgroup v2
        with open(os.path.join(level, "cpu.max")) as fh:
            quota, period = fh.read().split()
    except OSError:
        try:  # cgroup v1
            with open(os.path.join(level, "cpu.cfs_quota_us")) as fq, \
                    open(os.path.join(level, "cpu.cfs_period_us")) as fp:
                quota, period = fq.read().strip(), fp.read().strip()
        except OSError:
            return None
    if quota in ("max", "-1"):
        return None
    return max(1, int(quota) // int(period))


def _start():
    import subprocess

    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, **dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-m", __name__], cwd=src, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)


def _pool(n: int) -> list:
    """The first ``n`` workers, started as needed. If any has exited, all
    are stopped and started afresh; so are a parent's workers in a forked
    child, where ``poll`` cannot wait for them and reports them gone."""
    if any(worker.poll() is not None for worker in _workers):
        close()
    while len(_workers) < n:
        _workers.append(_start())
    return _workers[:n]


def close() -> None:
    """Stop every worker: kill it, then close its pipes and reap it. A
    worker that has been reaped, or that belongs to the parent of a forked
    child, is not signalled."""
    while _workers:
        # Closing stdin flushes it, which fails if a call to a dead worker
        # was left in its buffer; the pipe is closed and the worker reaped.
        with contextlib.suppress(BrokenPipeError), _workers.pop() as worker:
            worker.kill()


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
            close()
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
