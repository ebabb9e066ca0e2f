"""saakiqa benchmark: one workload per run, or all of them.

    python3 perfbench/run.py --workload assess-512 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it reports the per-layer metrics
from a traced pass, checked against an untraced pass over the same
inputs. Every run also passes the golden gate (``golden.py``). The last
line of standard output is one JSON object; earlier lines give the
environment and each metric with its unit. Details and spans go to
``perfbench/out/``. The exit code is non-zero when any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "SAAKIQA_THREADS")
WORKLOAD_NAMES = ("assess-512", "eval-shared", "eval-unique", "stats-3000")
# Set-up is measured here and in this many fresh processes; the median is
# reported.
SETUP_PROBES = 2


def require_source() -> None:
    if not (SRC / "saakiqa" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source under {SRC}; "
                 "run from the root of a saakiqa checkout")


def import_program():
    """Import ``saakiqa`` from this checkout's ``src/``, or exit non-zero."""
    require_source()
    sys.path.insert(0, str(SRC))
    import saakiqa

    if Path(saakiqa.__file__).resolve().parent != (SRC / "saakiqa").resolve():
        sys.exit(f"perfbench: imported saakiqa from {saakiqa.__file__}, not {SRC}")
    return saakiqa


def measure_setup(name: str, workdir: str) -> float:
    """Seconds to import the package plus one warm-up call, excluding the
    generation of the warm-up input."""
    t0 = time.perf_counter()
    import_program()
    t1 = time.perf_counter()
    import workloads

    wl = workloads.make(name, workloads.WARMUP_SEED, workdir)
    unit = wl.warmup_unit()
    t2 = time.perf_counter()
    wl.run(unit)
    return (t1 - t0) + (time.perf_counter() - t2)


def probe_setup(name: str) -> float:
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Loop:
    """One closed-loop pass over a workload's units."""

    def __init__(self, wl, seconds=None, units=None):
        self.durations, self.outputs, self.cpu, self.wall = [], [], 0.0, 0.0
        i = 0
        while i < units if units is not None else (i == 0 or self.wall < seconds):
            unit = wl.unit(i)
            c0, t0 = time.process_time(), time.perf_counter()
            result = wl.run(unit)
            self.durations.append(time.perf_counter() - t0)
            self.cpu += time.process_time() - c0
            self.wall += self.durations[-1]
            self.outputs.append(wl.outputs(unit, result))
            i += 1


def check_loop(wl, loop, workloads) -> tuple[int, list]:
    """Sanity-check every unit's outputs; a workload that repeats one unit
    must also give identical outputs each time."""
    ops, bad = 0, []
    first = loop.outputs[0]
    for i, out in enumerate(loop.outputs):
        ops += workloads.operations(out)
        bad.extend((f"unit[{i}].{item}", msg) for item, msg in workloads.check(out))
        if wl.repeats_unit and out != first:
            bad.append((f"unit[{i}]", "outputs differ from the first run of the same input"))
    return ops, bad


def compare_outputs(label, a, b) -> list:
    return [(f"{label}[{i}]", f"{label} outputs differ from untraced")
            for i, (x, y) in enumerate(zip(a, b)) if x != y]


@contextmanager
def assess_threads():
    """Record the threads that score pairs inside ``run_eval``."""
    from saakiqa import harness

    seen, orig = set(), harness.assess

    def counted(*args, **kwargs):
        seen.add(threading.get_ident())
        return orig(*args, **kwargs)

    harness.assess = counted
    try:
        yield seen
    finally:
        harness.assess = orig


@contextmanager
def env_var(name, value):
    old = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if old is None:
            del os.environ[name]
        else:
            os.environ[name] = old


def cache_sizes() -> dict:
    """CPU 0's cache sizes by level, e.g. ``{"L2": "2048K"}``; empty where
    the platform does not expose them."""
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    suffix = {"Data": "d", "Instruction": "i"}
    try:
        for d in sorted(base.glob("index*")):
            level, kind, size = ((d / f).read_text().strip() for f in ("level", "type", "size"))
            caches[f"L{level}{suffix.get(kind, '')}"] = size
    except OSError:
        pass
    return caches


def environment(wl, seed: int, workers) -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "caches": cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": deps.get("blas"),
        "lapack": deps.get("lapack"),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "workers_used": workers,
        "workload": wl.name,
        "seed": seed,
        "inputs": wl.describe(),
    }


def percentile_with_tail(values, tail=10):
    """Highest percentile with at least ``tail`` samples beyond it."""
    if len(values) <= tail:
        return None, None
    s = sorted(values)
    k = len(s) - tail - 1
    return round(100.0 * (k + 1) / len(s), 1), s[k]


def run_timed(wl, args, workloads, setup_samples) -> tuple[dict, dict, int, list]:
    with assess_threads() as threads:
        loop = Loop(wl, seconds=args.seconds)
    ops, bad = check_loop(wl, loop, workloads)
    pct, tail = percentile_with_tail(loop.durations)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "op_p50_ms": 1e3 * statistics.median(loop.durations),
        "pairs_per_s": wl.items_per_unit * len(loop.durations) / loop.wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"ops_timed": len(loop.durations), "op_ms": [1e3 * d for d in loop.durations],
              "setup_samples_s": setup_samples,
              "op_tail_percentile": pct,
              "op_tail_ms": None if tail is None else 1e3 * tail,
              "cpu_per_wall": loop.cpu / loop.wall,
              "workers_used": len(threads) or 1}
    return metrics, detail, ops, bad


def run_traced(wl, args, workloads, spans) -> tuple[dict, dict, int, list]:
    plain = Loop(wl, seconds=args.seconds / 2)
    units = len(plain.durations)
    tracer = spans.Tracer()
    with tracer.installed():
        traced = Loop(wl, units=units)
    ops, bad = check_loop(wl, plain, workloads)
    bad += compare_outputs("traced", plain.outputs, traced.outputs)
    ops += sum(workloads.operations(o) for o in traced.outputs)

    pairs = wl.pairs_per_unit * units
    serial_speedup = 0.0
    if wl.pairs_per_unit > 1:
        # The one place a thread variable is set: the serial baseline.
        with env_var("SAAKIQA_THREADS", "1"):
            serial = Loop(wl, units=units)
        bad += compare_outputs("serial", plain.outputs, serial.outputs)
        ops += sum(workloads.operations(o) for o in serial.outputs)
        serial_speedup = serial.wall / plain.wall

    metrics = spans.layer_metrics(tracer.spans, per=pairs or units, pairs=pairs,
                                  references=wl.references(units))
    metrics["harness.cpu_per_wall"] = plain.cpu / plain.wall
    metrics["harness.serial_speedup"] = serial_speedup
    metrics["trace.overhead_frac"] = traced.wall / plain.wall - 1.0
    spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    detail = {"units": units, "untraced_s": plain.wall, "traced_s": traced.wall,
              "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
              "workers_used": metrics["harness.workers"]}
    return metrics, detail, ops, bad


def run_one(args) -> int:
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as tmp:
        if args.setup_probe:
            print(json.dumps({"setup_s": measure_setup(args.workload, tmp)}))
            return 0
        setup = [measure_setup(args.workload, tmp)]
        import golden
        import spans
        import workloads

        if not args.trace:
            setup += [probe_setup(args.workload) for _ in range(SETUP_PROBES)]
        work = os.path.join(tmp, "work")
        os.mkdir(work)
        wl = workloads.make(args.workload, args.seed, work)
        if args.trace:
            metrics, detail, ops, bad = run_traced(wl, args, workloads, spans)
        else:
            metrics, detail, ops, bad = run_timed(wl, args, workloads, setup)
        gold = os.path.join(tmp, "golden")
        os.mkdir(gold)
        gops, gbad = golden.check(args.workload, gold)

    attempted = ops + gops
    failed = min(attempted, len({item for item, _ in bad + gbad}))
    if args.trace:
        metrics["error_rate"] = failed / attempted

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(declared) != set(metrics):
        sys.exit(f"perfbench: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(declared)}")

    env = environment(wl, args.seed, detail["workers_used"])
    print("env " + json.dumps(env))
    for item, msg in bad + gbad:
        print(f"FAIL {item}: {msg}")
    for name in declared:
        print(f"{args.workload} {name} = {metrics[name]:.6g} {declared[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": declared[n]} for n in declared},
    }
    record = {"env": env, "detail": detail, "seconds": args.seconds, "trace": args.trace,
              "failures": [list(b) for b in bad + gbad], **result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload untraced then traced, each in a fresh process."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        for trace_flag in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace_flag)],
                capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(line for line in lines[:-1] if not line.startswith("env ")))
            try:
                res = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                sys.stderr.write(proc.stderr)
                return 1
            correct &= res["correct"]
            attempted += res["attempted"]
            failed += res["failed"]
            metrics.update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    require_source()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
