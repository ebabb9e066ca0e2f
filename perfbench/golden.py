"""Golden outputs: the correctness gate every benchmark run passes through.

Each run also scores a fixed golden input per workload (``GOLDEN_SEED``),
outside the timed region, and compares the result with ``golden.json``,
recorded from the program by ``python3 perfbench/golden.py --record``:

* every per-pair score within ``SCORE_RTOL`` relative;
* SRCC and KRCC exactly equal;
* every logistic fit reaching an SSE no worse than the golden fit's,
  within ``SSE_RTOL`` relative. The fit parameters and PLCC are not
  compared: the simplex search can settle in a different local minimum
  when scores move in the last bits (for example with a different BLAS
  thread count), and a worse minimum is a regression while a better one
  is not.
"""

from __future__ import annotations

import json
import os
import sys
from itertools import zip_longest

SCORE_RTOL = 1e-9
SSE_RTOL = 1e-6
GOLDEN_SEED = 1905
# Golden units per workload: a jpeg and a jpeg2000 pair, one whole batch,
# two statistics passes.
GOLDEN_UNITS = {"assess-512": 2, "eval-shared": 1, "eval-unique": 1, "stats-3000": 2}
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def compare(got: dict, want: dict) -> list[tuple[str, str]]:
    """Return ``(item, message)`` for every output that misses its golden
    value; an item is one pair's score or one fit group."""
    bad = []
    for i, (g, w) in enumerate(zip_longest(got["scores"], want["scores"])):
        if g is None or w is None or not abs(g - w) <= SCORE_RTOL * abs(w):
            bad.append((f"score[{i}]", f"score {g!r} != golden {w!r}"))
    for group, w in want["stats"].items():
        g = got["stats"].get(group)
        if g is None:
            bad.append((f"stats[{group}]", "fit group missing"))
            continue
        msgs = [f"{key} {g[key]!r} != golden {w[key]!r}"
                for key in ("srcc", "krcc") if g[key] != w[key]]
        if g["sse"] is None or not g["sse"] <= w["sse"] * (1.0 + SSE_RTOL):
            msgs.append(
                f"logistic fit SSE {g['sse']!r} worse than golden {w['sse']!r} "
                f"(PLCC {g['plcc']!r}); the fit is sensitive to last-bit score "
                "changes, e.g. from the BLAS thread count")
        bad.extend((f"stats[{group}]", m) for m in msgs)
    return bad


def _golden_view(out: dict) -> dict:
    return {"scores": out["scores"],
            "stats": {g: {k: s[k] for k in ("srcc", "krcc", "sse")}
                      for g, s in out["stats"].items()}}


def golden_outputs(name: str, workdir: str) -> list[dict]:
    """Outputs of the golden units of workload ``name``."""
    import workloads

    wl = workloads.make(name, GOLDEN_SEED, workdir)
    outs = []
    for i in range(GOLDEN_UNITS[name]):
        unit = wl.unit(i)
        outs.append(wl.outputs(unit, wl.run(unit)))
    return outs


def load() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check(name: str, workdir: str) -> tuple[int, list[tuple[str, str]]]:
    """Score the golden units; return (operations, failures)."""
    import workloads

    want = load()[name]
    got = golden_outputs(name, workdir)
    ops, bad = 0, []
    for i, (g, w) in enumerate(zip(got, want)):
        ops += workloads.operations(g)
        bad.extend((f"golden[{i}].{item}", msg) for item, msg in compare(g, w))
    return ops, bad


def record() -> None:
    import tempfile

    import workloads

    golden = {}
    for name in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=os.path.dirname(GOLDEN_PATH)) as tmp:
            golden[name] = [_golden_view(o) for o in golden_outputs(name, tmp)]
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({"seed": GOLDEN_SEED, **golden}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 perfbench/golden.py --record")
    import run

    run.import_program()
    record()
