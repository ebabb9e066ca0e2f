"""The benchmark workloads.

A workload turns a seed into a sequence of units and runs them one at a
time, a closed loop with one caller. ``run`` is the timed call into the
program; ``outputs`` turns its result, outside the timed region, into one
shape shared by every workload:

    {"scores": [quality score per pair, None for a failed row],
     "stats": {group: {"srcc", "krcc", "plcc", "sse", ...}}}

so the same checks, golden comparison and traced/untraced identity test
apply to all of them.
"""

from __future__ import annotations

import math
import os

import numpy as np

import saakiqa as sq

import inputs

# Seed of the warm-up unit that set-up time includes; never a timed input.
WARMUP_SEED = 7


class AssessWorkload:
    """Serial ``assess`` calls on in-memory pairs, each with its own
    reference: the latency a ``saakiqa score`` user sees."""

    size = 512
    pairs_per_unit = 1
    items_per_unit = 1
    repeats_unit = False

    def __init__(self, name: str, seed: int, workdir: str):
        self.name, self.seed = name, seed

    def unit(self, i: int) -> inputs.Pair:
        return inputs.assess_pair(self.seed, i, self.size)

    def warmup_unit(self) -> inputs.Pair:
        return inputs.assess_pair(WARMUP_SEED, 0, self.size)

    def run(self, pair: inputs.Pair):
        return sq.assess(pair.ref, pair.dist, sq.QualityConfig.for_codec(pair.codec))

    def outputs(self, pair: inputs.Pair, result) -> dict:
        return {"scores": [result[0]], "stats": {}}

    def references(self, units: int) -> int:
        return units

    def describe(self) -> dict:
        return {"image": f"{self.size}x{self.size}", "reference_per_pair": 1,
                "codecs": "alternate " + "/".join(inputs.CODECS),
                "qsteps": inputs.QSTEPS}


class EvalWorkload:
    """The ``saakiqa eval`` path in-process on PGMs written to disk:
    ``parse_manifest`` -> ``run_eval`` (default worker pool) ->
    ``emit_report`` (JSON, CSV and scatter). Every unit re-runs the same
    manifest, so repeated units must give identical outputs."""

    size = 256
    rows = 40
    repeats_unit = True

    def __init__(self, name: str, seed: int, workdir: str, refs: int):
        self.name, self.seed, self.workdir, self.refs = name, seed, workdir, refs
        self.pairs_per_unit = self.items_per_unit = self.rows
        self._manifest = None

    def unit(self, i: int) -> str:
        if self._manifest is None:
            self._manifest = inputs.write_manifest(
                self.seed, self.workdir, self.rows, self.refs, self.size)
        return self._manifest

    def warmup_unit(self) -> str:
        directory = os.path.join(self.workdir, "warmup")
        os.makedirs(directory, exist_ok=True)
        return inputs.write_manifest(WARMUP_SEED, directory, 1, 1, self.size)

    def run(self, manifest: str):
        report = sq.run_eval(sq.parse_manifest(manifest))
        out = os.path.dirname(manifest)
        sq.emit_report(report, json_path=os.path.join(out, "report.json"),
                       csv_path=os.path.join(out, "records.csv"),
                       scatter_path=os.path.join(out, "scatter.tsv"))
        return report

    def outputs(self, manifest: str, report) -> dict:
        stats = {}
        for codec, c in report.codecs.items():
            rows = [r for r in report.results if r.ok and r.record.codec == codec]
            sse = None
            if c.beta is not None:
                scores = np.array([r.score for r in rows])
                mos = np.array([r.record.mos for r in rows])
                resid = sq.logistic5_eval(c.beta, scores) - mos
                sse = float(resid @ resid)
            stats[codec] = {"srcc": c.srcc, "krcc": c.krcc, "plcc": c.plcc, "sse": sse}
        return {"scores": [r.score for r in report.results], "stats": stats}

    def references(self, units: int) -> int:
        # Each unit re-reads the whole manifest, so reuse is per batch.
        return self.refs * units

    def describe(self) -> dict:
        return {"image": f"{self.size}x{self.size}", "rows": self.rows,
                "references": self.refs, "rows_per_codec": self.rows // 2,
                "qsteps": inputs.QSTEPS}


class StatsWorkload:
    """One per-codec statistics pass at TID2013 scale, the sequence
    ``harness`` runs per codec: logistic fit, PLCC on the fitted curve,
    SRCC and KRCC."""

    n = 3000
    pairs_per_unit = 0
    items_per_unit = n
    repeats_unit = False

    def __init__(self, name: str, seed: int, workdir: str):
        self.name, self.seed = name, seed

    def unit(self, i: int):
        return inputs.stats_sample(self.seed, i, self.n)

    def warmup_unit(self):
        return inputs.stats_sample(WARMUP_SEED, 0, self.n)

    def run(self, sample):
        scores, mos = sample
        fit = sq.logistic5_fit(scores, mos)
        plcc = sq.pearson(sq.logistic5_eval(fit.beta, scores), mos)
        return fit, plcc, sq.spearman(scores, mos), sq.kendall_tau_b(scores, mos)

    def outputs(self, sample, result) -> dict:
        fit, plcc, srcc, krcc = result
        return {"scores": [], "stats": {"all": {
            "srcc": srcc, "krcc": krcc, "plcc": plcc, "sse": fit.sse,
            "iterations": fit.iterations}}}

    def references(self, units: int) -> int:
        return 0

    def describe(self) -> dict:
        return {"n": self.n, "score_decimals": 3, "mos_decimals": 1}


WORKLOADS = {
    "assess-512": AssessWorkload,
    "eval-shared": lambda name, seed, workdir: EvalWorkload(name, seed, workdir, refs=4),
    "eval-unique": lambda name, seed, workdir: EvalWorkload(name, seed, workdir, refs=40),
    "stats-3000": StatsWorkload,
}


def make(name: str, seed: int, workdir: str):
    return WORKLOADS[name](name, seed, workdir)


def check(out: dict) -> list[tuple[str, str]]:
    """Seed-independent sanity checks on one unit's outputs.

    Returns ``(item, message)`` for each failed row, out-of-range score or
    missing/out-of-range statistic.
    """
    bad = []
    for i, s in enumerate(out["scores"]):
        if s is None or not (math.isfinite(s) and -1.0 <= s <= 1.0):
            bad.append((f"score[{i}]", f"score {s!r} is not a finite value in [-1, 1]"))
    for group, st in out["stats"].items():
        for key in ("srcc", "krcc", "plcc"):
            v = st[key]
            if v is None or not -1.0 <= v <= 1.0:
                bad.append((f"stats[{group}]", f"{key} {v!r} outside [-1, 1]"))
        if st["sse"] is None or not math.isfinite(st["sse"]):
            bad.append((f"stats[{group}]", f"sse {st['sse']!r} is not finite"))
    return bad


def operations(out: dict) -> int:
    """Operations one output covers: each scored pair and each fit."""
    return len(out["scores"]) + len(out["stats"])
