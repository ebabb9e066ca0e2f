"""Batch evaluation: manifest ingestion, scoring, per-codec statistics,
report emission, and a synthetic block-DCT distorter for self-contained
testing.

A manifest is UTF-8 CSV (a leading byte-order mark is allowed) with header
``ref,dist,mos,codec``; image paths resolve relative to the manifest's
directory. Each ``run_eval`` call groups the rows by reference, then reads
and trains every reference once and scores all of its rows against it,
on the calling thread or, on batches of many small groups, in worker
processes (``_workers``). Results keep the input order either way.
Row failures are recorded without aborting the batch.
"""

from __future__ import annotations

import csv
import datetime
import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from ._version import __version__
from .errors import (
    DATA_ERRORS,
    GeometryMismatchError,
    MalformedRowError,
    NoValidRecordsError,
    SaakIqaError,
)
from .image import as_image, filter_radius, read_pgm
from .metric import C, CODEC_LAMBDAS, H, SIGMA, QualityConfig, assess, prepare_reference
from .saak import BLOCK_SIZE, NUM_STAGES, STD_THRESHOLD, TRAIN_STRIDE
from .stats import (MIN_REGRESSION_N, kendall_tau_b, logistic5_eval, logistic5_fit,
                    pearson, psnr, spearman)

_MANIFEST_HEADER = ("ref", "dist", "mos", "codec")
_TOOL = f"saakiqa {__version__}"


@dataclass(frozen=True)
class EvalRecord:
    """One manifest row: a reference/distorted pair with its MOS."""

    ref_path: str
    dist_path: str
    mos: float
    codec: str


@dataclass
class RecordResult:
    record: EvalRecord
    score: float | None = None
    psnr_db: float | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class CodecResult:
    """Fitted statistics for all records sharing one codec."""

    n: int
    n_scored: int
    plcc: float | None = None
    srcc: float | None = None
    krcc: float | None = None
    beta: list[float] | None = None
    fit_converged: bool | None = None
    warning: str | None = None


@dataclass
class EvalReport:
    results: list[RecordResult]
    codecs: dict[str, CodecResult]
    config: dict
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-ready view with deterministic content (no timestamp)."""
        return {
            "tool": _TOOL,
            "config": self.config,
            "warnings": list(self.warnings),
            "records": [
                {
                    "ref": r.record.ref_path,
                    "dist": r.record.dist_path,
                    "codec": r.record.codec,
                    "mos": r.record.mos,
                    "score": r.score,
                    "psnr_db": _json_float(r.psnr_db),
                    "error": r.error,
                }
                for r in self.results
            ],
            "codecs": {name: asdict(c) for name, c in sorted(self.codecs.items())},
        }


def _json_float(v):
    # JSON has no Infinity; None marks the identical-images PSNR sentinel.
    if v is None or not math.isfinite(v):
        return None
    return v


def parse_manifest(path) -> list[EvalRecord]:
    """Read evaluation records from a ``ref,dist,mos,codec`` CSV file.

    Blank lines are skipped, unknown codec strings map to ``other``, and
    relative image paths are resolved against the manifest's directory.
    Raises :class:`MalformedRowError` (naming the line) on bad rows.
    """
    base = os.path.dirname(os.path.abspath(path))
    records = []
    with open(path, "r", newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            rows = (row for row in reader if any(c.strip() for c in row))
            header = next(rows, None)
            if header and tuple(c.strip().lower() for c in header) != _MANIFEST_HEADER:
                raise MalformedRowError(
                    f"line {reader.line_num}: expected header {','.join(_MANIFEST_HEADER)}")
            for row in rows:
                if len(row) != 4:
                    raise MalformedRowError(
                        f"line {reader.line_num}: expected 4 columns, got {len(row)}")
                ref, dist, mos_s, codec = (c.strip() for c in row)
                if not ref or not dist:
                    raise MalformedRowError(f"line {reader.line_num}: empty image path")
                try:
                    mos = float(mos_s)
                except ValueError:
                    raise MalformedRowError(
                        f"line {reader.line_num}: unparsable mos {mos_s!r}") from None
                if not math.isfinite(mos):
                    raise MalformedRowError(f"line {reader.line_num}: non-finite mos")
                codec = codec.lower()
                if codec not in CODEC_LAMBDAS:
                    codec = "other"
                records.append(EvalRecord(
                    ref_path=os.path.join(base, ref),
                    dist_path=os.path.join(base, dist),
                    mos=mos,
                    codec=codec,
                ))
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise MalformedRowError(f"line {reader.line_num}: {exc}") from None
    return records


def _once(fn):
    """Call ``fn`` on first use; later uses return its result or re-raise
    its row error, so every row that needs it sees the same outcome."""
    outcome = []

    def get():
        if not outcome:
            try:
                outcome.append((fn(), None))
            except DATA_ERRORS as exc:
                # Drop the traceback so the failed call's arrays are freed.
                outcome.append((None, exc.with_traceback(None)))
        value, exc = outcome[0]
        if exc is not None:
            raise exc
        return value

    return get


def _score_reference_rows(records: list[EvalRecord], sigma: float,
                          lam_override: float | None) -> list[RecordResult]:
    """Score rows that share one reference, which is read and prepared
    lazily, at most once. Each row fails at the same step with the same
    error as it would alone: lambda, ref read, dist read, PSNR shape check,
    then training."""
    ref = _once(lambda: read_pgm(records[0].ref_path))
    reference = _once(lambda: prepare_reference(ref(), sigma))
    results = []
    for record in records:
        try:
            config = QualityConfig.for_codec(record.codec, lam_override)
            image = ref()
            dist = read_pgm(record.dist_path)
            psnr_db = psnr(image, dist)
            score, _ = assess(reference(), dist, config)
            results.append(RecordResult(record, score=score, psnr_db=psnr_db))
        except DATA_ERRORS as exc:
            results.append(RecordResult(record, error=f"{type(exc).__name__}: {exc}"))
    return results


def _codec_stats(scored: list[RecordResult], n_total: int) -> CodecResult:
    result = CodecResult(n=n_total, n_scored=len(scored))
    if len(scored) < MIN_REGRESSION_N:
        result.warning = (
            f"correlations omitted: {len(scored)} scored records < "
            f"{MIN_REGRESSION_N}")
        return result
    scores = np.array([r.score for r in scored])
    mos = np.array([r.record.mos for r in scored])
    try:
        fit = logistic5_fit(scores, mos)
        result.plcc = pearson(logistic5_eval(fit.beta, scores), mos)
        result.srcc = spearman(scores, mos)
        result.krcc = kendall_tau_b(scores, mos)
        result.beta = [float(b) for b in fit.beta]
        result.fit_converged = fit.converged
    except SaakIqaError as exc:
        result.warning = f"correlations omitted: {type(exc).__name__}: {exc}"
    return result


def run_eval(records: list[EvalRecord], *, sigma: float = SIGMA,
             lam_override: float | None = None) -> EvalReport:
    """Score every record and fit per-codec correlation statistics.

    ``sigma`` is the pre-filter width each reference is prepared with, as
    :func:`~saakiqa.image.filter_radius` accepts it. Each row's blend
    factor comes from :meth:`QualityConfig.for_codec`: ``lam_override``
    when given, else the row's codec default; a codec with no default
    (``other``) makes that row an error. A bad ``sigma`` or
    ``lam_override`` raises ``ValueError`` before any file is read.
    Per-record failures become row-level error entries;
    :class:`NoValidRecordsError` is raised only when there are no records
    or nothing at all could be scored; the latter names the first failed
    row as the report's warnings would. Rows are scored grouped by
    reference, each reference read and trained once; output order follows
    the input order.

    Groups are handed out largest first. A batch of many references with
    few rows each (20 or more of one row, for example), with at least two
    usable CPUs, is scored in worker processes that each run one BLAS
    thread, so its scores equal those of the calling thread under
    ``OPENBLAS_NUM_THREADS=1``; ``_workers`` says which batches pool, and
    how. Other batches are scored on the calling thread.
    """
    if not records:
        raise NoValidRecordsError("manifest has no records")
    # A bad setting raises here, not as one row error per record.
    QualityConfig(QualityConfig.lam if lam_override is None else lam_override)
    filter_radius(sigma)
    by_ref: dict[str, list[int]] = {}
    for i, record in enumerate(records):
        by_ref.setdefault(record.ref_path, []).append(i)
    groups = sorted(by_ref.values(), key=len, reverse=True)
    tasks = [([records[i] for i in rows], sigma, lam_override) for rows in groups]
    # Not imported at the top: ``python -m saakiqa._workers`` would then
    # find the module loaded already, and runpy warns of that.
    from . import _workers

    workers = _workers._worker_count([len(rows) for rows in groups])
    if workers:
        scored = _workers.map(_score_reference_rows, tasks, workers)
    else:
        scored = (_score_reference_rows(*task) for task in tasks)
    results: list[RecordResult] = [None] * len(records)
    for rows, group in zip(groups, scored):
        for i, result in zip(rows, group):
            results[i] = result

    failures = [f"record {i} ({os.path.basename(r.record.dist_path)}): {r.error}"
                for i, r in enumerate(results) if not r.ok]
    if len(failures) == len(results):
        raise NoValidRecordsError(f"every record failed to score; {failures[0]}")

    codecs: dict[str, CodecResult] = {}
    for codec in sorted({r.record.codec for r in results}):
        of_codec = [r for r in results if r.record.codec == codec]
        codecs[codec] = _codec_stats([r for r in of_codec if r.ok], len(of_codec))

    warnings = [f"{name}: {c.warning}" for name, c in codecs.items() if c.warning]
    warnings.extend(failures)
    return EvalReport(
        results=results,
        codecs=codecs,
        config=_config_echo(sigma, lam_override),
        warnings=warnings,
    )


def _config_echo(sigma: float, lam_override: float | None) -> dict:
    return {
        "lambda_override": lam_override,
        "codec_lambdas": dict(CODEC_LAMBDAS),
        "c": C,
        "h": H,
        "sigma": sigma,
        "radius": filter_radius(sigma),
        "border": "reflect",
        "block_size": BLOCK_SIZE,
        "num_stages": NUM_STAGES,
        "train_stride": TRAIN_STRIDE,
        "std_threshold": STD_THRESHOLD,
    }


# Side of the blocks the synthetic distorter transforms and quantizes.
DCT_SIZE = 8


def _dct_matrix() -> np.ndarray:
    n = DCT_SIZE
    k = np.arange(n, dtype=np.float64)
    t = np.sqrt(2.0 / n) * np.cos(np.pi * (2.0 * k[None, :] + 1.0) * k[:, None] / (2.0 * n))
    t[0] /= np.sqrt(2.0)
    return t


def checked_qstep(qstep: float) -> float:
    """Return ``qstep`` if it is a usable quantization step (positive and
    finite); raise ``ValueError`` otherwise."""
    if not 0 < qstep < math.inf:
        raise ValueError("qstep must be positive and finite")
    return qstep


def synth_distort(img, qstep: float) -> np.ndarray:
    """Compression-like distortion: per-block DCT coefficient quantization.

    Each non-overlapping ``DCT_SIZE`` x ``DCT_SIZE`` block is transformed
    by the orthonormal 2-D DCT-II, uniformly quantized with step ``qstep``
    (:func:`checked_qstep`), inverse transformed, and clamped to [0, 255].
    Small steps approach identity; large steps produce blocking artifacts.
    """
    img = as_image(img)
    checked_qstep(qstep)
    h, w = img.shape
    n = DCT_SIZE
    if h % n or w % n:
        raise GeometryMismatchError(f"{w}x{h} image not divisible by {n}")
    t = _dct_matrix()
    blocks = img.reshape(h // n, n, w // n, n).transpose(0, 2, 1, 3)
    coefs = t @ blocks @ t.T
    coefs = np.round(coefs / qstep) * qstep
    out = (t.T @ coefs @ t).transpose(0, 2, 1, 3).reshape(h, w)
    return np.clip(out, 0.0, 255.0)


def emit_report(report: EvalReport, json_path=None, csv_path=None,
                scatter_path=None) -> None:
    """Write the report in up to three forms; missing paths are skipped.

    JSON carries the full report with stable key order plus a
    ``generated_at`` timestamp (the one key excluded from byte-stability).
    CSV holds one ``ref,dist,codec,score,psnr_db,mos`` row per record.
    The scatter TSV holds one block per fitted codec with
    ``score<TAB>mos<TAB>fit`` rows sorted by score, ready for plotting.
    """
    if json_path:
        payload = report.to_dict()
        payload["generated_at"] = datetime.datetime.now(
            datetime.timezone.utc).isoformat()
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    if csv_path:
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["ref", "dist", "codec", "score", "psnr_db", "mos"])
            for r in report.results:
                writer.writerow([
                    r.record.ref_path,
                    r.record.dist_path,
                    r.record.codec,
                    "" if r.score is None else repr(r.score),
                    "" if r.psnr_db is None else repr(r.psnr_db),
                    repr(r.record.mos),
                ])

    if scatter_path:
        with open(scatter_path, "w", encoding="utf-8") as fh:
            for codec, cres in sorted(report.codecs.items()):
                if cres.beta is None:
                    continue
                rows = [r for r in report.results
                        if r.ok and r.record.codec == codec]
                rows.sort(key=lambda r: r.score)
                fh.write(f"# codec={codec} n={len(rows)}\n")
                beta = np.asarray(cres.beta)
                for r in rows:
                    fit = logistic5_eval(beta, r.score)
                    fh.write(f"{r.score!r}\t{r.record.mos!r}\t{fit!r}\n")
