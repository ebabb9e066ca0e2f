import csv
import functools
import json
import math
import os
import threading
import weakref

import numpy as np
import pytest

from saakiqa import (
    CODEC_LAMBDAS,
    GeometryMismatchError,
    MalformedRowError,
    NoValidRecordsError,
    QualityConfig,
    EvalRecord,
    SaakIqaError,
    assess,
    emit_report,
    logistic5_eval,
    parse_manifest,
    prepare_reference,
    psnr,
    read_pgm,
    run_eval,
    synth_distort,
    write_pgm,
)
from saakiqa import _workers, harness, saak
from conftest import POOL, blas_threads, make_textured_image, run_python

QSTEPS = (2.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def _run_eval(records, workers, **kwargs):
    """run_eval on up to ``workers`` worker processes. With 0 every row is
    scored on the calling thread, the only place a monkeypatch reaches."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_workers, "_worker_count", lambda sizes: min(len(sizes), workers))
        return run_eval(records, **kwargs)


def _write_manifest(tmp_path, rows, name="manifest.csv"):
    lines = ["ref,dist,mos,codec"] + [",".join(str(c) for c in r) for r in rows]
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return p


@pytest.fixture(scope="module")
def synthetic_report(tmp_path_factory):
    """run_eval's report on 3 textured references x 6 quantization steps,
    mos := -qstep."""
    tmp = tmp_path_factory.mktemp("batch")
    rows = []
    for seed in (101, 102, 103):
        ref = make_textured_image(seed, 64, 64)
        ref_name = f"ref{seed}.pgm"
        write_pgm(ref, tmp / ref_name)
        for q in QSTEPS:
            dist_name = f"dist{seed}_q{int(q)}.pgm"
            write_pgm(synth_distort(ref, q), tmp / dist_name)
            rows.append((ref_name, dist_name, -q, "jpeg"))
    return run_eval(parse_manifest(_write_manifest(tmp, rows)))


class TestParseManifest:
    def test_basic_row(self, tmp_path):
        p = _write_manifest(tmp_path, [("imgs/a.pgm", "imgs/a_q10.pgm", 3.21, "jpeg")])
        records = parse_manifest(p)
        assert len(records) == 1
        rec = records[0]
        assert rec.codec == "jpeg"
        assert rec.mos == pytest.approx(3.21)
        assert rec.ref_path == os.path.join(str(tmp_path), "imgs/a.pgm")

    def test_absolute_path_kept_relative_path_joined(self, tmp_path):
        nested = tmp_path / "sets" / "live"
        nested.mkdir(parents=True)
        ref = str(tmp_path / "refs" / "a.pgm")
        p = _write_manifest(nested, [(ref, "q/a_q10.pgm", 1.0, "jpeg")])
        rec = parse_manifest(p)[0]
        assert rec.ref_path == ref
        assert rec.dist_path == os.path.join(str(nested), "q/a_q10.pgm")

    def test_unknown_codec_maps_to_other(self, tmp_path):
        p = _write_manifest(tmp_path, [("a.pgm", "b.pgm", 1.0, "JP2K")])
        assert parse_manifest(p)[0].codec == "other"

    def test_known_codecs_case_insensitive(self, tmp_path):
        p = _write_manifest(tmp_path, [("a.pgm", "b.pgm", 1.0, "JPEG2000")])
        assert parse_manifest(p)[0].codec == "jpeg2000"

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("ref,dist,mos,codec\n\na.pgm,b.pgm,1.5,jpeg\n\n")
        assert len(parse_manifest(p)) == 1

    def test_bad_mos_names_line(self, tmp_path):
        p = _write_manifest(tmp_path, [("a.pgm", "b.pgm", "abc", "jpeg")])
        with pytest.raises(MalformedRowError, match="line 2"):
            parse_manifest(p)

    def test_empty_path_or_non_finite_mos_names_line(self, tmp_path):
        cases = [
            (("", "b.pgm", 1.0, "jpeg"), "line 2: empty image path"),
            (("a.pgm", " ", 1.0, "jpeg"), "line 2: empty image path"),
            (("a.pgm", "b.pgm", "nan", "jpeg"), "line 2: non-finite mos"),
            (("a.pgm", "b.pgm", "-inf", "jpeg"), "line 2: non-finite mos"),
        ]
        for row, match in cases:
            with pytest.raises(MalformedRowError, match=match):
                parse_manifest(_write_manifest(tmp_path, [row]))

    def test_wrong_column_count(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("ref,dist,mos,codec\na.pgm,b.pgm,1.5\n")
        with pytest.raises(MalformedRowError, match="line 2"):
            parse_manifest(p)

    def test_field_over_csv_limit_names_line(self, tmp_path):
        # The csv module refuses such a field from its row iterator.
        limit = csv.field_size_limit()
        p = tmp_path / "m.csv"
        p.write_text("ref,dist,mos,codec\na.pgm,b.pgm,1.5,jpeg\n"
                     f"a.pgm,{'b' * (limit + 1)}.pgm,1.5,jpeg\n")
        with pytest.raises(MalformedRowError,
                           match=rf"^line 3: field larger than field limit \({limit}\)$"):
            parse_manifest(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("reference,distorted,mos,codec\n")
        with pytest.raises(MalformedRowError):
            parse_manifest(p)

    def test_byte_order_mark_header(self, tmp_path):
        # Spreadsheet exports often start UTF-8 CSV with a byte-order mark.
        p = tmp_path / "m.csv"
        p.write_text("ref,dist,mos,codec\na.pgm,b.pgm,1.5,jpeg\n",
                     encoding="utf-8-sig")
        assert p.read_bytes().startswith(b"\xef\xbb\xbf")
        assert parse_manifest(p)[0].mos == 1.5

    def test_blank_rows_before_header(self, tmp_path):
        # The header is the first row with a non-blank cell; line numbers in
        # errors count the skipped rows.
        p = tmp_path / "m.csv"
        p.write_text("\n , \nref,dist,mos,codec\na.pgm,b.pgm,1.5,jpeg\n")
        assert [r.mos for r in parse_manifest(p)] == [1.5]
        p.write_text("\n\nref,dist,mos,codec\na.pgm,b.pgm,2.5,jpeg\n",
                     encoding="utf-8-sig")
        assert [r.mos for r in parse_manifest(p)] == [2.5]
        p.write_text("\n\n\nreference,distorted,mos,codec\n")
        with pytest.raises(MalformedRowError, match="line 4: expected header"):
            parse_manifest(p)
        p.write_text("\n , \n\n")
        assert parse_manifest(p) == []
        p.write_text("ref,dist,mos,codec\n\na.pgm,b.pgm,abc,jpeg\n")
        with pytest.raises(MalformedRowError, match="line 3: unparsable mos"):
            parse_manifest(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_manifest(tmp_path / "nope.csv")


class TestSynthDistort:
    def test_near_identity_for_tiny_step(self, textured_image):
        img = textured_image(40, 64, 64)
        out = synth_distort(img, 1e-8)
        assert np.abs(out - img).max() <= 1e-6

    def test_constant_image_dc_bound(self):
        # Oracle: only the DC coefficient (8*v) is active, so the pixel
        # error is the DC quantization error divided back by 8.
        for v, qstep in ((100.0, 32.0), (13.0, 5.0), (200.0, 900.0)):
            img = np.full((16, 16), v)
            out = synth_distort(img, qstep)
            assert np.abs(out - img).max() <= qstep / 16.0 + 1e-9

    def test_blocking_grows_with_step(self, textured_image):
        img = textured_image(41, 64, 64)
        assert psnr(img, synth_distort(img, 1024.0)) < psnr(
            img, synth_distort(img, 64.0))

    def test_geometry(self, textured_image):
        with pytest.raises(GeometryMismatchError):
            synth_distort(np.zeros((12, 16)), 8.0)
        for qstep in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                synth_distort(np.zeros((16, 16)), qstep)

    def test_output_range(self, textured_image):
        out = synth_distort(textured_image(42, 64, 64), 512.0)
        assert out.min() >= 0.0
        assert out.max() <= 255.0

    def test_idempotent_within_one_level(self, textured_image):
        img = textured_image(43, 64, 64)
        once = synth_distort(img, 32.0)
        twice = synth_distort(once, 32.0)
        assert np.abs(twice - once).max() <= 1.0


class TestRunEval:
    def test_identity_batch(self, tmp_path):
        for seed in (50, 51, 52):
            write_pgm(make_textured_image(seed, 64, 64), tmp_path / f"r{seed}.pgm")
        rows = [(f"r{seed}.pgm", f"r{seed}.pgm", float(i), "jpeg")
                for i, seed in enumerate([50, 51, 52] * 4)]
        report = run_eval(parse_manifest(_write_manifest(tmp_path, rows)))
        assert len(report.results) == 12
        for r in report.results:
            assert r.ok
            assert abs(r.score - 1.0) <= 1e-9
            assert r.psnr_db == float("inf")
        jpeg = report.codecs["jpeg"]
        assert jpeg.n == 12
        assert jpeg.plcc is None
        assert jpeg.warning is not None
        assert any("DegenerateVariance" in w for w in report.warnings)

    def test_constant_mos_omits_correlations(self, tmp_path):
        ref = make_textured_image(53, 64, 64)
        write_pgm(ref, tmp_path / "ref.pgm")
        qsteps = (2.0, 4.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0, 128.0)
        for q in qsteps:
            write_pgm(synth_distort(ref, q), tmp_path / f"d{int(q)}.pgm")
        rows = [("ref.pgm", f"d{int(q)}.pgm", 3.0, "jpeg") for q in qsteps]
        report = run_eval(parse_manifest(_write_manifest(tmp_path, rows)))
        assert len({r.score for r in report.results}) == len(qsteps)
        # The fit succeeds on a flat MOS; PLCC against it is undefined.
        jpeg = report.codecs["jpeg"]
        assert jpeg.n_scored == len(qsteps)
        assert (jpeg.plcc, jpeg.srcc, jpeg.krcc, jpeg.beta) == (None,) * 4
        assert jpeg.fit_converged is None
        assert jpeg.warning == ("correlations omitted: DegenerateVarianceError: "
                                "constant input has undefined correlation")
        assert report.warnings == [f"jpeg: {jpeg.warning}"]

    def test_invalid_lam_override_rejected_before_any_read(self, tmp_path):
        # The paths do not exist, so any read would turn into a row error.
        records = [EvalRecord(str(tmp_path / f"missing{i}.pgm"),
                              str(tmp_path / "dist.pgm"), 1.0, "jpeg")
                   for i in range(3)]
        for bad in (1.5, -0.1, math.nan):
            with pytest.raises(ValueError, match="lam"):
                run_eval(records, lam_override=bad)

    def test_invalid_sigma_rejected_before_any_read(self, tmp_path):
        records = [EvalRecord(str(tmp_path / f"missing{i}.pgm"),
                              str(tmp_path / "dist.pgm"), 1.0, "jpeg")
                   for i in range(3)]
        for bad in (0.0, -1.0, math.nan, math.inf, 1e-200):
            with pytest.raises(ValueError, match="sigma"):
                run_eval(records, sigma=bad)

    def test_settings_are_keyword_only(self, tmp_path):
        # A config passed positionally would carry a lam that run_eval
        # never reads; it is refused rather than silently dropped.
        records = [EvalRecord(str(tmp_path / "missing.pgm"),
                              str(tmp_path / "dist.pgm"), 1.0, "jpeg")]
        with pytest.raises(TypeError):
            run_eval(records, QualityConfig(lam=0.1))

    def test_sigma_reaches_every_row(self, tmp_path):
        write_pgm(make_textured_image(63, 64, 64), tmp_path / "ref.pgm")
        write_pgm(synth_distort(read_pgm(tmp_path / "ref.pgm"), 32.0),
                  tmp_path / "dist.pgm")
        ref, dist = read_pgm(tmp_path / "ref.pgm"), read_pgm(tmp_path / "dist.pgm")
        rows = [("ref.pgm", "dist.pgm", 1.0, "jpeg"),
                ("ref.pgm", "dist.pgm", 1.0, "jpeg2000")]
        report = run_eval(parse_manifest(_write_manifest(tmp_path, rows)), sigma=2.0)
        assert [r.score for r in report.results] == [
            assess(prepare_reference(ref, 2.0), dist, QualityConfig.for_codec(codec))[0]
            for codec in ("jpeg", "jpeg2000")]
        assert (report.config["sigma"], report.config["radius"]) == (2.0, 6)

    def test_no_valid_records(self, tmp_path):
        rows = [("missing1.pgm", "missing2.pgm", 1.0, "jpeg")]
        with pytest.raises(NoValidRecordsError, match="every record failed"):
            run_eval(parse_manifest(_write_manifest(tmp_path, rows)))

    def test_header_only_manifest(self, tmp_path):
        with pytest.raises(NoValidRecordsError, match="manifest has no records"):
            run_eval(parse_manifest(_write_manifest(tmp_path, [])))

    def test_rows_are_scored_on_the_calling_thread(self, tmp_path, monkeypatch):
        ref = make_textured_image(62, 64, 64)
        write_pgm(ref, tmp_path / "ref.pgm")
        for i, q in enumerate((8.0, 64.0)):
            write_pgm(synth_distort(ref, q), tmp_path / f"d{i}.pgm")
        rows = [("ref.pgm", "d0.pgm", 1.0, "jpeg"),
                ("ref.pgm", "d1.pgm", 0.0, "jpeg")]
        records = parse_manifest(_write_manifest(tmp_path, rows))
        threads = []

        def recording_assess(*args, **kwargs):
            threads.append(threading.get_ident())
            return assess(*args, **kwargs)

        monkeypatch.setattr(harness, "assess", recording_assess)
        run_eval(records)
        assert threads == [threading.get_ident()] * len(records)


def _per_row_oracle(records, lam_override=None):
    """Report records as scoring each row on its own would give them: the
    blend factor, then reading both images, PSNR, and a full assess."""
    rows = []
    for r in records:
        score = psnr_db = error = None
        try:
            if lam_override is not None:
                lam = lam_override
            elif r.codec in CODEC_LAMBDAS:
                lam = CODEC_LAMBDAS[r.codec]
            else:
                raise SaakIqaError(
                    f"codec {r.codec!r} has no default lambda; pass an override")
            ref, dist = read_pgm(r.ref_path), read_pgm(r.dist_path)
            psnr_db = psnr(ref, dist)
            score = assess(ref, dist, QualityConfig(lam=lam))[0]
        except (SaakIqaError, OSError, ValueError) as exc:
            score = psnr_db = None
            error = f"{type(exc).__name__}: {exc}"
        rows.append({"ref": r.ref_path, "dist": r.dist_path, "codec": r.codec,
                     "mos": r.mos, "score": score,
                     "psnr_db": psnr_db if psnr_db is None or math.isfinite(psnr_db) else None,
                     "error": error})
    return rows


class TestReferenceGrouping:
    def test_grouped_run_matches_per_row_oracle(self, tmp_path, monkeypatch):
        for name, seed in (("rB", 80), ("rA", 81), ("rC", 82), ("rD", 83)):
            ref = make_textured_image(seed, 64, 64)
            write_pgm(ref, tmp_path / f"{name}.pgm")
            for q in (8, 64):
                write_pgm(synth_distort(ref, q), tmp_path / f"{name}_q{q}.pgm")
        write_pgm(np.full((64, 64), 128.0), tmp_path / "flat.pgm")
        write_pgm(make_textured_image(84, 48, 64), tmp_path / "small.pgm")
        # Unsorted, interleaved references; rows failing at each step in
        # turn: codec without a lambda, missing reference, missing
        # distortion, shape mismatch, flat reference (no training samples).
        rows = [
            ("rB.pgm", "rB_q8.pgm", 3.0, "jpeg"),
            ("rA.pgm", "rA_q64.pgm", 1.0, "jpeg2000"),
            ("missing.pgm", "rA_q8.pgm", 2.0, "jpeg"),
            ("rB.pgm", "rB_q64.pgm", 1.0, "webp"),
            ("flat.pgm", "flat.pgm", 5.0, "jpeg"),
            ("rC.pgm", "rC_q64.pgm", 1.0, "jpeg"),
            ("rA.pgm", "missing_dist.pgm", 2.0, "jpeg"),
            ("flat.pgm", "missing_dist.pgm", 2.0, "jpeg"),
            ("rA.pgm", "small.pgm", 2.0, "jpeg"),
            ("rD.pgm", "small.pgm", 2.0, "jpeg2000"),
            ("missing.pgm", "rB_q8.pgm", 2.0, "jpeg2000"),
            ("rB.pgm", "rB_q64.pgm", 1.5, "jpeg2000"),
            ("flat.pgm", "flat.pgm", 4.0, "jpeg2000"),
            ("rC.pgm", "rC_q8.pgm", 2.5, "jpeg2000"),
            ("rA.pgm", "rA_q8.pgm", 4.0, "jpeg"),
            ("rB.pgm", "rA_q8.pgm", 0.5, "jpeg"),
        ]
        records = parse_manifest(_write_manifest(tmp_path, rows))
        # Workers run one BLAS thread, so the oracle for a pooled run does too.
        for lam_override in (None, 0.4):
            with blas_threads(1):
                oracle = _per_row_oracle(records, lam_override)
            pooled = _run_eval(records, POOL, lam_override=lam_override)
            assert pooled.to_dict()["records"] == oracle
        calls, prepared = [], []

        def counting_prepare(ref, sigma):
            calls.append(ref.shape)
            # At most one prepared reference may be alive at a time.
            assert all(r() is None for r in prepared)
            reference = prepare_reference(ref, sigma)
            prepared.append(weakref.ref(reference))
            return reference

        monkeypatch.setattr(harness, "prepare_reference", counting_prepare)
        for lam_override in (None, 0.4):
            calls.clear()
            report = _run_eval(records, 0, lam_override=lam_override)
            assert report.to_dict()["records"] == _per_row_oracle(records, lam_override)
            # rB, rA, flat and rC; rD's only row fails the PSNR shape check.
            assert len(calls) == 4
        errors = [r.error.split(":")[0] for r in report.results if r.error]
        assert errors == ["FileNotFoundError", "NoTrainingSamplesError",
                          "FileNotFoundError", "FileNotFoundError",
                          "DimensionMismatchError", "DimensionMismatchError",
                          "FileNotFoundError", "NoTrainingSamplesError"]


# A seeded 4-reference x 10-qstep manifest (64x64 textured references,
# block-DCT distortions, codecs alternating by qstep) and its run_eval
# scores and per-codec rank correlations, recorded with one BLAS thread as
# the workers run it; a 64x64 reference's stage-2 null-space kernels move
# with the thread count (ROADMAP item 5). Beta and PLCC are not pinned: the
# logistic fit can move between local minima when scores change in their
# last bits.
GOLDEN_QSTEPS = tuple(float(q) for q in np.geomspace(2.0, 128.0, 10))
GOLDEN_SCORES = [
    0.9986888831976961, 0.9985064487833342, 0.9977295123642608, 0.9941488864235348,
    0.9908366184067019, 0.9579544648431481, 0.9500702871469782, 0.7945565046658033,
    0.8063269762555931, 0.347543075442107, 0.9992657702579384, 0.9988377057275788,
    0.9980729832117934, 0.9938198170746225, 0.9913274614709219, 0.9603042143097099,
    0.9542227818260693, 0.8156342765244207, 0.8233589384535334, 0.28084927760140044,
    0.9995408171603051, 0.9988431899594993, 0.9986481599320529, 0.9939986898966118,
    0.9926361740874905, 0.9607985435747346, 0.9671437752014131, 0.8051565492970745,
    0.8257883953886258, 0.31554008086936813, 0.9993940736384227, 0.9988243556887056,
    0.998553985795264, 0.993835338303019, 0.9923219048499929, 0.9590349074095944,
    0.9551497000915434, 0.7792271215702525, 0.8184746147567035, 0.3288748986964871,
]
GOLDEN_RANKS = {"jpeg": (0.9503759398496241, 0.8105263157894737),
                "jpeg2000": (0.968421052631579, 0.8631578947368421)}


def _write_golden_batch(tmp, seeds, size):
    """Write a seeded size x size batch into tmp and return its manifest.

    One textured reference per seed, distorted at each GOLDEN_QSTEPS step,
    codecs alternating by step, MOS falling with log2(qstep) plus noise.
    """
    rng = np.random.default_rng(1905)
    rows = []
    for k, seed in enumerate(seeds):
        ref = make_textured_image(seed, size, size)
        write_pgm(ref, tmp / f"ref{k}.pgm")
        for j, q in enumerate(GOLDEN_QSTEPS):
            name = f"dist{k}_{j}.pgm"
            write_pgm(synth_distort(ref, q), tmp / name)
            mos = round(92.0 - 12.0 * math.log2(q) + float(rng.normal(0.0, 5.0)), 3)
            rows.append((f"ref{k}.pgm", name, mos, ("jpeg", "jpeg2000")[j % 2]))
    return _write_manifest(tmp, rows)


def _summary(report):
    """A report's per-row scores, per-codec (SRCC, KRCC) and per-codec PLCC."""
    return ([r.score for r in report.results],
            {name: (c.srcc, c.krcc) for name, c in report.codecs.items()},
            {name: c.plcc for name, c in report.codecs.items()})


# The batches the determinism contract runs on: the golden 64x64 manifest
# (4 references, whose stage-2 covariances have a null space) and a 256x256
# one (2 references, full rank), 10 rows per reference each.
CONTRACT_SEEDS = {64: (201, 202, 203, 204), 256: (301, 302)}


def _contract_reports(tmp, size):
    """The summaries of the run_evals the contract compares, by name. The
    calling thread runs two BLAS threads, or one where it stands in for
    the workers, whatever count this process started with; the workers
    of the pooled runs run one."""
    records = parse_manifest(_write_golden_batch(tmp, CONTRACT_SEEDS[size], size))
    with blas_threads(2):
        calling = _summary(_run_eval(records, 0))
        with pytest.MonkeyPatch.context() as mp:
            # A bound of 5 window rows: the window view is summed by row lags.
            mp.setattr(saak, "_CENTRED_BLOCK", 5 * (size // 4 - 3) * 496)
            blocked = _summary(_run_eval(records, 0))
    with blas_threads(1):
        one_thread = _summary(_run_eval(records, 0))
    pooled = _summary(_run_eval(records, POOL))
    reversed_scores, *reversed_rest = _summary(_run_eval(records[::-1], POOL))
    return {"pooled": pooled, "reversed": (reversed_scores[::-1], *reversed_rest),
            "calling": calling, "blocked": blocked, "one_thread": one_thread}


@pytest.fixture(scope="module")
def contract_reports(tmp_path_factory):
    """Each contract batch's summaries by size, computed once per module."""
    return functools.cache(
        lambda size: _contract_reports(tmp_path_factory.mktemp(f"batch{size}"), size))


class TestGolden:
    def test_run_eval_scores_and_ranks(self, contract_reports):
        scores, ranks, _ = contract_reports(64)["pooled"]
        np.testing.assert_allclose(scores, GOLDEN_SCORES, rtol=1e-9, atol=0)
        assert ranks == GOLDEN_RANKS


# What a report must not depend on. Each clause compares two of the
# summaries above, with the relative tolerance its scores must hold.
# Workers run one BLAS thread, so each thread clause varies one factor:
# blas-threads the calling thread's BLAS thread count, and worker-count
# whether rows are scored on the calling thread or in workers, both at
# one BLAS thread, where the scores must be equal bit for bit.
CLAUSES = {
    "row-order": ("pooled", "reversed", 0.0),
    "centring-block": ("calling", "blocked", 1e-12),
    "blas-threads": ("calling", "one_thread", 1e-12),
    "worker-count": ("one_thread", "pooled", 0.0),
}
QUANTITIES = ("scores", "ranks", "plcc")
_ROW_ORDER_FIT = "ROADMAP item 3: the logistic fit depends on row order"
_LAST_BIT_FIT = "ROADMAP item 3: the logistic fit moves with last-bit score changes"
_NULL_SPACE = ("ROADMAP item 5: a 64x64 reference's stage-2 null-space kernels "
               "move with the {}")
# The cells that fail today, with the item that mends them.
KNOWN_FAILURES = {
    ("row-order", "plcc", 64): _ROW_ORDER_FIT,
    ("row-order", "plcc", 256): _ROW_ORDER_FIT,
    ("centring-block", "scores", 64): _NULL_SPACE.format("summation order"),
    ("centring-block", "plcc", 64): _LAST_BIT_FIT,
    ("centring-block", "plcc", 256): _LAST_BIT_FIT,
    ("blas-threads", "scores", 64): _NULL_SPACE.format("BLAS thread count"),
    ("blas-threads", "plcc", 64): _LAST_BIT_FIT,
    ("blas-threads", "plcc", 256): _LAST_BIT_FIT,
}
_CELLS = [(clause, quantity, size) for size in CONTRACT_SEEDS
          for clause in CLAUSES for quantity in QUANTITIES]
assert set(KNOWN_FAILURES) <= set(_CELLS), set(KNOWN_FAILURES) - set(_CELLS)


def _cell(clause, quantity, size):
    reason = KNOWN_FAILURES.get((clause, quantity, size))
    marks = [] if reason is None else [pytest.mark.xfail(strict=True, reason=reason)]
    return pytest.param(size, clause, quantity, marks=marks)


class TestContract:
    @pytest.mark.parametrize("size, clause, quantity", [_cell(*c) for c in _CELLS])
    def test_report_does_not_depend_on(self, contract_reports, size, clause, quantity):
        first, second, rtol = CLAUSES[clause]
        reports = contract_reports(size)
        i = QUANTITIES.index(quantity)
        expected, got = reports[first][i], reports[second][i]
        if quantity == "scores":
            np.testing.assert_allclose(got, expected, rtol=rtol, atol=0)
        elif quantity == "ranks":
            assert got == expected
        else:
            assert got == pytest.approx(expected, rel=1e-9)


def _cli_report(manifest, blas_thread_count=None):
    """The JSON report of ``saakiqa eval`` on ``manifest`` in a fresh
    interpreter, as parsed records and as text without ``generated_at``."""
    out = manifest.with_suffix(".json")
    run_python("-m", "saakiqa.cli", "eval", "--manifest", str(manifest), "--out", str(out),
               blas_thread_count=blas_thread_count).check_returncode()
    text = out.read_text(encoding="utf-8")
    stable = "".join(line for line in text.splitlines(keepends=True)
                     if not line.startswith('  "generated_at": '))
    return json.loads(stable), stable


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP items 3, 5 and 16: the fit moves with row order, and the "
    "scores with the BLAS thread count"))
def test_eval_gives_one_report_per_manifest(tmp_path):
    # The north star's promise, checked as a user would: the same manifest
    # gives the same report bytes whatever the BLAS thread count, and the
    # same stable keys, record by record, whatever the row order. A run
    # that fails to produce a report errors instead of failing an assert.
    moved = []
    for size, seeds in CONTRACT_SEEDS.items():
        tmp = tmp_path / str(size)
        tmp.mkdir()
        manifest = _write_golden_batch(tmp, seeds, size)
        header, *rows = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
        backwards = tmp / "reversed.csv"
        backwards.write_text("".join([header, *rows[::-1]]), encoding="utf-8")
        (_, one), (report, two) = (_cli_report(manifest, n) for n in (1, 2))
        if one != two:
            moved.append(f"{size}x{size}: BLAS threads")
        reverse, _ = _cli_report(backwards, 2)
        reverse["records"].reverse()
        if reverse != report:
            moved.append(f"{size}x{size}: row order")
    assert moved == []


class TestWorkerCount:
    @pytest.mark.parametrize("sizes, workers", [
        ([1] * 40, 2),    # 40 references of one row: the pool wins
        ([1] * 19, 0),    # the workers' start is not paid back yet
        ([10] * 4, 0),
        ([39, 1], 0),     # one worker would do nearly all the work
        ([100, 100], 0),  # at 64x64, 200 rows do not pay the start back
        ([1] * 39 + [40], 2),
        ([1], 0),
    ])
    def test_pool_only_where_the_cost_model_says_it_wins(self, monkeypatch, sizes, workers):
        monkeypatch.setattr(_workers, "_usable_cpus", lambda: 64)
        assert _workers._worker_count(sizes) == workers

    def test_one_usable_cpu_scores_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(_workers, "_usable_cpus", lambda: 1)
        assert _workers._worker_count([1] * 40) == 0

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs an affinity mask")
    @pytest.mark.parametrize("files, quota", [
        ({}, None),
        ({"cpu.max": "max 100000\n"}, None),
        ({"cpu.max": "150000 100000\n"}, 1),
        ({"cpu.max": "50000 100000\n"}, 1),
        ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, None),
        ({"cpu/cpu.cfs_quota_us": "200000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 2),
    ])
    def test_usable_cpus_follow_affinity_and_cgroup_quota(self, tmp_path, files, quota):
        (tmp_path / "cpu").mkdir()
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        affinity = len(os.sched_getaffinity(0))
        assert _workers._usable_cpus(str(tmp_path)) == min(affinity, quota or affinity)

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs an affinity mask")
    @pytest.mark.parametrize("membership, files, quota", [
        ("0::/a/b\n", {"a/b/cpu.max": "100000 100000\n"}, 1),
        ("0::/a/b\n", {"cpu.max": "max 100000\n", "a/cpu.max": "100000 100000\n",
                       "a/b/cpu.max": "300000 100000\n"}, 1),
        ("4:cpu,cpuacct:/docker/x\n0::/\n",
         {"cpu/docker/x/cpu.cfs_quota_us": "100000\n",
          "cpu/docker/x/cpu.cfs_period_us": "100000\n"}, 1),
        ("2:cpuacct:/\n4:cpu,cpuacct:/docker/x/y\n",
         {"cpu/cpu.cfs_quota_us": "100000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 1),
        (None, {"cpu.max": "200000 100000\n", "a/cpu.max": "100000 100000\n"}, 2),
    ], ids=["v2-leaf", "v2-ancestor-tighter-than-leaf", "v1-nested-cpu-cpuacct",
            "v1-deep-path-root-files-only", "no-membership-file-root-only"])
    def test_usable_cpus_take_the_smallest_quota_on_the_own_cgroup_path(
            self, tmp_path, membership, files, quota):
        root = tmp_path / "cgroup"
        for name, text in files.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text)
        if membership is not None:
            (tmp_path / "membership").write_text(membership)
        affinity = len(os.sched_getaffinity(0))
        got = _workers._usable_cpus(str(root), str(tmp_path / "membership"))
        assert got == min(affinity, quota)


class TestEmitReport:
    def test_no_paths_writes_nothing(self, synthetic_report, tmp_path):
        emit_report(synthetic_report)
        assert list(tmp_path.iterdir()) == []

    def test_csv_rows(self, synthetic_report, tmp_path):
        out = tmp_path / "records.csv"
        emit_report(synthetic_report, csv_path=out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "ref,dist,codec,score,psnr_db,mos"
        assert len(lines) == 1 + 18

    def test_scatter_sorted_and_refit(self, synthetic_report, tmp_path):
        out = tmp_path / "scatter.tsv"
        emit_report(synthetic_report, scatter_path=out)
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# codec=jpeg")
        rows = [line.split("\t") for line in lines if not line.startswith("#")]
        assert len(rows) == 18
        scores = [float(r[0]) for r in rows]
        assert scores == sorted(scores)
        beta = synthetic_report.codecs["jpeg"].beta
        for r in rows:
            # Oracle: re-evaluate the logistic curve at the emitted score.
            assert float(r[2]) == pytest.approx(
                logistic5_eval(beta, float(r[0])), abs=1e-9)

    def test_report_invariants(self, synthetic_report):
        payload = synthetic_report.to_dict()
        assert payload["tool"].startswith("saakiqa ")
        # The echo's values and JSON types are part of the report format.
        expected = (
            '{"block_size": 4, "border": "reflect", "c": 400.0, '
            '"codec_lambdas": {"jpeg": 0.7, "jpeg2000": 0.2}, "h": 100.0, '
            '"lambda_override": null, "num_stages": 2, "radius": 3, '
            '"sigma": 1.0, "std_threshold": 2.0, "train_stride": 2}')
        assert payload["config"] == json.loads(expected)
        assert json.dumps(payload["config"], sort_keys=True) == expected
        jpeg = payload["codecs"]["jpeg"]
        assert jpeg["n"] == sum(1 for r in payload["records"]
                                if r["codec"] == "jpeg")
        for key in ("plcc", "srcc", "krcc"):
            assert -1.0 <= jpeg[key] <= 1.0


class TestEvalRecordType:
    def test_fields(self):
        rec = EvalRecord("a.pgm", "b.pgm", 2.5, "jpeg")
        assert rec.mos == 2.5
        assert rec.codec == "jpeg"
