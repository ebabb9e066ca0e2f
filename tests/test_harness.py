import json
import os

import numpy as np
import pytest

from saakiqa import (
    GeometryMismatchError,
    MalformedRowError,
    NoValidRecordsError,
    QualityConfig,
    EvalRecord,
    emit_report,
    logistic5_eval,
    parse_manifest,
    psnr,
    run_eval,
    spearman,
    synth_distort,
    write_pgm,
)
from conftest import make_textured_image

QSTEPS = (2.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def _write_manifest(tmp_path, rows, name="manifest.csv"):
    lines = ["ref,dist,mos,codec"] + [",".join(str(c) for c in r) for r in rows]
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return p


@pytest.fixture(scope="module")
def synthetic_batch(tmp_path_factory):
    """3 textured references x 6 quantization steps, mos := -qstep."""
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
    manifest = _write_manifest(tmp, rows)
    records = parse_manifest(manifest)
    report = run_eval(records)
    return tmp, records, report


class TestParseManifest:
    def test_basic_row(self, tmp_path):
        p = _write_manifest(tmp_path, [("imgs/a.pgm", "imgs/a_q10.pgm", 3.21, "jpeg")])
        records = parse_manifest(p)
        assert len(records) == 1
        rec = records[0]
        assert rec.codec == "jpeg"
        assert rec.mos == pytest.approx(3.21)
        assert rec.ref_path == os.path.join(str(tmp_path), "imgs/a.pgm")

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

    def test_wrong_column_count(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("ref,dist,mos,codec\na.pgm,b.pgm,1.5\n")
        with pytest.raises(MalformedRowError, match="line 2"):
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
        with pytest.raises(ValueError):
            synth_distort(np.zeros((16, 16)), 0.0)

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

    def test_synthetic_batch_rank_correlation(self, synthetic_batch):
        _, records, report = synthetic_batch
        jpeg = report.codecs["jpeg"]
        assert jpeg.n == 18
        assert jpeg.n_scored == 18
        assert jpeg.srcc >= 0.9
        assert -1.0 <= jpeg.plcc <= 1.0
        assert -1.0 <= jpeg.krcc <= 1.0
        scores = [r.score for r in report.results]
        mos = [r.record.mos for r in report.results]
        assert jpeg.srcc == pytest.approx(spearman(scores, mos), abs=1e-12)

    def test_codec_lambda_resolution(self, tmp_path):
        ref = make_textured_image(60, 64, 64)
        write_pgm(ref, tmp_path / "ref.pgm")
        write_pgm(synth_distort(ref, 64.0), tmp_path / "dist.pgm")
        rows = [("ref.pgm", "dist.pgm", 1.0, "jpeg"),
                ("ref.pgm", "dist.pgm", 1.0, "jpeg2000")]
        records = parse_manifest(_write_manifest(tmp_path, rows))
        by_codec = run_eval(records)
        assert by_codec.results[0].score != by_codec.results[1].score
        overridden = run_eval(records, lam_override=0.5)
        assert overridden.results[0].score == overridden.results[1].score

    def test_other_codec_requires_override(self, tmp_path):
        ref = make_textured_image(61, 64, 64)
        write_pgm(ref, tmp_path / "ref.pgm")
        write_pgm(synth_distort(ref, 32.0), tmp_path / "dist.pgm")
        rows = [("ref.pgm", "dist.pgm", 1.0, "webp"),
                ("ref.pgm", "dist.pgm", 1.0, "jpeg")]
        records = parse_manifest(_write_manifest(tmp_path, rows))
        report = run_eval(records)
        assert not report.results[0].ok
        assert report.results[1].ok
        report2 = run_eval(records, lam_override=0.4)
        assert report2.results[0].ok
        assert report2.results[0].score == report2.results[1].score

    def test_row_failure_isolation(self, tmp_path):
        for seed in (70, 71):
            ref = make_textured_image(seed, 64, 64)
            write_pgm(ref, tmp_path / f"r{seed}.pgm")
            write_pgm(synth_distort(ref, 32.0), tmp_path / f"d{seed}.pgm")
        rows = [("r70.pgm", "d70.pgm", 1.0, "jpeg"),
                ("r71.pgm", "d71.pgm", 2.0, "jpeg")]
        records = parse_manifest(_write_manifest(tmp_path, rows))
        clean = run_eval(records)
        # Truncate one distorted file and re-run.
        raw = (tmp_path / "d71.pgm").read_bytes()
        (tmp_path / "d71.pgm").write_bytes(raw[: len(raw) // 2])
        broken = run_eval(records)
        assert broken.results[0].ok
        assert broken.results[0].score == clean.results[0].score
        assert not broken.results[1].ok
        assert "TruncatedData" in broken.results[1].error

    def test_no_valid_records(self, tmp_path):
        rows = [("missing1.pgm", "missing2.pgm", 1.0, "jpeg")]
        with pytest.raises(NoValidRecordsError, match="every record failed"):
            run_eval(parse_manifest(_write_manifest(tmp_path, rows)))

    def test_header_only_manifest(self, tmp_path):
        with pytest.raises(NoValidRecordsError, match="manifest has no records"):
            run_eval(parse_manifest(_write_manifest(tmp_path, [])))

    def test_thread_cap_does_not_change_results(self, tmp_path, monkeypatch):
        ref = make_textured_image(62, 64, 64)
        write_pgm(ref, tmp_path / "ref.pgm")
        for i, q in enumerate((8.0, 64.0)):
            write_pgm(synth_distort(ref, q), tmp_path / f"d{i}.pgm")
        rows = [("ref.pgm", "d0.pgm", 1.0, "jpeg"),
                ("ref.pgm", "d1.pgm", 0.0, "jpeg")]
        records = parse_manifest(_write_manifest(tmp_path, rows))
        parallel = run_eval(records)
        monkeypatch.setenv("SAAKIQA_THREADS", "1")
        serial = run_eval(records)
        assert [r.score for r in serial.results] == [
            r.score for r in parallel.results]


class TestEmitReport:
    def test_no_paths_writes_nothing(self, synthetic_batch, tmp_path):
        _, _, report = synthetic_batch
        emit_report(report)
        assert list(tmp_path.iterdir()) == []

    def test_csv_rows(self, synthetic_batch, tmp_path):
        _, _, report = synthetic_batch
        out = tmp_path / "records.csv"
        emit_report(report, csv_path=out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "ref,dist,codec,score,psnr_db,mos"
        assert len(lines) == 1 + 18

    def test_json_roundtrip_and_stability(self, synthetic_batch, tmp_path):
        _, records, report = synthetic_batch
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        emit_report(report, json_path=p1)
        emit_report(run_eval(records), json_path=p2)
        d1 = json.loads(p1.read_text())
        d2 = json.loads(p2.read_text())
        d1.pop("generated_at")
        d2.pop("generated_at")
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
        assert d1["codecs"]["jpeg"]["srcc"] >= 0.9
        assert len(d1["records"]) == 18

    def test_scatter_sorted_and_refit(self, synthetic_batch, tmp_path):
        _, _, report = synthetic_batch
        out = tmp_path / "scatter.tsv"
        emit_report(report, scatter_path=out)
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# codec=jpeg")
        rows = [line.split("\t") for line in lines if not line.startswith("#")]
        assert len(rows) == 18
        scores = [float(r[0]) for r in rows]
        assert scores == sorted(scores)
        beta = report.codecs["jpeg"].beta
        for r in rows:
            # Oracle: re-evaluate the logistic curve at the emitted score.
            assert float(r[2]) == pytest.approx(
                logistic5_eval(beta, float(r[0])), abs=1e-9)

    def test_report_invariants(self, synthetic_batch):
        _, _, report = synthetic_batch
        payload = report.to_dict()
        assert payload["tool"].startswith("saakiqa ")
        assert payload["config"]["c"] == 400.0
        assert payload["config"]["h"] == 100.0
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
