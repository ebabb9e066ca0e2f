import json

import numpy as np
import pytest

import saakiqa
from saakiqa import psnr, read_pgm, synth_distort, write_pgm
from saakiqa.cli import cli_main
from conftest import make_textured_image, run_python


@pytest.fixture
def image_pair(tmp_path):
    ref = make_textured_image(80, 64, 64)
    ref_p = tmp_path / "ref.pgm"
    dist_p = tmp_path / "dist.pgm"
    write_pgm(ref, ref_p)
    write_pgm(synth_distort(ref, 64.0), dist_p)
    return str(ref_p), str(dist_p)


class TestScore:
    def test_identity_prints_one(self, image_pair, capsys):
        ref, _ = image_pair
        assert cli_main(["score", "--ref", ref, "--dist", ref]) == 0
        assert capsys.readouterr().out.strip() == "1.000000"

    def test_distorted_pair(self, image_pair, capsys):
        ref, dist = image_pair
        assert cli_main(["score", "--ref", ref, "--dist", dist]) == 0
        value = float(capsys.readouterr().out.strip())
        assert 0.0 < value < 1.0

    def test_missing_ref_is_usage_error(self, image_pair, capsys):
        _, dist = image_pair
        assert cli_main(["score", "--dist", dist]) == 1
        assert "error" in capsys.readouterr().err

    def test_json_output(self, image_pair, capsys):
        ref, dist = image_pair
        assert cli_main(["score", "--ref", ref, "--dist", dist,
                         "--codec", "jpeg2000", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambda"] == pytest.approx(0.2)
        assert 0.0 < payload["score"] < 1.0
        assert len(payload["channels"]["weight"]) == 496

    def test_json_terms_reproduce_score_exactly(self, image_pair, tmp_path, capsys):
        ref, _ = image_pair
        dist = str(tmp_path / "q.pgm")
        for qstep in (16.0, 32.0, 128.0):
            write_pgm(synth_distort(read_pgm(ref), qstep), dist)
            for codec in ("jpeg", "jpeg2000"):
                assert cli_main(["score", "--ref", ref, "--dist", dist,
                                 "--codec", codec, "--json"]) == 0
                payload = json.loads(capsys.readouterr().out)
                lam = payload["lambda"]
                assert payload["score"] == float(
                    (1.0 - lam) * np.exp(-payload["weighted_mse"] / 400.0)
                    + lam * payload["weighted_correlation"]), (qstep, codec)

    def test_lambda_flag_wins(self, image_pair, capsys):
        ref, dist = image_pair
        cli_main(["score", "--ref", ref, "--dist", dist, "--json",
                  "--lambda", "0.25"])
        assert json.loads(capsys.readouterr().out)["lambda"] == pytest.approx(0.25)

    def test_lambda_outside_unit_interval_is_usage_error(self, image_pair, capsys):
        # Checked by QualityConfig's own rule, for score and eval alike.
        ref, dist = image_pair
        for lam in ("1.5", "-0.1", "nan"):
            for argv in (["score", "--ref", ref, "--dist", dist],
                         ["eval", "--manifest", ref]):
                assert cli_main(argv + ["--lambda", lam]) == 1
                err = capsys.readouterr().err
                assert "argument --lambda: lam must be in [0, 1]" in err
                assert "Traceback" not in err

    def test_missing_image_is_data_error(self, tmp_path, capsys):
        assert cli_main(["score", "--ref", str(tmp_path / "no.pgm"),
                         "--dist", str(tmp_path / "no.pgm")]) == 2
        assert "error" in capsys.readouterr().err


class TestDistort:
    def test_writes_distorted_image(self, tmp_path, capsys):
        src = tmp_path / "src.pgm"
        dst = tmp_path / "dst.pgm"
        img = make_textured_image(81, 64, 64)
        write_pgm(img, src)
        assert cli_main(["distort", "--in", str(src), "--out", str(dst),
                         "--qstep", "128"]) == 0
        out = read_pgm(dst)
        assert out.shape == (64, 64)
        assert psnr(img, out) < 40.0

    def test_crops_to_dct_tiling(self, tmp_path):
        src = tmp_path / "src.pgm"
        dst = tmp_path / "dst.pgm"
        write_pgm(make_textured_image(82, 67, 70), src)
        assert cli_main(["distort", "--in", str(src), "--out", str(dst),
                         "--qstep", "16"]) == 0
        assert read_pgm(dst).shape == (64, 64)

    def test_negative_qstep_is_usage_error(self, tmp_path, capsys):
        for qstep in ("-4", "inf"):
            assert cli_main(["distort", "--in", "x", "--out", "y",
                             "--qstep", qstep]) == 1
            err = capsys.readouterr().err
            assert "argument --qstep: qstep must be positive and finite" in err


@pytest.mark.parametrize("argv", [
    ["score", "--ref", "r", "--dist", "d", "--lambda", "abc"],
    ["eval", "--manifest", "m", "--lambda", "abc"],
    ["eval", "--manifest", "m", "--sigma", "abc"],
    ["distort", "--in", "x", "--out", "y", "--qstep", "abc"],
])
def test_unparsable_number_is_usage_error(argv, capsys):
    # float()'s own message, under the flag's name, and no internal name.
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}: could not convert string to float: 'abc'" in err
    for internal in ("Traceback", "invalid", "_lam", "_sigma", "_positive_float"):
        assert internal not in err


class TestEval:
    @pytest.fixture
    def small_manifest(self, tmp_path):
        rows = []
        for seed in (90, 91):
            ref = make_textured_image(seed, 64, 64)
            write_pgm(ref, tmp_path / f"r{seed}.pgm")
            for q in (8.0, 32.0, 64.0, 128.0, 256.0):
                name = f"d{seed}_{int(q)}.pgm"
                write_pgm(synth_distort(ref, q), tmp_path / name)
                rows.append(f"r{seed}.pgm,{name},{-q},jpeg")
        manifest = tmp_path / "m.csv"
        manifest.write_text("ref,dist,mos,codec\n" + "\n".join(rows) + "\n")
        return manifest

    def test_sigma_flag_changes_scores(self, small_manifest, tmp_path):
        payloads = []
        for name, extra in (("s1.json", []), ("s2.json", ["--sigma", "2.0"])):
            out = tmp_path / name
            assert cli_main(["eval", "--manifest", str(small_manifest),
                             "--out", str(out)] + extra) == 0
            payloads.append(json.loads(out.read_text()))
        assert payloads[0]["config"]["sigma"] == 1.0
        assert payloads[1]["config"]["sigma"] == 2.0
        assert payloads[1]["config"]["radius"] == 6
        s0 = payloads[0]["records"][0]["score"]
        s1 = payloads[1]["records"][0]["score"]
        assert s0 != s1

    def test_nonfinite_sigma_is_usage_error(self, small_manifest, capsys):
        # Every sigma the library rejects, including those whose window or
        # taps overflow, is a usage error with the library's message.
        for sigma in ("inf", "1e400", "nan", "0", "1e308", "1e-200"):
            assert cli_main(["eval", "--manifest", str(small_manifest),
                             "--sigma", sigma]) == 1
            err = capsys.readouterr().err
            assert "sigma must lie in [1.055e-154, 9.481e+153]" in err
            assert "Traceback" not in err

    def test_no_scored_record_names_first_row_error(self, tmp_path, capsys):
        # A sigma the library accepts but no 256x256 image can take fails
        # every row; the error then says why, in the warnings' row form.
        ref = make_textured_image(92, 256, 256)
        write_pgm(ref, tmp_path / "r.pgm")
        write_pgm(synth_distort(ref, 32.0), tmp_path / "d.pgm")
        manifest = tmp_path / "m.csv"
        manifest.write_text("ref,dist,mos,codec\nr.pgm,d.pgm,1.0,jpeg\n"
                            "r.pgm,r.pgm,2.0,jpeg\n")
        assert cli_main(["eval", "--manifest", str(manifest),
                         "--sigma", "1e9"]) == 2
        err = capsys.readouterr().err
        assert err == ("saakiqa: error: every record failed to score; record 0 "
                       "(d.pgm): ValueError: sigma 1000000000.0 exceeds the "
                       "image's longer side 256\n")

    def test_codec_below_regression_minimum(self, small_manifest, tmp_path, capsys):
        # Two jpeg2000 rows beside the ten jpeg ones: jpeg2000 gets no fit,
        # so it is reported without statistics and left out of the scatter.
        with small_manifest.open("a") as fh:
            fh.write("r90.pgm,d90_8.pgm,1.0,jpeg2000\nr90.pgm,d90_64.pgm,2.0,jpeg2000\n")
        out, csv_out, scatter = (tmp_path / name for name in
                                 ("report.json", "records.csv", "scatter.tsv"))
        assert cli_main(["eval", "--manifest", str(small_manifest), "--out", str(out),
                         "--csv", str(csv_out), "--scatter", str(scatter)]) == 0
        printed = capsys.readouterr()
        assert "jpeg2000: n=2 (no statistics)\n" in printed.out
        assert printed.out.startswith("jpeg: n=10 plcc=")
        assert printed.err == ("warning: jpeg2000: correlations omitted: "
                               "2 scored records < 10\n")
        codecs = json.loads(out.read_text())["codecs"]
        assert codecs["jpeg2000"]["beta"] is None
        assert codecs["jpeg"]["beta"] is not None
        headers = [line for line in scatter.read_text().splitlines()
                   if line.startswith("#")]
        assert headers == ["# codec=jpeg n=10"]
        assert csv_out.read_text().startswith("ref,dist,codec,score,psnr_db,mos\n")

    def test_missing_manifest_is_data_error(self, tmp_path, capsys):
        assert cli_main(["eval", "--manifest", str(tmp_path / "no.csv")]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self):
        assert cli_main(["frobnicate"]) == 1


@pytest.mark.parametrize("flag", ["--version", "--help"])
def test_version_and_help_exit_zero_on_stdout(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main([flag])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    if flag == "--version":
        assert out == f"saakiqa {saakiqa.__version__}\n"
    else:
        assert out.startswith("usage: saakiqa") and "{score,eval,distort}" in out
    assert err == ""


def test_module_entry_point():
    version = run_python("-m", "saakiqa.cli", "--version")
    assert (version.returncode, version.stdout, version.stderr) == (
        0, f"saakiqa {saakiqa.__version__}\n", "")
    usage = run_python("-m", "saakiqa.cli", "score")
    assert usage.returncode == 1
    assert usage.stdout == ""
    assert usage.stderr.startswith("usage: saakiqa score")
    assert "saakiqa score: error: the following arguments are required" in usage.stderr
