"""Acceptance suite: one test per release criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per
criterion. Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import json
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from saakiqa import (
    QualityConfig,
    assess,
    channel_stats,
    forward,
    forward_stage,
    inverse,
    kendall_tau_b,
    logistic5_eval,
    logistic5_fit,
    parse_manifest,
    pearson,
    ps_convert,
    run_eval,
    sp_convert,
    spearman,
    synth_distort,
    train_model,
    train_stage,
    write_pgm,
)
from saakiqa.cli import cli_main
from conftest import kendall_oracle, make_textured_image, pearson_oracle, rank_oracle


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL - {description}")
        raise
    print(f"criterion {number:2d} PASS - {description}")


def test_criterion_1_losslessness():
    with criterion(1, "inverse(forward(x)) == x within 1e-6 on 10 random images"):
        start = time.perf_counter()
        rng = np.random.default_rng(1001)
        worst = 0.0
        for _ in range(10):
            img = np.floor(rng.uniform(0.0, 256.0, (64, 64)))
            model = train_model(img)[0]
            rec = inverse(forward(img, model), model)
            worst = max(worst, float(np.abs(rec - img).max()))
        elapsed = time.perf_counter() - start
        assert worst <= 1e-6, f"max round-trip error {worst}"
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_orthonormality():
    with criterion(2, "trained kernel Gram within 1e-9 of identity on 5 images"):
        for seed in (1, 2, 3, 4, 5):
            model = train_model(make_textured_image(seed, 64, 64))[0]
            for stage in model:
                gram = stage.kernels @ stage.kernels.T
                dev = np.abs(gram - np.eye(stage.dim)).max()
                assert dev <= 1e-9, f"seed {seed}: Gram deviation {dev}"


def test_criterion_3_sp_roundtrip():
    with criterion(3, "S/P split-merge exact with disjoint support, 100 tensors"):
        rng = np.random.default_rng(1003)
        for _ in range(100):
            h = int(rng.integers(1, 7))
            w = int(rng.integers(1, 7))
            c = int(rng.integers(1, 9)) * 2 + 1
            t = rng.normal(0.0, 100.0, (h, w, c))
            split = sp_convert(t)
            pos, neg = split[..., 1::2], split[..., 2::2]
            assert np.array_equal(pos * neg, np.zeros_like(pos))
            assert np.all(pos >= 0.0) and np.all(neg >= 0.0)
            assert np.array_equal(ps_convert(split), t)


def test_criterion_4_energy_compaction():
    with criterion(4, "eigenvalues non-increasing; DC energy above median AC"):
        for seed in (1, 2, 3):
            img = make_textured_image(seed, 64, 64)
            model = train_model(img)[0]
            for stage in model:
                assert np.all(np.diff(stage.eigenvalues) <= 0.0)
            f = forward(img, model)
            e = channel_stats(f, f).energy
            assert e[0] > np.median(e[1:])


def test_criterion_5_identity_score():
    with criterion(5, "assess(x, x) == 1 within 1e-9 for both codec lambdas"):
        for seed in (1, 2, 3):
            img = make_textured_image(seed, 64, 64)
            for lam in (0.7, 0.2):
                score, stats = assess(img, img, QualityConfig(lam=lam))
                assert abs(score - 1.0) <= 1e-9
                assert abs(float(stats.weight.sum()) - 1.0) <= 1e-12


def test_criterion_6_distortion_monotonicity():
    with criterion(6, "scores strictly decrease with qstep; SRCC == 1"):
        start = time.perf_counter()
        qsteps = np.array([2.0, 8.0, 16.0, 32.0, 64.0, 128.0])
        for seed in (1, 2, 3):
            img = make_textured_image(seed, 128, 128)
            scores = np.array(
                [assess(img, synth_distort(img, q))[0] for q in qsteps])
            assert np.all(np.diff(scores) < 0.0), f"seed {seed}: {scores}"
            assert spearman(scores, -qsteps) == 1.0
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_7_rank_statistic_oracles():
    with criterion(7, "spearman/kendall match O(n^2) brute force on 1000 vectors"):
        rng = np.random.default_rng(1007)
        checked = 0
        while checked < 1000:
            n = int(rng.integers(2, 21))
            if rng.uniform() < 0.5:
                x = rng.integers(0, 6, size=n).astype(float)
                y = rng.integers(0, 6, size=n).astype(float)
            else:
                x = np.round(rng.normal(size=n), 1)
                y = np.round(rng.normal(size=n), 1)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            checked += 1
            srcc = spearman(x, y)
            srcc_oracle = pearson_oracle(rank_oracle(x), rank_oracle(y))
            assert abs(srcc - srcc_oracle) <= 1e-12
            krcc = kendall_tau_b(x, y)
            assert abs(krcc - kendall_oracle(x, y)) <= 1e-12


def test_criterion_8_regression_recovery():
    with criterion(8, "noiseless logistic data recovered to SSE <= 1e-10"):
        beta_true = np.array([2.0, 1.0, 0.5, 0.1, 3.0])
        x = np.linspace(-3.0, 4.0, 50)
        y = logistic5_eval(beta_true, x)
        fit1 = logistic5_fit(x, y)
        fit2 = logistic5_fit(x, y)
        assert fit1.sse <= 1e-10, f"sse {fit1.sse}"
        assert pearson(logistic5_eval(fit1.beta, x), y) >= 1.0 - 1e-9
        assert np.array_equal(fit1.beta, fit2.beta)
        assert fit1.sse == fit2.sse


def test_criterion_9_parseval():
    with criterion(9, "forward_stage preserves energy within 1e-6 relative"):
        rng = np.random.default_rng(1009)
        stage1 = train_stage(rng.normal(0.0, 50.0, (300, 16)))
        model = train_model(make_textured_image(4, 64, 64))[0]
        stage2 = model[1]
        for k in range(20):
            if k < 10:
                block = rng.uniform(0.0, 255.0, (4, 4, 1))
                out = forward_stage(block, stage1)
            else:
                block = np.abs(rng.normal(0.0, 60.0, (4, 4, 31)))
                out = forward_stage(block, stage2)
            in_sq = float(np.sum(block * block))
            out_sq = float(np.sum(out * out))
            assert abs(out_sq - in_sq) <= 1e-6 * in_sq


def test_criterion_10_cli_end_to_end(tmp_path):
    with criterion(10, "18-record manifest: jpeg SRCC >= 0.9, deterministic"):
        rows = []
        for seed in (1, 2, 3):
            ref = make_textured_image(seed, 128, 128)
            write_pgm(ref, tmp_path / f"ref{seed}.pgm")
            for q in (2.0, 8.0, 16.0, 32.0, 64.0, 128.0):
                name = f"d{seed}_{int(q)}.pgm"
                write_pgm(synth_distort(ref, q), tmp_path / name)
                rows.append(f"ref{seed}.pgm,{name},{-q},jpeg")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("ref,dist,mos,codec\n" + "\n".join(rows) + "\n")

        payloads = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            code = cli_main(["eval", "--manifest", str(manifest),
                             "--out", str(out)])
            assert code == 0
            payloads.append(json.loads(out.read_text()))
        assert payloads[0]["codecs"]["jpeg"]["srcc"] >= 0.9
        for a, b in zip(payloads[0]["records"], payloads[1]["records"]):
            assert a == b
        for p in payloads:
            p.pop("generated_at")
        assert json.dumps(payloads[0], sort_keys=True) == json.dumps(
            payloads[1], sort_keys=True)


@pytest.mark.skipif("SAAKIQA_LIVE_DIR" not in os.environ,
                    reason="optional: set SAAKIQA_LIVE_DIR to a directory "
                           "containing live_jpeg.csv (see README)")
def test_criterion_11_live_jpeg_optional():
    with criterion(11, "LIVE JPEG PLCC >= 0.92 (optional, user-supplied data)"):
        manifest = os.path.join(os.environ["SAAKIQA_LIVE_DIR"], "live_jpeg.csv")
        report = run_eval(parse_manifest(manifest))
        plcc = report.codecs["jpeg"].plcc
        assert plcc is not None
        # Sensitive to the unspecified filter parameters; see README.
        assert plcc >= 0.92, f"PLCC {plcc:.4f}"
