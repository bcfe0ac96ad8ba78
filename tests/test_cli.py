"""Command-line interface tests, run in-process through main()."""

import json

import numpy as np
import pytest

from biopreimage import (
    GrayImage,
    SplitMix64,
    Template,
    build_feature_phase,
    build_merged,
    derive_matrix,
    derive_seed,
    enroll,
    load_pgm,
    matrix_digest,
    problem_to_json,
    save_pgm,
    sobel,
)
from biopreimage.cli import main

GOLDEN = GrayImage.from_flat(2, 2, [10, 200, 35, 90])

# 99.9th percentile of chi-squared with 255 degrees of freedom
CHI2_CRIT_255 = 330.52


@pytest.fixture
def golden_pgm(tmp_path):
    path = tmp_path / "golden.pgm"
    save_pgm(GOLDEN, path)
    return str(path)


class TestEnroll:
    def test_golden_hex(self, golden_pgm, capsys):
        rc = main(["enroll", "--image", golden_pgm, "--password", "golden-password", "--bits", "16"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "fcb2"

    def test_json_fields(self, golden_pgm, capsys):
        rc = main([
            "enroll", "--image", golden_pgm, "--password", "golden-password",
            "--bits", "16", "--json",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["hex"] == "fcb2"
        assert doc["bitstring"] == "1111110010110010"
        assert doc["bits"] == 16

    def test_out_file(self, golden_pgm, tmp_path, capsys):
        out = tmp_path / "template.txt"
        rc = main([
            "enroll", "--image", golden_pgm, "--password", "golden-password",
            "--bits", "16", "--out", str(out),
        ])
        assert rc == 0
        assert out.read_text().strip() == "fcb2"

    def test_malformed_pgm_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_text("P5\n2 2\n255\n0 0 0 0\n")
        rc = main(["enroll", "--image", str(bad), "--password", "pw", "--bits", "8"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exit_2(self, capsys):
        rc = main(["enroll", "--image", "/nonexistent.pgm", "--password", "pw", "--bits", "8"])
        assert rc == 2


class TestVerify:
    def test_accept_and_reject(self, golden_pgm, capsys):
        t = enroll(GOLDEN, "golden-password", 16)
        rc = main([
            "verify", "--image", golden_pgm, "--password", "golden-password",
            "--bits", "16", "--template", t.to_hex(), "--threshold", "0",
        ])
        assert rc == 0
        other = enroll(GOLDEN, "other-password", 16)
        rc = main([
            "verify", "--image", golden_pgm, "--password", "golden-password",
            "--bits", "16", "--template", other.to_hex(), "--threshold", "0",
        ])
        assert rc == 1

    def test_json_distance(self, golden_pgm, capsys):
        t = enroll(GOLDEN, "golden-password", 16)
        rc = main([
            "verify", "--image", golden_pgm, "--password", "golden-password",
            "--bits", "16", "--template", t.to_hex(), "--threshold", "2", "--json",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["accepted"] is True
        assert doc["distance"] == 0


class TestAttack:
    def test_merged_self_preimage(self, golden_pgm, tmp_path, capsys):
        t = enroll(GOLDEN, "victim-pw", 12)
        sol = tmp_path / "forged.pgm"
        rc = main([
            "attack", "--kind", "merged", "--anchor", golden_pgm,
            "--password", "victim-pw", "--bits", "12", "--template", t.to_hex(),
            "--time-limit", "30", "--solution-out", str(sol),
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "certified_feasible"
        assert doc["objective"] == 0.0
        assert enroll(load_pgm(sol), "victim-pw", 12) == t

    @pytest.mark.parametrize("kind", ["feature", "multi-auth"])
    def test_password_kinds_self_preimage(self, golden_pgm, kind, capsys):
        t = enroll(GOLDEN, "victim-pw", 12)
        rc = main([
            "attack", "--kind", kind, "--anchor", golden_pgm,
            "--password", "victim-pw", "--bits", "12", "--template", t.to_hex(),
            "--time-limit", "30",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "certified_feasible"
        assert doc["objective"] == 0.0

    def test_forged_image_passes_verify(self, tmp_path, capsys):
        rng = np.random.default_rng(73)
        victim = GrayImage(2, 2, rng.integers(0, 256, size=(2, 2)))
        anchor = GrayImage(2, 2, rng.integers(0, 256, size=(2, 2)))
        anchor_path = tmp_path / "anchor.pgm"
        save_pgm(anchor, anchor_path)
        t = enroll(victim, "victim-pw", 16)
        sol = tmp_path / "forged.pgm"
        rc = main([
            "attack", "--kind", "merged", "--anchor", str(anchor_path),
            "--password", "victim-pw", "--bits", "16", "--template", t.to_hex(),
            "--time-limit", "60", "--seed", "3", "--solution-out", str(sol),
        ])
        assert rc == 0
        capsys.readouterr()
        rc = main([
            "verify", "--image", str(sol), "--password", "victim-pw",
            "--bits", "16", "--template", t.to_hex(), "--threshold", "0",
        ])
        assert rc == 0

    def test_problem_json_input(self, tmp_path, capsys):
        t = enroll(GOLDEN, "victim-pw", 10)
        prob = build_merged(GOLDEN, t, password=b"victim-pw")
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem_to_json(prob)))
        rc = main(["attack", "--problem", str(path), "--time-limit", "30"])
        assert rc == 0

    @pytest.mark.parametrize("edit", ["no-anchor-image", "no-anchor-feature", "stray-target-feature"])
    def test_unsolvable_problem_json_exit_2(self, tmp_path, capsys, edit):
        t = enroll(GOLDEN, "victim-pw", 10)
        if edit == "no-anchor-feature":
            doc = problem_to_json(build_feature_phase(sobel(GOLDEN), t, password=b"victim-pw"))
            del doc["anchor_feature"]
        else:
            doc = problem_to_json(build_merged(GOLDEN, t, password=b"victim-pw"))
            if edit == "no-anchor-image":
                del doc["anchor_image"]
            else:
                doc["target_feature"] = [float(v) for v in sobel(GOLDEN)]
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        assert main(["attack", "--problem", str(path), "--time-limit", "30"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_infeasible_exit_3(self, tmp_path, capsys):
        # 1x1 image: the gradient is identically zero, every bit binarizes
        # to 1, so a 0 bit makes the sign system unsatisfiable
        save_pgm(GrayImage(1, 1, [[128]]), tmp_path / "one.pgm")
        rc = main([
            "attack", "--kind", "merged", "--anchor", str(tmp_path / "one.pgm"),
            "--password", "pw", "--bits", "1", "--template", "0",
            "--time-limit", "10",
        ])
        assert rc == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "infeasible"
        assert doc["solution"] is None

    def test_timeout_exit_4(self, tmp_path, capsys):
        rng = np.random.default_rng(79)
        anchor = GrayImage(3, 3, rng.integers(0, 256, size=(3, 3)))
        save_pgm(anchor, tmp_path / "anchor.pgm")
        t = Template(rng.integers(0, 2, size=20))
        rc = main([
            "attack", "--kind", "merged", "--anchor", str(tmp_path / "anchor.pgm"),
            "--password", "nobody", "--bits", "20", "--template", t.to_hex(),
            "--time-limit", "0.05", "--seed", "1",
        ])
        assert rc == 4

    def test_missing_inputs_exit_2(self, capsys):
        assert main(["attack", "--kind", "merged"]) == 2

    @pytest.mark.parametrize("flag", ["--time-limit", "--delta"])
    def test_nan_setting_exit_2(self, golden_pgm, flag, capsys):
        t = enroll(GOLDEN, "victim-pw", 12)
        rc = main([
            "attack", "--kind", "merged", "--anchor", golden_pgm,
            "--password", "victim-pw", "--bits", "12", "--template", t.to_hex(),
            flag, "nan",
        ])
        assert rc == 2
        assert "finite" in capsys.readouterr().err

    def test_config_file_and_flag_precedence(self, golden_pgm, tmp_path, capsys):
        t = enroll(GOLDEN, "victim-pw", 12)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"time_limit": 0.001}))
        # flag overrides the config file, so the solve gets real time
        rc = main([
            "attack", "--kind", "merged", "--anchor", golden_pgm,
            "--password", "victim-pw", "--bits", "12", "--template", t.to_hex(),
            "--config", str(cfg), "--time-limit", "30",
        ])
        assert rc == 0

    def test_unknown_config_key_exit_2(self, golden_pgm, tmp_path, capsys):
        t = enroll(GOLDEN, "victim-pw", 12)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        rc = main([
            "attack", "--kind", "merged", "--anchor", golden_pgm,
            "--password", "victim-pw", "--bits", "12", "--template", t.to_hex(),
            "--config", str(cfg),
        ])
        assert rc == 2

    def test_mistyped_config_value_exit_2(self, golden_pgm, tmp_path, capsys):
        t = enroll(GOLDEN, "victim-pw", 12)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"time_limit": "30"}))
        rc = main([
            "attack", "--kind", "merged", "--anchor", golden_pgm,
            "--password", "victim-pw", "--bits", "12", "--template", t.to_hex(),
            "--config", str(cfg),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: time_limit")


class TestBench:
    def _run(self, out_path, workers="1", extra=()):
        return main([
            "bench", "--image-size", "2", "--template-size", "8", "--trials", "2",
            "--seed", "11", "--time-limit", "30", "--workers", workers,
            "--out", str(out_path), *extra,
        ])

    def test_csv_schema(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert self._run(out) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "image_size,template_size,mean_distance,mean_time_s,certified_rate"
        fields = lines[1].split(",")
        assert fields[0] == "2" and fields[1] == "8"
        assert 0.0 <= float(fields[4]) <= 1.0

    def test_no_timing_reproducible(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert self._run(a, extra=("--no-timing",)) == 0
        assert self._run(b, extra=("--no-timing",)) == 0
        assert a.read_bytes() == b.read_bytes()
        assert ",0.000000," in a.read_text()

    def test_config_reaches_every_trial(self, tmp_path, capsys):
        # with no repair budget, one AL round on 3x3/20 certifies nothing;
        # with the default budget the repair certifies every trial
        rates = []
        for extra in ({"repair_budget": 0}, {}):
            cfg = tmp_path / "config.json"
            cfg.write_text(json.dumps({"restarts": 1, "max_outer_iterations": 1, **extra}))
            out = tmp_path / "bench.csv"
            assert main([
                "bench", "--image-size", "3", "--template-size", "20", "--trials", "3",
                "--seed", "5", "--workers", "1", "--no-timing", "--config", str(cfg),
                "--out", str(out),
            ]) == 0
            rates.append(float(out.read_text().splitlines()[1].split(",")[4]))
        assert rates == [0.0, 1.0]

    def test_worker_pool_smoke(self, tmp_path, capsys):
        out = tmp_path / "pool.csv"
        assert self._run(out, workers="2") == 0
        assert len(out.read_text().strip().splitlines()) == 2


class TestSynth:
    def test_deterministic_files(self, tmp_path, capsys):
        d1, d2 = tmp_path / "run1", tmp_path / "run2"
        for d in (d1, d2):
            rc = main([
                "synth", "--width", "3", "--height", "2", "--count", "2",
                "--seed-label", "s", "--out-dir", str(d),
            ])
            assert rc == 0
        names = sorted(p.name for p in d1.iterdir())
        assert names == ["img-0000.pgm", "img-0001.pgm"]
        for name in names:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_count_zero(self, tmp_path, capsys):
        rc = main([
            "synth", "--width", "2", "--height", "2", "--count", "0",
            "--out-dir", str(tmp_path / "empty"),
        ])
        assert rc == 0
        assert list((tmp_path / "empty").iterdir()) == []

    def test_pixel_histogram_uniform(self, tmp_path, capsys):
        rc = main([
            "synth", "--width", "80", "--height", "80", "--count", "1",
            "--seed-label", "hist", "--out-dir", str(tmp_path / "h"),
        ])
        assert rc == 0
        img = load_pgm(tmp_path / "h" / "img-0000.pgm")
        counts = np.bincount(img.flat(), minlength=256)
        expected = img.n / 256.0
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < CHI2_CRIT_255

    def test_pixels_match_scalar_byte_stream(self, tmp_path, capsys):
        rc = main([
            "synth", "--width", "80", "--height", "80", "--count", "1",
            "--seed-label", "bytes", "--out-dir", str(tmp_path / "b"),
        ])
        assert rc == 0
        img = load_pgm(tmp_path / "b" / "img-0000.pgm")
        stream = SplitMix64(derive_seed("synth:bytes:0"))
        assert img.flat().tolist() == [stream.next_byte() for _ in range(80 * 80)]


class TestDigest:
    def test_matches_library(self, capsys):
        rc = main(["digest", "--password", "golden-password", "--n", "4", "--m", "3"])
        assert rc == 0
        want = f"{matrix_digest(derive_matrix('golden-password', 4, 3)):016x}"
        assert capsys.readouterr().out.strip() == want == "cef07648ce7a8314"

    def test_orthonormalized_differs(self, capsys):
        main(["digest", "--password", "pw", "--n", "8", "--m", "4"])
        plain = capsys.readouterr().out.strip()
        main(["digest", "--password", "pw", "--n", "8", "--m", "4", "--orthonormalize"])
        ortho = capsys.readouterr().out.strip()
        assert plain != ortho
