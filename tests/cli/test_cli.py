"""Tests for the command-line interface."""

import pytest

from repro.cli import (
    benchmark_main,
    convert_main,
    detect_main,
    main,
    report_main,
    serve_main,
)
from repro.data.synth import EUV_RULES, generate_layout
from repro.layout import save_layout


@pytest.fixture
def small_glp(tmp_path):
    layout = generate_layout(
        EUV_RULES, tiles_x=10, tiles_y=10, stress_probability=0.3,
        seed=3, name="cli-chip", target_ratio=0.1,
    )
    path = tmp_path / "chip.glp"
    save_layout(layout, path)
    return str(path)


class TestUmbrella:
    def test_help(self, capsys):
        assert main(["--help"]) == 0
        assert "detect" in capsys.readouterr().out

    def test_no_args_fails(self):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "unknown command" in capsys.readouterr().err

    def test_dispatches_benchmark(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["benchmark", "iccad16-1"]) == 0
        assert "iccad16-1" in capsys.readouterr().out


class TestDetect:
    def test_end_to_end(self, small_glp, tmp_path, capsys):
        report = tmp_path / "hotspots.txt"
        code = detect_main(
            [small_glp, "--iterations", "3", "--batch", "10",
             "--init-train", "20", "--val-size", "16",
             "--seed", "0", "--report", str(report)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "detection accuracy" in out
        assert report.exists()
        assert report.read_text().startswith("# detected hotspot")

    def test_missing_file(self, capsys):
        assert detect_main(["/nonexistent.glp"]) == 2
        assert "error" in capsys.readouterr().err

    def test_streaming_scan_flags(self, small_glp, tmp_path, capsys):
        report = tmp_path / "hotspots.txt"
        state = tmp_path / "scan-state"
        argv = [small_glp, "--iterations", "2", "--batch", "10",
                "--init-train", "20", "--val-size", "16",
                "--seed", "0", "--tile-size", "4",
                "--scan-state", str(state),
                "--feature-cache", str(tmp_path / "fc"),
                "--cache-shards", "2",
                "--report", str(report)]
        assert detect_main(argv) == 0
        out = capsys.readouterr().out
        assert "streaming full-chip scan" in out
        assert (state / "cursor.json").exists()
        assert (state / "manifest.json").exists()
        assert report.read_text().startswith("# detected hotspot")
        assert list((tmp_path / "fc").glob("shard-*"))
        # second run replays every tile from the scan state
        assert detect_main(argv) == 0
        out = capsys.readouterr().out
        scan_line = next(
            line for line in out.splitlines()
            if line.startswith("scan:")
        )
        assert "0 scored" in scan_line

    def test_gds_input_with_svg_output(self, tmp_path, capsys):
        from repro.data.synth import EUV_RULES, generate_layout
        from repro.layout import save_gds

        layout = generate_layout(
            EUV_RULES, tiles_x=10, tiles_y=10, stress_probability=0.3,
            seed=4, name="gdschip", target_ratio=0.1,
        )
        gds_path = tmp_path / "chip.gds"
        save_gds(layout, gds_path)
        svg_path = tmp_path / "det.svg"
        code = detect_main(
            [str(gds_path), "--tech", "7", "--iterations", "2",
             "--batch", "10", "--init-train", "20", "--val-size", "16",
             "--svg", str(svg_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tech 7 nm" in out
        assert svg_path.exists()
        assert svg_path.read_text().startswith("<svg")

    def test_too_few_clips(self, tmp_path, capsys):
        layout = generate_layout(
            EUV_RULES, tiles_x=3, tiles_y=3, stress_probability=0.0, seed=0
        )
        path = tmp_path / "tiny.glp"
        save_layout(layout, path)
        assert detect_main([str(path)]) == 2
        assert "clips" in capsys.readouterr().err

    def test_checkpoint_and_resume(self, small_glp, tmp_path, capsys):
        ckpt_dir = tmp_path / "ckpts"
        common = [
            small_glp, "--iterations", "2", "--batch", "10",
            "--init-train", "20", "--val-size", "16", "--seed", "0",
            "--checkpoint-dir", str(ckpt_dir),
        ]
        assert detect_main(common) == 0
        capsys.readouterr()
        assert (ckpt_dir / "checkpoint_iter0001.json").exists()
        assert (ckpt_dir / "checkpoint_iter0001.npz").exists()

        code = detect_main(
            common + ["--resume", str(ckpt_dir / "checkpoint_iter0001")]
        )
        assert code == 0
        assert "detection accuracy" in capsys.readouterr().out

    def test_resume_missing_checkpoint(self, small_glp, tmp_path, capsys):
        code = detect_main(
            [small_glp, "--iterations", "2", "--batch", "10",
             "--init-train", "20", "--val-size", "16",
             "--resume", str(tmp_path / "nope")]
        )
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err


class TestServe:
    def test_end_to_end(self, small_glp, capsys):
        code = serve_main(
            [small_glp, "--train-clips", "24", "--epochs", "2",
             "--clients", "2", "--requests", "2", "--request-clips", "4",
             "--seed", "0", "--quiet"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "served 4 requests / 16 clips" in out
        assert "latency p50" in out
        assert "clips/batch" in out

    def test_umbrella_dispatches_serve(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--help"])
        assert exc.value.code == 0
        assert "--clients" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        code = serve_main(["/nonexistent/chip.glp"])
        assert code == 2
        assert "chip.glp" in capsys.readouterr().err

    def test_too_few_clips(self, tmp_path, capsys):
        layout = generate_layout(
            EUV_RULES, tiles_x=2, tiles_y=2, stress_probability=0.3,
            seed=3, name="tiny", target_ratio=0.1,
        )
        path = tmp_path / "tiny.glp"
        save_layout(layout, path)
        code = serve_main([str(path), "--train-clips", "24"])
        assert code == 2
        assert "clips" in capsys.readouterr().err


class TestBenchmark:
    def test_builds_named_case(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = benchmark_main(["iccad16-1", "--scale", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "iccad16-1" in out
        assert "HS#=0" in out

    def test_unknown_name(self, capsys):
        assert benchmark_main(["iccad99"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err


class TestConvert:
    def test_glp_to_gds_roundtrip(self, small_glp, tmp_path, capsys):
        from repro.layout import load_layout

        gds = tmp_path / "chip.gds"
        assert convert_main([small_glp, str(gds)]) == 0
        back = tmp_path / "back.glp"
        assert convert_main([str(gds), str(back), "--tech", "7"]) == 0
        original = load_layout(small_glp)
        roundtrip = load_layout(back)
        assert sorted(roundtrip.rects) == sorted(original.rects)
        assert "shapes" in capsys.readouterr().out

    def test_bad_source(self, tmp_path, capsys):
        assert convert_main(["/missing.glp", str(tmp_path / "o.gds")]) == 2
        assert "error" in capsys.readouterr().err


class TestReport:
    def test_fig3_report(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_BENCH_OUT", str(tmp_path))
        assert report_main(["fig3"]) == 0
        assert (tmp_path / "fig3.txt").exists()
        assert "diversity runtime" in capsys.readouterr().out

    def test_rejects_unknown_artifact(self):
        with pytest.raises(SystemExit):
            report_main(["fig99"])
