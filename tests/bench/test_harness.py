"""Tests for the experiment harness utilities."""

import pytest

from repro.bench import (
    BENCH_SETTINGS,
    EVAL_BENCHMARKS,
    base_framework_config,
    format_table,
    run_method,
)
from repro.bench.harness import bench_scale_factor, bench_seeds
from repro.core.metrics import PSHDResult


class TestSettings:
    def test_all_eval_benchmarks_configured(self):
        for name in EVAL_BENCHMARKS:
            assert name in BENCH_SETTINGS

    def test_base_config_matches_setting(self):
        cfg = base_framework_config("iccad16-3", seed=5)
        setting = BENCH_SETTINGS["iccad16-3"]
        assert cfg.n_query == setting.n_query
        assert cfg.k_batch == setting.k_batch
        assert cfg.seed == 5

    def test_env_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.5")
        monkeypatch.setenv("REPRO_BENCH_SEEDS", "7")
        assert bench_scale_factor() == 0.5
        assert bench_seeds() == 7

    def test_seeds_floor_at_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SEEDS", "0")
        assert bench_seeds() == 1


class TestRunMethod:
    def test_pm_dispatch(self, iccad16_2_small):
        result = run_method(iccad16_2_small, "pm-exact", "iccad16-2")
        assert isinstance(result, PSHDResult)
        assert result.method == "pm-exact"

    def test_al_dispatch(self, iccad16_2_small):
        from repro.core import FrameworkConfig

        cfg = FrameworkConfig(
            n_query=60, k_batch=10, n_iterations=2, init_train=24,
            val_size=20, arch="mlp", epochs_initial=8, epochs_update=3,
            seed=0,
        )
        result = run_method(iccad16_2_small, "ours", "iccad16-2", config=cfg)
        assert result.method == "ours"
        assert result.litho > 0

    def test_unknown_method_raises(self, iccad16_2_small):
        with pytest.raises(ValueError):
            run_method(iccad16_2_small, "magic", "iccad16-2")


class TestFormatTable:
    def test_alignment_and_separator(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 0.123]])
        lines = text.splitlines()
        assert lines[0].endswith("bb")
        assert set(lines[1]) == {"-"}
        assert "2.50" in lines[2]
        assert "0.12" in lines[3]

    def test_handles_strings_and_ints(self):
        text = format_table(["x"], [["hello"], [42]])
        assert "hello" in text
        assert "42" in text
