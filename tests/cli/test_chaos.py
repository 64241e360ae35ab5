"""Chaos smoke test: a CLI run with injected transient litho faults and
a tight litho budget must exit 0 with a degraded — not crashed —
GuardReport.  It runs in the full and strict test suites."""

import pytest

from repro.cli import detect_main
from repro.data.synth import EUV_RULES, generate_layout
from repro.layout import save_layout


@pytest.fixture
def chaos_glp(tmp_path):
    layout = generate_layout(
        EUV_RULES, tiles_x=10, tiles_y=10, stress_probability=0.3,
        seed=3, name="chaos-chip", target_ratio=0.1,
    )
    path = tmp_path / "chip.glp"
    save_layout(layout, path)
    return str(path)


class TestChaosSmoke:
    def test_faulted_budgeted_run_degrades_gracefully(
        self, chaos_glp, capsys
    ):
        # seed charges 20 + 16 = 36 clips; the first 10-clip batch would
        # reach 46 > 45, so the guard must stop the loop gracefully
        code = detect_main([
            chaos_glp, "--iterations", "4", "--batch", "10",
            "--init-train", "20", "--val-size", "16", "--seed", "0",
            "--chaos-faults", "4", "--max-litho", "45", "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos: injecting 4 transient litho faults" in out
        assert "detection accuracy" in out
        assert "degraded:budget_exhausted" in out

    def test_guard_flags_parse(self):
        from repro.cli.main import build_detect_parser

        args = build_detect_parser().parse_args(
            ["x.glp", "--no-guard", "--max-litho", "50",
             "--stage-timeout", "30"]
        )
        assert args.guard is False
        assert args.max_litho == 50
        assert args.stage_timeout == 30.0
        defaults = build_detect_parser().parse_args(["x.glp"])
        assert defaults.guard is True
        assert defaults.max_litho is None
        assert defaults.chaos_faults == 0
