"""Smoke test of the benchmark suite, at ``--smoke`` sizes.

    PYTHONPATH=src python -m pytest benchmarks/suite -q
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from run import UNBOUNDED_WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())

#: failure counters, zero on a healthy run
ZERO_WHEN_HEALTHY = {"serve.retries", "serve.shed"}


@pytest.fixture(scope="module")
def smoke_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite")
    run = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "0",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-4000:]
    return out, json.loads((out / "results.json").read_text())


def test_every_metric_is_emitted_finite_with_its_unit(smoke_results):
    _, records = smoke_results
    names = [entry["name"] for entry in SPEC["workloads"]]
    assert {(r["workload"], r["trace"]) for r in records} == {
        (name, trace) for name in names + list(UNBOUNDED_WORKLOADS)
        for trace in (0, 1)
    }
    for record in records:
        assert record["correct"], (record["workload"], record["failures"])
        group = SPEC["per_layer" if record["trace"] else "end_to_end"]
        assert set(record["metrics"]) == {entry["name"] for entry in group}
        for entry in group:
            metric = record["metrics"][entry["name"]]
            assert metric["unit"] == entry["unit"]
            assert math.isfinite(metric["value"])
            if not record["trace"]:
                assert metric["value"] > 0, entry["name"]
    traced = [r for r in records if r["trace"]]
    for entry in SPEC["per_layer"]:
        if entry["name"] not in ZERO_WHEN_HEALTHY:
            assert any(r["metrics"][entry["name"]]["value"] for r in traced), (
                f"{entry['name']} is 0 on every workload"
            )


def test_traced_spans_carry_parents_and_request_tags(smoke_results):
    out, _ = smoke_results
    trace = json.loads((out / "trace_serve_remote.json").read_text())
    fields = trace["span_fields"]
    spans = [dict(zip(fields, span)) for span in trace["spans"]]
    tags = {span["tag"] for span in spans if span["tag"]}
    assert any(tag.startswith("client") for tag in tags)
    assert any(tag.startswith("batch") for tag in tags)
    ids = {span["id"] for span in spans}
    assert any(span["parent"] in ids for span in spans)
    for span in spans:
        assert 0.0 <= span["self_s"] <= span["end_s"] - span["start_s"] + 1e-9


def test_mutated_verdict_trips_the_correctness_check(tmp_path):
    from runner import run_workload
    from workloads import FullChipScan

    class FlippedVerdict(FullChipScan):
        """Flips one clip's score across the threshold on every scan
        after the first."""

        scans = 0

        def setup(self, traced):
            state = super().setup(traced)
            score = state.score

            def flipped(tensors):
                scores = score(tensors)
                if self.scans:
                    scores = scores.copy()
                    scores[0] = 1.0 - scores[0]
                return scores

            state.score = flipped
            return state

        def op(self, state, tracer=None):
            result = super().op(state, tracer)
            self.scans += 1
            return result

    record, _ = run_workload(FlippedVerdict(0, True, tmp_path), 0, False)
    assert not record["correct"]
    assert any("differs" in failure for failure in record["failures"])


def test_compare_flags_an_out_of_bound_pair(tmp_path):
    import compare

    bounds = {entry["name"]: entry for entry in SPEC["end_to_end"]}

    def results(scale_p50: float, litho: int) -> Path:
        metrics = {name: {"value": 100.0, "unit": entry["unit"]}
                   for name, entry in bounds.items()}
        metrics["op_p50_ms"]["value"] *= scale_p50
        path = tmp_path / f"r{scale_p50}-{litho}.json"
        path.write_text(json.dumps([{
            "workload": "al_cnn", "trace": 0, "metrics": metrics,
            "details": {"acc_pct": 95.0, "litho_clips": litho},
        }]))
        return path

    base = results(1.0, 170)
    assert compare.main([str(base), str(results(1.0, 170))]) == 0
    slower = 1.0 + 2 * bounds["op_p50_ms"]["bound"]
    assert compare.main([str(base), str(results(slower, 170))]) == 1
    assert compare.main([str(base), str(results(0.5, 171))]) == 1
