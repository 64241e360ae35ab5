"""Tests for the event bus and the framework's event emission."""

import pytest

from repro.core import FrameworkConfig, PSHDFramework
from repro.engine import (
    EVENT_KINDS,
    EventBus,
    EventLog,
    HistoryRecorder,
    ProgressPrinter,
)


#: one payload per event kind and the exact line ``ProgressPrinter``
#: prints for it (``None``: the kind prints nothing)
PRINTED = {
    "run_start": (
        dict(benchmark="b", method="ours", pool_size=100, n_train=10,
             n_val=5, litho_used=15, seed_seconds=0.14),
        "[ours] seeded: 10 train + 5 val labeled, pool 100 (0.1s)",
    ),
    "iteration_start": (
        dict(iteration=1, pool_size=100, litho_used=15),
        "iteration 1: pool 100, litho-clips so far 15",
    ),
    "batch_selected": (
        dict(iteration=1, selected=[3, 7], query_size=60, temperature=1.0,
             select_seconds=0.01),
        None,
    ),
    "model_updated": (
        dict(iteration=1, train_size=20, hotspots_in_train=4,
             temperature=1.2, batch_hotspots=1, litho_used=25,
             update_seconds=0.2, diagnostics={}),
        "  labeled 1 hotspots in batch, train 20 (4 HS), T=1.200",
    ),
    "detection_done": (
        dict(scanned=80, hits=3, false_alarms=2, litho_used=27,
             detect_seconds=0.05),
        "detection: 3 hits, 2 false alarms over 80 scanned clips",
    ),
    "checkpoint_saved": (
        dict(iteration=2, path="ck/iter_0002", checkpoint_seconds=0.31),
        "  checkpoint: iteration 2 -> ck/iter_0002 (0.31s)",
    ),
    "run_resumed": (
        dict(iteration=2, path="ck", pool_size=90, litho_used=30),
        "resumed after iteration 2 from ck: pool 90, litho-clips so far 30",
    ),
    "simulation_retry": (
        dict(chunk=3, retries=2, n_clips=16),
        "  litho retry: chunk 3 needed 2 retries (16 clips)",
    ),
    "features_extracted": (
        dict(n_clips=50, cache_hits=20, cache_misses=30, deduped=0,
             chunks=2, chunk_size=32, workers=0, kinds=("tensors",),
             cache_stats={}, extract_seconds=0.5),
        "features: 50 clips (20 cached, 30 encoded, 0.50s)",
    ),
    "labels_computed": (
        dict(n_clips=50, cache_hits=10, cache_misses=40, deduped=0,
             simulated_seconds=400.0, label_seconds=1.0),
        "labels: 50 clips (10 cached, 40 simulated)",
    ),
    "cache_corrupt": (
        dict(key="ab12", path="c/ab12.npz"),
        "  cache: quarantined corrupt entry ab12",
    ),
    "cache_evicted": (
        dict(key="ab12", bytes=100, disk_bytes=900, max_disk_bytes=1000),
        "  cache: evicted ab12 (100 B; tier at 900/1000 B)",
    ),
    "cache_tmp_failed": (
        dict(path="c/x.tmp", error="EACCES"),
        "  cache: could not remove temp file c/x.tmp (EACCES)",
    ),
    "scan_started": (
        dict(layout="chip", n_tiles=4, n_windows=64, tile_clips=16,
             workers=2, incremental=True),
        "scan chip: 4 tiles (64 windows, 2 workers, incremental)",
    ),
    "tile_scanned": (
        dict(tile="0000_0001", n_clips=16, n_hotspots=2, replayed=True,
             tiles_done=2, n_tiles=4, tile_seconds=0.1),
        "  tile 0000_0001 [2/4]: 16 clips, 2 hotspots (replayed)",
    ),
    "scan_completed": (
        dict(n_tiles=4, n_clips=64, n_hotspots=5, replayed_tiles=1,
             rescored_tiles=3, replayed_clips=16, rescored_clips=48,
             scan_seconds=2.34),
        "scan done: 5 hotspots in 64 clips over 4 tiles "
        "(1 replayed, 3 scored, 2.3s)",
    ),
    "request_received": (
        dict(model="m", n_clips=8, queue_depth=1),
        "  serve: request for 8 clips (model m, queue 1)",
    ),
    "batch_dispatched": (
        dict(model="m", n_clips=8, queue_depth=0),
        "  serve: dispatched 8 clips (model m, 0 queued behind)",
    ),
    "request_completed": (
        dict(model="m", n_clips=8, n_hotspots=1, serve_seconds=0.0123),
        "  serve: 1 hotspots in 8 clips (12.3 ms)",
    ),
    "transport_listening": (
        dict(host="127.0.0.1", port=9000, max_connections=64),
        "serve: listening on 127.0.0.1:9000 (max 64 connections)",
    ),
    "transport_conn_rejected": (
        dict(peer="127.0.0.1:5555", detail="at capacity",
             max_connections=64),
        "  ! serve: shed connection from 127.0.0.1:5555 (at capacity)",
    ),
    "transport_retry": (
        dict(attempt=2, error="timeout", detail="read", sleep_s=0.05),
        "  serve: retry #2 after timeout (backoff 50 ms)",
    ),
    "transport_drain": (
        dict(n_connections=3, drain=True),
        "serve: draining 3 connection(s)",
    ),
    "serve_circuit_open": (
        dict(failures=5, threshold=5, error="refused"),
        "  ! serve: circuit OPEN after 5 failures (refused)",
    ),
    "serve_circuit_half_open": (
        dict(waited_s=1.5),
        "  serve: circuit half-open after 1.50s cool-down",
    ),
    "serve_circuit_closed": (
        dict(recovered_from="open"),
        "  serve: circuit closed (recovered from open)",
    ),
    "health_alert": (
        dict(sentinel="train_divergence", stage="update",
             detail="non-finite loss"),
        "  ! health: train_divergence at update — non-finite loss",
    ),
    "recovery_applied": (
        dict(policy="rollback_retrain", sentinel="train_divergence",
             stage="update"),
        "  > recovery: rollback_retrain "
        "(sentinel train_divergence, stage update)",
    ),
    "degraded_mode": (
        dict(mode="training_frozen", stage="update"),
        "  * degraded mode: training_frozen (stage update)",
    ),
    "guard_report": (
        dict(final_mode="healthy", n_alerts=0, n_recoveries=0, alerts=[],
             recoveries=[], degraded=[]),
        "guard: healthy — 0 alerts, 0 recoveries",
    ),
}

#: every kind (a kind missing from PRINTED fails collection), plus the
#: two optional suffixes switched off
PRINTER_CASES = [
    pytest.param(kind, *PRINTED[kind], id=kind) for kind in EVENT_KINDS
] + [
    pytest.param(
        "scan_started",
        {**PRINTED["scan_started"][0], "incremental": False},
        "scan chip: 4 tiles (64 windows, 2 workers)",
        id="scan_started-full",
    ),
    pytest.param(
        "tile_scanned",
        {**PRINTED["tile_scanned"][0], "replayed": False},
        "  tile 0000_0001 [2/4]: 16 clips, 2 hotspots",
        id="tile_scanned-scored",
    ),
]



class TestEventBus:
    def test_emit_reaches_subscribers_in_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda e: seen.append(("a", e.kind)))
        bus.subscribe(lambda e: seen.append(("b", e.kind)))
        bus.emit("run_start", benchmark="x")
        assert seen == [("a", "run_start"), ("b", "run_start")]

    def test_kind_filter(self):
        bus = EventBus()
        log = bus.subscribe(EventLog(), kinds=["model_updated"])
        bus.emit("run_start")
        bus.emit("model_updated", iteration=1)
        bus.emit("detection_done")
        assert log.kinds() == ["model_updated"]

    def test_seq_numbers_are_monotone(self):
        bus = EventBus()
        log = bus.subscribe(EventLog())
        for kind in EVENT_KINDS:
            bus.emit(kind)
        assert [e.seq for e in log.events] == list(range(len(EVENT_KINDS)))

    def test_unknown_kind_rejected(self):
        bus = EventBus()
        with pytest.raises(ValueError, match="unknown event kind"):
            bus.emit("coffee_break")  # reprolint: disable=R003
        with pytest.raises(ValueError, match="unknown event kinds"):
            bus.subscribe(lambda e: None, kinds=["coffee_break"])

    def test_unsubscribe(self):
        bus = EventBus()
        log = bus.subscribe(EventLog())
        bus.emit("run_start")
        bus.unsubscribe(log)
        bus.emit("detection_done")
        assert log.kinds() == ["run_start"]

    def test_event_log_stage_seconds(self):
        bus = EventBus()
        log = bus.subscribe(EventLog())
        bus.emit("batch_selected", select_seconds=0.25, iteration=1)
        bus.emit("batch_selected", select_seconds=0.5, iteration=2)
        bus.emit("model_updated", update_seconds=1.0, iteration=2)
        totals = log.stage_seconds()
        assert totals == {"select": 0.75, "update": 1.0}

    def test_history_recorder_only_listens_to_model_updated(self):
        recorder = HistoryRecorder()
        bus = EventBus()
        bus.subscribe(recorder)
        bus.emit("run_start", benchmark="b")
        bus.emit(
            "model_updated",
            iteration=1, train_size=10, hotspots_in_train=3,
            temperature=1.5, batch_hotspots=2, litho_used=30,
            update_seconds=0.1, diagnostics={"weights": [0.5, 0.5]},
        )
        assert recorder.history == [{
            "iteration": 1, "train_size": 10, "hotspots_in_train": 3,
            "temperature": 1.5, "batch_hotspots": 2,
            "weights": [0.5, 0.5],
        }]

    @pytest.mark.parametrize("kind, payload, line", PRINTER_CASES)
    def test_progress_printer_formats_each_kind(
        self, kind, payload, line, capsys
    ):
        bus = EventBus()
        bus.subscribe(ProgressPrinter())
        bus.emit(kind, **payload)
        assert capsys.readouterr().out == ("" if line is None else line + "\n")


class TestFrameworkEvents:
    @pytest.fixture(scope="class")
    def run_with_log(self, iccad16_2_small):
        cfg = FrameworkConfig(
            n_query=60, k_batch=10, n_iterations=2, init_train=24,
            val_size=20, arch="mlp", epochs_initial=10, epochs_update=3,
            seed=0,
        )
        bus = EventBus()
        log = bus.subscribe(EventLog())
        result = PSHDFramework(iccad16_2_small, cfg, bus=bus).run()
        return result, log

    def test_event_ordering_across_two_iterations(self, run_with_log):
        _, log = run_with_log
        # seed-stage batched labeling (train set, then validation set)
        # reports before run_start; each iteration labels its batch
        assert log.kinds() == [
            "labels_computed", "labels_computed",
            "run_start",
            "iteration_start", "batch_selected", "labels_computed",
            "model_updated",
            "iteration_start", "batch_selected", "labels_computed",
            "model_updated",
            "detection_done",
            "guard_report",
        ]

    def test_payload_litho_accounting(self, run_with_log):
        result, log = run_with_log
        start = log.of_kind("run_start")[0].payload
        assert start["n_train"] == 24
        assert start["n_val"] == 20
        assert start["litho_used"] == 44
        updates = log.of_kind("model_updated")
        # each iteration labels k_batch more clips
        assert [u.payload["litho_used"] for u in updates] == [54, 64]
        done = log.of_kind("detection_done")[0].payload
        assert done["litho_used"] == result.litho
        assert done["hits"] == result.hits
        assert done["false_alarms"] == result.false_alarms

    def test_batch_selected_payload(self, run_with_log):
        _, log = run_with_log
        for event in log.of_kind("batch_selected"):
            payload = event.payload
            assert len(payload["selected"]) == 10
            assert payload["query_size"] == 60
            assert payload["temperature"] > 0
            assert payload["select_seconds"] >= 0

    def test_stage_timings_present(self, run_with_log):
        _, log = run_with_log
        totals = log.stage_seconds()
        assert set(totals) == {"seed", "select", "update", "detect",
                               "label", "simulated"}
        assert all(v >= 0 for v in totals.values())

    def test_history_from_bus_matches_result(self, run_with_log):
        """PSHDResult.history is the HistoryRecorder's output and keeps
        the seed implementation's exact entry layout."""
        result, log = run_with_log
        assert len(result.history) == 2
        for entry, update in zip(result.history, log.of_kind("model_updated")):
            assert set(entry) == {
                "iteration", "train_size", "hotspots_in_train",
                "temperature", "batch_hotspots", "weights",
                "mean_uncertainty", "mean_diversity",
            }
            assert entry["train_size"] == update.payload["train_size"]

    def test_external_bus_optional(self, iccad16_2_small):
        """Without an explicit bus the run still records history."""
        cfg = FrameworkConfig(
            n_query=60, k_batch=10, n_iterations=1, init_train=24,
            val_size=20, arch="mlp", epochs_initial=5, epochs_update=2,
            seed=0,
        )
        result = PSHDFramework(iccad16_2_small, cfg).run()
        assert len(result.history) == 1

    def test_history_equivalent_to_inline_reference(self, run_with_log):
        """The bus-built history must equal what the seed implementation
        recorded inline: values recomputable from the run's own result."""
        result, _ = run_with_log
        sizes = [h["train_size"] for h in result.history]
        assert sizes == [24 + 10 * (i + 1) for i in range(2)]
        for entry in result.history:
            assert entry["temperature"] > 0
            assert 0 <= entry["batch_hotspots"] <= 10
            assert sum(entry["weights"]) == pytest.approx(1.0)
        assert isinstance(result.history[-1]["hotspots_in_train"], int)
