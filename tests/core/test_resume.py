"""Kill-and-resume determinism: the headline checkpoint guarantees.

A run checkpointed every iteration, killed mid-loop, and resumed from
the last checkpoint must be **bit-identical** to the uninterrupted run:
same batch selections, same litho meter, same final network weights.
"""

import numpy as np
import pytest

from repro.core import PSHDFramework
from repro.engine.checkpoint import CheckpointError
from repro.engine.events import EventBus, EventLog

from .test_framework import fast_config


class KillAt:
    """Bus subscriber that dies on ``iteration_start`` of one iteration,
    simulating a crash after the previous iteration's checkpoint."""

    def __init__(self, iteration):
        self.iteration = iteration

    def __call__(self, event):
        if (
            event.kind == "iteration_start"
            and event.payload["iteration"] == self.iteration
        ):
            raise RuntimeError("simulated crash")


def checkpointed_config(tmp_path, **overrides):
    overrides.setdefault("checkpoint_every", 1)
    overrides.setdefault("checkpoint_dir", str(tmp_path / "ckpts"))
    return fast_config(**overrides)


def selections(log):
    return [e.payload["selected"] for e in log.of_kind("batch_selected")]


class TestKillAndResume:
    def test_resumed_run_is_bit_identical(self, iccad16_3_small, tmp_path):
        # reference: one uninterrupted run
        bus_a = EventBus()
        log_a = bus_a.subscribe(EventLog())
        fw_a = PSHDFramework(iccad16_3_small, fast_config(), bus=bus_a)
        result_a = fw_a.run()

        # run B: checkpoint every iteration, killed entering iteration 3
        bus_b = EventBus()
        log_b = bus_b.subscribe(EventLog())
        bus_b.subscribe(KillAt(3))
        fw_b = PSHDFramework(
            iccad16_3_small, checkpointed_config(tmp_path), bus=bus_b
        )
        with pytest.raises(RuntimeError, match="simulated crash"):
            fw_b.run()

        # run C: a fresh framework resumes from B's last checkpoint
        bus_c = EventBus()
        log_c = bus_c.subscribe(EventLog())
        fw_c = PSHDFramework(
            iccad16_3_small, checkpointed_config(tmp_path), bus=bus_c
        )
        result_c = fw_c.resume(
            tmp_path / "ckpts" / "checkpoint_iter0002"
        )

        # bit-identical selections across the kill boundary
        assert selections(log_b) + selections(log_c) == selections(log_a)
        # identical litho meter
        assert fw_c.labeler.query_count == fw_a.labeler.query_count
        # identical final weights, bit for bit
        weights_a = fw_a.classifier.network.get_weights()
        weights_c = fw_c.classifier.network.get_weights()
        assert weights_a.keys() == weights_c.keys()
        for key, value in weights_a.items():
            assert np.array_equal(value, weights_c[key]), key
        # identical result surface
        assert result_c.accuracy == result_a.accuracy
        assert result_c.litho == result_a.litho
        assert result_c.hits == result_a.hits
        assert result_c.false_alarms == result_a.false_alarms
        assert result_c.history == result_a.history
        assert result_c.iterations == result_a.iterations

    def test_checkpoint_saved_events_and_files(
        self, iccad16_3_small, tmp_path
    ):
        bus = EventBus()
        log = bus.subscribe(EventLog())
        cfg = checkpointed_config(tmp_path, n_iterations=2)
        PSHDFramework(iccad16_3_small, cfg, bus=bus).run()
        saved = log.of_kind("checkpoint_saved")
        assert [e.payload["iteration"] for e in saved] == [1, 2]
        for event in saved:
            assert (tmp_path / "ckpts" / "checkpoint_iter0001.npz").exists()
            assert event.payload["path"].endswith(".json")

    def test_checkpoint_every_respects_stride(
        self, iccad16_3_small, tmp_path
    ):
        bus = EventBus()
        log = bus.subscribe(EventLog())
        cfg = checkpointed_config(tmp_path, checkpoint_every=2)
        PSHDFramework(iccad16_3_small, cfg, bus=bus).run()
        saved = [
            e.payload["iteration"] for e in log.of_kind("checkpoint_saved")
        ]
        assert saved == [2, 4]

    def test_resume_can_extend_the_horizon(self, iccad16_3_small, tmp_path):
        """n_iterations is not part of the fingerprint: a checkpoint from
        a short run may resume with a longer loop."""
        cfg_short = checkpointed_config(tmp_path, n_iterations=2)
        PSHDFramework(iccad16_3_small, cfg_short).run()

        cfg_long = checkpointed_config(tmp_path, n_iterations=4)
        fw = PSHDFramework(iccad16_3_small, cfg_long)
        result = fw.resume(tmp_path / "ckpts" / "checkpoint_iter0002")
        assert result.iterations == 4

        # and it matches an uninterrupted 4-iteration run
        reference = PSHDFramework(iccad16_3_small, fast_config()).run()
        assert result.accuracy == reference.accuracy
        assert result.litho == reference.litho

    def test_run_resumed_event_emitted(self, iccad16_3_small, tmp_path):
        PSHDFramework(
            iccad16_3_small, checkpointed_config(tmp_path, n_iterations=2)
        ).run()
        bus = EventBus()
        log = bus.subscribe(EventLog())
        PSHDFramework(
            iccad16_3_small, checkpointed_config(tmp_path), bus=bus
        ).resume(tmp_path / "ckpts" / "checkpoint_iter0002")
        resumed = log.of_kind("run_resumed")
        assert len(resumed) == 1
        assert resumed[0].payload["iteration"] == 2


class TestResumeValidation:
    def test_mismatched_config_rejected(self, iccad16_3_small, tmp_path):
        PSHDFramework(
            iccad16_3_small, checkpointed_config(tmp_path, n_iterations=1)
        ).run()
        other = PSHDFramework(
            iccad16_3_small, checkpointed_config(tmp_path, k_batch=10)
        )
        with pytest.raises(CheckpointError, match="k_batch"):
            other.resume(tmp_path / "ckpts" / "checkpoint_iter0001")

    def test_missing_checkpoint_rejected(self, iccad16_3_small, tmp_path):
        fw = PSHDFramework(iccad16_3_small, fast_config())
        with pytest.raises(CheckpointError, match="manifest"):
            fw.resume(tmp_path / "nope")

    def test_checkpoint_every_requires_dir(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            fast_config(checkpoint_every=1)

    def test_negative_checkpoint_every_rejected(self):
        with pytest.raises(ValueError, match="checkpoint_every"):
            fast_config(checkpoint_every=-1, checkpoint_dir="x")
