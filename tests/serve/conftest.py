"""Shared fixtures of the serving tests: one trained corpus per
session (training dominates wall time, so every transport module reuses
it), a strict-mode switch for the lock-sanitizer suites, and a shifted
client clock so breaker cooldowns pass without sleeping."""

import time

import numpy as np
import pytest

import repro.serve.transport.client as client_module

from repro.calibration.temperature import TemperatureScaler
from repro.data.synth import EUV_RULES, generate_layout
from repro.dataplane import BatchFeatureExtractor, DataPlaneConfig
from repro.features import FeatureExtractor
from repro.layout import extract_clip_grid
from repro.model.classifier import HotspotClassifier

GRID = 96


class ShiftedTime:
    """Stands in for the ``time`` module the client reads:
    ``monotonic()`` is the real clock plus an offset the test advances
    instead of sleeping; everything else is the real module."""

    def __init__(self) -> None:
        self.offset = 0.0

    def advance(self, seconds: float) -> None:
        self.offset += seconds

    def monotonic(self) -> float:
        return time.monotonic() + self.offset

    def __getattr__(self, name):
        return getattr(time, name)


@pytest.fixture()
def shifted_clock(monkeypatch):
    """The client module's clock, advanced by hand."""
    clock = ShiftedTime()
    monkeypatch.setattr(client_module, "time", clock)
    return clock


def make_plane(bus=None):
    return BatchFeatureExtractor(
        FeatureExtractor(grid=GRID), DataPlaneConfig(chunk_size=32), bus=bus
    )


@pytest.fixture(scope="session")
def trained():
    """Layout clips + one trained classifier/temperature pair."""
    layout = generate_layout(
        EUV_RULES,
        tiles_x=6,
        tiles_y=6,
        stress_probability=0.3,
        seed=13,
        name="serve-test",
        target_ratio=0.1,
    )
    clips = extract_clip_grid(
        layout, EUV_RULES.clip_size, EUV_RULES.core_margin, drop_empty=False
    )
    plane = make_plane()
    train = clips[:20]
    tensors = plane.encode_batch(train)
    rng = np.random.default_rng(0)
    labels = (rng.random(len(train)) < 0.4).astype(np.int64)
    labels[0] = 1
    labels[1] = 0
    clf = HotspotClassifier(
        input_shape=plane.extractor.tensor_shape, arch="mlp", epochs=2, seed=0
    )
    clf.fit_scaler(tensors)
    clf.fit(tensors, labels)
    temperature = TemperatureScaler()
    try:
        temperature.fit(clf.predict_logits(tensors), labels)
    except (ValueError, FloatingPointError):
        temperature.temperature_ = 1.0
    return {"pool": clips[20:], "clf": clf, "temperature": temperature}
