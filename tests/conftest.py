"""Shared fixtures: small cached benchmark datasets.

Datasets are cached under the repository ``.cache`` directory so repeated
test runs skip lithography simulation; the cache key includes generator
seed and scale, so fixture data is stable.
"""

import sys
import threading

import pytest

from repro.data import build_benchmark
from repro.nn import runtime


@pytest.fixture(scope="session")
def iccad16_2_small():
    """A small ICCAD16-2-style dataset (~300 clips, ~5% hotspots)."""
    return build_benchmark("iccad16-2", scale=0.3, seed=0)


@pytest.fixture(scope="session")
def iccad16_3_small():
    """A small ICCAD16-3-style dataset (~700 clips, ~22% hotspots)."""
    return build_benchmark("iccad16-3", scale=0.15, seed=0)


@pytest.fixture(scope="session")
def iccad12_small():
    """A small ICCAD12-style dataset (~1600 clips, ~2% hotspots)."""
    return build_benchmark("iccad12", scale=0.01, seed=0)


@pytest.fixture
def pool_idle():
    """A check that every helper thread of the ordered pool
    (``repro.nn.runtime.run_ordered``) waits for its next run, holding
    nothing of the last one."""

    def idle() -> bool:
        frames = sys._current_frames()
        return all(
            frames[thread.ident].f_code is runtime._serve.__code__
            for thread in threading.enumerate()
            if thread.name.startswith("pool-helper-")
        )

    return idle
