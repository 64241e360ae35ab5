"""Property-style invariants of the PSHD framework on random data.

These run Algorithm 2 on tiny synthetic datasets with random labels —
no lithography involved — to pin down accounting identities that must
hold for *any* data, not just well-formed benchmarks.
"""

import numpy as np
import pytest

from repro.core import FrameworkConfig, PSHDFramework
from repro.data import ClipDataset
from repro.layout import Clip, Rect


def random_dataset(seed, n=80, ratio=0.2):
    rng = np.random.default_rng(seed)
    window = Rect(0, 0, 100, 100)
    clips = [
        Clip(window.shifted(100 * i, 0),
             window.shifted(100 * i, 0).expanded(-20), index=i)
        for i in range(n)
    ]
    labels = (rng.random(n) < ratio).astype(np.int64)
    tensors = rng.normal(size=(n, 4, 4, 4))
    # give labels a learnable signal so runs are not pure noise
    tensors[labels == 1, 0] += 1.5
    flats = rng.normal(size=(n, 68))
    return ClipDataset(f"prop-{seed}", 7, clips, labels, tensors, flats,
                       meta={"density_cells": 8})


def tiny_config(seed=0):
    return FrameworkConfig(
        n_query=30, k_batch=6, n_iterations=3, init_train=16, val_size=12,
        arch="mlp", epochs_initial=6, epochs_update=2, seed=seed,
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_accounting_identities(seed):
    """For any dataset: Eq. (2) identity, bounded accuracy, exact
    labeler charge, and train-set arithmetic."""
    dataset = random_dataset(seed)
    framework = PSHDFramework(dataset, tiny_config(seed))
    result = framework.run()

    # Eq. (2): litho decomposes exactly
    assert result.litho == result.n_train + result.n_val + result.false_alarms
    # the metered oracle was charged exactly once per labeled clip
    assert framework.labeler.query_count == result.n_train + result.n_val
    # accuracy is a valid fraction and consistent with its parts
    assert 0.0 <= result.accuracy <= 1.0
    found = round(result.accuracy * result.hs_total)
    assert result.hits <= found <= result.hs_total
    # train set grew by exactly k per completed iteration
    cfg = tiny_config(seed)
    assert result.n_train == cfg.init_train + cfg.k_batch * result.iterations
    # labeled indices are unique and within range
    labeled = result.labeled
    assert len(np.unique(labeled)) == len(labeled)
    assert labeled.min() >= 0 and labeled.max() < len(dataset)


@pytest.mark.parametrize("seed", [0, 1])
def test_hotspot_free_dataset_scores_perfect(seed):
    """With zero hotspots (ICCAD16-1 situation) accuracy is 1.0 and
    litho equals labels plus any false alarms."""
    dataset = random_dataset(seed, ratio=0.0)
    result = PSHDFramework(dataset, tiny_config(seed)).run()
    assert result.hs_total == 0
    assert result.accuracy == 1.0
    assert result.hits == 0


def test_all_hotspots_dataset_runs():
    """A pathological all-hotspot dataset still satisfies identities."""
    dataset = random_dataset(7, ratio=1.0)
    result = PSHDFramework(dataset, tiny_config(7)).run()
    assert result.hs_total == len(dataset)
    assert result.false_alarms == 0  # there are no clean clips to flag
    assert result.litho == result.n_train + result.n_val
