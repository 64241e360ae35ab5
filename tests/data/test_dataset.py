"""Tests for ClipDataset and the metered DatasetLabeler."""

import numpy as np
import pytest

from repro.data import ClipDataset, DatasetLabeler
from repro.layout import Clip, Rect


def toy_dataset(n=10, hotspots=(1, 4)):
    window = Rect(0, 0, 100, 100)
    clips = [
        Clip(window.shifted(i * 100, 0), window.shifted(i * 100, 0).expanded(-20), index=i)
        for i in range(n)
    ]
    labels = np.zeros(n, dtype=np.int64)
    labels[list(hotspots)] = 1
    tensors = np.arange(n * 4, dtype=np.float64).reshape(n, 1, 2, 2)
    flats = np.arange(n * 3, dtype=np.float64).reshape(n, 3)
    return ClipDataset("toy", 28, clips, labels, tensors, flats)


class TestClipDataset:
    def test_counts(self):
        ds = toy_dataset()
        assert len(ds) == 10
        assert ds.n_hotspots == 2
        assert ds.n_nonhotspots == 8
        assert ds.hotspot_ratio == pytest.approx(0.2)

    def test_subset_preserves_alignment(self):
        ds = toy_dataset()
        sub = ds.subset([4, 1, 7])
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.labels, [1, 1, 0])
        np.testing.assert_allclose(sub.tensors[0], ds.tensors[4])
        np.testing.assert_allclose(sub.flats[1], ds.flats[1])
        assert sub.clips[2].index == 7

    def test_summary_format(self):
        assert "HS#=2" in toy_dataset().summary()
        assert "28nm" in toy_dataset().summary()

    def test_rejects_misaligned_labels(self):
        ds = toy_dataset()
        with pytest.raises(ValueError):
            ClipDataset("bad", 28, ds.clips, ds.labels[:-1], ds.tensors, ds.flats)

    def test_rejects_nonbinary_labels(self):
        ds = toy_dataset()
        labels = ds.labels.copy()
        labels[0] = 3
        with pytest.raises(ValueError, match="binary"):
            ClipDataset("bad", 28, ds.clips, labels, ds.tensors, ds.flats)


class TestDatasetLabeler:
    def test_returns_ground_truth(self):
        ds = toy_dataset()
        labeler = DatasetLabeler(ds)
        assert labeler.label(1) == 1
        assert labeler.label(0) == 0

    def test_charges_once_per_index(self):
        labeler = DatasetLabeler(toy_dataset())
        labeler.label(3)
        labeler.label(3)
        labeler.label(5)
        assert labeler.query_count == 2

    def test_label_many(self):
        labeler = DatasetLabeler(toy_dataset())
        out = labeler.label_many([0, 1, 4, 1])
        np.testing.assert_array_equal(out, [0, 1, 1, 1])
        assert labeler.query_count == 3

    def test_labeled_indices_sorted(self):
        labeler = DatasetLabeler(toy_dataset())
        labeler.label_many([7, 2, 5])
        np.testing.assert_array_equal(labeler.labeled_indices, [2, 5, 7])

    def test_out_of_range_raises(self):
        labeler = DatasetLabeler(toy_dataset())
        with pytest.raises(IndexError):
            labeler.label(10)
        with pytest.raises(IndexError):
            labeler.label(-1)

    def test_reset(self):
        labeler = DatasetLabeler(toy_dataset())
        labeler.label(0)
        labeler.reset()
        assert labeler.query_count == 0
        assert not labeler.is_labeled(0)


class TestDatasetLabelerBudget:
    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError, match="max_queries"):
            DatasetLabeler(toy_dataset(), max_queries=0)

    def test_label_raises_at_budget_without_charging(self):
        from repro.litho import LithoBudgetExceeded

        labeler = DatasetLabeler(toy_dataset(), max_queries=2)
        labeler.label(0)
        labeler.label(1)
        labeler.label(0)  # already charged, free
        with pytest.raises(LithoBudgetExceeded):
            labeler.label(2)
        assert labeler.query_count == 2
        assert not labeler.is_labeled(2)

    def test_label_batch_checks_whole_request_up_front(self):
        """A rejected batch charges nothing — the budget check runs
        before any label is revealed."""
        from repro.litho import LithoBudgetExceeded

        labeler = DatasetLabeler(toy_dataset(), max_queries=3)
        with pytest.raises(LithoBudgetExceeded) as info:
            labeler.label_batch([0, 1, 2, 3])
        assert labeler.query_count == 0
        assert info.value.requested == 4
        # a batch that fits still goes through afterwards
        np.testing.assert_array_equal(
            labeler.label_batch([0, 1, 4]), [0, 1, 1]
        )
        assert labeler.query_count == 3

    def test_cached_indices_do_not_count_against_budget(self):
        labeler = DatasetLabeler(toy_dataset(), max_queries=2)
        labeler.label_batch([0, 1])
        # all already charged: fits in a zero-remaining budget
        labeler.label_batch([0, 1, 0])
        assert labeler.query_count == 2
