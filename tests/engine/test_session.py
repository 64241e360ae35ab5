"""Tests for InferenceSession: cached scaling + single-pass prediction."""

import numpy as np
import pytest

from repro.engine import InferenceSession
from repro.model import HotspotClassifier


@pytest.fixture(scope="module")
def trained():
    """A small trained classifier plus the pool it was fitted against."""
    rng = np.random.default_rng(0)
    n, shape = 60, (4, 8, 8)
    pool = rng.normal(size=(n,) + shape)
    y = np.zeros(n, dtype=np.int64)
    y[n // 2 :] = 1
    pool[n // 2 :, 0] += 2.0
    clf = HotspotClassifier(input_shape=shape, arch="mlp", epochs=15, seed=0)
    clf.fit_scaler(pool)
    clf.fit(pool, y)
    return clf, pool


class TestScaledCache:
    def test_scaled_matches_direct_transform(self, trained):
        clf, pool = trained
        session = InferenceSession(clf, pool)
        np.testing.assert_array_equal(
            session.scaled, clf.scaler.transform(pool)
        )

    def test_cache_is_reused(self, trained):
        clf, pool = trained
        session = InferenceSession(clf, pool)
        assert session.scaled is session.scaled  # same object, no rescale

    def test_fit_scaler_invalidates(self, trained):
        clf, pool = trained
        clf = clf.clone_untrained()
        clf.fit_scaler(pool)
        clf.fit(pool[:20], np.arange(20) % 2, epochs=1)
        session = InferenceSession(clf, pool)
        before = session.scaled
        assert session.cache_valid
        # refit on shifted data -> different statistics -> new cache
        clf.fit_scaler(pool + 5.0)
        assert not session.cache_valid
        after = session.scaled
        assert session.cache_valid
        assert not np.array_equal(before, after)

    def test_explicit_invalidate_forces_recompute(self, trained):
        clf, pool = trained
        session = InferenceSession(clf, pool)
        first = session.scaled
        session.invalidate()
        assert not session.cache_valid
        second = session.scaled
        assert first is not second
        np.testing.assert_array_equal(first, second)


class TestSessionPrediction:
    def test_logits_match_classifier_bitwise(self, trained):
        clf, pool = trained
        session = InferenceSession(clf, pool)
        idx = np.array([3, 1, 41, 17])
        np.testing.assert_array_equal(
            session.logits(idx), clf.predict_logits(pool[idx])
        )

    def test_logits_all_rows_when_no_indices(self, trained):
        clf, pool = trained
        session = InferenceSession(clf, pool)
        np.testing.assert_array_equal(
            session.logits(), clf.predict_logits(pool)
        )

    def test_predict_full_matches_two_pass_bitwise(self, trained):
        """The single tapped pass must equal the old two-pass path
        bit-for-bit: same logits, same normalized embeddings."""
        clf, pool = trained
        session = InferenceSession(clf, pool)
        idx = np.arange(0, 50, 3)
        full = session.predict_full(idx)
        np.testing.assert_array_equal(
            full.logits, clf.predict_logits(pool[idx])
        )
        np.testing.assert_array_equal(
            full.embeddings, clf.embeddings(pool[idx])
        )

    def test_predict_full_unnormalized(self, trained):
        clf, pool = trained
        session = InferenceSession(clf, pool)
        idx = np.arange(10)
        full = session.predict_full(idx, normalize=False)
        np.testing.assert_array_equal(
            full.embeddings, clf.embeddings(pool[idx], normalize=False)
        )

    def test_embeddings_match_classifier_bitwise(self, trained):
        clf, pool = trained
        session = InferenceSession(clf, pool)
        idx = np.array([0, 7, 13])
        np.testing.assert_array_equal(
            session.embeddings(idx), clf.embeddings(pool[idx])
        )

    def test_predict_full_multi_batch_matches_two_pass(self, trained):
        """More rows than the inference batch (128) forces the internal
        batching loop; stitched output must still equal the two-pass
        path bit-for-bit."""
        clf, pool = trained
        big = np.tile(pool, (3, 1, 1, 1))  # 180 rows -> two batches
        full = clf.predict_full(big)
        np.testing.assert_array_equal(full.logits, clf.predict_logits(big))
        np.testing.assert_array_equal(full.embeddings, clf.embeddings(big))
