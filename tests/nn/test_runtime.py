"""Compute-core runtime: precision policy, workspace arena, fused kernels.

The refactor's correctness claims are bit-level: pooled im2col, fused
conv+ReLU and the maxpool inference fast path must produce ``array_equal``
outputs against the seed formulations, and the exact-mode network must be
bit-identical fused vs. unfused (forward, taps, and training gradients).
"""

import threading

import numpy as np
import pytest

from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sequential
from repro.nn.im2col import im2col
from repro.nn.runtime import (
    PRECISION_MODES,
    ComputeRuntime,
    PrecisionPolicy,
    WorkspaceArena,
    get_runtime,
    set_runtime,
    using_runtime,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestPrecisionPolicy:
    def test_modes(self):
        assert PRECISION_MODES == ("exact", "fast")
        assert PrecisionPolicy().mode == "exact"
        assert PrecisionPolicy("fast").mode == "fast"

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="precision mode"):
            PrecisionPolicy("float128")

    def test_compute_dtypes(self):
        assert PrecisionPolicy("exact").compute_dtype == np.float64
        assert PrecisionPolicy("fast").compute_dtype == np.float32
        assert PrecisionPolicy("exact").is_exact
        assert not PrecisionPolicy("fast").is_exact

    def test_compute_is_noop_in_exact_mode(self):
        x = np.ones(4)
        assert PrecisionPolicy("exact").compute(x) is x

    def test_compute_casts_in_fast_mode(self):
        out = PrecisionPolicy("fast").compute(np.ones(4))
        assert out.dtype == np.float32

    def test_boundary_restores_float64(self):
        policy = PrecisionPolicy("fast")
        out = policy.boundary(policy.compute(np.ones(4)))
        assert out.dtype == np.float64

    def test_equality_and_hash(self):
        assert PrecisionPolicy("fast") == PrecisionPolicy("fast")
        assert PrecisionPolicy("fast") != PrecisionPolicy("exact")
        assert hash(PrecisionPolicy("fast")) == hash(PrecisionPolicy("fast"))


class TestWorkspaceArena:
    def test_same_slot_reuses_buffer(self):
        arena = WorkspaceArena()
        a = arena.buffer("k", (3, 4), np.float64)
        b = arena.buffer("k", (3, 4), np.float64)
        assert a is b
        stats = arena.stats()
        assert stats["misses"] == 1 and stats["hits"] == 1

    def test_distinct_keys_shapes_dtypes_get_distinct_buffers(self):
        arena = WorkspaceArena()
        a = arena.buffer("k", (3, 4), np.float64)
        assert arena.buffer("other", (3, 4), np.float64) is not a
        assert arena.buffer("k", (4, 3), np.float64) is not a
        assert arena.buffer("k", (3, 4), np.float32) is not a
        assert arena.stats()["buffers"] == 4

    def test_zero_on_create_zeroes_only_once(self):
        arena = WorkspaceArena()
        a = arena.buffer("pad", (2, 2), np.float64, zero_on_create=True)
        assert np.array_equal(a, np.zeros((2, 2)))
        a[...] = 5.0
        b = arena.buffer("pad", (2, 2), np.float64, zero_on_create=True)
        assert b is a
        assert np.array_equal(b, np.full((2, 2), 5.0))

    def test_clear_drops_buffers_and_counters(self):
        arena = WorkspaceArena()
        arena.buffer("k", (2,), np.float64)
        arena.clear()
        stats = arena.stats()
        assert stats == {"hits": 0, "misses": 0, "buffers": 0, "bytes": 0}

    def test_threads_see_private_buffers(self):
        arena = WorkspaceArena()
        main_buf = arena.buffer("k", (8,), np.float64)
        seen = {}

        def worker(name):
            buf = arena.buffer("k", (8,), np.float64)
            buf[...] = hash(name) % 97
            seen[name] = (buf, arena.stats())

        threads = [
            threading.Thread(target=worker, args=(f"t{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        buffers = {id(main_buf)} | {id(buf) for buf, _ in seen.values()}
        assert len(buffers) == 5  # no sharing across threads
        for _, stats in seen.values():
            assert stats["misses"] == 1 and stats["hits"] == 0


class TestRuntimeResolution:
    def test_default_runtime_is_exact(self):
        assert get_runtime().policy.is_exact

    def test_using_runtime_scopes_override(self):
        fast = ComputeRuntime(policy=PrecisionPolicy("fast"))
        with using_runtime(fast) as active:
            assert active is fast
            assert get_runtime() is fast
        assert get_runtime().policy.is_exact

    def test_set_runtime_returns_previous(self):
        fast = ComputeRuntime(policy=PrecisionPolicy("fast"))
        assert set_runtime(fast) is None
        try:
            assert get_runtime() is fast
        finally:
            assert set_runtime(None) is fast
        assert get_runtime().policy.is_exact


def _seed_im2col(images, kh, kw, stride, pad):
    """The seed im2col formulation: np.pad + per-offset slice loop."""
    n, c, h, w = images.shape
    if pad:
        images = np.pad(
            images, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant"
        )
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    cols = np.empty((n * oh * ow, c * kh * kw))
    patch = np.empty((n, oh, ow, c, kh, kw))
    for i in range(kh):
        for j in range(kw):
            patch[:, :, :, :, i, j] = images[
                :, :, i : i + stride * oh : stride, j : j + stride * ow : stride
            ].transpose(0, 2, 3, 1)
    cols[...] = patch.reshape(n * oh * ow, c * kh * kw)
    return cols


class TestPooledIm2col:
    @pytest.mark.parametrize(
        "pad,stride,size", [(0, 1, 9), (1, 1, 9), (1, 2, 9), (2, 3, 8)]
    )
    def test_matches_seed_formulation(self, rng, pad, stride, size):
        images = rng.normal(size=(3, 2, size, size))
        got = im2col(images, 3, 3, stride=stride, pad=pad)
        want = _seed_im2col(images, 3, 3, stride, pad)
        assert np.array_equal(got, want)

    def test_pooled_path_reuses_buffers_across_batches(self, rng):
        runtime = ComputeRuntime()
        images = rng.normal(size=(2, 3, 8, 8))
        first = im2col(images, 3, 3, pad=1, runtime=runtime, key="t")
        second = im2col(
            rng.normal(size=(2, 3, 8, 8)), 3, 3, pad=1, runtime=runtime,
            key="t",
        )
        assert first is second  # same arena slot, overwritten in place
        assert runtime.arena.stats()["hits"] > 0

    def test_pooled_path_is_bit_identical(self, rng):
        runtime = ComputeRuntime()
        images = rng.normal(size=(2, 2, 7, 7))
        want = im2col(images, 3, 3, stride=2, pad=2)
        got = im2col(
            images, 3, 3, stride=2, pad=2, runtime=runtime, key="t"
        )
        assert np.array_equal(got, want)
        # a second, different batch through the same slot stays correct
        # (pad borders must still read zero after the first pass)
        other = rng.normal(size=(2, 2, 7, 7))
        got2 = im2col(
            other, 3, 3, stride=2, pad=2, runtime=runtime, key="t"
        )
        assert np.array_equal(got2, im2col(other, 3, 3, stride=2, pad=2))


class TestFusedKernels:
    def test_fused_conv_relu_matches_separate_layers(self, rng):
        conv = Conv2D(2, 4, kernel_size=3, pad=1, rng=rng)
        x = rng.normal(size=(3, 2, 8, 8))
        want = ReLU().forward(conv.forward(x))
        got = conv.forward(x, fuse_relu=True)
        assert np.array_equal(got, want)

    def test_fused_dense_relu_matches_separate_layers(self, rng):
        dense = Dense(6, 5, rng=rng)
        x = rng.normal(size=(4, 6))
        want = ReLU().forward(dense.forward(x))
        got = dense.forward(x, fuse_relu=True)
        assert np.array_equal(got, want)

    def test_relu_accept_fused_recovers_training_mask(self, rng):
        dense = Dense(5, 4, rng=rng)
        relu = ReLU()
        x = rng.normal(size=(6, 5))
        pre = dense.forward(x, train=True)
        relu.forward(pre.copy(), train=True)
        want_grad = relu.backward(np.ones((6, 4)))

        fused = dense.forward(x, train=True, fuse_relu=True)
        relu.accept_fused(fused, train=True)
        got_grad = relu.backward(np.ones((6, 4)))
        assert np.array_equal(got_grad, want_grad)

    def test_maxpool_inference_fast_path_matches_training_path(self, rng):
        pool = MaxPool2D(2)
        x = rng.normal(size=(3, 4, 8, 8))
        assert np.array_equal(
            pool.forward(x, train=False), pool.forward(x, train=True)
        )


def _make_net(rng, runtime=None):
    layers = [
        Conv2D(1, 3, kernel_size=3, pad=1, rng=rng), ReLU(),
        MaxPool2D(2), Flatten(),
        Dense(3 * 4 * 4, 10, rng=rng), ReLU(),
        Dense(10, 2, rng=rng),
    ]
    return Sequential(layers, runtime=runtime)


class TestFusedNetwork:
    """Sequential's fusion of Conv2D/Dense + ReLU pairs is transparent."""

    def _unfused_forward(self, net, x, taps=()):
        out = x
        tapped = {}
        for i, layer in enumerate(net.layers):
            out = layer.forward(out, train=False)
            if i in taps:
                tapped[i] = out
        return out, tapped

    def test_inference_bit_identical_to_per_layer_loop(self, rng):
        net = _make_net(rng)
        x = rng.normal(size=(5, 1, 8, 8))
        want, _ = self._unfused_forward(net, x)
        assert np.array_equal(net.forward(x, train=False), want)

    def test_taps_on_fused_relu_are_served(self, rng):
        net = _make_net(rng)
        x = rng.normal(size=(4, 1, 8, 8))
        want, want_taps = self._unfused_forward(net, x, taps=(1, 5))
        out, taps = net.forward(x, train=False, taps=(1, 5))
        assert np.array_equal(out, want)
        assert sorted(taps) == [1, 5]
        for i in (1, 5):
            assert np.array_equal(taps[i], want_taps[i])

    def test_pre_activation_tap_disables_fusion(self, rng):
        net = _make_net(rng)
        x = rng.normal(size=(4, 1, 8, 8))
        _, want_taps = self._unfused_forward(net, x, taps=(0, 4))
        _, taps = net.forward(x, train=False, taps=(0, 4))
        for i in (0, 4):
            assert np.array_equal(taps[i], want_taps[i])

    def test_training_gradients_match_unfused_replica(self, rng):
        # two identical nets; fused training backward must equal the
        # seed per-layer formulation bit for bit
        net_a = _make_net(np.random.default_rng(3))
        net_b = _make_net(np.random.default_rng(3))
        x = np.random.default_rng(9).normal(size=(4, 1, 8, 8))
        out_a = net_a.forward(x, train=True)

        out_b = x
        for layer in net_b.layers:
            out_b = layer.forward(out_b, train=True)
        assert np.array_equal(out_a, out_b)

        grad = np.random.default_rng(11).normal(size=out_a.shape)
        gin_a = net_a.backward(grad)
        gin_b = grad
        for layer in reversed(net_b.layers):
            gin_b = layer.backward(gin_b)
        assert np.array_equal(gin_a, gin_b)
        for la, lb in zip(net_a.layers, net_b.layers):
            for ga, gb in zip(la.grads().values(), lb.grads().values()):
                assert np.array_equal(ga, gb)

    def test_inference_does_not_overwrite_training_cols(self, rng):
        # train and inference use distinct arena slots: an inference
        # pass through the same conv must leave the arena buffer that
        # backs the cached training columns untouched
        runtime = ComputeRuntime()
        conv = Conv2D(1, 3, kernel_size=3, pad=1, rng=rng)
        x = rng.normal(size=(4, 1, 8, 8))
        conv.forward(x, train=True, runtime=runtime)
        cols_snapshot = conv._cols.copy()
        conv.forward(rng.normal(size=(4, 1, 8, 8)), train=False,
                     runtime=runtime)
        assert np.array_equal(
            runtime.buffer(
                (("conv2d", conv._ws_id, "train", 3, 1, 1), "cols"),
                cols_snapshot.shape, cols_snapshot.dtype,
            ),
            cols_snapshot,
        )

    def test_shared_runtime_arena_is_populated(self, rng):
        runtime = ComputeRuntime()
        net = _make_net(rng, runtime=runtime)
        x = rng.normal(size=(4, 1, 8, 8))
        first = net.forward(x, train=False)
        stats_after_first = runtime.arena.stats()
        assert stats_after_first["misses"] > 0
        second = net.forward(x, train=False)
        assert np.array_equal(first, second)
        assert runtime.arena.stats()["hits"] > stats_after_first["hits"]
