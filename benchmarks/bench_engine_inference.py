"""Extension — compute-core inference: fused/buffered kernels + float32.

The AL loop needs calibrated probabilities *and* embeddings for every
query batch.  This bench layers the repo's successive optimizations of
that path over the paper's default query size (n = 120) and verifies
each claim:

* the engine's single-pass ``InferenceSession.predict_full`` issues
  exactly one network sweep (the pre-engine baseline issues two), with
  bit-identical outputs and wall-clock speedup >= 1.5x;
* the compute-core fast path (float32 policy + workspace-buffered
  im2col + fused conv/dense+ReLU + reshape maxpool) beats a replica of
  the seed kernels (per-offset-loop im2col, unfused ReLU, two passes,
  per-call scaling) by >= 5x (>= 3x under ``REPRO_BENCH_QUICK=1``).
  The replica max-pools through ``MaxPool2D.forward(x, train=True)``,
  which is no longer the seed's im2col/argmax gather but a reshape
  plus an argmax over each window, so the floor is measured against a
  faster baseline than the seed's.  Its per-offset loop gathers
  ``(KH, KW, C)``-ordered columns and multiplies them by the kernel
  permuted the same way, the summation order of every ``Conv2D``
  forward, so its logits stay byte-equal to the engine's;
* switching to float32 does not move calibration: the ECE of the fast
  path agrees with the exact path within a small tolerance.

Writes ``BENCH_engine_inference.json`` next to the rendered table.
"""

import json
import os
import time

import numpy as np

from repro.bench import format_table, write_report
from repro.calibration.reliability import expected_calibration_error
from repro.engine import InferenceSession
from repro.model import HotspotClassifier
from repro.nn import Conv2D, Dense, MaxPool2D, ReLU
from repro.nn.losses import softmax

#: the paper's default query-set size ``n``
N_QUERY = 120

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
REPEATS = 3 if QUICK else 9
#: fast-path speedup floor vs. the seed-kernel replica
FAST_SPEEDUP_FLOOR = 3.0 if QUICK else 5.0
#: |ECE(fast) - ECE(exact)| ceiling — one 10-bin boundary flip at the
#: bench pool size is ~1/400, so 5e-3 flags any systematic drift while
#: tolerating a single rounding-induced bin crossing
ECE_TOLERANCE = 5e-3


def _trained_cnn():
    rng = np.random.default_rng(0)
    shape = (8, 12, 12)
    pool = rng.normal(size=(400,) + shape)
    y = np.zeros(80, dtype=np.int64)
    y[40:] = 1
    pool[40:80, 0] += 2.0
    labels = np.zeros(len(pool), dtype=np.int64)
    labels[40:80] = 1
    clf = HotspotClassifier(input_shape=shape, arch="cnn", seed=0)
    clf.fit_scaler(pool)
    clf.fit(pool[:80], y, epochs=2)
    return clf, pool, labels


def _fast_twin(clf):
    """The same trained model re-hosted on the float32 fast runtime."""
    twin = HotspotClassifier(
        input_shape=clf.input_shape, arch=clf.arch, lr=clf.lr,
        seed=clf.seed, precision="fast",
    )
    twin.network.set_weights(clf.network.get_weights())
    twin.scaler.mean_ = clf.scaler.mean_.copy()
    twin.scaler.std_ = clf.scaler.std_.copy()
    twin.scaler_version = clf.scaler_version
    twin._fitted = True
    return twin


# ----------------------------------------------------------------------
# seed-kernel replica: the pre-refactor compute core
# ----------------------------------------------------------------------

def _seed_im2col(images, kh, kw, stride, pad):
    """Seed im2col: np.pad allocation + per-kernel-offset slice loop,
    gathering ``(KH, KW, C)``-ordered columns."""
    n, c, h, w = images.shape
    if pad:
        images = np.pad(
            images, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant"
        )
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    patch = np.empty((n, oh, ow, kh, kw, c))
    for i in range(kh):
        for j in range(kw):
            patch[:, :, :, i, j, :] = images[
                :, :, i : i + stride * oh : stride, j : j + stride * ow : stride
            ].transpose(0, 2, 3, 1)
    return patch.reshape(n * oh * ow, kh * kw * c)


def _seed_layer_forward(layer, x):
    """One layer in the seed formulation: unfused, allocation-churning."""
    if isinstance(layer, Conv2D):
        n, _, h, w = x.shape
        k, s, p, f = layer.kernel_size, layer.stride, layer.pad, layer.out_channels
        oh = (h + 2 * p - k) // s + 1
        ow = (w + 2 * p - k) // s + 1
        cols = _seed_im2col(x, k, k, s, p)
        kernel = layer.weight.transpose(0, 2, 3, 1).reshape(f, -1)
        out = cols @ kernel.T + layer.bias
        return out.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)
    if isinstance(layer, Dense):
        return x @ layer.weight + layer.bias
    if isinstance(layer, ReLU):
        return np.maximum(x, 0)
    if isinstance(layer, MaxPool2D):
        # the seed pooled through the training path's im2col + argmax;
        # that path is now a reshape plus an argmax per window, which
        # records the argmax but gathers no im2col columns
        return layer.forward(x, train=True)
    return layer.forward(x)


def _seed_sweep(network, x, tap_index):
    out, tap = x, None
    for i, layer in enumerate(network.layers):
        out = _seed_layer_forward(layer, out)
        if i == tap_index:
            tap = out
    return out, tap


def _count_network_sweeps(clf, fn):
    """Number of Sequential.forward/forward_to invocations ``fn`` makes."""
    counter = {"n": 0}
    orig_forward = clf.network.forward
    orig_forward_to = clf.network.forward_to

    def forward(x, train=False, taps=None):
        counter["n"] += 1
        return orig_forward(x, train=train, taps=taps)

    def forward_to(x, layer_index):
        counter["n"] += 1
        return orig_forward_to(x, layer_index)

    clf.network.forward = forward
    clf.network.forward_to = forward_to
    try:
        fn()
    finally:
        del clf.network.forward
        del clf.network.forward_to
    return counter["n"]


def _best_of(fn, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def run_engine_inference():
    clf, pool, labels = _trained_cnn()
    fast_clf = _fast_twin(clf)
    session = InferenceSession(clf, pool)
    fast_session = InferenceSession(fast_clf, pool)
    query = np.arange(N_QUERY)
    x = pool[query]
    embed = clf._embedding_index

    def two_pass():
        return clf.predict_logits(x), clf.embeddings(x)

    def seed_two_pass():
        # the seed's full cost of logits + embeddings: two sweeps over
        # seed kernels, each paying its own scaler transform
        scaled_a = clf.scaler.transform(x)
        logits, _ = _seed_sweep(clf.network, scaled_a, tap_index=None)
        scaled_b = clf.scaler.transform(x)
        _, tap = _seed_sweep(clf.network, scaled_b, tap_index=embed)
        return logits, tap

    def single_pass():
        full = session.predict_full(query)
        return full.logits, full.embeddings

    def fast_single_pass():
        full = fast_session.predict_full(query)
        return full.logits, full.embeddings

    # correctness first: the engine path is bit-identical to two-pass
    # and to the seed kernels; the fast path matches to float32 rounding
    # (also warms the sessions' scaled-tensor caches, a once-per-run
    # cost in the AL flow)
    logits_two, emb_two = two_pass()
    logits_one, emb_one = single_pass()
    assert np.array_equal(logits_one, logits_two)
    assert np.array_equal(emb_one, emb_two)
    seed_logits, seed_tap = seed_two_pass()
    assert np.array_equal(seed_logits, logits_two)
    assert np.array_equal(
        clf._normalize_embeddings(seed_tap), emb_two
    )
    fast_logits, fast_emb = fast_single_pass()
    np.testing.assert_allclose(fast_logits, logits_one, rtol=1e-4, atol=1e-4)
    np.testing.assert_allclose(fast_emb, emb_one, rtol=1e-3, atol=1e-4)

    sweeps_two = _count_network_sweeps(clf, two_pass)
    sweeps_one = _count_network_sweeps(clf, single_pass)

    seconds_seed = _best_of(seed_two_pass)
    seconds_two = _best_of(two_pass)
    seconds_one = _best_of(single_pass)
    seconds_fast = _best_of(fast_single_pass)

    # calibration must not move under float32 (the Fig. 2 invariant)
    ece_exact = expected_calibration_error(
        softmax(session.logits()), labels
    )
    ece_fast = expected_calibration_error(
        softmax(fast_session.logits()), labels
    )

    return {
        "two_pass_sweeps": sweeps_two,
        "single_pass_sweeps": sweeps_one,
        "seed_kernel_ms": 1000 * seconds_seed,
        "two_pass_ms": 1000 * seconds_two,
        "single_pass_ms": 1000 * seconds_one,
        "fast_ms": 1000 * seconds_fast,
        "speedup": seconds_two / seconds_one,
        "fast_speedup": seconds_seed / seconds_fast,
        "ece_exact": ece_exact,
        "ece_fast": ece_fast,
        "ece_delta": abs(ece_fast - ece_exact),
        "quick": QUICK,
    }


def test_engine_inference(benchmark):
    stats = benchmark.pedantic(run_engine_inference, rounds=1, iterations=1)

    text = format_table(
        ["path", "network sweeps", "ms / query batch", "speedup"],
        [
            ["seed kernels, two-pass", 2,
             stats["seed_kernel_ms"],
             stats["seed_kernel_ms"] / stats["seed_kernel_ms"]],
            ["two-pass (pre-engine)", stats["two_pass_sweeps"],
             stats["two_pass_ms"],
             stats["seed_kernel_ms"] / stats["two_pass_ms"]],
            ["single-pass engine (exact)", stats["single_pass_sweeps"],
             stats["single_pass_ms"],
             stats["seed_kernel_ms"] / stats["single_pass_ms"]],
            ["fused float32 fast path", stats["single_pass_sweeps"],
             stats["fast_ms"], stats["fast_speedup"]],
        ],
    )
    write_report("engine_inference", text)

    out_dir = os.environ.get("REPRO_BENCH_OUT", "benchmarks/out")
    with open(
        os.path.join(out_dir, "BENCH_engine_inference.json"), "w"
    ) as handle:
        json.dump(stats, handle, indent=2, sort_keys=True)

    # the query inference path does exactly one forward pass...
    assert stats["single_pass_sweeps"] == 1
    assert stats["two_pass_sweeps"] == 2
    # ...and beats the two-pass baseline by >= 1.5x at n_query=120
    assert stats["speedup"] >= 1.5
    # the compute-core fast path clears its floor against seed kernels
    assert stats["fast_speedup"] >= FAST_SPEEDUP_FLOOR
    # float32 leaves calibration where float64 put it
    assert stats["ece_delta"] <= ECE_TOLERANCE
