"""Tests for im2col/col2im and output-size arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.im2col import col2im, conv_output_size, im2col, im2col_nhwc
from repro.nn.runtime import ComputeRuntime


def _cols(x, kernel, stride, pad):
    """``(KH, KW, C)``-ordered columns: the order col2im folds."""
    return im2col_nhwc(x, kernel, kernel, stride, pad, ComputeRuntime(), "t")


class TestConvOutputSize:
    def test_basic(self):
        assert conv_output_size(12, 3, 1, 1) == 12
        assert conv_output_size(12, 2, 2, 0) == 6
        assert conv_output_size(5, 5, 1, 0) == 1

    def test_rejects_non_tiling(self):
        with pytest.raises(ValueError, match="does not tile"):
            conv_output_size(5, 2, 2, 0)

    def test_rejects_kernel_too_large(self):
        with pytest.raises(ValueError, match="larger than"):
            conv_output_size(3, 5, 1, 0)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            conv_output_size(5, 0, 1, 0)
        with pytest.raises(ValueError):
            conv_output_size(5, 3, 0, 0)
        with pytest.raises(ValueError):
            conv_output_size(5, 3, 1, -1)


class TestIm2Col:
    def test_identity_kernel(self):
        """1x1 kernel with stride 1 reproduces the input pixels."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 4, 4))
        cols = im2col(x, 1, 1, 1, 0)
        assert cols.shape == (2 * 16, 3)
        expected = x.transpose(0, 2, 3, 1).reshape(-1, 3)
        np.testing.assert_allclose(cols, expected)

    def test_known_values(self):
        """2x2 kernel on a tiny image extracts the right windows."""
        x = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
        cols = im2col(x, 2, 2, 1, 0)
        assert cols.shape == (4, 4)
        np.testing.assert_allclose(cols[0], [0, 1, 3, 4])
        np.testing.assert_allclose(cols[3], [4, 5, 7, 8])

    def test_padding_adds_zero_border(self):
        x = np.ones((1, 1, 2, 2))
        cols = im2col(x, 3, 3, 1, 1)
        assert cols.shape == (4, 9)
        # the top-left receptive field covers five padded zeros
        assert cols[0].sum() == pytest.approx(4.0)

    def test_matches_direct_convolution(self):
        """im2col-based conv equals a naive quadruple-loop conv."""
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        cols = im2col(x, 3, 3, 1, 1)
        out = (cols @ w.reshape(4, -1).T).reshape(2, 6, 6, 4).transpose(0, 3, 1, 2)

        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        naive = np.zeros((2, 4, 6, 6))
        for n in range(2):
            for f in range(4):
                for i in range(6):
                    for j in range(6):
                        naive[n, f, i, j] = np.sum(
                            padded[n, :, i : i + 3, j : j + 3] * w[f]
                        )
        np.testing.assert_allclose(out, naive, atol=1e-10)


class TestIm2ColNHWC:
    def test_columns_are_the_nchw_columns_permuted(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 7, 7))
        nchw = im2col(x, 3, 3, 2, 1).reshape(-1, 3, 3, 3)
        got = _cols(x, 3, 2, 1)
        assert np.array_equal(got, nchw.transpose(0, 2, 3, 1).reshape(-1, 27))

    def test_known_values(self):
        x = np.arange(18, dtype=np.float64).reshape(1, 2, 3, 3)
        cols = _cols(x, 2, 1, 0)
        assert cols.shape == (4, 8)
        # (ky, kx, c) order: the two channels of each pixel are adjacent
        np.testing.assert_allclose(cols[0], [0, 9, 1, 10, 3, 12, 4, 13])


class TestCol2Im:
    def test_adjoint_property(self):
        """<im2col_nhwc(x), y> == <x, col2im(y)> — exact adjointness."""
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3, 6, 6))
        cols = _cols(x, 3, 1, 1)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        back = col2im(y, x.shape, 3, 3, 1, 1)
        rhs = float((x * back).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_non_overlapping_roundtrip(self):
        """With stride == kernel, col2im(im2col_nhwc(x)) == x exactly."""
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 2, 4, 4))
        cols = _cols(x, 2, 2, 0)
        back = col2im(cols, x.shape, 2, 2, 2, 0)
        np.testing.assert_allclose(back, x)

    def test_overlap_counts(self):
        """col2im of ones counts how many windows cover each pixel."""
        x_shape = (1, 1, 3, 3)
        cols = np.ones((4, 4))  # 2x2 kernel, stride 1 -> 4 windows
        counts = col2im(cols, x_shape, 2, 2, 1, 0)
        expected = np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]], dtype=float)
        np.testing.assert_allclose(counts[0, 0], expected)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 3),
    c=st.integers(1, 3),
    size=st.sampled_from([4, 6, 8]),
    kernel=st.sampled_from([1, 2, 3]),
)
def test_adjoint_holds_for_random_shapes(n, c, size, kernel):
    """Property: adjointness holds across a range of shapes."""
    rng = np.random.default_rng(n * 100 + c * 10 + size + kernel)
    pad = kernel // 2
    x = rng.normal(size=(n, c, size, size))
    cols = _cols(x, kernel, 1, pad)
    y = rng.normal(size=cols.shape)
    lhs = float((cols * y).sum())
    rhs = float((x * col2im(y, x.shape, kernel, kernel, 1, pad)).sum())
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))
