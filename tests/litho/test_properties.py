"""Property-based tests of lithography-model invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layout import Rect, boxes_of, rasterize
from repro.litho import ThresholdResist, duv_model, euv_model


def random_mask(rng, grid=48):
    mask = np.zeros((grid, grid))
    for _ in range(rng.integers(1, 5)):
        x0 = int(rng.integers(0, grid - 8))
        y0 = int(rng.integers(0, grid - 8))
        w = int(rng.integers(4, 12))
        h = int(rng.integers(4, 12))
        mask[y0 : y0 + h, x0 : x0 + w] = 1.0
    return mask


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_dose_monotonicity(seed):
    """Higher dose never shrinks the printed area (threshold resist)."""
    rng = np.random.default_rng(seed)
    mask = random_mask(rng)
    model = duv_model()
    resist = ThresholdResist()
    areas = []
    for dose in (0.8, 1.0, 1.2):
        printed = resist.develop(model.aerial_image(mask, 10.0, dose=dose))
        areas.append(int(printed.sum()))
    assert areas[0] <= areas[1] <= areas[2]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_defocus_blurs_peak(seed):
    """Defocus never raises the peak intensity of a sparse pattern."""
    rng = np.random.default_rng(seed)
    mask = np.zeros((48, 48))
    x0 = int(rng.integers(4, 36))
    mask[:, x0 : x0 + 4] = 1.0  # one narrow line
    model = duv_model()
    peaks = [
        model.aerial_image(mask, 10.0, defocus_nm=d).max()
        for d in (0.0, 40.0, 80.0)
    ]
    assert peaks[0] >= peaks[1] >= peaks[2]


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_intensity_linear_in_dose(seed):
    """Intensity scales exactly linearly with dose."""
    rng = np.random.default_rng(seed)
    mask = random_mask(rng)
    model = euv_model()
    base = model.aerial_image(mask, 6.0, dose=1.0)
    scaled = model.aerial_image(mask, 6.0, dose=1.3)
    np.testing.assert_allclose(scaled, 1.3 * base, rtol=1e-12)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_mask_translation_equivariance(seed):
    """Shifting the mask shifts the aerial image (away from borders)."""
    rng = np.random.default_rng(seed)
    grid = 64
    mask = np.zeros((grid, grid))
    x0 = int(rng.integers(20, 32))
    mask[28:36, x0 : x0 + 6] = 1.0
    model = duv_model()
    image_a = model.aerial_image(mask, 10.0)
    image_b = model.aerial_image(np.roll(mask, 4, axis=1), 10.0)
    interior = (slice(24, 40), slice(24, 40))
    np.testing.assert_allclose(
        np.roll(image_a, 4, axis=1)[interior], image_b[interior], atol=1e-6
    )


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_mask_monotonicity(seed):
    """Adding geometry never reduces intensity anywhere (positive PSF)."""
    rng = np.random.default_rng(seed)
    mask = random_mask(rng)
    extra = mask.copy()
    x0 = int(rng.integers(0, 40))
    extra[20:28, x0 : x0 + 6] = 1.0
    model = duv_model()
    base = model.aerial_image(mask, 10.0)
    more = model.aerial_image(extra, 10.0)
    assert np.all(more >= base - 1e-9)


@settings(max_examples=10, deadline=None)
@given(
    st.integers(30, 200),
    st.integers(0, 2**31 - 1),
)
def test_raster_flux_conservation(width, seed):
    """Antialiased rasterization conserves drawn area for any rect."""
    rng = np.random.default_rng(seed)
    x0 = int(rng.integers(0, 1000 - width))
    y0 = int(rng.integers(0, 1000 - width))
    rect = Rect(x0, y0, x0 + width, y0 + width)
    image = rasterize(boxes_of([rect]), (1000, 1000), 50)
    pixel_area = (1000 / 50) ** 2
    assert image.sum() * pixel_area == pytest.approx(rect.area, rel=1e-9)
