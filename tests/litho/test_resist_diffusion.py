"""Tests for the resist acid-diffusion blur."""

import numpy as np
import pytest

from repro.litho import ThresholdResist


class TestDiffusion:
    def test_zero_diffusion_is_identity(self):
        resist = ThresholdResist(diffusion_px=0.0)
        rng = np.random.default_rng(0)
        intensity = rng.random((16, 16))
        np.testing.assert_array_equal(
            resist.latent_image(intensity), intensity
        )

    def test_diffusion_smooths(self):
        """The latent image has lower gradient energy than the input."""
        resist = ThresholdResist(diffusion_px=1.5)
        rng = np.random.default_rng(1)
        intensity = rng.random((32, 32))
        latent = resist.latent_image(intensity)
        grad_in = np.abs(np.diff(intensity, axis=0)).mean()
        grad_out = np.abs(np.diff(latent, axis=0)).mean()
        assert grad_out < grad_in

    def test_diffusion_preserves_mean(self):
        resist = ThresholdResist(diffusion_px=2.0)
        rng = np.random.default_rng(2)
        intensity = rng.random((32, 32))
        assert resist.latent_image(intensity).mean() == pytest.approx(
            intensity.mean(), rel=0.02
        )

    def test_diffusion_suppresses_speckle(self):
        """A single hot pixel above threshold no longer prints after
        diffusion — the physical noise-suppression effect."""
        intensity = np.zeros((16, 16))
        intensity[8, 8] = 0.6
        sharp = ThresholdResist(threshold=0.35, diffusion_px=0.0)
        blurred = ThresholdResist(threshold=0.35, diffusion_px=1.5)
        assert sharp.develop(intensity)[8, 8]
        assert not blurred.develop(intensity)[8, 8]

    def test_rejects_negative_diffusion(self):
        with pytest.raises(ValueError):
            ThresholdResist(diffusion_px=-1.0)

    def test_contour_offset_uses_latent(self):
        intensity = np.zeros((8, 8))
        intensity[4, 4] = 1.0
        resist = ThresholdResist(threshold=0.35, diffusion_px=1.0)
        offsets = resist.contour_offset(intensity)
        # the blurred peak is below the raw value
        assert offsets[4, 4] < 1.0 - 0.35

    def test_simulator_with_diffused_resist(self):
        """A diffused resist stack still labels clips sensibly."""
        from repro.layout import Clip, Rect, boxes_of
        from repro.litho import LithoSimulator, duv_model

        resist = ThresholdResist(threshold=0.35, diffusion_px=0.8)
        sim = LithoSimulator(optical=duv_model(), resist=resist, grid=96)
        window = Rect(0, 0, 1200, 1200)
        wide = Clip(window, window.expanded(-300),
                    boxes=boxes_of([Rect(100, 500, 1100, 700)]), index=0)
        skinny = Clip(window, window.expanded(-300),
                      boxes=boxes_of([Rect(100, 585, 1100, 615)]), index=1)
        assert not sim.simulate(wide).hotspot
        assert sim.simulate(skinny).hotspot
