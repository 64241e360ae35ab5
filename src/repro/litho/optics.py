"""Compact optical model for aerial-image simulation.

The paper labels clips with commercial DUV/EUV lithography models.  Those
are proprietary, so we substitute the standard compact form used in
academic OPC/hotspot literature: a single-kernel (rank-1 SOCS) partially
coherent imaging model.  The mask transmission is convolved with a
Gaussian point-spread function whose width follows the Rayleigh resolution
``k1 * wavelength / NA`` and grows with defocus; the aerial-image intensity
is the squared magnitude of the filtered amplitude.

This preserves the two behaviours active learning depends on:

* marginal geometries (narrow necks, tight gaps near the resolution limit)
  print marginally, so hotspot labels correlate with geometry; and
* labeling is deterministic and expensive relative to inference, so the
  litho-clip count (Definition 3) is the meaningful cost metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["OpticalModel", "duv_model", "euv_model"]


@dataclass(frozen=True)
class OpticalModel:
    """Rank-1 partially coherent imaging model.

    Parameters
    ----------
    wavelength_nm:
        Source wavelength (193 for DUV immersion, 13.5 for EUV).
    na:
        Numerical aperture of the projection optics.
    k1:
        Process difficulty factor; sets the PSF width together with
        ``wavelength_nm / na``.
    defocus_blur_nm_per_nm:
        Extra PSF sigma added per nanometre of defocus.
    """

    wavelength_nm: float
    na: float
    k1: float = 0.61
    defocus_blur_nm_per_nm: float = 0.35

    def __post_init__(self) -> None:
        if self.wavelength_nm <= 0 or self.na <= 0 or self.k1 <= 0:
            raise ValueError("optical parameters must be positive")

    @property
    def resolution_nm(self) -> float:
        """Rayleigh resolution ``k1 * lambda / NA``."""
        return self.k1 * self.wavelength_nm / self.na

    def psf_sigma_nm(self, defocus_nm: float = 0.0) -> float:
        """Gaussian PSF sigma in nm at the given defocus."""
        base = self.resolution_nm / 2.0
        return float(
            np.hypot(base, self.defocus_blur_nm_per_nm * abs(defocus_nm))
        )

    def psf_kernel(self, pixel_nm: float, defocus_nm: float = 0.0) -> np.ndarray:
        """Normalized Gaussian PSF sampled on the raster grid.

        The kernel is truncated at 4 sigma and normalized to unit sum so a
        fully dark/bright mask maps to intensity 0/1.
        """
        if pixel_nm <= 0:
            raise ValueError(f"pixel size must be positive, got {pixel_nm}")
        sigma_px = self.psf_sigma_nm(defocus_nm) / pixel_nm
        sigma_px = max(sigma_px, 1e-3)
        radius = max(int(np.ceil(4.0 * sigma_px)), 1)
        axis = np.arange(-radius, radius + 1, dtype=np.float64)
        gauss = np.exp(-0.5 * (axis / sigma_px) ** 2)
        kernel = np.outer(gauss, gauss)
        return kernel / kernel.sum()

    def aerial_image(
        self,
        mask: np.ndarray,
        pixel_nm: float,
        defocus_nm: float = 0.0,
        dose: float = 1.0,
    ) -> np.ndarray:
        """Aerial-image intensity of ``mask`` (values in [0, 1]).

        Amplitude = PSF * mask (FFT convolution, reflective padding to
        avoid dark halos at clip borders); intensity = dose * amplitude^2.
        """
        if dose <= 0:
            raise ValueError(f"dose must be positive, got {dose}")
        return dose * self.amplitude(mask, pixel_nm, defocus_nm) ** 2

    def amplitude(
        self, mask: np.ndarray, pixel_nm: float, defocus_nm: float = 0.0
    ) -> np.ndarray:
        """Filtered amplitude ``PSF * mask``: the dose-independent part of
        :meth:`aerial_image`, so corners that differ only in dose can
        share it."""
        if mask.ndim != 2:
            raise ValueError(f"mask must be 2-D, got shape {mask.shape}")
        return _convolve_reflect(
            mask, *_psf_spectrum(self, pixel_nm, defocus_nm, mask.shape)
        )


@lru_cache(maxsize=64)
def _psf_spectrum(
    model: OpticalModel,
    pixel_nm: float,
    defocus_nm: float,
    mask_shape: tuple[int, ...],
) -> tuple[tuple[int, ...], np.ndarray]:
    """Memoized ``(kernel shape, read-only kernel spectrum)`` of the PSF
    for a ``mask_shape`` mask: every clip of a labeling run is imaged
    through the same few kernels."""
    kernel = model.psf_kernel(pixel_nm, defocus_nm)
    f_kernel = _kernel_spectrum(kernel, mask_shape)
    f_kernel.flags.writeable = False
    return kernel.shape, f_kernel


def _kernel_spectrum(
    kernel: np.ndarray, mask_shape: tuple[int, ...]
) -> np.ndarray:
    """The ``f_kernel`` :func:`_convolve_reflect` takes for ``kernel``:
    its ``rfft2`` at the full convolution shape of the padded mask."""
    pad = kernel.shape[0] // 2
    shape = (
        mask_shape[0] + 2 * pad + kernel.shape[0] - 1,
        mask_shape[1] + 2 * pad + kernel.shape[1] - 1,
    )
    return np.fft.rfft2(kernel, shape)


def _convolve_reflect(
    mask: np.ndarray, kernel_shape: tuple[int, ...], f_kernel: np.ndarray
) -> np.ndarray:
    """FFT convolution of ``mask`` with a kernel of ``kernel_shape`` whose
    spectrum is ``f_kernel``, reflect-padded by the kernel radius (no
    dark halos at clip borders) and cropped to the 'valid' part."""
    pad = kernel_shape[0] // 2
    image = np.pad(mask.astype(np.float64), pad, mode="reflect")
    out_h = image.shape[0] - kernel_shape[0] + 1
    out_w = image.shape[1] - kernel_shape[1] + 1
    shape = (
        image.shape[0] + kernel_shape[0] - 1,
        image.shape[1] + kernel_shape[1] - 1,
    )
    f_image = np.fft.rfft2(image, shape)
    full = np.fft.irfft2(f_image * f_kernel, shape)
    start_h = kernel_shape[0] - 1
    start_w = kernel_shape[1] - 1
    return full[start_h : start_h + out_h, start_w : start_w + out_w]


def duv_model() -> OpticalModel:
    """193 nm immersion lithography (ICCAD'12-era 28 nm metal)."""
    return OpticalModel(wavelength_nm=193.0, na=1.35, k1=0.35)


def euv_model() -> OpticalModel:
    """13.5 nm EUV lithography (ICCAD'16-era 7 nm metal)."""
    return OpticalModel(wavelength_nm=13.5, na=0.33, k1=0.45)
