"""Sum-of-coherent-systems (SOCS) optics: rank-N partially coherent
imaging.

The single-Gaussian model in :mod:`repro.litho.optics` is a rank-1
approximation.  Real partially coherent imaging decomposes the Hopkins
transmission-cross-coefficient operator into a sum of coherent kernels:

    I(x) = sum_k  w_k * | (h_k * m)(x) |^2

This module provides a compact rank-N model built from Gaussian-Hermite
kernels (the analytic eigenbasis of a Gaussian TCC), useful when a
benchmark needs closer-to-real proximity behaviour — higher-order
kernels add the oscillatory sidelobes a single Gaussian lacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .optics import OpticalModel, _convolve_reflect, _kernel_spectrum

__all__ = ["SOCSModel", "gauss_hermite_kernel"]


def gauss_hermite_kernel(
    order_x: int, order_y: int, sigma_px: float, radius: int
) -> np.ndarray:
    """Separable Gaussian-Hermite kernel of the given orders.

    Order (0, 0) is the plain Gaussian; higher orders multiply in
    (physicists') Hermite polynomials, producing the sidelobe structure
    of higher SOCS kernels.  The kernel is L2-normalized.
    """
    if order_x < 0 or order_y < 0:
        raise ValueError("Hermite orders must be non-negative")
    if sigma_px <= 0:
        raise ValueError(f"sigma must be positive, got {sigma_px}")
    axis = np.arange(-radius, radius + 1, dtype=np.float64) / sigma_px
    gauss = np.exp(-0.5 * axis**2)
    hx = np.polynomial.hermite.hermval(axis, [0.0] * order_x + [1.0])
    hy = np.polynomial.hermite.hermval(axis, [0.0] * order_y + [1.0])
    kernel = np.outer(gauss * hy, gauss * hx)
    norm = np.sqrt((kernel**2).sum())
    return kernel / norm


@dataclass
class SOCSModel:
    """Rank-N SOCS imaging model on top of an :class:`OpticalModel`.

    Parameters
    ----------
    base:
        Supplies wavelength/NA/k1 (and hence the kernel width).
    rank:
        Number of coherent kernels; 1 reduces to (a normalized version
        of) the base model.  Kernel weights decay geometrically with
        ``weight_decay`` per order, mimicking TCC eigenvalue decay.
    """

    base: OpticalModel
    rank: int = 3
    weight_decay: float = 0.25
    _kernels: list | None = field(default=None, init=False, repr=False)
    _weights: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if not 0.0 < self.weight_decay < 1.0:
            raise ValueError("weight_decay must be in (0, 1)")

    def kernels(self, pixel_nm: float, defocus_nm: float = 0.0):
        """(weights, kernels) of the decomposition at this sampling."""
        sigma_px = max(self.base.psf_sigma_nm(defocus_nm) / pixel_nm, 1e-3)
        radius = max(int(np.ceil(4.0 * sigma_px)), 1)
        orders = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)][: self.rank]
        kernels = [
            gauss_hermite_kernel(ox, oy, sigma_px, radius) for ox, oy in orders
        ]
        weights = np.array(
            [self.weight_decay ** (ox + oy) for ox, oy in orders]
        )
        return weights / weights.sum(), kernels

    def aerial_image(
        self,
        mask: np.ndarray,
        pixel_nm: float,
        defocus_nm: float = 0.0,
        dose: float = 1.0,
    ) -> np.ndarray:
        """Rank-N aerial image, normalized so clear field ~ ``dose``."""
        if mask.ndim != 2:
            raise ValueError(f"mask must be 2-D, got {mask.shape}")
        if dose <= 0:
            raise ValueError(f"dose must be positive, got {dose}")
        weights, kernels = self.kernels(pixel_nm, defocus_nm)

        intensity = np.zeros_like(mask, dtype=np.float64)
        clear_field = 0.0
        for weight, kernel in zip(weights, kernels):
            amplitude = _convolve_reflect(
                mask, kernel.shape, _kernel_spectrum(kernel, mask.shape)
            )
            intensity += weight * amplitude**2
            clear_field += weight * kernel.sum() ** 2
        if clear_field <= 0:
            raise RuntimeError("degenerate SOCS normalization")
        return dose * intensity / clear_field
