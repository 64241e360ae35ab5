"""Feature extraction pipeline from clips to model-ready tensors.

One :class:`FeatureExtractor` instance fixes the raster resolution and
DCT encoding for a whole experiment so that every subsystem — CNN, GMM,
pattern matcher — sees consistent features for the same clip.
"""

from __future__ import annotations

import numpy as np

from ..analysis.contracts import contract
from ..layout.clip import Clip
from ..layout.raster import rasterize_stack
from ..nn.runtime import PRECISION_MODES, PrecisionPolicy
from .dct import dct_encode, dct_encode_stack
from .density import density_grid, density_grid_stack

__all__ = ["FeatureExtractor"]


class FeatureExtractor:
    """Clip → feature tensors.

    Parameters
    ----------
    grid:
        Raster resolution in pixels (must be divisible by ``blocks``).
    blocks:
        Block grid of the DCT encoding (12 reproduces the paper lineage).
    coeffs:
        Zigzag DCT coefficients kept per block (channel count of the CNN
        input).  The default keeps the full 8x8 spectrum: with 64 of 64
        coefficients the orthonormal encoding is lossless, which matters
        here because hotspot-ness hinges on few-pixel critical
        dimensions that live in the high-frequency half.
    density_cells:
        Cell grid of the auxiliary density signature.
    precision:
        ``"exact"`` (default) encodes with the bit-exact float64 DCT
        kernel; ``"fast"`` computes the basis matmul in float32 and
        upcasts, trading ~1e-6 relative feature error for speed.  The
        mode is part of :attr:`params_key`, so fast-mode features never
        alias exact cache entries.
    """

    def __init__(
        self,
        grid: int = 96,
        blocks: int = 12,
        coeffs: int = 64,
        density_cells: int = 8,
        precision: str = "exact",
    ) -> None:
        if grid % blocks:
            raise ValueError(f"grid {grid} not divisible by blocks {blocks}")
        if density_cells <= 0:
            raise ValueError(
                f"density_cells must be positive, got {density_cells}"
            )
        if grid % density_cells:
            raise ValueError(
                f"grid {grid} not divisible by density_cells {density_cells}; "
                "the density signature needs whole pixel cells"
            )
        block_size = grid // blocks
        if coeffs > block_size * block_size:
            raise ValueError(
                f"coeffs {coeffs} exceeds block capacity {block_size ** 2}"
            )
        if precision not in PRECISION_MODES:
            raise ValueError(
                f"precision must be one of {PRECISION_MODES}, "
                f"got {precision!r}"
            )
        self.grid = grid
        self.blocks = blocks
        self.coeffs = coeffs
        self.density_cells = density_cells
        self.precision = precision
        self._policy = PrecisionPolicy(precision)

    def with_precision(self, precision: str) -> "FeatureExtractor":
        """This extractor's parameters with another precision mode
        (returns ``self`` when the mode already matches)."""
        if precision == self.precision:
            return self
        return FeatureExtractor(
            grid=self.grid,
            blocks=self.blocks,
            coeffs=self.coeffs,
            density_cells=self.density_cells,
            precision=precision,
        )

    @property
    def tensor_shape(self) -> tuple[int, int, int]:
        """CNN input shape ``(C, H, W)``."""
        return (self.coeffs, self.blocks, self.blocks)

    @property
    def flat_size(self) -> int:
        """Length of one :meth:`flat_features` vector."""
        return int(np.prod(self.tensor_shape)) + self.density_cells**2

    @property
    def params_key(self) -> str:
        """Stable signature of every parameter that shapes the output —
        the extractor half of a content-addressed feature-cache key.

        Exact mode keeps the seed key (existing caches stay valid);
        fast mode appends a suffix because its output bits differ.
        """
        key = f"g{self.grid}b{self.blocks}c{self.coeffs}d{self.density_cells}"
        if self.precision != "exact":
            key += f"p{self.precision}"
        return key

    def raster(self, clip: Clip) -> np.ndarray:
        """Antialiased raster of one clip."""
        return clip.raster(self.grid, antialias=True)

    @contract(returns="f8[N,G,G]")
    def raster_stack(self, clips) -> np.ndarray:
        """Rasters of many clips, stacked into ``(N, grid, grid)`` in one
        vectorized pass (bit-identical to :meth:`raster` per clip)."""
        clips = list(clips)
        return rasterize_stack(
            [clip.rects for clip in clips], [clip.size for clip in clips],
            self.grid,
        )

    @contract(returns="f8[C,B,B]")
    def encode(self, clip: Clip) -> np.ndarray:
        """DCT tensor ``(coeffs, blocks, blocks)`` of one clip."""
        return dct_encode(
            self.raster(clip), self.blocks, self.coeffs, policy=self._policy
        )

    @contract(rasters="f8[N,G,G]", returns="f8[N,C,B,B]")
    def encode_rasters(self, rasters: np.ndarray) -> np.ndarray:
        """DCT tensors of pre-computed rasters (vectorized)."""
        return dct_encode_stack(
            rasters, self.blocks, self.coeffs, policy=self._policy
        )

    @contract(rasters="f8[N,G,G]", tensors="?f8[N,C,B,B]", returns="f8[N,D]")
    def flats_from_rasters(
        self, rasters: np.ndarray, tensors: np.ndarray | None = None
    ) -> np.ndarray:
        """Flat vectors from pre-computed rasters (vectorized).

        Pass ``tensors`` when the DCT encoding of the same rasters is
        already available to avoid recomputing it.
        """
        rasters = np.asarray(rasters)
        if tensors is None:
            tensors = self.encode_rasters(rasters)
        density = density_grid_stack(rasters, self.density_cells)
        return np.concatenate(
            [tensors.reshape(len(rasters), -1), density], axis=1
        )

    @contract(returns="f8[N,C,B,B]")
    def encode_batch(self, clips) -> np.ndarray:
        """DCT tensors for many clips, stacked into ``(N, C, H, W)``."""
        return self.encode_rasters(self.raster_stack(clips))

    @contract(returns="f8[D]")
    def flat_features(self, clip: Clip) -> np.ndarray:
        """Flat vector for distribution modelling (GMM): DCT + density."""
        tensor = self.encode(clip)
        density = density_grid(self.raster(clip), self.density_cells)
        return np.concatenate([tensor.reshape(-1), density])

    @contract(returns="f8[N,D]")
    def flat_batch(self, clips) -> np.ndarray:
        clips = list(clips)
        if not clips:
            return np.zeros((0, self.flat_size))
        return self.flats_from_rasters(self.raster_stack(clips))
