"""Litho simulation across process corners and hotspot decision.

:class:`LithoSimulator` ties the optical model, resist model and defect
checker together: a clip is rasterized, imaged at every process corner
(nominal plus dose/defocus excursions — the "process window"), and flagged
hotspot when any corner produces a defect inside the core region.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..layout.clip import Clip
from .epe import Defect, _check_settings, _TargetChecks
from .optics import OpticalModel, duv_model, euv_model
from .resist import ThresholdResist

__all__ = ["ProcessCorner", "LithoResult", "LithoSimulator"]


@dataclass(frozen=True)
class ProcessCorner:
    """One (dose, defocus) condition of the process window."""

    dose: float = 1.0
    defocus_nm: float = 0.0
    name: str = "nominal"

    def __post_init__(self) -> None:
        if self.dose <= 0:
            raise ValueError(f"dose must be positive, got {self.dose}")


def default_corners(dose_delta: float = 0.05, defocus_nm: float = 25.0):
    """Nominal plus the four standard process-window excursions."""
    return (
        ProcessCorner(1.0, 0.0, "nominal"),
        ProcessCorner(1.0 + dose_delta, 0.0, "over-dose"),
        ProcessCorner(1.0 - dose_delta, 0.0, "under-dose"),
        ProcessCorner(1.0, defocus_nm, "defocus"),
    )


@dataclass
class LithoResult:
    """Full output of simulating one clip."""

    hotspot: bool
    defects: list[Defect] = field(default_factory=list)
    corner_names: list[str] = field(default_factory=list)

    @property
    def defect_count(self) -> int:
        return len(self.defects)


class LithoSimulator:
    """Process-window lithography simulation of layout clips.

    Parameters
    ----------
    optical:
        Imaging model; pick :func:`~repro.litho.optics.duv_model` or
        :func:`~repro.litho.optics.euv_model` per tech node.
    resist:
        Threshold resist model.
    corners:
        Process corners to simulate; a clip is hotspot if defective at any.
    grid:
        Raster resolution (pixels per clip side).
    epe_tolerance_px / morph_margin_px:
        Defect-checker settings (see :func:`repro.litho.epe.find_defects`).
    """

    def __init__(
        self,
        optical: OpticalModel | None = None,
        resist: ThresholdResist | None = None,
        corners=None,
        grid: int = 96,
        epe_tolerance_px: float = 2.0,
        morph_margin_px: int = 2,
        min_defect_px: int = 2,
    ) -> None:
        self.optical = optical if optical is not None else duv_model()
        self.resist = resist if resist is not None else ThresholdResist()
        self.corners = tuple(corners) if corners is not None else default_corners()
        if not self.corners:
            raise ValueError("at least one process corner required")
        if grid <= 0:
            raise ValueError(f"grid must be positive, got {grid}")
        _check_settings(epe_tolerance_px, morph_margin_px)
        self.grid = grid
        self.epe_tolerance_px = epe_tolerance_px
        self.morph_margin_px = morph_margin_px
        self.min_defect_px = min_defect_px

    @classmethod
    def for_tech(cls, tech_nm: int, **kwargs) -> "LithoSimulator":
        """Simulator configured for a technology node (28 → DUV, 7 → EUV)."""
        if tech_nm <= 10:
            return cls(optical=euv_model(), **kwargs)
        return cls(optical=duv_model(), **kwargs)

    def _core_bounds_px(self, clip: Clip) -> tuple[int, int, int, int]:
        """Core region in raster pixel coordinates (row0, col0, row1, col1)."""
        width_nm, height_nm = clip.size
        core = clip.core_local()
        row0 = int(np.floor(core.y0 / height_nm * self.grid))
        row1 = int(np.ceil(core.y1 / height_nm * self.grid))
        col0 = int(np.floor(core.x0 / width_nm * self.grid))
        col1 = int(np.ceil(core.x1 / width_nm * self.grid))
        return row0, col0, row1, col1

    def simulate(self, clip: Clip) -> LithoResult:
        """Run the full process window on one clip.

        What depends only on the clip is computed once, not per corner:
        the raster, the target-side defect checks, and one amplitude per
        distinct defocus (corners differing only in dose share it).
        """
        width_nm, _ = clip.size
        pixel_nm = width_nm / self.grid
        mask = clip.raster(self.grid, antialias=True)
        checks = _TargetChecks(
            mask >= 0.5, self._core_bounds_px(clip), self.morph_margin_px
        )

        amplitudes: dict[float, np.ndarray] = {}
        all_defects: list[Defect] = []
        bad_corners: list[str] = []
        for corner in self.corners:
            if corner.defocus_nm not in amplitudes:
                amplitudes[corner.defocus_nm] = self.optical.amplitude(
                    mask, pixel_nm, corner.defocus_nm
                )
            # OpticalModel.aerial_image's expression: bit-identical intensity
            intensity = corner.dose * amplitudes[corner.defocus_nm] ** 2
            defects = checks.defects(
                self.resist.develop(intensity),
                self.epe_tolerance_px,
                self.min_defect_px,
            )
            if defects:
                all_defects.extend(defects)
                bad_corners.append(corner.name)

        return LithoResult(
            hotspot=bool(all_defects),
            defects=all_defects,
            corner_names=bad_corners,
        )

    def is_hotspot(self, clip: Clip) -> bool:
        """Convenience wrapper returning only the hotspot verdict."""
        return self.simulate(clip).hotspot
