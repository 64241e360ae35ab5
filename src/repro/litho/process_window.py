"""Process-window analysis.

A pattern's *process window* is the region of (dose, defocus) space in
which it prints within specification.  Hotspots are precisely the
patterns with small or empty windows, so the window area is a graded
severity measure that complements the binary hotspot verdict — useful
for ranking fixes and for generating graded benchmark labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..layout.clip import Clip
from .simulator import LithoSimulator, ProcessCorner

__all__ = ["ProcessWindow", "analyze_process_window"]


@dataclass
class ProcessWindow:
    """Pass/fail map over a (dose, defocus) grid."""

    doses: np.ndarray          # (D,)
    defocus_nm: np.ndarray     # (F,)
    passes: np.ndarray         # (D, F) bool, True = prints clean

    @property
    def window_fraction(self) -> float:
        """Fraction of the sampled grid that prints clean (0..1)."""
        return float(self.passes.mean())

    @property
    def dose_latitude(self) -> float:
        """Widest contiguous passing dose range at best focus, as a
        fraction of the sampled dose span."""
        if not self.passes.any():
            return 0.0
        best_focus = int(self.passes.sum(axis=0).argmax())
        column = self.passes[:, best_focus]
        best = run = 0
        for ok in column:
            run = run + 1 if ok else 0
            best = max(best, run)
        span = len(self.doses)
        return best / span

    @property
    def depth_of_focus_nm(self) -> float:
        """Widest contiguous passing defocus range at nominal dose."""
        if not self.passes.any():
            return 0.0
        nominal = int(np.argmin(np.abs(self.doses - 1.0)))
        row = self.passes[nominal]
        if not row.any():
            return 0.0
        best = run = 0
        start = best_start = 0
        for i, ok in enumerate(row):
            if ok:
                if run == 0:
                    start = i
                run += 1
                if run > best:
                    best = run
                    best_start = start
            else:
                run = 0
        lo = self.defocus_nm[best_start]
        hi = self.defocus_nm[best_start + best - 1]
        return float(hi - lo)


def analyze_process_window(
    simulator: LithoSimulator,
    clip: Clip,
    dose_range: tuple[float, float] = (0.85, 1.15),
    dose_steps: int = 7,
    defocus_range_nm: tuple[float, float] = (0.0, 60.0),
    defocus_steps: int = 5,
) -> ProcessWindow:
    """Sample the (dose, defocus) grid and record where ``clip`` prints.

    Simulates the clip once with the grid as its process corners and the
    base simulator's optics/resist/defect settings, so the pass criterion
    is identical to the hotspot criterion at each grid point, and the
    clip is rasterized once and imaged once per defocus.
    """
    if dose_steps < 1 or defocus_steps < 1:
        raise ValueError("grid steps must be >= 1")
    doses = np.linspace(dose_range[0], dose_range[1], dose_steps)
    defocuses = np.linspace(
        defocus_range_nm[0], defocus_range_nm[1], defocus_steps
    )
    corners = [
        ProcessCorner(float(dose), float(defocus), f"{i},{j}")
        for i, dose in enumerate(doses)
        for j, defocus in enumerate(defocuses)
    ]
    window = LithoSimulator(
        optical=simulator.optical,
        resist=simulator.resist,
        corners=corners,
        grid=simulator.grid,
        epe_tolerance_px=simulator.epe_tolerance_px,
        morph_margin_px=simulator.morph_margin_px,
        min_defect_px=simulator.min_defect_px,
    )
    failing = set(window.simulate(clip).corner_names)
    passes = np.array([corner.name not in failing for corner in corners])
    return ProcessWindow(
        doses=doses,
        defocus_nm=defocuses,
        passes=passes.reshape(dose_steps, defocus_steps),
    )
