"""Lithography simulation substrate (S3): optics, resist, defect
detection, process-window simulation, and the counting labeler that acts
as the expensive labeling oracle of the PSHD problem."""

from .drc import DRCRules, DRCViolation, check_clip, drc_screen
from .epe import Defect, edge_placement_error, find_defects
from .faults import FlakySimulator, TransientSimulationError
from .opc import OPCConfig, OPCResult, optimize_mask, print_error
from .labeler import SECONDS_PER_LITHO_CLIP, LithoBudgetExceeded, LithoLabeler
from .optics import OpticalModel, duv_model, euv_model
from .process_window import ProcessWindow, analyze_process_window
from .resist import ThresholdResist
from .simulator import LithoResult, LithoSimulator, ProcessCorner, default_corners

__all__ = [
    "OpticalModel",
    "duv_model",
    "euv_model",
    "ThresholdResist",
    "Defect",
    "find_defects",
    "edge_placement_error",
    "ProcessCorner",
    "default_corners",
    "LithoResult",
    "LithoSimulator",
    "LithoLabeler",
    "LithoBudgetExceeded",
    "SECONDS_PER_LITHO_CLIP",
    "TransientSimulationError",
    "FlakySimulator",
    "ProcessWindow",
    "analyze_process_window",
    "DRCRules",
    "DRCViolation",
    "check_clip",
    "drc_screen",
    "OPCConfig",
    "OPCResult",
    "optimize_mask",
    "print_error",
]
