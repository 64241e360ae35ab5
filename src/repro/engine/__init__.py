"""Inference engine (S12): session caching, event bus, method registry.

The production-shaped inference layer under the AL framework:

* :class:`InferenceSession` — scales the pool tensor once per scaler
  fit and serves batched logits/embeddings from the cache, including
  the single-pass :meth:`~InferenceSession.predict_full` tap.
* :class:`EventBus` + typed events — run observability as subscribers
  (history recording, CLI progress, bench instrumentation).
* the method registry — every Table II method reachable by name from
  the framework, CLI and bench harness alike.
* :class:`RunCheckpoint` + atomic save/load — crash-safe snapshots of a
  running Algorithm 2 loop with bit-identical resume (see
  :mod:`repro.engine.checkpoint`).
* :mod:`repro.engine.faults` — the one :class:`RetryPolicy` and the one
  deterministic :class:`FaultPlan` of the litho labeler and the socket
  transport.
"""

from .checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    RunCheckpoint,
    checkpoint_paths,
    load_checkpoint,
    save_checkpoint,
)
from .events import (
    EVENT_KINDS,
    Event,
    EventBus,
    EventLog,
    HistoryRecorder,
    ProgressPrinter,
)
from .faults import FAULT_KINDS, FaultInjector, FaultPlan, RetryPolicy
from .guard import GuardConfig, GuardReport, RunSupervisor
from .registry import (
    MethodSpec,
    framework_method_names,
    get_method,
    method_names,
    register_method,
    resolve_selector,
)
from .session import InferenceSession

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "RunCheckpoint",
    "checkpoint_paths",
    "load_checkpoint",
    "save_checkpoint",
    "EVENT_KINDS",
    "Event",
    "EventBus",
    "EventLog",
    "HistoryRecorder",
    "ProgressPrinter",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "RetryPolicy",
    "GuardConfig",
    "GuardReport",
    "RunSupervisor",
    "InferenceSession",
    "MethodSpec",
    "register_method",
    "get_method",
    "method_names",
    "framework_method_names",
    "resolve_selector",
]
