"""Run-health supervision: sentinels, recovery policies, degradation.

Algorithm 2 quietly assumes every stage succeeds — the GMM seeding is
non-degenerate, temperature scaling (Eq. (5)) converges, training is
numerically stable, and every litho simulation returns within budget.
:class:`RunSupervisor` drops those assumptions: it wraps each
:class:`~repro.core.framework.PSHDFramework` stage with **health
sentinels** that detect numerical or infrastructure failures mid-run
and **recovery policies** that repair or degrade instead of aborting a
run that has already spent its litho budget.

Sentinels and their bounded policies:

=====================  =============================================
sentinel               policy (and degraded fallback)
=====================  =============================================
``train_divergence``   rollback to pre-stage snapshot, LR backoff +
                       perturbed shuffle RNG, retrain; after
                       ``max_train_retries`` → freeze the model
``gmm_degenerate``     re-fit with a fresh seed; after
                       ``max_posterior_retries`` → random posterior
                       (random seeding, Alg. 2 line 1 fallback)
``calibration_failure``identity temperature ``T = 1`` (uncalibrated
                       Eq. (4) softmax)
``uncertainty_collapse``pure-diversity selection (the Yang et al.,
                       TCAD'20 regime)
``diversity_collapse`` uncertainty-only selection (fixed weights)
``scoring_collapse``   random selection
``litho_budget``       graceful early stop — the final detect stage
                       still runs on whatever model exists
``pool_watchdog``      hung pooled chunk cancelled at the deadline,
                       chunk re-runs serially (emitted by the data
                       plane, recorded here)
``serve_overload``     the serving daemon shed a request at admission
                       (queue or litho budget cannot absorb it); the
                       client gets an ``AdmissionError`` and retries
                       later
``transport_overload`` the socket transport shed a whole connection at
                       the accept loop (live-connection cap); the peer
                       gets one retryable ``overloaded`` error frame
                       and backs off
=====================  =============================================

Every trip emits typed bus events (``health_alert`` →
``recovery_applied`` → possibly ``degraded_mode``) and is recorded in a
:class:`GuardReport` archived next to the run's checkpoints.

The supervisor is **bit-transparent**: all sentinels are read-only
finiteness/spread checks and no RNG is consumed unless a recovery
actually fires, so an unfaulted guarded run is bit-identical to an
unguarded one (regression-tested).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from ..analysis.concurrency import TrackedLock
from ..model.classifier import HotspotClassifier
from ..stats.gmm import FitError
from .events import Event, EventBus

__all__ = ["GuardConfig", "GuardReport", "RunSupervisor"]

#: the event kinds a supervisor records into its report
GUARD_EVENT_KINDS = ("health_alert", "recovery_applied", "degraded_mode")


@dataclass(frozen=True)
class GuardConfig:
    """Sentinel thresholds and recovery budgets of one supervised run.

    The defaults are deliberately permissive: every threshold sits far
    outside the range healthy runs produce, so supervision never
    perturbs a well-behaved run (the bit-identity guarantee).
    """

    #: master switch — ``False`` disables supervision entirely
    enabled: bool = True
    #: rollback/retrain attempts per diverged training stage
    max_train_retries: int = 1
    #: learning-rate multiplier applied before each retrain attempt
    lr_backoff: float = 0.5
    #: |final loss| above this trips the divergence sentinel
    loss_explosion: float = 1e6
    #: any |weight| above this trips the divergence sentinel
    weight_limit: float = 1e8
    #: fresh-seed GMM re-fits before falling back to random seeding
    max_posterior_retries: int = 2
    #: a mixture weight below this marks the GMM as collapsed
    min_component_weight: float = 1e-12
    #: acceptable fitted-temperature range (matches fit_temperature's
    #: default search bounds, so the clamp is a no-op when healthy)
    t_min: float = 0.05
    t_max: float = 20.0
    #: diversity-score spread at or below this marks scoring collapsed
    min_diversity_spread: float = 1e-12
    #: litho-clip budget; ``None`` = unlimited.  Enforced by the
    #: labeler; the supervisor turns the overrun into a graceful stop.
    max_litho: int | None = None

    def __post_init__(self) -> None:
        if self.max_train_retries < 0:
            raise ValueError("max_train_retries must be >= 0")
        if not 0 < self.lr_backoff <= 1:
            raise ValueError(
                f"lr_backoff must be in (0, 1], got {self.lr_backoff}"
            )
        if self.max_posterior_retries < 0:
            raise ValueError("max_posterior_retries must be >= 0")
        if not 0 < self.t_min < self.t_max:
            raise ValueError(
                f"need 0 < t_min < t_max, got ({self.t_min}, {self.t_max})"
            )
        if self.max_litho is not None and self.max_litho <= 0:
            raise ValueError(
                f"max_litho must be positive or None, got {self.max_litho}"
            )


@dataclass
class GuardReport:
    """What the supervisor saw and did during one run."""

    enabled: bool = True
    alerts: list[dict] = field(default_factory=list)
    recoveries: list[dict] = field(default_factory=list)
    degraded: list[dict] = field(default_factory=list)

    @property
    def final_mode(self) -> str:
        """``"normal"``, or ``"degraded:<mode>[+<mode>...]"``."""
        if not self.degraded:
            return "normal"
        modes: list[str] = []
        for entry in self.degraded:
            mode = str(entry.get("mode", "unknown"))
            if mode not in modes:
                modes.append(mode)
        return "degraded:" + "+".join(modes)

    def as_dict(self) -> dict:
        return {
            "enabled": self.enabled,
            "final_mode": self.final_mode,
            "n_alerts": len(self.alerts),
            "n_recoveries": len(self.recoveries),
            "alerts": list(self.alerts),
            "recoveries": list(self.recoveries),
            "degraded": list(self.degraded),
        }

    def save(self, directory: str | os.PathLike) -> Path:
        """Archive the report as ``guard_report.json`` under
        ``directory`` (atomic publish, like the checkpoints it sits
        next to)."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / "guard_report.json"
        fd, tmp = tempfile.mkstemp(dir=str(directory), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            os.replace(tmp, path)
        except OSError:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path


class RunSupervisor:
    """Health sentinels + bounded recovery for one framework run.

    The framework calls the ``guarded_*`` helpers around each stage; the
    supervisor additionally subscribes to the bus so alerts emitted by
    other layers (the data-plane watchdog, the cache quarantine path)
    land in the same :class:`GuardReport`.
    """

    def __init__(
        self, config: GuardConfig, bus: EventBus, seed: int = 0
    ) -> None:
        self.config = config
        self.bus = bus
        self.seed = int(seed)
        self._report = GuardReport(enabled=config.enabled)
        self._handler: Callable[[Event], None] | None = None
        #: guards the report lists — _route is reached both from bus
        #: dispatch (scanner/pool threads) and directly from _emit on
        #: the supervising thread
        self._report_lock = TrackedLock("guard-report")

    # ------------------------------------------------------------------
    # report plumbing
    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Start recording guard events emitted by other layers."""
        if self._handler is None:
            self._handler = self.bus.subscribe(
                self._record_external, kinds=GUARD_EVENT_KINDS
            )

    def detach(self) -> None:
        if self._handler is not None:
            self.bus.unsubscribe(self._handler)
            self._handler = None

    def _record_external(self, event: Event) -> None:
        # the supervisor's own emissions are recorded directly by
        # _alert/_recovery/_degrade; only record what others emitted
        if event.payload.get("source") == "supervisor":
            return
        self._route(event.kind, dict(event.payload))

    def _route(self, kind: str, payload: dict) -> None:
        with self._report_lock:
            if kind == "health_alert":
                self._report.alerts.append(payload)
            elif kind == "recovery_applied":
                self._report.recoveries.append(payload)
            elif kind == "degraded_mode":
                self._report.degraded.append(payload)

    def _emit(self, kind: str, **payload) -> None:
        payload["source"] = "supervisor"
        self._route(kind, dict(payload))
        self.bus.emit(kind, **payload)

    def _alert(self, sentinel: str, stage: str, detail: str, **extra) -> None:
        self._emit(
            "health_alert", sentinel=sentinel, stage=stage, detail=detail,
            **extra,
        )

    def _recovery(
        self, policy: str, sentinel: str, stage: str, **extra
    ) -> None:
        self._emit(
            "recovery_applied", policy=policy, sentinel=sentinel,
            stage=stage, **extra,
        )

    def _degrade(self, mode: str, stage: str, **extra) -> None:
        self._emit("degraded_mode", mode=mode, stage=stage, **extra)

    def report(self) -> GuardReport:
        return self._report

    # ------------------------------------------------------------------
    # seeding (Alg. 2 line 1)
    # ------------------------------------------------------------------
    def guarded_posterior(
        self,
        fit: Callable[[int], tuple[np.ndarray, object]],
        n: int,
    ) -> np.ndarray:
        """Posterior fit with fresh-seed retries and a random fallback.

        ``fit(seed_offset)`` must return ``(posterior, gmm)``; offset 0
        is the configured seed, so an unfaulted run is untouched.
        """
        cfg = self.config
        for attempt in range(cfg.max_posterior_retries + 1):
            # distinct deterministic seed per retry attempt
            offset = attempt * 7919
            try:
                posterior, gmm = fit(offset)
            except FitError as exc:
                self._alert(
                    "gmm_degenerate", stage="seed", detail=str(exc),
                    attempt=attempt,
                )
                continue
            problem = self._posterior_problem(posterior, gmm)
            if problem is None:
                if attempt:
                    self._recovery(
                        "gmm_reseed", "gmm_degenerate", stage="seed",
                        attempt=attempt, seed_offset=offset,
                    )
                return posterior
            self._alert(
                "gmm_degenerate", stage="seed", detail=problem,
                attempt=attempt,
            )
        self._recovery("random_seeding", "gmm_degenerate", stage="seed")
        self._degrade("random_seeding", stage="seed")
        rng = np.random.default_rng(self.seed + 0x5EED)
        return rng.uniform(size=n)

    def _posterior_problem(
        self, posterior: np.ndarray, gmm: object
    ) -> str | None:
        if not np.isfinite(posterior).all():
            return "non-finite posterior values"
        if np.ptp(posterior) <= 0:
            return "constant posterior (no ranking signal)"
        weights = getattr(gmm, "weights_", None)
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if not np.isfinite(weights).all():
                return "non-finite mixture weights"
            if float(weights.min()) < self.config.min_component_weight:
                return (
                    f"collapsed mixture component (min weight "
                    f"{float(weights.min()):.3e})"
                )
        ref = getattr(gmm, "_log_density_ref_", None)
        if ref is not None and not np.isfinite(ref):
            return "non-finite log-likelihood reference"
        return None

    # ------------------------------------------------------------------
    # training (Alg. 2 lines 3-5 and 12)
    # ------------------------------------------------------------------
    def guarded_training(
        self,
        classifier: HotspotClassifier,
        train_fn: Callable[[], list],
        stage: str,
        iteration: int | None = None,
    ):
        """Run ``train_fn`` with rollback + LR backoff on divergence.

        A pre-stage snapshot (weights, optimizer moments, shuffle RNG)
        is taken first; if the loss trace or the resulting weights are
        non-finite or exploding, the snapshot is restored, the learning
        rate is backed off, the shuffle RNG is reseeded (perturbed
        restart), and training re-runs — bounded by
        ``max_train_retries``, after which the model is frozen at the
        snapshot and the run degrades.
        """
        cfg = self.config
        snapshot = self._snapshot_model(classifier)
        trace = train_fn()
        problem = self._training_problem(trace, classifier)
        if problem is None:
            return trace
        for attempt in range(1, cfg.max_train_retries + 1):
            self._alert(
                "train_divergence", stage=stage, detail=problem,
                iteration=iteration, attempt=attempt,
            )
            self._restore_model(classifier, snapshot)
            classifier.learning_rate = classifier.learning_rate * cfg.lr_backoff
            perturbed = np.random.default_rng(
                self.seed + 7919 * attempt
            ).bit_generator.state
            classifier.set_shuffle_rng_state(perturbed)
            trace = train_fn()
            problem = self._training_problem(trace, classifier)
            if problem is None:
                self._recovery(
                    "rollback_retrain", "train_divergence", stage=stage,
                    iteration=iteration, attempt=attempt,
                )
                return trace
        self._alert(
            "train_divergence", stage=stage, detail=problem,
            iteration=iteration, attempt=cfg.max_train_retries + 1,
        )
        self._restore_model(classifier, snapshot)
        self._recovery(
            "freeze_model", "train_divergence", stage=stage,
            iteration=iteration,
        )
        self._degrade(
            "training_frozen", stage=stage, iteration=iteration,
            detail=problem,
        )
        return trace

    @staticmethod
    def _snapshot_model(classifier) -> dict:
        return {
            # get_weights/optimizer_state_arrays return copies, but copy
            # again so a restore can never alias live training buffers
            "weights": {
                k: np.array(v)
                for k, v in classifier.network.get_weights().items()
            },
            "optim": {
                k: np.array(v)
                for k, v in classifier.optimizer_state_arrays().items()
            },
            "shuffle": classifier.shuffle_rng_state(),
        }

    @staticmethod
    def _restore_model(classifier, snapshot: dict) -> None:
        classifier.network.set_weights(
            {k: np.array(v) for k, v in snapshot["weights"].items()}
        )
        classifier.restore_optimizer_state(
            {k: np.array(v) for k, v in snapshot["optim"].items()}
        )
        classifier.set_shuffle_rng_state(snapshot["shuffle"])

    def _training_problem(self, trace, classifier) -> str | None:
        cfg = self.config
        trace_arr = np.asarray(list(trace), dtype=np.float64)
        if trace_arr.size:
            if not np.isfinite(trace_arr).all():
                return "non-finite training loss"
            if abs(float(trace_arr[-1])) > cfg.loss_explosion:
                return (
                    f"training loss exploded ({float(trace_arr[-1]):.3e})"
                )
        for key, value in classifier.network.get_weights().items():
            if not np.isfinite(value).all():
                return f"non-finite weights in {key!r}"
            if value.size and float(np.abs(value).max()) > cfg.weight_limit:
                return f"exploding weights in {key!r}"
        return None

    # ------------------------------------------------------------------
    # calibration (Alg. 2 line 8, Eq. (5))
    # ------------------------------------------------------------------
    def guarded_calibration(
        self, scaler, logits: np.ndarray, labels: np.ndarray
    ) -> None:
        """Fit the temperature scaler; fall back to identity ``T = 1``
        (uncalibrated Eq. (4) softmax) when the fit raises, diverges or
        lands outside ``[t_min, t_max]``."""
        cfg = self.config
        try:
            scaler.fit(logits, labels, bounds=(cfg.t_min, cfg.t_max))
        except (ValueError, FloatingPointError) as exc:
            self._fallback_temperature(scaler, str(exc))
            return
        t = scaler.temperature_
        converged = getattr(scaler, "converged_", None)
        if (
            t is None
            or not np.isfinite(t)
            or not cfg.t_min <= t <= cfg.t_max
            or converged is False
        ):
            self._fallback_temperature(
                scaler, f"fit diverged (T={t!r}, converged={converged!r})"
            )

    def _fallback_temperature(self, scaler, detail: str) -> None:
        self._alert("calibration_failure", stage="calibrate", detail=detail)
        scaler.temperature_ = 1.0
        scaler.converged_ = False
        self._recovery(
            "identity_temperature", "calibration_failure", stage="calibrate"
        )

    # ------------------------------------------------------------------
    # selection (Alg. 2 line 9)
    # ------------------------------------------------------------------
    def guard_selection(
        self, context, iteration: int
    ) -> tuple[np.ndarray, dict] | None:
        """``None`` when scoring is healthy; otherwise a replacement
        ``(selected_local_indices, diagnostics)`` pair computed by a
        degraded selector (pure-diversity, uncertainty-only, or random).
        """
        probs = np.asarray(context.calibrated_probs)
        embeddings = np.asarray(context.embeddings)
        if len(probs) == 0:
            return None
        k = min(int(context.k), len(probs))
        uncertainty_ok = bool(np.isfinite(probs).all())
        diversity = None
        if np.isfinite(embeddings).all():
            from ..core.diversity import diversity_scores

            diversity = diversity_scores(embeddings)
            diversity_ok = bool(
                np.isfinite(diversity).all()
                and np.ptp(diversity) > self.config.min_diversity_spread
            )
        else:
            diversity_ok = False
        if uncertainty_ok and diversity_ok:
            return None

        if not uncertainty_ok and diversity_ok:
            self._alert(
                "uncertainty_collapse", stage="select",
                detail="non-finite calibrated probabilities",
                iteration=iteration,
            )
            chosen = np.argsort(-diversity, kind="stable")[:k]
            self._recovery(
                "pure_diversity", "uncertainty_collapse", stage="select",
                iteration=iteration,
            )
            return chosen.astype(np.int64), {"fallback": "pure_diversity"}

        if uncertainty_ok:
            from ..core.uncertainty import hotspot_aware_uncertainty

            self._alert(
                "diversity_collapse", stage="select",
                detail="near-zero diversity spread",
                iteration=iteration,
            )
            scores = hotspot_aware_uncertainty(probs)
            chosen = np.argsort(-scores, kind="stable")[:k]
            self._recovery(
                "uncertainty_only", "diversity_collapse", stage="select",
                iteration=iteration,
            )
            return chosen.astype(np.int64), {"fallback": "uncertainty_only"}

        self._alert(
            "scoring_collapse", stage="select",
            detail="both uncertainty and diversity scores unusable",
            iteration=iteration,
        )
        chosen = context.rng.choice(len(probs), size=k, replace=False)
        self._recovery(
            "random_selection", "scoring_collapse", stage="select",
            iteration=iteration,
        )
        return chosen.astype(np.int64), {"fallback": "random_selection"}

    # ------------------------------------------------------------------
    # serving admission (repro.serve)
    # ------------------------------------------------------------------
    def overloaded(self, detail: str, stage: str = "serve", **extra) -> None:
        """Record a shed serving request (queue overflow or a litho
        budget the request would overrun).  Shedding *is* the bounded
        recovery — the daemon stays healthy and the client retries —
        so no degraded mode is entered."""
        self._alert("serve_overload", stage=stage, detail=detail, **extra)
        self._recovery("shed_load", "serve_overload", stage=stage, **extra)

    def connection_shed(
        self, detail: str, stage: str = "transport", **extra
    ) -> None:
        """Record a connection shed at the socket transport's accept
        loop (live-connection cap).  Like :meth:`overloaded`, shedding
        *is* the recovery: the peer got a retryable ``overloaded``
        error frame and backs off, so no degraded mode is entered."""
        self._alert(
            "transport_overload", stage=stage, detail=detail, **extra
        )
        self._recovery(
            "shed_connection", "transport_overload", stage=stage, **extra
        )

    # ------------------------------------------------------------------
    # litho budget (Definition 3)
    # ------------------------------------------------------------------
    def budget_exhausted(self, exc, stage: str, iteration: int) -> None:
        """Record a litho budget overrun and the graceful early stop."""
        self._alert(
            "litho_budget", stage=stage, detail=str(exc),
            iteration=iteration,
        )
        self._recovery(
            "early_stop", "litho_budget", stage=stage, iteration=iteration
        )
        self._degrade("budget_exhausted", stage=stage, iteration=iteration)
