"""The overall pattern-sampling and hotspot-detection flow (Algorithm 2).

One :class:`PSHDFramework` run executes the paper's full pipeline on a
benchmark dataset:

1. Fit a GMM on (PCA-compressed) features of the whole pool; compute
   posterior probabilities ``P`` (line 1).
2. Split into initial training set ``L0`` (lowest posterior =
   hotspot-like), validation set ``V0`` (posterior-stratified) and
   unlabeled pool ``U0`` (line 2); label ``L0``/``V0`` through the
   metered oracle; train the CNN (lines 3–5).
3. For ``N`` iterations: form query set ``Q`` of the ``n`` lowest-
   posterior pool samples (line 7), fit temperature ``T`` on ``V0``
   (line 8), run the batch selector — EntropySampling by default
   (line 9) — label the ``k`` chosen clips, move them to ``L`` and
   fine-tune the model (lines 10–12).  Unselected query samples return
   to the pool.
4. Full-chip detection on the remaining pool with the calibrated model;
   score with Eqs. (1)–(2).

Baselines (TS, QP, random) plug in through the ``selector`` hook, which
receives the same calibrated probabilities and embeddings; ``selector``
also accepts a registered method name (see
:mod:`repro.engine.registry`).

``run()`` is decomposed into composable stages — ``seed``, then per
iteration ``calibrate`` / ``select`` / ``update``, then ``detect`` —
wired through an :class:`~repro.engine.session.InferenceSession` (the
pool tensor is scaled once per run, and each query batch gets logits +
embeddings from a single tapped forward pass).  Every stage transition
is published on an :class:`~repro.engine.events.EventBus`; run history
is rebuilt from those events by a
:class:`~repro.engine.events.HistoryRecorder` subscriber.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from ..calibration.temperature import TemperatureScaler
from ..data.dataset import ClipDataset, DatasetLabeler
from ..dataplane.config import DataPlaneConfig
from ..engine.checkpoint import (
    CheckpointError,
    RunCheckpoint,
    load_checkpoint,
    posterior_array,
    save_checkpoint,
    scaler_arrays,
)
from ..engine.events import EventBus, HistoryRecorder
from ..engine.guard import GuardConfig, GuardReport, RunSupervisor
from ..engine.session import InferenceSession
from ..litho.labeler import LithoBudgetExceeded
from ..model.classifier import HotspotClassifier
from ..nn.runtime import PRECISION_MODES
from ..nn.losses import softmax
from ..stats.gmm import GaussianMixture
from ..stats.pca import PCA
from .metrics import PSHDResult, litho_overhead, pshd_accuracy
from .sampling import SamplingConfig, entropy_sampling
from .stopping import LoopState, StoppingCriterion
from .uncertainty import hotspot_aware_uncertainty

__all__ = ["FrameworkConfig", "PSHDFramework", "Selector", "SelectionContext"]


@dataclass
class SelectionContext:
    """Everything a batch selector may consult (line 9 of Alg. 2).

    ``calibrated_probs`` are temperature-scaled (Eq. (5)); ``raw_probs``
    are the plain softmax output (Eq. (4)) — the QP baseline of [14] uses
    the latter, which is exactly the calibration gap the paper fixes.
    """

    calibrated_probs: np.ndarray
    raw_probs: np.ndarray
    embeddings: np.ndarray
    k: int
    rng: np.random.Generator


#: selector signature: SelectionContext -> indices into the query set
Selector = Callable[[SelectionContext], np.ndarray]


@dataclass
class _RunState:
    """Mutable state threaded through the run stages."""

    posterior: np.ndarray
    train_idx: list[int]
    y_train: list[int]
    val_idx: np.ndarray
    y_val: np.ndarray
    pool: list[int]
    temperature: TemperatureScaler
    discarded: list[int] = field(default_factory=list)
    batch_hotspot_trace: list[int] = field(default_factory=list)
    iterations_run: int = 0


@dataclass
class FrameworkConfig:
    """Hyperparameters of Algorithm 2.

    ``n_query``/``k_batch`` are the two-step batch sizes ``n`` and ``k``;
    ``n_iterations`` is ``N``.  ``sampling`` configures Algorithm 1 (the
    Table III ablations); ``selector`` overrides the batch selector
    entirely for baseline methods.
    """

    n_query: int = 120
    k_batch: int = 20
    n_iterations: int = 8
    init_train: int = 40
    val_size: int = 30
    gmm_components: int = 8
    pca_dim: int = 10
    posterior_features: str = "density"
    #: D4 orientation augmentation (DCT-domain) during training — helps
    #: most when labeled sets are small (see repro.features.augment)
    augment: bool = False
    epochs_initial: int = 20
    epochs_update: int = 6
    arch: str = "cnn"
    lr: float = 1e-3
    seed: int = 0
    #: compute precision of classifier inference and feature encoding:
    #: "exact" (default) is bit-identical to the seed float64 kernels;
    #: "fast" computes forward passes in float32 (see repro.nn.runtime)
    precision: str = "exact"
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    #: a selector callable, a registered method name (resolved through
    #: repro.engine.registry, which may also adjust other fields — e.g.
    #: ``"qp"`` turns on query-remainder discarding), or None for the
    #: paper's EntropySampling
    selector: Selector | str | None = None
    method_name: str = "ours"
    #: discard unselected query samples each iteration, as the QP flow of
    #: [14] does (the paper keeps them — its second critique of [14])
    discard_query_rest: bool = False
    #: temperature scaling on/off (design-choice D5): with False, the
    #: raw softmax of Eq. (4) feeds sampling and detection directly
    calibrate: bool = True
    #: optional early-termination predicate evaluated each iteration
    #: (see repro.core.stopping); n_iterations remains the hard ceiling
    stop_when: StoppingCriterion | None = None
    #: data-plane settings (chunk size, thread-pool width, feature-cache
    #: tiers) used by entry points that extract features
    #: or batch-label for this run (CLI detect, benchmark builds)
    dataplane: DataPlaneConfig = field(default_factory=DataPlaneConfig)
    #: write a crash-safe checkpoint to ``checkpoint_dir`` every this
    #: many completed iterations (0 = off); see repro.engine.checkpoint
    checkpoint_every: int = 0
    checkpoint_dir: str | None = None
    #: run-health supervision: sentinel thresholds, recovery budgets and
    #: the litho budget (see repro.engine.guard; the pooled-chunk
    #: watchdog deadline is ``dataplane.task_timeout``).  Not
    #: part of the checkpoint fingerprint — supervision is
    #: bit-transparent on healthy runs, so guarded and unguarded runs
    #: may resume each other's checkpoints.
    guard: GuardConfig = field(default_factory=GuardConfig)

    def __post_init__(self) -> None:
        for name in ("n_query", "k_batch", "n_iterations", "init_train",
                     "val_size", "gmm_components", "pca_dim"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.posterior_features not in ("density", "flat"):
            raise ValueError(
                "posterior_features must be 'density' or 'flat', got "
                f"{self.posterior_features!r}"
            )
        if self.precision not in PRECISION_MODES:
            raise ValueError(
                f"precision must be one of {PRECISION_MODES}, "
                f"got {self.precision!r}"
            )
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.checkpoint_every and not self.checkpoint_dir:
            raise ValueError("checkpoint_every requires checkpoint_dir")


class PSHDFramework:
    """Executable Algorithm 2 over a :class:`ClipDataset`."""

    def __init__(
        self,
        dataset: ClipDataset,
        config: FrameworkConfig | None = None,
        classifier: HotspotClassifier | None = None,
        bus: EventBus | None = None,
    ) -> None:
        self.dataset = dataset
        self.config = config if config is not None else FrameworkConfig()
        if isinstance(self.config.selector, str):
            from ..engine.registry import get_method

            self.config = get_method(self.config.selector).build_config(
                self.config
            )
        self.bus = bus if bus is not None else EventBus()
        if len(dataset) < self.config.init_train + self.config.val_size + 1:
            raise ValueError(
                f"dataset of {len(dataset)} clips too small for "
                f"init_train={self.config.init_train} + "
                f"val_size={self.config.val_size}"
            )
        if classifier is None:
            classifier = HotspotClassifier(
                input_shape=dataset.tensors.shape[1:],
                arch=self.config.arch,
                lr=self.config.lr,
                seed=self.config.seed,
                augment=self.config.augment,
                precision=self.config.precision,
            )
        self.classifier = classifier
        # the litho budget is enforced by the labeler whether or not the
        # guard is enabled; the guard decides graceful stop vs. abort
        self.labeler = DatasetLabeler(
            dataset, bus=self.bus, max_queries=self.config.guard.max_litho
        )
        self._supervisor: RunSupervisor | None = None
        #: fitted scaler of the final detection sweep, kept for callers
        #: that score more clips with the finished model (e.g. the CLI's
        #: streaming full-chip scan)
        self.final_temperature_: TemperatureScaler | None = None

    # ------------------------------------------------------------------
    def _density_core_features(self) -> np.ndarray:
        """Density-grid cells that lie inside the core region.

        Margin context varies per clip placement and drowns the pattern
        signature, so the posterior model looks only at the cells the
        clip owns.
        """
        dataset = self.dataset
        cells = int(dataset.meta.get("density_cells", 8))
        density = dataset.flats[:, -cells * cells :].reshape(-1, cells, cells)
        clip = dataset.clips[0]
        width, _ = clip.size
        core = clip.core_local()
        c0 = int(np.floor(core.x0 / width * cells))
        c1 = int(np.ceil(core.x1 / width * cells))
        if c1 <= c0:
            c0, c1 = 0, cells
        return density[:, c0:c1, c0:c1].reshape(len(dataset), -1)

    def _fit_posterior(
        self, seed_offset: int = 0
    ) -> tuple[np.ndarray, GaussianMixture]:
        """Line 1: GMM posterior of every clip (low = hotspot-like).

        By default the mixture is fitted on the core-region cells of the
        density signature, which expose the low-coverage fingerprint of
        near-critical geometry far more directly than the full DCT
        spectrum (margin context is placement noise); set
        ``posterior_features='flat'`` to use the full feature vector.
        ``seed_offset`` perturbs the mixture seed (the run supervisor's
        re-seeding recovery); 0 is the configured run seed.
        """
        cfg = self.config
        if cfg.posterior_features == "density":
            flats = self._density_core_features()
        else:
            flats = self.dataset.flats
        pca = PCA(min(cfg.pca_dim, flats.shape[1]))
        compressed = pca.fit_transform(flats)
        components = min(cfg.gmm_components, max(len(flats) // 10, 1))
        gmm = GaussianMixture(
            n_components=components, seed=cfg.seed + seed_offset
        )
        gmm.fit(compressed)
        return gmm.posterior(compressed), gmm

    def _seed_posterior(self) -> np.ndarray:
        """The seeding posterior, supervised when a guard is active."""
        if self._supervisor is None:
            return self._fit_posterior()[0]
        return self._supervisor.guarded_posterior(
            self._fit_posterior, n=len(self.dataset)
        )

    def _train(self, stage: str, iteration: int | None, train_fn):
        """Run one training stage, supervised when a guard is active."""
        if self._supervisor is None:
            return train_fn()
        return self._supervisor.guarded_training(
            self.classifier, train_fn, stage=stage, iteration=iteration
        )

    def _split(
        self, posterior: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Line 2: (train, validation, pool) index split.

        The training seed takes the lowest-posterior (hotspot-like)
        clips for half its budget and spreads the other half evenly
        across the posterior ranking, so the initial model sees both the
        rare tail and the frequent pattern mass — without the coverage
        half, the model never learns the frequent clean patterns and
        floods detection with false alarms.  Validation is likewise
        stratified so temperature scaling sees the full confidence
        spectrum.
        """
        cfg = self.config
        order = np.argsort(posterior, kind="stable")
        n_tail = cfg.init_train // 2
        tail = order[:n_tail]
        rest = order[n_tail:]
        n_spread = cfg.init_train - n_tail
        spread_pos = np.unique(
            np.linspace(0, len(rest) - 1, n_spread).astype(int)
        )
        train = np.concatenate([tail, rest[spread_pos]])
        remaining = np.setdiff1d(order, train, assume_unique=False)
        # keep remaining in posterior order for the validation spread
        remaining = remaining[np.argsort(posterior[remaining], kind="stable")]
        val_pos = np.unique(
            np.linspace(0, len(remaining) - 1, cfg.val_size).astype(int)
        )
        val = remaining[val_pos]
        pool_mask = np.ones(len(posterior), dtype=bool)
        pool_mask[train] = False
        pool_mask[val] = False
        pool = np.flatnonzero(pool_mask)
        return train, val, pool

    def _select(self, context: SelectionContext) -> tuple[np.ndarray, dict]:
        """Line 9: batch selection (EntropySampling or baseline hook)."""
        if self.config.selector is not None:
            chosen = np.asarray(self.config.selector(context), dtype=np.int64)
            return chosen, {}
        outcome = entropy_sampling(
            context.calibrated_probs,
            context.embeddings,
            context.k,
            self.config.sampling,
        )
        return outcome.selected, {
            "weights": outcome.weights.tolist(),
            "mean_uncertainty": float(outcome.uncertainty.mean()),
            "mean_diversity": float(outcome.diversity.mean()),
        }

    # ------------------------------------------------------------------
    # run stages (Alg. 2 decomposed; each stage emits one bus event)
    # ------------------------------------------------------------------
    def _stage_seed(self) -> _RunState:
        """Lines 1-5: posterior fit, split, label L0/V0, initial train."""
        cfg = self.config
        dataset = self.dataset
        stage_start = time.perf_counter()

        posterior = self._seed_posterior()
        train_idx, val_idx, pool = self._split(posterior)
        train_idx = list(train_idx)
        val_idx = np.asarray(val_idx)
        pool = list(pool)

        # a litho budget smaller than the seed sets cannot produce any
        # model at all, so a budget overrun here propagates even under
        # supervision — there is nothing to degrade to yet
        y_train = list(self.labeler.label_batch(train_idx))
        y_val = self.labeler.label_batch(val_idx)

        # lines 3-5: initialize and train the learning engine
        self.classifier.fit_scaler(dataset.tensors)
        self._train(
            "seed",
            None,
            lambda: self.classifier.fit(
                dataset.tensors[train_idx],
                np.array(y_train),
                epochs=cfg.epochs_initial,
            ),
        )

        state = _RunState(
            posterior=posterior,
            train_idx=train_idx,
            y_train=y_train,
            val_idx=val_idx,
            y_val=y_val,
            pool=pool,
            temperature=TemperatureScaler(),
        )
        self.bus.emit(
            "run_start",
            benchmark=dataset.name,
            method=cfg.method_name,
            pool_size=len(pool),
            n_train=len(train_idx),
            n_val=len(val_idx),
            litho_used=self.labeler.query_count,
            seed_seconds=time.perf_counter() - stage_start,
        )
        return state

    def _calibrate(self, session: InferenceSession, state: _RunState) -> None:
        """Line 8: fit T on the validation set (identity when the D5
        ablation turns calibration off).  One helper serves both the AL
        loop and the final detection stage."""
        if not self.config.calibrate:
            state.temperature.temperature_ = 1.0
            return
        logits = session.logits(state.val_idx)
        if self._supervisor is None:
            state.temperature.fit(logits, state.y_val)
        else:
            self._supervisor.guarded_calibration(
                state.temperature, logits, state.y_val
            )

    def _stage_select(
        self,
        session: InferenceSession,
        state: _RunState,
        rng: np.random.Generator,
        iteration: int,
    ) -> tuple[np.ndarray, np.ndarray, dict] | None:
        """Lines 7+9: form the query set and run the batch selector.

        Returns ``(query, batch, diagnostics)`` with global dataset
        indices, or ``None`` when the configured stopping criterion
        fires (the loop guard of Alg. 2).
        """
        cfg = self.config
        stage_start = time.perf_counter()

        # line 7: query set = n lowest-posterior pool samples
        pool_arr = np.array(state.pool)
        order = np.argsort(state.posterior[pool_arr], kind="stable")
        query = pool_arr[order[: cfg.n_query]]

        # line 9: EntropySampling over the query set — calibrated probs
        # and embeddings come from one tapped forward pass
        query_logits, query_embeddings = session.predict_full(query)
        context = SelectionContext(
            calibrated_probs=state.temperature.transform(query_logits),
            raw_probs=softmax(query_logits),
            embeddings=query_embeddings,
            k=cfg.k_batch,
            rng=rng,
        )
        # optional termination condition (Alg. 2's loop guard)
        if cfg.stop_when is not None:
            loop_state = LoopState(
                iteration=iteration,
                litho_used=self.labeler.query_count,
                pool_size=len(state.pool),
                max_uncertainty=float(
                    hotspot_aware_uncertainty(context.calibrated_probs).max()
                )
                if len(query)
                else 0.0,
                recent_batch_hotspots=state.batch_hotspot_trace,
            )
            if cfg.stop_when(loop_state):
                return None

        fallback = (
            self._supervisor.guard_selection(context, iteration)
            if self._supervisor is not None
            else None
        )
        if fallback is not None:
            chosen_local, diag = fallback
        else:
            chosen_local, diag = self._select(context)
        batch = query[chosen_local]
        self.bus.emit(
            "batch_selected",
            iteration=iteration,
            selected=[int(i) for i in batch],
            query_size=int(len(query)),
            temperature=float(state.temperature.temperature_),
            select_seconds=time.perf_counter() - stage_start,
        )
        return query, batch, diag

    def _stage_update(
        self,
        state: _RunState,
        iteration: int,
        query: np.ndarray,
        batch: np.ndarray,
        diag: dict,
    ) -> None:
        """Lines 10-12: label the batch, move it from U to L, fine-tune.

        Our method returns unselected query samples to the pool; the
        ``discard_query_rest`` flag reproduces [14]'s behaviour of
        dropping the whole query set.
        """
        cfg = self.config
        stage_start = time.perf_counter()

        y_batch = self.labeler.label_batch(batch)
        state.batch_hotspot_trace.append(int(np.sum(y_batch)))
        state.train_idx.extend(int(i) for i in batch)
        state.y_train.extend(int(label) for label in y_batch)
        removed = set(int(i) for i in batch)
        if cfg.discard_query_rest:
            rest = set(int(i) for i in query) - removed
            state.discarded.extend(rest)
            removed |= rest
        state.pool = [i for i in state.pool if i not in removed]

        # line 12: update the model on the enlarged training set
        self._train(
            "update",
            iteration,
            lambda: self.classifier.update(
                self.dataset.tensors[state.train_idx],
                np.array(state.y_train),
                epochs=cfg.epochs_update,
            ),
        )

        self.bus.emit(
            "model_updated",
            iteration=iteration,
            train_size=len(state.train_idx),
            hotspots_in_train=int(np.sum(state.y_train)),
            temperature=float(state.temperature.temperature_),
            batch_hotspots=int(np.sum(y_batch)),
            litho_used=self.labeler.query_count,
            update_seconds=time.perf_counter() - stage_start,
            diagnostics=diag,
        )

    def _stage_detect(
        self, session: InferenceSession, state: _RunState
    ) -> tuple[int, int]:
        """Full-chip detection on the remaining unlabeled clips (pool
        plus anything a discarding baseline dropped) with the calibrated
        model.  Returns ``(hits, false_alarms)``."""
        stage_start = time.perf_counter()
        state.pool = state.pool + state.discarded
        hits = 0
        false_alarms = 0
        if state.pool:
            pool_arr = np.array(state.pool)
            self._calibrate(session, state)
            self.final_temperature_ = state.temperature
            logits = session.logits(pool_arr)
            predicted_hot = state.temperature.transform(logits)[:, 1] > 0.5
            actual = self.dataset.labels[pool_arr].astype(bool)
            hits = int(np.sum(predicted_hot & actual))
            false_alarms = int(np.sum(predicted_hot & ~actual))
        self.bus.emit(
            "detection_done",
            scanned=len(state.pool),
            hits=hits,
            false_alarms=false_alarms,
            litho_used=self.labeler.query_count + false_alarms,
            detect_seconds=time.perf_counter() - stage_start,
        )
        return hits, false_alarms

    def _run_loop(
        self,
        session: InferenceSession,
        state: _RunState,
        rng: np.random.Generator,
        recorder: HistoryRecorder,
        first_iteration: int,
    ) -> tuple[int, int]:
        """Iterations ``first_iteration..N`` plus final detection."""
        cfg = self.config
        for iteration in range(first_iteration, cfg.n_iterations + 1):
            if not state.pool:
                break
            self.bus.emit(
                "iteration_start",
                iteration=iteration,
                pool_size=len(state.pool),
                litho_used=self.labeler.query_count,
            )
            self._calibrate(session, state)
            selection = self._stage_select(session, state, rng, iteration)
            if selection is None:
                break
            state.iterations_run = iteration
            query, batch, diag = selection
            try:
                self._stage_update(state, iteration, query, batch, diag)
            except LithoBudgetExceeded as exc:
                if self._supervisor is None:
                    raise
                # the batch was rejected before anything was charged or
                # committed; stop gracefully — detection still runs on
                # the model trained so far
                self._supervisor.budget_exhausted(
                    exc, stage="update", iteration=iteration
                )
                break
            self._maybe_checkpoint(state, rng, recorder, iteration)

        return self._stage_detect(session, state)

    def _start_guard(self) -> RunSupervisor | None:
        """Create and attach a supervisor for this run (or ``None``
        when supervision is disabled)."""
        if not self.config.guard.enabled:
            self._supervisor = None
            return None
        supervisor = RunSupervisor(
            self.config.guard, self.bus, seed=self.config.seed
        )
        supervisor.attach()
        self._supervisor = supervisor
        return supervisor

    def _finish_guard(
        self, supervisor: RunSupervisor | None
    ) -> GuardReport | None:
        """Emit and archive the guard report of a completed run."""
        if supervisor is None:
            return None
        report = supervisor.report()
        self.bus.emit("guard_report", **report.as_dict())
        if self.config.checkpoint_dir:
            report.save(self.config.checkpoint_dir)
        return report

    def _end_guard(self, supervisor: RunSupervisor | None) -> None:
        if supervisor is not None:
            supervisor.detach()
        self._supervisor = None

    def _build_result(
        self,
        state: _RunState,
        hits: int,
        false_alarms: int,
        elapsed: float,
        recorder: HistoryRecorder,
        guard: GuardReport | None = None,
    ) -> PSHDResult:
        dataset = self.dataset
        hs_train = int(np.sum(state.y_train))
        hs_val = int(np.sum(state.y_val))
        accuracy = pshd_accuracy(hs_train, hs_val, hits, dataset.n_hotspots)
        litho = litho_overhead(
            len(state.train_idx), len(state.val_idx), false_alarms
        )

        return PSHDResult(
            benchmark=dataset.name,
            method=self.config.method_name,
            accuracy=accuracy,
            litho=litho,
            hits=hits,
            false_alarms=false_alarms,
            n_train=len(state.train_idx),
            n_val=len(state.val_idx),
            hs_total=dataset.n_hotspots,
            iterations=state.iterations_run,
            pshd_seconds=elapsed,
            history=recorder.history,
            labeled=self.labeler.labeled_indices,
            guard=guard.as_dict() if guard is not None else None,
        )

    def run(self) -> PSHDResult:
        """Execute Algorithm 2 and score the result (Eqs. (1)-(2))."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        started = time.perf_counter()

        session = InferenceSession(self.classifier, self.dataset.tensors)
        recorder = self.bus.subscribe(HistoryRecorder())
        supervisor = self._start_guard()
        try:
            state = self._stage_seed()
            hits, false_alarms = self._run_loop(
                session, state, rng, recorder, first_iteration=1
            )
            report = self._finish_guard(supervisor)
        finally:
            self.bus.unsubscribe(recorder)
            self._end_guard(supervisor)

        return self._build_result(
            state, hits, false_alarms, time.perf_counter() - started,
            recorder, guard=report,
        )

    def resume(self, path) -> PSHDResult:
        """Re-enter Algorithm 2 from a checkpoint written by a previous
        (possibly killed) run of the *same* configuration.

        Restores every artifact the loop threads between iterations —
        weights, scaler statistics, optimizer moments, temperature,
        the L/V/U index sets, labeler meter, loop counters and both RNG
        bit states — so continuation is bit-identical to a run that was
        never interrupted: same selections, same litho spend, same
        final weights.  Raises
        :class:`~repro.engine.checkpoint.CheckpointError` when the
        checkpoint does not match this framework's dataset/config.
        """
        started = time.perf_counter()
        checkpoint = load_checkpoint(path)
        state, rng = self._restore_checkpoint(checkpoint)

        session = InferenceSession(self.classifier, self.dataset.tensors)
        recorder = HistoryRecorder()
        recorder.history = list(checkpoint.history)
        self.bus.subscribe(recorder)
        self.bus.emit(
            "run_resumed",
            iteration=checkpoint.iteration,
            path=str(path),
            pool_size=len(state.pool),
            litho_used=self.labeler.query_count,
        )
        supervisor = self._start_guard()
        try:
            hits, false_alarms = self._run_loop(
                session,
                state,
                rng,
                recorder,
                first_iteration=checkpoint.iteration + 1,
            )
            report = self._finish_guard(supervisor)
        finally:
            self.bus.unsubscribe(recorder)
            self._end_guard(supervisor)

        return self._build_result(
            state, hits, false_alarms, time.perf_counter() - started,
            recorder, guard=report,
        )

    # ------------------------------------------------------------------
    # checkpoint capture / restore
    # ------------------------------------------------------------------
    def _fingerprint(self) -> dict:
        """Everything that must match between the checkpointing and the
        resuming run for bit-identical continuation.  ``n_iterations``
        is deliberately absent — a resumed run may extend the loop."""
        cfg = self.config
        fingerprint = {
            "benchmark": self.dataset.name,
            "n_clips": len(self.dataset),
            "method": cfg.method_name,
            "arch": cfg.arch,
            "seed": cfg.seed,
            "n_query": cfg.n_query,
            "k_batch": cfg.k_batch,
            "init_train": cfg.init_train,
            "val_size": cfg.val_size,
            "posterior_features": cfg.posterior_features,
            "augment": cfg.augment,
            "calibrate": cfg.calibrate,
            "discard_query_rest": cfg.discard_query_rest,
            "lr": cfg.lr,
            "epochs_initial": cfg.epochs_initial,
            "epochs_update": cfg.epochs_update,
        }
        # like the guard exclusion above, "exact" (the default) is left
        # out so checkpoints written before the precision policy existed
        # still resume; a non-default mode must match on both sides
        if cfg.precision != "exact":
            fingerprint["precision"] = cfg.precision
        return fingerprint

    def _capture_checkpoint(
        self,
        state: _RunState,
        rng: np.random.Generator,
        recorder: HistoryRecorder,
        iteration: int,
    ) -> RunCheckpoint:
        classifier = self.classifier
        arrays: dict[str, np.ndarray] = {
            f"net/{key}": value
            for key, value in classifier.network.get_weights().items()
        }
        arrays.update(
            {
                f"optim/{key}": value
                for key, value in classifier.optimizer_state_arrays().items()
            }
        )
        arrays.update(
            scaler_arrays(classifier.scaler.mean_, classifier.scaler.std_)
        )
        arrays["state/posterior"] = posterior_array(state.posterior)

        return RunCheckpoint(
            schema=self._fingerprint(),
            iteration=iteration,
            rng_state=rng.bit_generator.state,
            shuffle_rng_state=classifier.shuffle_rng_state(),
            temperature=state.temperature.temperature_,
            index_sets={
                "train_idx": [int(i) for i in state.train_idx],
                "y_train": [int(y) for y in state.y_train],
                "val_idx": [int(i) for i in state.val_idx],
                "y_val": [int(y) for y in state.y_val],
                "pool": [int(i) for i in state.pool],
                "discarded": [int(i) for i in state.discarded],
                "batch_hotspot_trace": list(state.batch_hotspot_trace),
                "iterations_run": state.iterations_run,
            },
            labeler_state=self.labeler.get_state(),
            history=recorder.history,
            arrays=arrays,
        )

    def _restore_checkpoint(
        self, checkpoint: RunCheckpoint
    ) -> tuple[_RunState, np.random.Generator]:
        expected = self._fingerprint()
        if checkpoint.schema != expected:
            diffs = sorted(
                key
                for key in set(expected) | set(checkpoint.schema)
                if expected.get(key) != checkpoint.schema.get(key)
            )
            raise CheckpointError(
                "checkpoint does not match this run configuration; "
                f"differing fields: {diffs}"
            )

        classifier = self.classifier
        arrays = checkpoint.arrays
        try:
            classifier.network.set_weights(
                {
                    key[len("net/"):]: value
                    for key, value in arrays.items()
                    if key.startswith("net/")
                }
            )
        except (KeyError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint weights do not fit the {self.config.arch!r} "
                f"network: {exc}"
            ) from exc
        classifier.restore_optimizer_state(
            {
                key[len("optim/"):]: value
                for key, value in arrays.items()
                if key.startswith("optim/")
            }
        )
        classifier.scaler.mean_ = arrays["scaler/mean"]
        classifier.scaler.std_ = arrays["scaler/std"]
        classifier.scaler_version += 1
        classifier._fitted = True
        classifier.set_shuffle_rng_state(checkpoint.shuffle_rng_state)
        self.labeler.set_state(checkpoint.labeler_state)

        temperature = TemperatureScaler()
        temperature.temperature_ = checkpoint.temperature
        sets = checkpoint.index_sets
        state = _RunState(
            posterior=posterior_array(arrays["state/posterior"]),
            train_idx=[int(i) for i in sets["train_idx"]],
            y_train=[int(y) for y in sets["y_train"]],
            val_idx=np.asarray(sets["val_idx"], dtype=np.int64),
            y_val=np.asarray(sets["y_val"], dtype=np.int64),
            pool=[int(i) for i in sets["pool"]],
            temperature=temperature,
            discarded=[int(i) for i in sets["discarded"]],
            batch_hotspot_trace=[int(n) for n in sets["batch_hotspot_trace"]],
            iterations_run=int(sets["iterations_run"]),
        )

        rng = np.random.default_rng(self.config.seed)
        rng.bit_generator.state = checkpoint.rng_state
        return state, rng

    def _maybe_checkpoint(
        self,
        state: _RunState,
        rng: np.random.Generator,
        recorder: HistoryRecorder,
        iteration: int,
    ) -> None:
        cfg = self.config
        if not cfg.checkpoint_every or iteration % cfg.checkpoint_every:
            return
        stage_start = time.perf_counter()
        checkpoint = self._capture_checkpoint(state, rng, recorder, iteration)
        path = save_checkpoint(
            checkpoint,
            Path(cfg.checkpoint_dir) / f"checkpoint_iter{iteration:04d}",
        )
        self.bus.emit(
            "checkpoint_saved",
            iteration=iteration,
            path=str(path),
            checkpoint_seconds=time.perf_counter() - stage_start,
        )
