"""Tests for run-health supervision (sentinels, recovery, degradation)."""

import json

import numpy as np
import pytest

from repro.calibration import TemperatureScaler
from repro.core import FrameworkConfig, PSHDFramework
from repro.core.framework import SelectionContext
from repro.engine import EventBus, EventLog, GuardConfig, GuardReport, RunSupervisor
from repro.model import HotspotClassifier
from repro.stats import FitError


def make_supervisor(seed=0, **overrides):
    bus = EventBus()
    log = bus.subscribe(EventLog())
    supervisor = RunSupervisor(GuardConfig(**overrides), bus, seed=seed)
    return supervisor, log


class TestGuardConfig:
    def test_defaults_valid(self):
        cfg = GuardConfig()
        assert cfg.enabled is True
        assert cfg.max_litho is None

    @pytest.mark.parametrize("kwargs", [
        dict(max_train_retries=-1),
        dict(lr_backoff=0.0),
        dict(lr_backoff=1.5),
        dict(max_posterior_retries=-1),
        dict(t_min=0.0),
        dict(t_min=5.0, t_max=2.0),
        dict(max_litho=0),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            GuardConfig(**kwargs)


class TestGuardReport:
    def test_final_mode_normal_when_clean(self):
        assert GuardReport().final_mode == "normal"

    def test_final_mode_joins_distinct_degradations(self):
        report = GuardReport()
        report.degraded.append({"mode": "random_seeding"})
        report.degraded.append({"mode": "budget_exhausted"})
        report.degraded.append({"mode": "budget_exhausted"})
        assert report.final_mode == "degraded:random_seeding+budget_exhausted"

    def test_as_dict_counts(self):
        report = GuardReport()
        report.alerts.append({"sentinel": "x"})
        as_dict = report.as_dict()
        assert as_dict["n_alerts"] == 1
        assert as_dict["n_recoveries"] == 0
        assert as_dict["final_mode"] == "normal"

    def test_save_writes_json(self, tmp_path):
        report = GuardReport()
        report.degraded.append({"mode": "budget_exhausted"})
        path = report.save(tmp_path)
        assert path.name == "guard_report.json"
        loaded = json.loads(path.read_text())
        assert loaded["final_mode"] == "degraded:budget_exhausted"


class TestGuardedPosterior:
    def test_fit_error_retried_with_fresh_seed(self):
        supervisor, log = make_supervisor()
        offsets = []

        def fit(offset):
            offsets.append(offset)
            if offset == 0:
                raise FitError("collapsed")
            rng = np.random.default_rng(7)
            posterior = rng.uniform(size=20)
            return posterior, None

        posterior = supervisor.guarded_posterior(fit, n=20)
        assert offsets == [0, 7919]
        assert len(posterior) == 20
        report = supervisor.report()
        assert [a["sentinel"] for a in report.alerts] == ["gmm_degenerate"]
        assert [r["policy"] for r in report.recoveries] == ["gmm_reseed"]
        assert report.final_mode == "normal"  # recovered, not degraded
        assert log.kinds() == ["health_alert", "recovery_applied"]

    def test_degenerate_posterior_detected(self):
        supervisor, _ = make_supervisor(max_posterior_retries=0)

        def fit(offset):
            return np.full(10, 0.5), None  # no ranking signal

        posterior = supervisor.guarded_posterior(fit, n=10)
        report = supervisor.report()
        assert "constant posterior" in report.alerts[0]["detail"]
        assert report.final_mode == "degraded:random_seeding"
        # the random fallback still ranks (non-constant, in [0, 1])
        assert np.ptp(posterior) > 0
        assert len(posterior) == 10

    def test_exhausted_retries_fall_back_deterministically(self):
        def fit(offset):
            raise FitError("always degenerate")

        a, _ = make_supervisor(seed=3)
        b, _ = make_supervisor(seed=3)
        np.testing.assert_array_equal(
            a.guarded_posterior(fit, n=15), b.guarded_posterior(fit, n=15)
        )
        assert a.report().final_mode == "degraded:random_seeding"
        # retries + the final exhaustion each raised one alert
        assert len(a.report().alerts) == 3

    def test_collapsed_component_weight_detected(self):
        supervisor, _ = make_supervisor(max_posterior_retries=0)

        class FakeGMM:
            weights_ = np.array([1.0 - 1e-15, 1e-15])

        def fit(offset):
            return np.linspace(0, 1, 10), FakeGMM()

        supervisor.guarded_posterior(fit, n=10)
        assert "collapsed mixture" in supervisor.report().alerts[0]["detail"]

    def test_healthy_fit_untouched(self):
        supervisor, log = make_supervisor()
        healthy = np.linspace(0.1, 0.9, 12)

        def fit(offset):
            return healthy, None

        out = supervisor.guarded_posterior(fit, n=12)
        np.testing.assert_array_equal(out, healthy)
        assert log.kinds() == []
        assert supervisor.report().final_mode == "normal"


class TestGuardedCalibration:
    def test_fit_exception_falls_back_to_identity(self):
        supervisor, log = make_supervisor()
        scaler = TemperatureScaler()
        logits = np.full((5, 2), np.nan)  # fit_temperature raises
        supervisor.guarded_calibration(scaler, logits, np.zeros(5, dtype=int))
        assert scaler.temperature_ == 1.0
        assert scaler.converged_ is False
        report = supervisor.report()
        assert report.alerts[0]["sentinel"] == "calibration_failure"
        assert report.recoveries[0]["policy"] == "identity_temperature"
        assert log.kinds() == ["health_alert", "recovery_applied"]

    def test_out_of_range_temperature_falls_back(self):
        supervisor, _ = make_supervisor()

        class WildScaler:
            temperature_ = None
            converged_ = None

            def fit(self, logits, labels, bounds=(0.05, 20.0)):
                self.temperature_ = 100.0  # ignores bounds
                self.converged_ = True

        scaler = WildScaler()
        supervisor.guarded_calibration(
            scaler, np.zeros((4, 2)), np.zeros(4, dtype=int)
        )
        assert scaler.temperature_ == 1.0

    def test_healthy_fit_untouched(self):
        supervisor, log = make_supervisor()
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, size=200)
        signal = (2 * y - 1) + rng.normal(scale=1.0, size=200)
        logits = np.column_stack([-signal, signal]) * 4.0
        scaler = TemperatureScaler()
        supervisor.guarded_calibration(scaler, logits, y)
        reference = TemperatureScaler().fit(logits, y)
        assert scaler.temperature_ == reference.temperature_
        assert scaler.converged_ is True
        assert log.kinds() == []


class TestGuardSelection:
    def make_context(self, probs, embeddings, k=4, seed=0):
        return SelectionContext(
            calibrated_probs=np.asarray(probs),
            raw_probs=np.asarray(probs),
            embeddings=np.asarray(embeddings),
            k=k,
            rng=np.random.default_rng(seed),
        )

    def healthy_inputs(self, n=12):
        rng = np.random.default_rng(1)
        p1 = rng.uniform(0.05, 0.95, size=n)
        probs = np.column_stack([1 - p1, p1])
        embeddings = rng.normal(size=(n, 6))
        embeddings /= np.linalg.norm(embeddings, axis=1, keepdims=True)
        return probs, embeddings

    def test_healthy_scoring_returns_none(self):
        probs, embeddings = self.healthy_inputs()
        supervisor, log = make_supervisor()
        assert supervisor.guard_selection(
            self.make_context(probs, embeddings), iteration=1
        ) is None
        assert log.kinds() == []

    def test_nan_probs_fall_back_to_pure_diversity(self):
        probs, embeddings = self.healthy_inputs()
        probs[0, 0] = np.nan
        supervisor, _ = make_supervisor()
        outcome = supervisor.guard_selection(
            self.make_context(probs, embeddings, k=4), iteration=1
        )
        chosen, diag = outcome
        assert diag == {"fallback": "pure_diversity"}
        assert len(chosen) == 4
        assert len(set(chosen.tolist())) == 4
        report = supervisor.report()
        assert report.alerts[0]["sentinel"] == "uncertainty_collapse"

    def test_constant_embeddings_fall_back_to_uncertainty(self):
        probs, embeddings = self.healthy_inputs()
        embeddings[:] = embeddings[0]  # zero diversity spread
        supervisor, _ = make_supervisor()
        chosen, diag = supervisor.guard_selection(
            self.make_context(probs, embeddings, k=3), iteration=2
        )
        assert diag == {"fallback": "uncertainty_only"}
        assert len(chosen) == 3
        assert supervisor.report().alerts[0]["sentinel"] == "diversity_collapse"

    def test_both_collapsed_fall_back_to_random(self):
        probs, embeddings = self.healthy_inputs()
        probs[:] = np.nan
        embeddings[:] = np.inf
        supervisor, _ = make_supervisor()
        chosen, diag = supervisor.guard_selection(
            self.make_context(probs, embeddings, k=5), iteration=1
        )
        assert diag == {"fallback": "random_selection"}
        assert len(chosen) == 5
        assert len(set(chosen.tolist())) == 5
        assert supervisor.report().alerts[0]["sentinel"] == "scoring_collapse"


class TestGuardedTraining:
    def make_classifier(self, iccad16_2_small):
        classifier = HotspotClassifier(
            input_shape=iccad16_2_small.tensors.shape[1:],
            arch="mlp", seed=0,
        )
        classifier.fit_scaler(iccad16_2_small.tensors)
        return classifier

    def test_nan_trace_rolls_back_and_retrains(self, iccad16_2_small):
        classifier = self.make_classifier(iccad16_2_small)
        x = iccad16_2_small.tensors[:40]
        y = iccad16_2_small.labels[:40]
        classifier.fit(x, y, epochs=3)
        lr_before = classifier.learning_rate
        supervisor, log = make_supervisor()
        calls = []

        def train_fn():
            trace = classifier.update(x, y, epochs=2)
            calls.append(1)
            return [float("nan")] if len(calls) == 1 else trace

        trace = supervisor.guarded_training(
            classifier, train_fn, stage="update", iteration=1
        )
        assert np.isfinite(trace).all()
        assert len(calls) == 2  # poisoned attempt + successful retry
        assert classifier.learning_rate == pytest.approx(lr_before * 0.5)
        report = supervisor.report()
        assert report.recoveries[0]["policy"] == "rollback_retrain"
        assert report.final_mode == "normal"
        assert log.kinds() == ["health_alert", "recovery_applied"]

    def test_persistent_divergence_freezes_model(self, iccad16_2_small):
        classifier = self.make_classifier(iccad16_2_small)
        x = iccad16_2_small.tensors[:40]
        y = iccad16_2_small.labels[:40]
        classifier.fit(x, y, epochs=3)
        frozen_weights = {
            k: np.array(v)
            for k, v in classifier.network.get_weights().items()
        }
        supervisor, _ = make_supervisor(max_train_retries=1)

        def always_diverges():
            classifier.update(x, y, epochs=1)
            return [float("inf")]

        supervisor.guarded_training(
            classifier, always_diverges, stage="update", iteration=1
        )
        report = supervisor.report()
        assert report.recoveries[-1]["policy"] == "freeze_model"
        assert report.final_mode == "degraded:training_frozen"
        # the model was restored to the pre-stage snapshot
        for key, value in classifier.network.get_weights().items():
            np.testing.assert_array_equal(value, frozen_weights[key])


def fast_config(**overrides):
    defaults = dict(
        n_query=60, k_batch=10, n_iterations=2, init_train=24,
        val_size=20, arch="mlp", epochs_initial=8, epochs_update=3,
        seed=0,
    )
    defaults.update(overrides)
    return FrameworkConfig(**defaults)


class TestBitIdentity:
    """The guard's core contract: supervision never perturbs a healthy
    run.  A guarded run must be bit-identical to an unguarded one."""

    def test_guarded_equals_unguarded(self, iccad16_2_small):
        guarded_fw = PSHDFramework(iccad16_2_small, fast_config())
        guarded = guarded_fw.run()
        unguarded_fw = PSHDFramework(
            iccad16_2_small, fast_config(guard=GuardConfig(enabled=False))
        )
        unguarded = unguarded_fw.run()

        assert guarded.accuracy == unguarded.accuracy
        assert guarded.litho == unguarded.litho
        assert guarded.history == unguarded.history
        for key, value in guarded_fw.classifier.network.get_weights().items():
            np.testing.assert_array_equal(
                value, unguarded_fw.classifier.network.get_weights()[key]
            )
        assert guarded.guard is not None
        assert guarded.guard["final_mode"] == "normal"
        assert guarded.guard["n_alerts"] == 0
        assert unguarded.guard is None

    def test_report_archived_next_to_checkpoints(
        self, iccad16_2_small, tmp_path
    ):
        cfg = fast_config(
            n_iterations=1, checkpoint_dir=str(tmp_path)
        )
        PSHDFramework(iccad16_2_small, cfg).run()
        report = json.loads((tmp_path / "guard_report.json").read_text())
        assert report["final_mode"] == "normal"
        assert report["enabled"] is True


class PoisonOnceClassifier(HotspotClassifier):
    """Reports a NaN loss trace on the first ``update`` call — the
    injected training divergence of the end-to-end recovery test."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.poisoned_updates = 0

    def update(self, x, y, epochs=None):
        trace = super().update(x, y, epochs=epochs)
        if self.poisoned_updates == 0:
            self.poisoned_updates += 1
            return [float("nan")]
        return trace


class TestEndToEndRecovery:
    """Inject three independent faults into one run: a NaN training
    loss, a failing temperature fit, and a litho budget overrun.  The
    run must complete without raising, emit all three event kinds, and
    the GuardReport must account for every fault."""

    def test_faulted_run_completes_degraded(
        self, iccad16_2_small, monkeypatch
    ):
        calls = {"n": 0}
        real_fit = TemperatureScaler.fit

        def flaky_fit(self, logits, labels, bounds=(0.05, 20.0)):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ValueError("injected calibration failure")
            return real_fit(self, logits, labels, bounds)

        monkeypatch.setattr(TemperatureScaler, "fit", flaky_fit)

        # seed charges 24 + 20 = 44 clips, each iteration 10 more:
        # iteration 1 reaches 54, iteration 2 would need 64 > 60
        cfg = fast_config(
            n_iterations=4, guard=GuardConfig(max_litho=60)
        )
        classifier = PoisonOnceClassifier(
            input_shape=iccad16_2_small.tensors.shape[1:],
            arch="mlp", lr=cfg.lr, seed=cfg.seed,
        )
        bus = EventBus()
        log = bus.subscribe(EventLog())
        result = PSHDFramework(
            iccad16_2_small, cfg, classifier=classifier, bus=bus
        ).run()

        # all three guard event kinds were emitted on the bus
        kinds = set(log.kinds())
        assert {"health_alert", "recovery_applied", "degraded_mode"} <= kinds
        # detection still ran, and the guard report trails it
        assert log.kinds()[-2:] == ["detection_done", "guard_report"]

        guard = result.guard
        assert guard is not None
        sentinels = {a["sentinel"] for a in guard["alerts"]}
        assert {"train_divergence", "calibration_failure",
                "litho_budget"} <= sentinels
        policies = {r["policy"] for r in guard["recoveries"]}
        assert {"rollback_retrain", "identity_temperature",
                "early_stop"} <= policies
        assert guard["final_mode"] == "degraded:budget_exhausted"

        # the budget was honoured: litho = train + val + false alarms,
        # and the meter itself never exceeded max_litho
        assert result.n_train + result.n_val <= 60
        assert result.litho == (
            result.n_train + result.n_val + result.false_alarms
        )
        # only iteration 1 committed a batch before the overrun
        assert result.n_train == 24 + 10
        assert 0.0 <= result.accuracy <= 1.0
