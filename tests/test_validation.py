"""Tests for the held-out validation subsystem and checkpoint-safe resume.

Covers the PR 4 surface: the deterministic `split_windows` helper, the
Trainer-level `validate_fn` (recorded in `TrainState.val_losses` and
checkpointed), validation-aware `EarlyStopping` / `Checkpoint.save_best`,
the persisted early-stopping best weights (the resume regression), the
`validation_fraction` knob on the detector and the baselines, and the
evaluation runner's recorded validation curve.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ImDiffusionConfig, ImDiffusionDetector
from repro.baselines import BeatGANDetector, LSTMADDetector, OmniAnomalyDetector
from repro.evaluation import evaluate_detector
from repro.nn import Adam, Linear, Tensor
from repro.nn import functional as F
from repro.nn.serialization import load_checkpoint
from repro.training import (
    Checkpoint,
    EarlyStopping,
    ParallelLossSpec,
    Trainer,
    WindowLoader,
    monitored_loss,
    split_windows,
)


def _series(length=220, num_channels=4, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    base = np.sin(2 * np.pi * t / 32)[:, None] * np.ones((1, num_channels))
    return base + 0.1 * rng.standard_normal((length, num_channels))


def _small_config(**overrides):
    defaults = dict(window_size=16, num_steps=6, epochs=3, hidden_dim=8,
                    num_blocks=1, num_heads=2, batch_size=4,
                    num_masked_windows=2, num_unmasked_windows=2,
                    max_train_windows=16, train_stride=8, seed=0)
    defaults.update(overrides)
    return ImDiffusionConfig(**defaults)


# ---------------------------------------------------------------------------
# split_windows
# ---------------------------------------------------------------------------
class TestSplitWindows:
    def test_split_is_deterministic(self):
        data = np.arange(40, dtype=np.float64).reshape(20, 2)
        first = split_windows((data,), 0.25, np.random.default_rng(7))
        second = split_windows((data,), 0.25, np.random.default_rng(7))
        np.testing.assert_array_equal(first[0][0], second[0][0])
        np.testing.assert_array_equal(first[1][0], second[1][0])

    def test_sides_partition_the_samples(self):
        data = np.arange(20, dtype=np.float64)[:, None]
        (train,), (val,) = split_windows((data,), 0.25, np.random.default_rng(0))
        assert train.shape[0] == 15 and val.shape[0] == 5
        merged = sorted(np.concatenate([train, val]).ravel().tolist())
        assert merged == list(range(20))

    def test_fraction_zero_draws_nothing_from_the_rng(self):
        rng = np.random.default_rng(3)
        untouched = np.random.default_rng(3)
        (train,), val = split_windows((np.zeros((10, 2)),), 0.0, rng)
        assert val is None and train.shape == (10, 2)
        # The stream was not consumed: the next draw matches a fresh generator.
        assert rng.integers(0, 1 << 30) == untouched.integers(0, 1 << 30)

    def test_aligned_arrays_stay_aligned(self):
        inputs = np.arange(30, dtype=np.float64).reshape(10, 3)
        targets = np.arange(10, dtype=np.float64)
        (tr_in, tr_t), (va_in, va_t) = split_windows(
            (inputs, targets), 0.3, np.random.default_rng(0))
        np.testing.assert_array_equal(tr_in[:, 0] / 3, tr_t)
        np.testing.assert_array_equal(va_in[:, 0] / 3, va_t)

    def test_clamping_keeps_both_sides_non_empty(self):
        data = np.zeros((3, 1))
        (train,), (val,) = split_windows((data,), 0.9, np.random.default_rng(0))
        assert val.shape[0] == 2 and train.shape[0] == 1
        (train,), (val,) = split_windows((data,), 0.01, np.random.default_rng(0))
        assert val.shape[0] == 1 and train.shape[0] == 2

    def test_single_sample_is_never_split(self):
        (train,), val = split_windows((np.zeros((1, 2)),), 0.5,
                                      np.random.default_rng(0))
        assert val is None and train.shape[0] == 1

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            split_windows((np.zeros((4, 1)),), 1.0, rng)
        with pytest.raises(ValueError):
            split_windows((np.zeros((4, 1)),), -0.1, rng)
        with pytest.raises(ValueError):
            split_windows((np.zeros((4, 1)), np.zeros(3)), 0.2, rng)
        with pytest.raises(ValueError):
            split_windows((), 0.2, rng)
        with pytest.raises(ValueError, match="split"):
            split_windows((np.zeros((4, 1)),), 0.2, rng, split="head")


class TestTailSplit:
    def test_tail_holds_out_the_last_samples(self):
        data = np.arange(20, dtype=np.float64)[:, None]
        (train,), (val,) = split_windows((data,), 0.25,
                                         np.random.default_rng(0), split="tail")
        np.testing.assert_array_equal(train.ravel(), np.arange(15))
        np.testing.assert_array_equal(val.ravel(), np.arange(15, 20))

    def test_tail_split_never_consumes_the_rng(self):
        rng = np.random.default_rng(3)
        untouched = np.random.default_rng(3)
        split_windows((np.zeros((10, 2)),), 0.3, rng, split="tail")
        assert rng.integers(0, 1 << 30) == untouched.integers(0, 1 << 30)

    def test_tail_split_accepts_rngless_calls(self):
        # No randomness is needed, so None is a valid generator.
        (train,), (val,) = split_windows((np.arange(10.0),), 0.2, None,
                                         split="tail")
        assert train.shape[0] == 8 and val.shape[0] == 2

    def test_detector_tail_validation_uses_the_latest_windows(self):
        # With a tail split and no max_train_windows subsampling, training on
        # a series whose tail is shifted must change the val curve but the
        # shared prefix keeps the same training stream length.
        series = _series(length=220)
        config = _small_config(validation_fraction=0.25,
                               validation_split="tail",
                               max_train_windows=None)
        detector = ImDiffusionDetector(config)
        detector.fit(series)
        assert len(detector.val_losses) == config.epochs
        assert all(np.isfinite(loss) for loss in detector.val_losses)

    def test_config_rejects_bad_split(self):
        with pytest.raises(ValueError, match="validation_split"):
            _small_config(validation_split="head")

    def test_tail_split_survives_max_train_windows_subsampling(self, monkeypatch):
        # rng.choice returns an unsorted subset; under a tail split the
        # detector must restore time order before splitting, or "the last
        # windows" would be a random subset instead of the series tail.
        import repro.core.detector as detector_module

        captured = {}
        real_split = detector_module.split_windows

        def spy(arrays, fraction, rng, split="random"):
            captured["windows"] = arrays[0]
            return real_split(arrays, fraction, rng, split=split)

        monkeypatch.setattr(detector_module, "split_windows", spy)
        # Strictly increasing series: window start values encode time order.
        series = np.arange(220, dtype=np.float64)[:, None] * np.ones((1, 2))
        series += 0.01 * np.random.default_rng(0).standard_normal(series.shape)
        config = _small_config(validation_fraction=0.25,
                               validation_split="tail", max_train_windows=8)
        ImDiffusionDetector(config).fit(series)
        firsts = captured["windows"][:, 0, 0]
        assert np.all(np.diff(firsts) > 0)

    def test_baseline_subsample_is_time_ordered_under_tail(self):
        random_order = LSTMADDetector(seed=0)._subsample_indices(100, 10)
        tail_order = LSTMADDetector(seed=0, validation_split="tail") \
            ._subsample_indices(100, 10)
        # Same single draw off the same seed; the tail variant sorts it.
        np.testing.assert_array_equal(np.sort(random_order), tail_order)
        assert np.all(np.diff(tail_order) > 0)


# ---------------------------------------------------------------------------
# Trainer.validate_fn
# ---------------------------------------------------------------------------
class _LinearMSE(ParallelLossSpec):
    """Mean-squared error of a linear model over ``(inputs, targets)`` batches."""

    def __init__(self, model):
        self.model = model

    def build(self):
        return self.model.parameters()

    def compute(self, batch, payload, state):
        batch_inputs, batch_targets = batch
        return F.mse_loss(self.model(Tensor(batch_inputs)), Tensor(batch_targets))


def _toy_trainer(seed=0, lr=0.05, callbacks=(), validate_fn=None, noise=0.0):
    rng = np.random.default_rng(seed)
    model = Linear(3, 1, rng=rng)
    inputs = rng.standard_normal((64, 3))
    targets = inputs @ np.array([[1.0], [-2.0], [0.5]])
    if noise:
        targets = targets + noise * rng.standard_normal(targets.shape)
    loader = WindowLoader(inputs, targets, batch_size=16, rng=rng)
    optimizer = Adam(model.parameters(), lr=lr)
    trainer = Trainer(model.parameters(), optimizer, _LinearMSE(model),
                      callbacks=list(callbacks), rng=rng, validate_fn=validate_fn)
    return trainer, loader, model


class TestTrainerValidation:
    def test_val_losses_recorded_per_epoch(self):
        values = iter([4.0, 3.0, 2.0, 1.0])
        trainer, loader, _ = _toy_trainer(validate_fn=lambda t, s: next(values))
        result = trainer.fit(loader, epochs=4)
        assert result.val_losses == [4.0, 3.0, 2.0, 1.0]
        assert trainer.state.val_losses == result.val_losses
        assert result.final_val_loss == 1.0

    def test_val_losses_round_trip_through_checkpoint(self):
        values = iter([4.0, 3.0])
        trainer, loader, _ = _toy_trainer(validate_fn=lambda t, s: next(values))
        trainer.fit(loader, epochs=2)
        arrays, metadata = trainer.state_dict()
        assert metadata["val_losses"] == [4.0, 3.0]

        restored, _, _ = _toy_trainer()
        restored.load_state_dict(arrays, metadata)
        assert restored.state.val_losses == [4.0, 3.0]

    def test_early_stopping_monitors_val_loss_when_present(self):
        # Train loss keeps improving; the held-out loss plateaus immediately,
        # so a validation-aware stopper must fire at its patience.
        trainer, loader, _ = _toy_trainer(
            validate_fn=lambda t, s: 1.0,
            callbacks=[EarlyStopping(patience=2, restore_best=False)])
        result = trainer.fit(loader, epochs=30)
        assert result.stopped_early
        assert result.epochs_run == 3  # val best at epoch 0, then 2 misses
        assert result.epoch_losses[-1] < result.epoch_losses[0]  # train improved

    def test_monitored_loss_prefers_val(self):
        trainer, loader, _ = _toy_trainer(validate_fn=lambda t, s: 7.5)
        trainer.fit(loader, epochs=1)
        assert monitored_loss(trainer.state) == 7.5
        plain, plain_loader, _ = _toy_trainer()
        plain.fit(plain_loader, epochs=1)
        assert monitored_loss(plain.state) == plain.state.epoch_losses[-1]


# ---------------------------------------------------------------------------
# Checkpoint: monitored save_best + persisted last_saved_epoch
# ---------------------------------------------------------------------------
class TestCheckpointValidationAware:
    def test_save_best_follows_the_monitored_val_loss(self, tmp_path):
        # Held-out curve dips at epoch 2 while the train loss decreases
        # monotonically: the best snapshot must be the val-best epoch.
        path = str(tmp_path / "ck.npz")
        values = iter([3.0, 1.0, 2.0, 2.5])
        checkpoint = Checkpoint(path, save_best=True)
        trainer, loader, _ = _toy_trainer(
            validate_fn=lambda t, s: next(values), callbacks=[checkpoint])
        trainer.fit(loader, epochs=4)
        _, best_metadata = load_checkpoint(checkpoint.best_path)
        assert best_metadata["epoch"] == 2
        assert checkpoint.best_value == 1.0

    def test_last_saved_epoch_round_trips(self, tmp_path):
        path = str(tmp_path / "ck.npz")
        checkpoint = Checkpoint(path, every=2)
        trainer, loader, _ = _toy_trainer(callbacks=[checkpoint])
        trainer.fit(loader, epochs=3)
        assert checkpoint.last_saved_epoch == 3  # final on_train_end save
        state = checkpoint.state_dict()
        assert state["last_saved_epoch"] == 3

        fresh = Checkpoint(path, every=2)
        fresh.load_state_dict(state)
        assert fresh.last_saved_epoch == 3
        assert fresh.best_value == checkpoint.best_value

    def test_extra_metadata_is_written_and_collision_checked(self, tmp_path):
        path = str(tmp_path / "ck.npz")
        checkpoint = Checkpoint(path, extra_metadata={"cli_run": {"seed": 3}})
        trainer, loader, _ = _toy_trainer(callbacks=[checkpoint])
        trainer.fit(loader, epochs=1)
        _, metadata = load_checkpoint(path)
        assert metadata["cli_run"] == {"seed": 3}

        clashing = Checkpoint(path, extra_metadata={"epoch": 0})
        trainer2, loader2, _ = _toy_trainer(callbacks=[clashing])
        with pytest.raises(ValueError):
            trainer2.fit(loader2, epochs=1)


# ---------------------------------------------------------------------------
# EarlyStopping best weights survive a checkpoint/resume boundary
# ---------------------------------------------------------------------------
class TestBestWeightResume:
    def _make(self, path, patience=3):
        stopper = EarlyStopping(patience=patience, min_delta=1e9,
                                restore_best=True)
        trainer, loader, model = _toy_trainer(
            callbacks=[stopper, Checkpoint(path)])
        return trainer, loader, model, stopper

    def test_best_weights_restored_after_resume(self, tmp_path):
        path = str(tmp_path / "ck.npz")
        # min_delta is huge, so epoch 0 stays the best epoch forever.
        # Interrupt after epoch 2 — *after* the best epoch — and resume.
        trainer, loader, _, _ = self._make(path)
        trainer.fit(loader, epochs=2)

        # The epoch-0 weights the stopper should hand back at train end.
        reference, reference_loader, reference_model = _toy_trainer()
        reference.fit(reference_loader, epochs=1)

        resumed, resumed_loader, resumed_model, stopper = self._make(path)
        arrays, metadata = load_checkpoint(path)
        resumed.load_state_dict(arrays, metadata)
        assert stopper._best_params is not None  # survived the round trip
        result = resumed.fit(resumed_loader, epochs=30)

        # The resumed run never improves again: without persisted best
        # weights it would finish with last-epoch parameters.
        assert result.stopped_early
        for p, q in zip(resumed_model.parameters(), reference_model.parameters()):
            np.testing.assert_array_equal(p.data, q.data)

    def test_best_weight_arrays_live_in_the_snapshot(self, tmp_path):
        path = str(tmp_path / "ck.npz")
        trainer, loader, model, _ = self._make(path)
        trainer.fit(loader, epochs=2)
        arrays, _ = load_checkpoint(path)
        best_keys = [key for key in arrays if key.startswith("callback.0.best.")]
        assert len(best_keys) == len(model.parameters())

    def test_stateless_resume_clears_stale_best(self):
        stopper = EarlyStopping(patience=2, restore_best=True)
        stopper._best_params = [np.ones(3)]
        stopper.load_state_arrays({})
        assert stopper._best_params is None


# ---------------------------------------------------------------------------
# Detector-level validation_fraction
# ---------------------------------------------------------------------------
class TestDetectorValidation:
    def test_early_stops_on_held_out_loss(self):
        series = _series()
        config = _small_config(epochs=10, validation_fraction=0.25,
                               early_stopping_patience=1,
                               early_stopping_min_delta=1e9)
        detector = ImDiffusionDetector(config).fit(series)
        result = detector.last_train_result
        assert result.stopped_early
        assert result.epochs_run == 2
        assert len(detector.val_losses) == 2
        assert detector.val_losses == result.val_losses

    def test_val_curve_is_deterministic(self):
        series = _series()
        config = _small_config(validation_fraction=0.25)
        first = ImDiffusionDetector(config).fit(series)
        second = ImDiffusionDetector(_small_config(validation_fraction=0.25)).fit(series)
        assert first.val_losses == second.val_losses
        assert len(first.val_losses) == config.epochs
        assert all(np.isfinite(v) for v in first.val_losses)

    def test_val_losses_round_trip_detector_checkpoint(self):
        series = _series()
        detector = ImDiffusionDetector(
            _small_config(validation_fraction=0.25)).fit(series)
        arrays, metadata = detector.to_checkpoint()
        restored = ImDiffusionDetector.from_checkpoint(arrays, metadata)
        assert restored.val_losses == detector.val_losses

    def test_config_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            _small_config(validation_fraction=1.0)
        with pytest.raises(ValueError):
            _small_config(validation_fraction=-0.2)

    def test_fraction_zero_keeps_bit_identity(self):
        # The validation code path must not perturb the random stream of a
        # validation-free run (the PR 3 legacy bit-identity guarantee).
        series = _series()
        with_knob = ImDiffusionDetector(_small_config(validation_fraction=0.0)).fit(series)
        without = ImDiffusionDetector(_small_config()).fit(series)
        for p, q in zip(with_knob.model.parameters(), without.model.parameters()):
            np.testing.assert_array_equal(p.data, q.data)


# ---------------------------------------------------------------------------
# Baselines: constructor forwarding + val-loss early stop
# ---------------------------------------------------------------------------
class TestBaselineValidation:
    def test_lstm_ad_early_stops_on_val_loss(self):
        series = _series(length=160)
        detector = LSTMADDetector(history=8, hidden_size=12, epochs=10,
                                  max_train_samples=96, seed=0,
                                  early_stopping_patience=1,
                                  early_stopping_min_delta=1e9,
                                  validation_fraction=0.25)
        detector.fit(series)
        result = detector.last_train_result
        assert result.stopped_early and result.epochs_run == 2
        assert len(detector.val_losses) == 2

    def test_beatgan_early_stops_on_val_loss(self):
        # GAN baseline: validation uses the side-effect-free generator loss.
        series = _series(length=160)
        detector = BeatGANDetector(window_size=16, hidden_dim=16, epochs=10,
                                   max_train_windows=32, seed=0,
                                   early_stopping_patience=1,
                                   early_stopping_min_delta=1e9,
                                   validation_fraction=0.25)
        detector.fit(series)
        result = detector.last_train_result
        assert result.stopped_early and result.epochs_run == 2
        assert len(detector.val_losses) == 2

    def test_omni_anomaly_val_curve_uses_dedicated_rng(self):
        # The VAE's reparameterisation draws from the validation generator,
        # so two fits produce identical held-out curves.
        series = _series(length=160)

        def make():
            return OmniAnomalyDetector(window_size=16, hidden_size=12, epochs=2,
                                       max_train_windows=32, seed=0,
                                       validation_fraction=0.25)

        first = make().fit(series)
        second = make().fit(series)
        assert first.val_losses == second.val_losses
        assert len(first.val_losses) == 2

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            LSTMADDetector(validation_fraction=1.5)
        with pytest.raises(ValueError):
            LSTMADDetector(early_stopping_patience=0)


# ---------------------------------------------------------------------------
# Evaluation runner records the validation curve
# ---------------------------------------------------------------------------
class TestRunnerRecordsValCurve:
    def test_evaluate_detector_records_val_losses(self):
        from repro.data import load_dataset

        dataset = load_dataset("GCP", seed=0, scale=0.06)
        summary = evaluate_detector(
            lambda seed: ImDiffusionDetector(_small_config(
                epochs=2, validation_fraction=0.25, seed=seed)),
            dataset, num_runs=1, detector_name="ImDiffusion")
        run = summary.runs[0]
        assert len(run.val_losses) == 2
        assert run.final_val_loss == run.val_losses[-1]
        assert run.train_epochs == 2

    def test_evaluate_detector_applies_validation_overrides(self):
        from repro.data import load_dataset

        dataset = load_dataset("GCP", seed=0, scale=0.06)
        # The factory itself trains without validation; the runner override
        # switches every run to a 25% tail split.
        summary = evaluate_detector(
            lambda seed: ImDiffusionDetector(_small_config(epochs=2, seed=seed)),
            dataset, num_runs=1, detector_name="ImDiffusion",
            validation_fraction=0.25, validation_split="tail")
        assert len(summary.runs[0].val_losses) == 2

    def test_evaluate_detector_overrides_apply_to_baselines(self):
        from repro.data import load_dataset

        dataset = load_dataset("GCP", seed=0, scale=0.06)
        summary = evaluate_detector(
            lambda seed: LSTMADDetector(history=6, hidden_size=8, epochs=2,
                                        max_train_samples=48, seed=seed),
            dataset, num_runs=1, detector_name="LSTM-AD",
            validation_fraction=0.25)
        assert len(summary.runs[0].val_losses) == 2

    def test_evaluate_detector_rejects_bad_fraction(self):
        from repro.data import load_dataset

        dataset = load_dataset("GCP", seed=0, scale=0.06)
        with pytest.raises(ValueError, match="validation_fraction"):
            evaluate_detector(
                lambda seed: ImDiffusionDetector(_small_config(seed=seed)),
                dataset, num_runs=1, validation_fraction=1.5)
