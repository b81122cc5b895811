"""Common scaffolding shared by the baseline anomaly detectors.

Every baseline in this package follows the same protocol as
:class:`repro.core.ImDiffusionDetector`:

* ``fit(train)`` learns from a (mostly normal) training series,
* ``score(test)`` produces one continuous anomaly score per test timestamp,
* ``predict(test)`` thresholds the scores (upper percentile by default, POT
  for the detectors whose original papers use it) and returns a
  :class:`BaselineResult` exposing ``labels`` and ``scores`` so the
  evaluation runner treats every detector identically.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.thresholding import apply_threshold, percentile_threshold, pot_threshold
from ..data.preprocessing import StandardScaler
from ..data.windows import overlap_average, sliding_windows
from ..nn import Adam, no_grad
from ..training import (
    VALIDATION_SEED_OFFSET,
    VALIDATION_SPLITS,
    AdversarialMethodLossSpec,
    EarlyStopping,
    MethodLossSpec,
    ParallelLossSpec,
    Trainer,
    TrainResult,
    WindowLoader,
    split_windows,
)

__all__ = ["BaselineResult", "BaseDetector"]


@dataclass
class BaselineResult:
    """Prediction of a baseline detector: binary labels plus raw scores."""

    labels: np.ndarray
    scores: np.ndarray


class BaseDetector(ABC):
    """Abstract base class for the ten baseline detectors.

    Parameters
    ----------
    threshold_percentile:
        Upper percentile of the test scores used as the anomaly threshold.
    use_pot:
        Use the Peaks-Over-Threshold estimator instead of a fixed percentile
        (OmniAnomaly's protocol).
    seed:
        Seed of the detector's private random generator.
    early_stopping_patience / early_stopping_min_delta:
        Stop training after ``patience`` non-improving epochs (``None``
        disables).  The monitored loss is the held-out validation loss when
        ``validation_fraction > 0``, the train loss otherwise.
    validation_fraction:
        Fraction of the training samples held out of gradient descent and
        scored grad-free at every epoch end (0 disables; the random stream
        then matches the legacy loops bit for bit).
    validation_split:
        ``"random"`` (deterministic permutation) or ``"tail"`` (hold out the
        last samples — closest to production drift monitoring, consumes no
        randomness).
    num_workers:
        Data-parallel training: shard every batch across this many spawned
        gradient workers and average their gradients before the single
        optimizer step.  1 (the default) trains in-process.
    """

    name: str = "Base"

    #: Whether EarlyStopping may roll the trained parameters back to the best
    #: epoch.  Adversarial detectors set this False: only the generator's
    #: parameters are the Trainer's, so restoring them would desynchronise
    #: the generator from the discriminator (which the spec's adversary
    #: step keeps updating).
    _restore_best_weights: bool = True

    #: Declarative capability flag.  A class sets this True when its
    #: training loss is factored as a :class:`ParallelLossSpec` (picklable
    #: methods, parent-side randomness); training is rejected otherwise
    #: with :attr:`parallel_unsupported_reason`.
    supports_parallel: bool = False

    #: The class-specific reason shown when training is rejected.
    parallel_unsupported_reason: str = \
        "its training loss is not factored as a ParallelLossSpec"

    #: Name of the picklable loss *method* every fit trains through.
    #: Takes ``(batch, state)``, or ``(batch, payload, state)`` when a
    #: ``_parallel_draw_method`` is set.
    _parallel_loss_method: Optional[str] = None

    #: Name of the method pre-drawing the loss's randomness in the parent:
    #: ``(batch, rng, state) -> tuple of arrays`` whose leading dimension
    #: indexes batch samples (so the payload shards alongside the batch).
    _parallel_draw_method: Optional[str] = None

    #: Name of the adversary (discriminator) loss method of GAN-style
    #: detectors, ``(batch, payload, state)``.  When set, the spec also uses
    #: ``_adversary_parameters()`` and the ``_discriminator_opt`` attribute
    #: for the parent-side adversary step.
    _adversary_loss_method: Optional[str] = None

    def __init__(self, threshold_percentile: float = 97.0, use_pot: bool = False,
                 seed: int = 0,
                 early_stopping_patience: Optional[int] = None,
                 early_stopping_min_delta: float = 0.0,
                 validation_fraction: float = 0.0,
                 validation_split: str = "random",
                 num_workers: int = 1) -> None:
        if not 0.0 <= validation_fraction < 1.0:
            raise ValueError("validation_fraction must lie in [0, 1)")
        if validation_split not in VALIDATION_SPLITS:
            raise ValueError(f"validation_split must be one of {VALIDATION_SPLITS}")
        if early_stopping_patience is not None and early_stopping_patience < 1:
            raise ValueError("early_stopping_patience must be at least 1")
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        self.threshold_percentile = threshold_percentile
        self.use_pot = use_pot
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.scaler = StandardScaler()
        self._num_features: Optional[int] = None
        self.early_stopping_patience = early_stopping_patience
        self.early_stopping_min_delta = early_stopping_min_delta
        self.validation_fraction = validation_fraction
        self.validation_split = validation_split
        self.num_workers = num_workers
        self.train_losses: List[float] = []
        self.val_losses: List[float] = []
        self.last_train_result: Optional[TrainResult] = None

    # ------------------------------------------------------------------
    @abstractmethod
    def _fit(self, train: np.ndarray) -> None:
        """Detector-specific training on the scaled series."""

    @abstractmethod
    def _score(self, test: np.ndarray) -> np.ndarray:
        """Detector-specific scoring of the scaled series (one score per timestamp)."""

    # ------------------------------------------------------------------
    def fit(self, train: np.ndarray) -> "BaseDetector":
        train = self._validate(train, fitting=True)
        scaled = self.scaler.fit_transform(train)
        self._fit(scaled)
        return self

    def score(self, test: np.ndarray) -> np.ndarray:
        test = self._validate(test, fitting=False)
        scaled = self.scaler.transform(test)
        scores = np.asarray(self._score(scaled), dtype=np.float64)
        if scores.shape != (test.shape[0],):
            raise RuntimeError(
                f"{self.name}: _score returned shape {scores.shape}, expected ({test.shape[0]},)"
            )
        return scores

    def predict(self, test: np.ndarray) -> BaselineResult:
        scores = self.score(test)
        if self.use_pot:
            threshold = pot_threshold(scores)
        else:
            threshold = percentile_threshold(scores, self.threshold_percentile)
        return BaselineResult(labels=apply_threshold(scores, threshold), scores=scores)

    def fit_predict(self, train: np.ndarray, test: np.ndarray) -> BaselineResult:
        return self.fit(train).predict(test)

    # ------------------------------------------------------------------
    def _validate(self, data: np.ndarray, fitting: bool) -> np.ndarray:
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError("expected a 2-D array of shape (time, features)")
        if fitting:
            self._num_features = data.shape[1]
        elif self._num_features is None:
            raise RuntimeError(f"{self.name} must be fitted before scoring")
        elif data.shape[1] != self._num_features:
            raise ValueError(
                f"{self.name} was fitted on {self._num_features} features, got {data.shape[1]}"
            )
        return data

    # ------------------------------------------------------------------
    # Shared training engine hook
    # ------------------------------------------------------------------
    def _run_trainer(self, arrays: Sequence[np.ndarray], *, epochs: int,
                     batch_size: int, learning_rate: float) -> TrainResult:
        """Train :meth:`_trainer_parameters` through :meth:`_parallel_spec`.

        Every baseline funnels its epoch loop through here: ``arrays`` are
        the aligned sample arrays (windows, or histories + targets) batched
        by a vectorized :class:`~repro.training.WindowLoader` driven by the
        detector's own ``rng``, and the detector's loss spec computes each
        batch loss — in-process at ``num_workers=1``, sharded across spawned
        gradient workers above it.  The detector-level
        ``early_stopping_patience`` plugs in an
        :class:`~repro.training.EarlyStopping` callback; the resulting loss
        curve lands in ``self.train_losses``.

        With ``validation_fraction > 0`` the arrays are deterministically
        split first and the held-out part is scored grad-free at every epoch
        end (curve in ``self.val_losses``); early stopping then monitors the
        held-out loss.
        """
        spec = self._parallel_spec()
        if spec is None:
            raise ValueError(f"{self.name} cannot be trained: "
                             f"{self.parallel_unsupported_reason}")
        arrays, val_arrays = split_windows(
            tuple(arrays), self.validation_fraction, self.rng,
            split=self.validation_split)
        loader = WindowLoader(*arrays, batch_size=batch_size, rng=self.rng)
        validate_fn = None
        if val_arrays is not None:
            validate_fn = self._make_validate_fn(val_arrays, batch_size, spec)
        parameters = self._trainer_parameters()
        callbacks = []
        if self.early_stopping_patience is not None:
            callbacks.append(EarlyStopping(
                patience=self.early_stopping_patience,
                min_delta=self.early_stopping_min_delta,
                restore_best=self._restore_best_weights,
            ))
        trainer = Trainer(parameters, Adam(parameters, lr=learning_rate), spec,
                          num_workers=self.num_workers, grad_clip=5.0,
                          callbacks=callbacks, rng=self.rng,
                          validate_fn=validate_fn)
        result = trainer.fit(loader, epochs=epochs)
        self.train_losses = list(result.epoch_losses)
        self.val_losses = list(result.val_losses)
        self.last_train_result = result
        return result

    def _parallel_spec(self) -> Optional[MethodLossSpec]:
        """The training loss spec of this detector, or ``None``.

        Detectors opt in by setting :attr:`supports_parallel` and exposing
        their loss as a picklable *method* (named by
        ``_parallel_loss_method``) plus :meth:`_trainer_parameters`; with
        more than one worker the spec ships the whole detector to each
        spawned worker once, and every batch is computed shard-wise with
        shard-size weighting (exact for the per-sample mean losses the
        baselines use).  Stochastic losses name a ``_parallel_draw_method``
        so their randomness is drawn in the parent; GAN-style detectors name
        an ``_adversary_loss_method`` so the discriminator updates through
        the adversary-gradient reduction.
        """
        if not self.supports_parallel or self._parallel_loss_method is None:
            return None
        if self._adversary_loss_method is not None:
            return AdversarialMethodLossSpec(
                self, self._parallel_loss_method, self._adversary_loss_method,
                draw_method=self._parallel_draw_method)
        return MethodLossSpec(self, self._parallel_loss_method,
                              "_trainer_parameters",
                              draw_method=self._parallel_draw_method)

    def _trainer_parameters(self) -> List:
        """The trainable parameters :meth:`_run_trainer` optimizes.

        Trainable baselines override this; worker replicas rebuild their
        parameter list through it, so the order must match the parent's
        exactly.
        """
        raise NotImplementedError(
            f"{self.name} must implement _trainer_parameters to be trained"
        )

    def _make_validate_fn(self, val_arrays: Sequence[np.ndarray],
                          batch_size: int, spec: ParallelLossSpec) -> Callable:
        """Grad-free held-out pass of :meth:`_validation_loss` over ``val_arrays``.

        Each pass draws the spec's randomness from a generator re-seeded
        with ``seed + VALIDATION_SEED_OFFSET``, so stochastic losses (the
        VAE reparameterisations, the GAN latent draws) see identical
        randomness at every epoch — comparable values — without consuming
        the training stream.
        """
        val_loader = WindowLoader(*val_arrays, batch_size=batch_size, shuffle=False)

        def validate(trainer, state) -> float:
            val_rng = np.random.default_rng(self.seed + VALIDATION_SEED_OFFSET)
            total, count = 0.0, 0
            with no_grad():
                for batch in val_loader:
                    payload = spec.draw(batch, val_rng, state)
                    loss = self._validation_loss(spec, batch, payload, state)
                    total += float(loss.data) * batch.size
                    count += batch.size
            return total / max(count, 1)

        return validate

    def _validation_loss(self, spec: ParallelLossSpec, batch, payload, state):
        """Held-out loss of one batch: the spec's training loss by default.

        ``spec.compute`` has no side effects — a GAN's discriminator step is
        the spec's separate adversary hook — so it is safe on held-out data.
        """
        return spec.compute(batch, payload, state)

    # ------------------------------------------------------------------
    # Helpers shared by the window-based baselines
    # ------------------------------------------------------------------
    def _subsample_indices(self, num_samples: int, max_samples: int) -> np.ndarray:
        """Random subset of sample indices, time-ordered under a tail split.

        Draws exactly one ``rng.choice`` (the legacy subsampling draw).  For
        random validation splits the subset keeps the drawn (shuffled) order,
        preserving bit-identity with the legacy loops; a tail split sorts it
        so "the last samples" are genuinely the most recent ones.
        """
        indices = self.rng.choice(num_samples, size=max_samples, replace=False)
        if self.validation_split == "tail":
            indices = np.sort(indices)
        return indices

    def _windows(self, series: np.ndarray, window_size: int, stride: int) -> Tuple[np.ndarray, np.ndarray]:
        window_size = min(window_size, series.shape[0])
        return sliding_windows(series, window_size, stride)

    @staticmethod
    def _merge_window_scores(window_scores: np.ndarray, starts: np.ndarray,
                             length: int) -> np.ndarray:
        """Average overlapping per-window, per-timestamp scores back to a series."""
        return overlap_average(window_scores, starts, length)
