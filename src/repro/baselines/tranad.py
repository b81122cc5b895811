"""TranAD (Tuli et al., 2022): transformer reconstruction with adversarial self-conditioning.

TranAD encodes a window with a transformer and decodes it twice: a first pass
produces a reconstruction and its error ("focus score"), which conditions a
second adversarially-trained pass.  The anomaly score blends the two
reconstruction errors.  This implementation keeps the two-phase
self-conditioned reconstruction and the blended score.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import Linear, Tensor, TransformerEncoder
from ..nn import functional as F
from .base import BaseDetector

__all__ = ["TranADDetector"]


class TranADDetector(BaseDetector):
    """Two-phase transformer reconstruction detector."""

    name = "TranAD"
    supports_parallel = True
    _parallel_loss_method = "_two_phase_loss"

    def __init__(self, window_size: int = 24, hidden_size: int = 32, num_layers: int = 1,
                 num_heads: int = 2, epochs: int = 4, batch_size: int = 8,
                 learning_rate: float = 2e-3, blend: float = 0.5,
                 max_train_windows: int = 96, threshold_percentile: float = 97.0,
                 seed: int = 0, early_stopping_patience: Optional[int] = None,
                 early_stopping_min_delta: float = 0.0,
                 validation_fraction: float = 0.0,
                 validation_split: str = "random",
                 num_workers: int = 1) -> None:
        super().__init__(threshold_percentile=threshold_percentile, seed=seed,
                         early_stopping_patience=early_stopping_patience,
                         early_stopping_min_delta=early_stopping_min_delta,
                         validation_fraction=validation_fraction,
                         validation_split=validation_split,
                         num_workers=num_workers)
        self.window_size = window_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.num_heads = num_heads
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.blend = blend
        self.max_train_windows = max_train_windows
        self._input_proj: Optional[Linear] = None
        self._focus_proj: Optional[Linear] = None
        self._encoder: Optional[TransformerEncoder] = None
        self._decoder1: Optional[Linear] = None
        self._decoder2: Optional[Linear] = None
        self._window_size = window_size

    # ------------------------------------------------------------------
    def _two_phase(self, batch: np.ndarray):
        """Return the phase-1 and phase-2 reconstructions of ``batch``."""
        x = Tensor(batch)
        zero_focus = Tensor(np.zeros_like(batch))
        phase1_in = self._input_proj(x) + self._focus_proj(zero_focus)
        phase1 = self._decoder1(self._encoder(phase1_in))

        focus = (phase1 - x) * (phase1 - x)
        phase2_in = self._input_proj(x) + self._focus_proj(focus.detach())
        phase2 = self._decoder2(self._encoder(phase2_in))
        return phase1, phase2

    def _fit(self, train: np.ndarray) -> None:
        num_features = train.shape[1]
        self._window_size = min(self.window_size, train.shape[0])
        self._input_proj = Linear(num_features, self.hidden_size, rng=self.rng)
        self._focus_proj = Linear(num_features, self.hidden_size, rng=self.rng)
        self._encoder = TransformerEncoder(self.hidden_size, self.num_heads,
                                           num_layers=self.num_layers, rng=self.rng)
        self._decoder1 = Linear(self.hidden_size, num_features, rng=self.rng)
        self._decoder2 = Linear(self.hidden_size, num_features, rng=self.rng)

        windows, _ = self._windows(train, self._window_size, self._window_size // 2 or 1)
        if windows.shape[0] > self.max_train_windows:
            idx = self._subsample_indices(windows.shape[0], self.max_train_windows)
            windows = windows[idx]

        self._run_trainer((windows,),
                          epochs=self.epochs, batch_size=self.batch_size,
                          learning_rate=self.learning_rate)

    def _trainer_parameters(self):
        return (self._input_proj.parameters() + self._focus_proj.parameters()
                + self._encoder.parameters() + self._decoder1.parameters()
                + self._decoder2.parameters())

    def _two_phase_loss(self, batch, state):
        # A method (not a closure) so data-parallel workers can rebuild it
        # from a pickled replica of the detector.  The adversarial schedule
        # of TranAD: phase-2 weight grows with epochs (shipped to workers
        # through the slim TrainState).
        phase2_weight = 1.0 - 1.0 / (state.epoch + 1)
        phase1, phase2 = self._two_phase(batch.data)
        target = Tensor(batch.data)
        return (1.0 - phase2_weight) * F.mse_loss(phase1, target) \
            + phase2_weight * F.mse_loss(phase2, target)

    def _validation_loss(self, spec, batch, payload, state):
        # Fixed ``blend`` weighting (the scoring-time combination): the
        # training schedule's moving phase-2 weight would make the
        # held-out curve drift epoch over epoch even at constant model
        # quality, confounding early stopping.
        phase1, phase2 = self._two_phase(batch.data)
        target = Tensor(batch.data)
        return (1.0 - self.blend) * F.mse_loss(phase1, target) \
            + self.blend * F.mse_loss(phase2, target)

    def _score(self, test: np.ndarray) -> np.ndarray:
        windows, starts = self._windows(test, self._window_size, self._window_size // 2 or 1)
        window_errors = np.zeros((windows.shape[0], windows.shape[1]))
        for start in range(0, windows.shape[0], self.batch_size):
            chunk = slice(start, start + self.batch_size)
            batch = windows[chunk]
            phase1, phase2 = self._two_phase(batch)
            error1 = ((phase1.data - batch) ** 2).mean(axis=2)
            error2 = ((phase2.data - batch) ** 2).mean(axis=2)
            window_errors[chunk] = self.blend * error1 + (1.0 - self.blend) * error2
        return self._merge_window_scores(window_errors, starts, test.shape[0])
