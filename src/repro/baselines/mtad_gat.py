"""MTAD-GAT (Zhao et al., 2020): graph-attention detector with joint objectives.

Two attention layers process each window — one over the *feature* axis (which
features influence each other) and one over the *time* axis — followed by a
GRU.  Two heads are trained jointly: a forecasting head predicting the next
timestamp and a reconstruction head recovering the window.  The anomaly score
combines the forecasting and reconstruction errors, as in the original paper.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import GRU, Linear, MLP, MultiHeadSelfAttention, Tensor
from ..nn import functional as F
from .base import BaseDetector

__all__ = ["MTADGATDetector"]


class MTADGATDetector(BaseDetector):
    """Feature- and time-oriented attention with joint forecast + reconstruction."""

    name = "MTAD-GAT"
    supports_parallel = True
    _parallel_loss_method = "_joint_loss"

    def __init__(self, window_size: int = 24, hidden_size: int = 32,
                 epochs: int = 4, batch_size: int = 8, learning_rate: float = 2e-3,
                 forecast_weight: float = 0.5, max_train_windows: int = 96,
                 threshold_percentile: float = 97.0, seed: int = 0,
                 early_stopping_patience: Optional[int] = None,
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
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.forecast_weight = forecast_weight
        self.max_train_windows = max_train_windows
        self._feature_attention: Optional[MultiHeadSelfAttention] = None
        self._time_attention: Optional[MultiHeadSelfAttention] = None
        self._input_proj: Optional[Linear] = None
        self._gru: Optional[GRU] = None
        self._forecast_head: Optional[MLP] = None
        self._reconstruction_head: Optional[MLP] = None
        self._window_size = window_size
        self._num_features = None

    # ------------------------------------------------------------------
    def _encode(self, windows: np.ndarray) -> Tensor:
        """Shared representation: feature attention, time attention, GRU."""
        batch, length, num_features = windows.shape
        x = Tensor(windows)

        # Feature-oriented attention: sequence axis = features.
        feature_view = x.transpose(0, 2, 1)                      # (batch, K, L)
        feature_in = self._feature_proj(feature_view)            # (batch, K, hidden)
        feature_out = self._feature_attention(feature_in)        # (batch, K, hidden)

        # Time-oriented attention: sequence axis = time.
        time_in = self._input_proj(x)                            # (batch, L, hidden)
        time_out = self._time_attention(time_in)                 # (batch, L, hidden)

        # Broadcast the feature summary over time and fuse.
        feature_summary = feature_out.mean(axis=1).expand_dims(1)   # (batch, 1, hidden)
        fused = time_out + feature_summary
        outputs, last_hidden = self._gru(fused)
        return outputs, last_hidden

    def _fit(self, train: np.ndarray) -> None:
        num_features = train.shape[1]
        self._num_features = num_features
        self._window_size = min(self.window_size, train.shape[0] - 1)
        hidden = self.hidden_size

        self._feature_proj = Linear(self._window_size, hidden, rng=self.rng)
        self._feature_attention = MultiHeadSelfAttention(hidden, 2, rng=self.rng)
        self._input_proj = Linear(num_features, hidden, rng=self.rng)
        self._time_attention = MultiHeadSelfAttention(hidden, 2, rng=self.rng)
        self._gru = GRU(hidden, hidden, rng=self.rng)
        self._forecast_head = MLP([hidden, hidden, num_features], rng=self.rng)
        self._reconstruction_head = MLP([hidden, hidden, self._window_size * num_features],
                                        rng=self.rng)

        # Each sample: a window plus the value right after it (forecast target).
        windows, starts = self._windows(train[:-1], self._window_size, self._window_size // 2 or 1)
        targets = np.stack([train[start + self._window_size] for start in starts])
        if windows.shape[0] > self.max_train_windows:
            idx = self._subsample_indices(windows.shape[0], self.max_train_windows)
            windows, targets = windows[idx], targets[idx]

        self._run_trainer((windows, targets),
                          epochs=self.epochs, batch_size=self.batch_size,
                          learning_rate=self.learning_rate)

    def _trainer_parameters(self):
        return (self._feature_proj.parameters() + self._feature_attention.parameters()
                + self._input_proj.parameters() + self._time_attention.parameters()
                + self._gru.parameters() + self._forecast_head.parameters()
                + self._reconstruction_head.parameters())

    def _joint_loss(self, batch, state):
        # A method (not a closure) so data-parallel workers can rebuild it
        # from a pickled replica of the detector.
        batch_windows, batch_targets = batch
        _, last_hidden = self._encode(batch_windows)
        forecast = self._forecast_head(last_hidden)
        reconstruction = self._reconstruction_head(last_hidden)
        forecast_loss = F.mse_loss(forecast, Tensor(batch_targets))
        reconstruction_loss = F.mse_loss(
            reconstruction, Tensor(batch_windows.reshape(batch_windows.shape[0], -1)))
        return self.forecast_weight * forecast_loss + reconstruction_loss

    def _score(self, test: np.ndarray) -> np.ndarray:
        length, num_features = test.shape
        windows, starts = self._windows(test, self._window_size, self._window_size // 2 or 1)
        window_errors = np.zeros((windows.shape[0], windows.shape[1]))
        forecast_scores = np.zeros(length)
        forecast_counts = np.zeros(length)

        for start in range(0, windows.shape[0], self.batch_size):
            chunk = slice(start, min(start + self.batch_size, windows.shape[0]))
            batch = windows[chunk]
            _, last_hidden = self._encode(batch)
            reconstruction = self._reconstruction_head(last_hidden).data
            reshaped = reconstruction.reshape(-1, self._window_size, num_features)
            window_errors[chunk] = ((reshaped - batch) ** 2).mean(axis=2)

            forecast = self._forecast_head(last_hidden).data
            for i, window_start in enumerate(starts[chunk]):
                target_index = window_start + self._window_size
                if target_index < length:
                    error = float(((forecast[i] - test[target_index]) ** 2).mean())
                    forecast_scores[target_index] += error
                    forecast_counts[target_index] += 1

        reconstruction_series = self._merge_window_scores(window_errors, starts, length)
        forecast_series = forecast_scores / np.maximum(forecast_counts, 1.0)
        return reconstruction_series + self.forecast_weight * forecast_series
