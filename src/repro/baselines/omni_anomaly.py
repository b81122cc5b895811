"""OmniAnomaly (Su et al., 2019): GRU + VAE with POT thresholding.

A GRU encodes each window into a sequence of hidden states; a variational
bottleneck produces a latent distribution from the final state, a decoder
reconstructs the window, and the anomaly score is the reconstruction error
(the negative log-likelihood surrogate).  The threshold is chosen with the
Peaks-Over-Threshold method, as in the original paper.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import GRU, Linear, MLP, Tensor
from ..nn import functional as F
from .base import BaseDetector

__all__ = ["OmniAnomalyDetector"]


class OmniAnomalyDetector(BaseDetector):
    """Stochastic recurrent reconstruction detector (GRU encoder + VAE bottleneck)."""

    name = "OmniAnomaly"
    supports_parallel = True
    _parallel_loss_method = "_spec_elbo_loss"
    _parallel_draw_method = "_draw_elbo_noise"

    def __init__(self, window_size: int = 32, hidden_size: int = 32, latent_dim: int = 8,
                 epochs: int = 5, batch_size: int = 16, learning_rate: float = 2e-3,
                 kl_weight: float = 0.05, max_train_windows: int = 128,
                 seed: int = 0, early_stopping_patience: Optional[int] = None,
                 early_stopping_min_delta: float = 0.0,
                 validation_fraction: float = 0.0,
                 validation_split: str = "random",
                 num_workers: int = 1) -> None:
        super().__init__(use_pot=True, seed=seed,
                         early_stopping_patience=early_stopping_patience,
                         early_stopping_min_delta=early_stopping_min_delta,
                         validation_fraction=validation_fraction,
                         validation_split=validation_split,
                         num_workers=num_workers)
        self.window_size = window_size
        self.hidden_size = hidden_size
        self.latent_dim = latent_dim
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.kl_weight = kl_weight
        self.max_train_windows = max_train_windows
        self._encoder: Optional[GRU] = None
        self._mu_head: Optional[Linear] = None
        self._logvar_head: Optional[Linear] = None
        self._decoder: Optional[MLP] = None
        self._window_size = window_size

    # ------------------------------------------------------------------
    def _fit(self, train: np.ndarray) -> None:
        num_features = train.shape[1]
        self._window_size = min(self.window_size, train.shape[0])
        flat_dim = self._window_size * num_features

        self._encoder = GRU(num_features, self.hidden_size, rng=self.rng)
        self._mu_head = Linear(self.hidden_size, self.latent_dim, rng=self.rng)
        self._logvar_head = Linear(self.hidden_size, self.latent_dim, rng=self.rng)
        self._decoder = MLP([self.latent_dim, self.hidden_size, flat_dim], rng=self.rng)

        windows, _ = self._windows(train, self._window_size, self._window_size // 2 or 1)
        if windows.shape[0] > self.max_train_windows:
            idx = self._subsample_indices(windows.shape[0], self.max_train_windows)
            windows = windows[idx]

        self._run_trainer((windows,), epochs=self.epochs,
                          batch_size=self.batch_size,
                          learning_rate=self.learning_rate)

    def _trainer_parameters(self):
        return (self._encoder.parameters() + self._mu_head.parameters()
                + self._logvar_head.parameters() + self._decoder.parameters())

    def _draw_elbo_noise(self, batch, rng: np.random.Generator, state):
        """Reparameterisation noise of one batch, drawn in the parent.

        The ELBO's single random draw, of shape ``(batch, latent_dim)``.
        """
        return (rng.standard_normal((batch.size, self.latent_dim)),)

    def _spec_elbo_loss(self, batch, payload, state) -> Tensor:
        return self._elbo_from_noise(batch.data, payload[0])

    def _elbo_from_noise(self, batch: np.ndarray, noise: np.ndarray) -> Tensor:
        _, last_hidden = self._encoder(Tensor(batch))
        mu = self._mu_head(last_hidden)
        log_var = self._logvar_head(last_hidden).clip(-6.0, 6.0)
        latent = mu + (log_var * 0.5).exp() * Tensor(noise)
        reconstruction = self._decoder(latent)
        target = Tensor(batch.reshape(batch.shape[0], -1))
        return F.mse_loss(reconstruction, target) + self.kl_weight * F.kl_divergence_normal(mu, log_var)

    def _reconstruct(self, batch: np.ndarray) -> np.ndarray:
        _, last_hidden = self._encoder(Tensor(batch))
        mu = self._mu_head(last_hidden)
        reconstruction = self._decoder(mu).data
        return reconstruction.reshape(batch.shape)

    def _score(self, test: np.ndarray) -> np.ndarray:
        windows, starts = self._windows(test, self._window_size, self._window_size // 2 or 1)
        window_errors = np.zeros((windows.shape[0], windows.shape[1]))
        for start in range(0, windows.shape[0], self.batch_size):
            chunk = slice(start, start + self.batch_size)
            reconstruction = self._reconstruct(windows[chunk])
            window_errors[chunk] = ((reconstruction - windows[chunk]) ** 2).mean(axis=2)
        return self._merge_window_scores(window_errors, starts, test.shape[0])
