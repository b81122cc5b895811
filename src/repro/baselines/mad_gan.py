"""MAD-GAN (Li et al., 2019): GAN-based detection with discriminator + reconstruction scores.

An LSTM generator maps latent noise sequences to windows and an LSTM
discriminator separates real from generated windows.  At test time the anomaly
score combines (i) the discriminator's "fake" probability of the window and
(ii) the best reconstruction error over a small set of latent candidates —
a light-weight stand-in for the original's latent-space gradient search.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import Adam, LSTM, Linear, Tensor
from ..nn import functional as F
from .base import BaseDetector

__all__ = ["MADGANDetector"]


class MADGANDetector(BaseDetector):
    """Generative-adversarial anomaly detector with a recurrent generator."""

    name = "MAD-GAN"
    # The discriminator trains outside the Trainer; rolling back only the
    # generator would desynchronise the adversarial pair.
    _restore_best_weights = False
    supports_parallel = True
    _parallel_loss_method = "_generator_loss"
    _parallel_draw_method = "_draw_latent"
    _adversary_loss_method = "_adversary_loss"

    def __init__(self, window_size: int = 32, latent_dim: int = 8, hidden_size: int = 32,
                 epochs: int = 5, batch_size: int = 16, learning_rate: float = 2e-3,
                 num_latent_candidates: int = 8, discriminator_weight: float = 0.3,
                 max_train_windows: int = 128, threshold_percentile: float = 97.0,
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
        self.latent_dim = latent_dim
        self.hidden_size = hidden_size
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.num_latent_candidates = num_latent_candidates
        self.discriminator_weight = discriminator_weight
        self.max_train_windows = max_train_windows
        self._generator_lstm: Optional[LSTM] = None
        self._generator_head: Optional[Linear] = None
        self._discriminator_lstm: Optional[LSTM] = None
        self._discriminator_head: Optional[Linear] = None
        self._discriminator_opt: Optional[Adam] = None
        self._window_size = window_size

    # ------------------------------------------------------------------
    def _generate(self, latent: np.ndarray) -> Tensor:
        outputs, _ = self._generator_lstm(Tensor(latent))
        return self._generator_head(outputs)

    def _discriminate(self, windows: Tensor) -> Tensor:
        _, last_hidden = self._discriminator_lstm(windows)
        return self._discriminator_head(last_hidden).sigmoid()

    def _trainer_parameters(self):
        return self._generator_lstm.parameters() + self._generator_head.parameters()

    def _adversary_parameters(self):
        return (self._discriminator_lstm.parameters()
                + self._discriminator_head.parameters())

    def _draw_latent(self, batch, rng: np.random.Generator, state):
        """The latent draw of one batch, shared by both rounds of the GAN step."""
        return (rng.standard_normal((batch.size, self._window_size, self.latent_dim)),)

    def _adversary_loss(self, batch, payload, state) -> Tensor:
        """Discriminator objective: real windows vs detached generations."""
        fake = self._generate(payload[0]).detach()
        real_pred = self._discriminate(Tensor(batch.data))
        fake_pred = self._discriminate(fake)
        return F.binary_cross_entropy(real_pred, Tensor(np.ones((batch.size, 1)))) + \
            F.binary_cross_entropy(fake_pred, Tensor(np.zeros((batch.size, 1))))

    def _generator_loss(self, batch, payload, state) -> Tensor:
        """Generator objective: fool the discriminator + stay close to real."""
        generated = self._generate(payload[0])
        g_pred = self._discriminate(generated)
        return F.binary_cross_entropy(g_pred, Tensor(np.ones((batch.size, 1)))) + \
            0.5 * F.mse_loss(generated, Tensor(batch.data))

    def _fit(self, train: np.ndarray) -> None:
        num_features = train.shape[1]
        self._window_size = min(self.window_size, train.shape[0])
        self._generator_lstm = LSTM(self.latent_dim, self.hidden_size, rng=self.rng)
        self._generator_head = Linear(self.hidden_size, num_features, rng=self.rng)
        self._discriminator_lstm = LSTM(num_features, self.hidden_size, rng=self.rng)
        self._discriminator_head = Linear(self.hidden_size, 1, rng=self.rng)

        self._discriminator_opt = Adam(self._adversary_parameters(),
                                       lr=self.learning_rate)

        windows, _ = self._windows(train, self._window_size, self._window_size // 2 or 1)
        if windows.shape[0] > self.max_train_windows:
            idx = self._subsample_indices(windows.shape[0], self.max_train_windows)
            windows = windows[idx]

        # The spec steps the discriminator before every generator step; one
        # latent draw feeds both rounds.
        self._run_trainer((windows,),
                          epochs=self.epochs, batch_size=self.batch_size,
                          learning_rate=self.learning_rate)

    def _score(self, test: np.ndarray) -> np.ndarray:
        windows, starts = self._windows(test, self._window_size, self._window_size // 2 or 1)
        num_windows = windows.shape[0]
        window_errors = np.zeros((num_windows, windows.shape[1]))
        discriminator_scores = np.zeros(num_windows)

        for index in range(num_windows):
            window = windows[index:index + 1]
            # Best-of-k latent reconstruction (cheap surrogate for latent optimisation).
            latents = self.rng.standard_normal(
                (self.num_latent_candidates, self._window_size, self.latent_dim))
            candidates = self._generate(latents).data
            errors = ((candidates - window) ** 2).mean(axis=2)  # (k, window)
            best = int(np.argmin(errors.mean(axis=1)))
            window_errors[index] = errors[best]
            fake_probability = 1.0 - float(self._discriminate(Tensor(window)).data[0, 0])
            discriminator_scores[index] = fake_probability

        reconstruction_series = self._merge_window_scores(window_errors, starts, test.shape[0])
        discriminator_series = self._merge_window_scores(
            np.repeat(discriminator_scores[:, None], windows.shape[1], axis=1), starts, test.shape[0])
        return reconstruction_series + self.discriminator_weight * discriminator_series
