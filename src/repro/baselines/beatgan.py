"""BeatGAN (Zhou et al., 2019): adversarially regularised reconstruction.

An encoder-decoder generator reconstructs windows of the series while a
discriminator tries to tell reconstructions from real windows; the generator
is trained with a reconstruction loss plus an adversarial feature-matching
term.  The anomaly score of a timestamp is its reconstruction error averaged
over the windows that contain it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import Adam, MLP, Sequential, Sigmoid, Linear, ReLU, Tensor
from ..nn import functional as F
from .base import BaseDetector

__all__ = ["BeatGANDetector"]


class BeatGANDetector(BaseDetector):
    """GAN-regularised autoencoder over flattened windows."""

    name = "BeatGAN"
    # The discriminator trains outside the Trainer; rolling back only the
    # generator would desynchronise the adversarial pair.
    _restore_best_weights = False
    supports_parallel = True
    _parallel_loss_method = "_generator_loss"
    _adversary_loss_method = "_adversary_loss"

    def __init__(self, window_size: int = 32, latent_dim: int = 16, hidden_dim: int = 64,
                 epochs: int = 5, batch_size: int = 16, learning_rate: float = 2e-3,
                 adversarial_weight: float = 0.1, max_train_windows: int = 128,
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
        self.latent_dim = latent_dim
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.adversarial_weight = adversarial_weight
        self.max_train_windows = max_train_windows
        self._encoder: Optional[MLP] = None
        self._decoder: Optional[MLP] = None
        self._discriminator: Optional[Sequential] = None
        self._discriminator_opt: Optional[Adam] = None
        self._window_size = window_size

    # ------------------------------------------------------------------
    def _trainer_parameters(self):
        return self._encoder.parameters() + self._decoder.parameters()

    def _adversary_parameters(self):
        return self._discriminator.parameters()

    def _adversary_loss(self, batch, payload, state) -> Tensor:
        """Discriminator objective: real windows vs detached reconstructions."""
        batch_tensor = Tensor(batch.data)
        reconstruction = self._decoder(self._encoder(batch_tensor)).detach()
        real_pred = self._discriminator(batch_tensor)
        fake_pred = self._discriminator(reconstruction)
        return F.binary_cross_entropy(real_pred, Tensor(np.ones((batch.size, 1)))) + \
            F.binary_cross_entropy(fake_pred, Tensor(np.zeros((batch.size, 1))))

    def _generator_loss(self, batch, payload, state) -> Tensor:
        """Generator objective: reconstruction + fool the discriminator."""
        batch_tensor = Tensor(batch.data)
        reconstruction = self._decoder(self._encoder(batch_tensor))
        recon_loss = F.mse_loss(reconstruction, batch_tensor)
        adv_pred = self._discriminator(reconstruction)
        adv_loss = F.binary_cross_entropy(adv_pred, Tensor(np.ones((batch.size, 1))))
        return recon_loss + self.adversarial_weight * adv_loss

    def _fit(self, train: np.ndarray) -> None:
        num_features = train.shape[1]
        self._window_size = min(self.window_size, train.shape[0])
        flat_dim = self._window_size * num_features

        self._encoder = MLP([flat_dim, self.hidden_dim, self.latent_dim], rng=self.rng)
        self._decoder = MLP([self.latent_dim, self.hidden_dim, flat_dim], rng=self.rng)
        self._discriminator = Sequential(
            Linear(flat_dim, self.hidden_dim, rng=self.rng), ReLU(),
            Linear(self.hidden_dim, 1, rng=self.rng), Sigmoid(),
        )

        windows, _ = self._windows(train, self._window_size, self._window_size // 2 or 1)
        flat = windows.reshape(windows.shape[0], -1)
        if flat.shape[0] > self.max_train_windows:
            idx = self._subsample_indices(flat.shape[0], self.max_train_windows)
            flat = flat[idx]

        # The Trainer owns only the generator optimizer; the spec takes the
        # discriminator's own Adam step before every generator step.
        self._discriminator_opt = Adam(self._discriminator.parameters(),
                                       lr=self.learning_rate)
        self._run_trainer((flat,),
                          epochs=self.epochs, batch_size=self.batch_size,
                          learning_rate=self.learning_rate)

    def _score(self, test: np.ndarray) -> np.ndarray:
        num_features = test.shape[1]
        windows, starts = self._windows(test, self._window_size, self._window_size // 2 or 1)
        flat = windows.reshape(windows.shape[0], -1)
        window_errors = np.zeros((windows.shape[0], windows.shape[1]))
        for start in range(0, flat.shape[0], self.batch_size):
            chunk = slice(start, start + self.batch_size)
            reconstruction = self._decoder(self._encoder(Tensor(flat[chunk]))).data
            reshaped = reconstruction.reshape(-1, windows.shape[1], num_features)
            window_errors[chunk] = ((reshaped - windows[chunk]) ** 2).mean(axis=2)
        return self._merge_window_scores(window_errors, starts, test.shape[0])
