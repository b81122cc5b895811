"""Frozen reference training loops: the bit-identity pins of the spec path.

Every detector now trains through its :class:`~repro.training.ParallelLossSpec`.
The single-process loss closures those specs replaced live on here, copied
verbatim (or, where a closure called a since-deleted helper, with that
helper's body inlined), driven by a hand-rolled epoch loop in the style of
``_legacy_fit`` in ``tests/test_training_engine.py``.  Tests and benchmarks
compare the spec path against these loops bitwise.

Imported as ``frozen_training_loops`` by the tier-1 suite and as
``tests.frozen_training_loops`` by the benchmark harness.
"""

from __future__ import annotations

import types

import numpy as np

from repro.nn import Adam, Tensor, clip_grad_norm, no_grad
from repro.nn import functional as F
from repro.training import (
    VALIDATION_SEED_OFFSET,
    TrainState,
    WindowLoader,
    split_windows,
)


def hand_rolled_fit(parameters, optimizer, loss_fn, loader, epochs,
                    grad_clip=None, on_epoch_start=None, validate=None):
    """The pre-engine epoch loop: zero, loss, backward, clip, step.

    ``loss_fn(batch, state)`` returns the batch loss; ``validate(state)``
    (optional) returns the held-out loss at each epoch end.  Returns
    ``(epoch_losses, val_losses)``.
    """
    state = TrainState()
    epoch_losses, val_losses = [], []
    for epoch in range(epochs):
        state.epoch, state.batch = epoch, 0
        if on_epoch_start is not None:
            on_epoch_start()
        batch_losses = []
        for batch in loader:
            optimizer.zero_grad()
            loss = loss_fn(batch, state)
            loss.backward()
            if grad_clip is not None:
                clip_grad_norm(parameters, grad_clip)
            optimizer.step()
            batch_losses.append(float(loss.data))
            state.batch += 1
        epoch_losses.append(float(np.mean(batch_losses)))
        state.epoch = epoch + 1
        if validate is not None:
            val_losses.append(float(validate(state)))
    return epoch_losses, val_losses


# ---------------------------------------------------------------------------
# The five baseline closures the loss specs replaced
# ---------------------------------------------------------------------------
def _omni_anomaly(self):
    def _elbo_loss(batch):
        noise = self.rng.standard_normal((batch.shape[0], self.latent_dim))
        return self._elbo_from_noise(batch, noise)

    loss = lambda batch, state: _elbo_loss(batch.data)  # noqa: E731
    return loss, loss, None


def _interfusion(self):
    # The closure called ``_hierarchical_elbo(batch.data)`` with no noise,
    # and ``_encode_decode`` then drew metric noise (shape of the metric
    # mean) and temporal noise (shape of the temporal mean) from self.rng,
    # in that order, between forward stages that consume no randomness.
    def hierarchical_elbo(batch, state):
        data = batch.data
        noise = (self.rng.standard_normal(data.shape[:2] + (self.metric_latent_dim,)),
                 self.rng.standard_normal((data.shape[0], self.temporal_latent_dim)))
        return self._hierarchical_elbo(data, noise)

    return hierarchical_elbo, hierarchical_elbo, None


def _mad_gan(self):
    def adversarial_loss(batch, state):
        # Discriminator update inline; the Trainer steps the generator.
        # One latent draw feeds both rounds, as in the original loop.
        payload = self._draw_latent(batch, self.rng, state)
        self._discriminator_opt.zero_grad()
        d_loss = self._adversary_loss(batch, payload, state)
        d_loss.backward()
        self._discriminator_opt.step()
        return self._generator_loss(batch, payload, state)

    def validation_loss(batch, state):
        # Side-effect-free generator objective for the held-out pass: the
        # discriminator is only consulted, never stepped, and the latent
        # draw comes from the dedicated validation generator.
        payload = self._draw_latent(batch, self.rng, state)
        return self._generator_loss(batch, payload, state)

    return adversarial_loss, validation_loss, None


def _beatgan(self):
    def adversarial_loss(batch, state):
        """Discriminator update inline, then the generator loss.

        The shared Trainer owns only the generator optimizer; the
        discriminator takes its own Adam step here before the generator
        loss is formed, exactly the alternation of the original loop.
        """
        self._discriminator_opt.zero_grad()
        d_loss = self._adversary_loss(batch, (), state)
        d_loss.backward()
        self._discriminator_opt.step()
        return self._generator_loss(batch, (), state)

    def validation_loss(batch, state):
        # Side-effect-free generator objective for the held-out pass:
        # same reconstruction + adversarial terms, but the discriminator
        # is only consulted, never stepped.
        return self._generator_loss(batch, (), state)

    return adversarial_loss, validation_loss, None


def _gdn(self):
    # The graph follows the evolving embeddings: rebuilt at every epoch
    # start (always before the first batch reads it), frozen within the
    # epoch — the original GDN protocol.
    graph = {"adjacency": None}

    def rebuild_graph():
        graph["adjacency"] = self._learn_graph()

    def deviation_loss(batch, state):
        batch_inputs, batch_targets = batch
        prediction = self._forecast(batch_inputs, graph["adjacency"])
        return F.mse_loss(prediction, Tensor(batch_targets))

    return deviation_loss, deviation_loss, rebuild_graph


FROZEN_CLOSURES = {
    "OmniAnomaly": _omni_anomaly,
    "InterFusion": _interfusion,
    "MAD-GAN": _mad_gan,
    "BeatGAN": _beatgan,
    "GDN": _gdn,
}


def _legacy_run_trainer(self, arrays, *, epochs, batch_size, learning_rate):
    """The pre-spec ``BaseDetector._run_trainer`` at one worker, frozen.

    Early stopping is not replayed: callers leave it off.
    """
    assert self.early_stopping_patience is None
    loss_fn, val_loss_fn, on_epoch_start = FROZEN_CLOSURES[self.name](self)
    arrays, val_arrays = split_windows(
        tuple(arrays), self.validation_fraction, self.rng,
        split=self.validation_split)
    loader = WindowLoader(*arrays, batch_size=batch_size, rng=self.rng)
    parameters = self._trainer_parameters()

    validate = None
    if val_arrays is not None:
        val_loader = WindowLoader(*val_arrays, batch_size=batch_size,
                                  shuffle=False)

        def validate(state):
            total, count = 0.0, 0
            train_rng = self.rng
            self.rng = np.random.default_rng(self.seed + VALIDATION_SEED_OFFSET)
            try:
                with no_grad():
                    for batch in val_loader:
                        loss = val_loss_fn(batch, state)
                        total += float(loss.data) * batch.size
                        count += batch.size
            finally:
                self.rng = train_rng
            return total / max(count, 1)

    self.train_losses, self.val_losses = hand_rolled_fit(
        parameters, Adam(parameters, lr=learning_rate), loss_fn, loader,
        epochs, grad_clip=5.0, on_epoch_start=on_epoch_start,
        validate=validate)


def legacy_fit(detector, train):
    """Fit ``detector`` through its frozen closure instead of its spec."""
    detector._run_trainer = types.MethodType(_legacy_run_trainer, detector)
    try:
        return detector.fit(train)
    finally:
        del detector._run_trainer


def all_parameters(detector):
    """Trainer parameters, then the adversary's (GAN baselines)."""
    parameters = list(detector._trainer_parameters())
    if detector._adversary_loss_method is not None:
        parameters += list(detector._adversary_parameters())
    return parameters
