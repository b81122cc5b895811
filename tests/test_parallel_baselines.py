"""Universal baseline parallelism: the five spec-factored GAN/VAE/graph detectors.

Every detector whose loss spec replaced a single-process closure is held to
the engine-wide contract:

* the spec path at ``num_workers=1`` (SpecReducer, no processes) is
  **bit-identical** to the frozen closure in
  ``tests/frozen_training_loops.py`` — parameters (the adversary's too),
  train and validation curves and the random stream all match exactly,
* ``num_workers=2`` (spawned gradient workers) agrees with the one-worker
  run up to float summation order in the shard-gradient average,
* for the GAN pair the *discriminator* weights must agree too: the
  adversary-gradient reduction steps the parent's discriminator optimizer
  between the two rounds of every batch.
"""

from __future__ import annotations

import numpy as np
import pytest
from frozen_training_loops import all_parameters, legacy_fit

from repro.baselines import (
    BeatGANDetector,
    GDNDetector,
    InterFusionDetector,
    MADGANDetector,
    OmniAnomalyDetector,
)


def _series(length=140, num_channels=4, seed=0):
    rng = np.random.default_rng(seed)
    base = np.sin(np.arange(length) / 9.0)[:, None] * np.ones((1, num_channels))
    return base + 0.1 * rng.standard_normal((length, num_channels))


# Tiny-but-real configurations: two epochs so optimizer moments matter, and
# enough windows that a batch actually splits across two workers.
CASES = {
    "OmniAnomaly": (OmniAnomalyDetector,
                    dict(window_size=16, hidden_size=8, latent_dim=4, epochs=2,
                         batch_size=8, max_train_windows=24, seed=0)),
    "InterFusion": (InterFusionDetector,
                    dict(window_size=16, metric_latent_dim=4,
                         temporal_latent_dim=4, hidden_dim=8, epochs=2,
                         batch_size=8, max_train_windows=24, seed=0)),
    "MAD-GAN": (MADGANDetector,
                dict(window_size=16, latent_dim=4, hidden_size=8, epochs=2,
                     batch_size=8, max_train_windows=24, seed=0)),
    "BeatGAN": (BeatGANDetector,
                dict(window_size=16, latent_dim=4, hidden_dim=8, epochs=2,
                     batch_size=8, max_train_windows=24, seed=0)),
    "GDN": (GDNDetector,
            dict(history=8, embedding_dim=8, top_k=2, hidden_dim=8, epochs=2,
                 batch_size=8, max_train_samples=24, seed=0)),
}


def _fit(name, *, num_workers=1, frozen=False, **overrides):
    cls, kwargs = CASES[name]
    detector = cls(num_workers=num_workers, **{**kwargs, **overrides})
    if frozen:
        return legacy_fit(detector, _series())
    return detector.fit(_series())


@pytest.mark.parametrize("name", sorted(CASES))
class TestSpecBitIdentity:
    """Spec path at one worker vs the frozen closure: bitwise equal."""

    def test_parameters_and_losses_bit_identical(self, name):
        frozen = _fit(name, frozen=True)
        spec = _fit(name)
        for a, b in zip(all_parameters(frozen), all_parameters(spec)):
            np.testing.assert_array_equal(b.data, a.data)
        assert spec.train_losses == frozen.train_losses

    def test_rng_stream_position_unchanged(self, name):
        frozen = _fit(name, frozen=True)
        spec = _fit(name)
        assert (spec.rng.bit_generator.state
                == frozen.rng.bit_generator.state)

    def test_validation_curve_bit_identical(self, name):
        frozen = _fit(name, frozen=True, validation_fraction=0.25)
        spec = _fit(name, validation_fraction=0.25)
        assert len(spec.val_losses) == CASES[name][1]["epochs"]
        assert spec.val_losses == frozen.val_losses
        assert spec.train_losses == frozen.train_losses
        for a, b in zip(all_parameters(frozen), all_parameters(spec)):
            np.testing.assert_array_equal(b.data, a.data)
        assert (spec.rng.bit_generator.state
                == frozen.rng.bit_generator.state)


@pytest.mark.parametrize("name", sorted(CASES))
class TestWorkerInvariance:
    """Two spawned workers vs one: equal up to gradient summation order."""

    def test_two_workers_match_serial(self, name):
        serial = _fit(name)
        parallel = _fit(name, num_workers=2)
        for a, b in zip(all_parameters(serial), all_parameters(parallel)):
            np.testing.assert_allclose(b.data, a.data, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(parallel.train_losses, serial.train_losses,
                                   rtol=1e-8, atol=1e-10)

    def test_scores_match_serial(self, name):
        series = _series(seed=3)
        serial = _fit(name)
        parallel = _fit(name, num_workers=2)
        np.testing.assert_allclose(parallel.score(series), serial.score(series),
                                   rtol=1e-6, atol=1e-8)
