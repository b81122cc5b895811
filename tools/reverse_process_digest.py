"""Digest every reverse-process output, to compare two checkouts bitwise.

Prints one ``sha256`` line per configuration plus an overall digest.  Run it
in two checkouts (e.g. a commit and its parent) and ``diff`` the outputs:
identical lines mean identical bits for that configuration.

Covered:

* ``ImputedDiffusion.impute(rng)`` on the full, strided (stride 3 and
  karras spacing), DDIM (eta 0, 0.6, and 1.0 at stride 1) and PNDM
  samplers, for both ``deterministic`` values and both ``collect`` modes,
  including the generator's end state;
* ``ImputedDiffusion.training_loss(rng)`` and its generator end state;
* detector ``fit`` (train and validation curves), ``predict`` (scores and
  labels) and ``holdout_error`` on the default sampler, DDIM eta 0.5, a
  held-out validation split, and that split with antithetic validation;
* the worker pools: ImDiffusion ``fit``/``predict`` at
  ``(num_workers, score_workers)`` in ``{(2, 2), (2, 1), (1, 2)}``, and the
  MAD-GAN (adversary round), BeatGAN and LSTM-AD baselines at
  ``num_workers=2`` — losses, parameters, scores, labels and the
  generator's end state.  These spawn worker processes, hence the
  ``__main__`` guard.

Usage: ``PYTHONPATH=src python tools/reverse_process_digest.py``
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro import ImDiffusionConfig, ImDiffusionDetector
from repro.baselines import BeatGANDetector, LSTMADDetector, MADGANDetector
from repro.diffusion import (
    DDIMSampler,
    FullReverseSampler,
    GaussianDiffusion,
    ImputedDiffusion,
    PNDMSampler,
    StridedReverseSampler,
    quadratic_beta_schedule,
)
from repro.masking import GratingMasking
from repro.models import ImTransformer


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.dtype).encode())
            h.update(str(part.shape).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True, default=repr).encode())
    return h.hexdigest()


def _rng_state(rng: np.random.Generator):
    return rng.bit_generator.state


def _imputer(num_steps=12, seed=0):
    model = ImTransformer(num_features=4, hidden_dim=8, num_blocks=1,
                          num_heads=2, rng=np.random.default_rng(seed))
    imputer = ImputedDiffusion(model, GaussianDiffusion(
        quadratic_beta_schedule(num_steps)))
    masks = GratingMasking(2, 2).masks(20, 4)
    windows = np.random.default_rng(seed + 1).normal(size=(3, 20, 4))
    mask_batch = np.stack([masks[0], masks[1], masks[0]])
    policies = np.array([0, 1, 0])
    return imputer, windows, mask_batch, policies


SAMPLERS = {
    "full": FullReverseSampler,
    "strided-stride3": lambda: StridedReverseSampler(stride=3),
    "strided-karras": lambda: StridedReverseSampler(num_inference_steps=5,
                                                    spacing="karras"),
    "ddim-eta0": lambda: DDIMSampler(num_inference_steps=5, eta=0.0),
    "ddim-eta0.6": lambda: DDIMSampler(num_inference_steps=5, eta=0.6),
    "ddim-eta1-stride1": lambda: DDIMSampler(stride=1, eta=1.0),
    "pndm": lambda: PNDMSampler(num_inference_steps=5),
}


def impute_digests():
    imputer, windows, masks, policies = _imputer()
    for name, factory in SAMPLERS.items():
        for deterministic in (False, True):
            for collect in ("sample", "x0"):
                rng = np.random.default_rng(7)
                result = imputer.impute(windows, masks, policies, rng,
                                        collect=collect,
                                        deterministic=deterministic,
                                        sampler=factory())
                parts = [result.final, result.steps()]
                parts += [estimate for _, estimate in result.intermediate]
                parts.append(_rng_state(rng))
                yield (f"impute {name} deterministic={deterministic} "
                       f"collect={collect}", _digest(*parts))


def training_loss_digests():
    imputer, windows, masks, policies = _imputer()
    rng = np.random.default_rng(3)
    losses = [imputer.training_loss(windows, masks, policies, rng).data
              for _ in range(3)]
    yield "training_loss", _digest(*losses, _rng_state(rng))


DETECTOR_CONFIGS = {
    "default": {},
    "ddim-eta0.5": {"sampler": "ddim", "num_inference_steps": 4,
                    "ddim_eta": 0.5},
    "validation-0.25": {"validation_fraction": 0.25},
    "validation-0.25-antithetic": {"validation_fraction": 0.25,
                                   "validation_antithetic": True},
}


def _detector_series():
    rng = np.random.default_rng(0)
    series = (np.sin(np.linspace(0, 12 * np.pi, 240))[:, None]
              * np.ones((1, 3)) + 0.05 * rng.standard_normal((240, 3)))
    test = series.copy()
    test[100:110] += 3.0
    return series, test


def _detector_config(**overrides):
    return ImDiffusionConfig(
        window_size=16, num_steps=8, epochs=2, hidden_dim=8,
        num_blocks=1, num_heads=2, max_train_windows=16,
        num_masked_windows=2, num_unmasked_windows=2, batch_size=8,
        seed=0, **overrides)


def detector_digests():
    series, test = _detector_series()
    for name, overrides in DETECTOR_CONFIGS.items():
        detector = ImDiffusionDetector(_detector_config(**overrides)).fit(series)
        prediction = detector.predict(test)
        holdout = detector.holdout_error(series, seed=4)
        yield (f"detector {name}", _digest(
            detector.train_losses, detector.val_losses,
            np.asarray(prediction.scores), np.asarray(prediction.labels),
            holdout, _rng_state(detector._rng)))


WORKER_COUNTS = ((2, 2), (2, 1), (1, 2))  # (num_workers, score_workers)

BASELINES = {
    "mad-gan": lambda: MADGANDetector(
        window_size=16, latent_dim=4, hidden_size=8, epochs=2, batch_size=8,
        max_train_windows=24, seed=0, num_workers=2),
    "beatgan": lambda: BeatGANDetector(
        window_size=16, latent_dim=4, hidden_dim=8, epochs=2, batch_size=8,
        max_train_windows=24, seed=0, num_workers=2),
    "lstm-ad": lambda: LSTMADDetector(
        history=8, hidden_size=8, epochs=2, max_train_samples=48, seed=0,
        num_workers=2),
}


def multiprocess_digests():
    series, test = _detector_series()
    for num_workers, score_workers in WORKER_COUNTS:
        detector = ImDiffusionDetector(
            _detector_config(num_workers=num_workers)).fit(series)
        prediction = detector.predict(test, score_workers=score_workers)
        yield (f"detector num_workers={num_workers} "
               f"score_workers={score_workers}", _digest(
                   detector.train_losses, detector.val_losses,
                   *[p.data for p in detector.model.parameters()],
                   np.asarray(prediction.scores), np.asarray(prediction.labels),
                   _rng_state(detector._rng)))
    for name, factory in BASELINES.items():
        detector = factory().fit(series)
        result = detector.predict(test)
        parameters = list(detector._trainer_parameters())
        if hasattr(detector, "_adversary_parameters"):
            parameters += list(detector._adversary_parameters())
        yield (f"baseline {name} num_workers=2", _digest(
            detector.train_losses, *[p.data for p in parameters],
            np.asarray(result.scores), np.asarray(result.labels),
            _rng_state(detector.rng)))


def main() -> None:
    overall = hashlib.sha256()
    for source in (impute_digests, training_loss_digests, detector_digests,
                   multiprocess_digests):
        for label, digest in source():
            print(f"{digest}  {label}")
            overall.update(digest.encode())
    print(f"{overall.hexdigest()}  overall")


if __name__ == "__main__":
    main()
