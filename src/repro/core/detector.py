"""The ImDiffusion anomaly detector (the paper's primary contribution).

:class:`ImDiffusionDetector` glues together every piece of the framework:

1. the data is scaled and cut into detection windows,
2. observation masks are created according to the configured modelling mode
   (grating imputation by default),
3. an :class:`~repro.models.ImTransformer` denoiser is trained with the
   unconditional imputed-diffusion objective (Eq. 11),
4. at inference time the reverse diffusion process imputes every masked
   position, the per-step imputation errors are merged back into per-timestamp
   error series, and
5. the ensemble voting mechanism (Algorithm 1 / Eq. 12) turns the step-wise
   errors into final anomaly labels.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data.preprocessing import StandardScaler
from ..data.windows import sliding_windows
from ..diffusion import GaussianDiffusion, ImputedDiffusion, make_schedule
from ..inference import (
    MultiprocessScoreReducer,
    ScoreSpec,
    ScoreTask,
    SerialScoreReducer,
)
from ..models import ImTransformer
from ..nn import Adam, CosineLR, StepLR, no_grad
from ..nn.serialization import load_checkpoint
from ..training import (
    EarlyStopping,
    LRSchedule,
    ParallelLossSpec,
    Trainer,
    WindowLoader,
    antithetic_loss,
    crn_validation_rng,
    split_windows,
)
from .config import ImDiffusionConfig
from .ensemble import EnsembleDecision, EnsembleVoter
from .modes import build_masks, recommended_stride

__all__ = ["DetectionResult", "ImDiffusionDetector", "ImputationLossSpec",
           "ImputationScoreSpec"]


class ImputationLossSpec(ParallelLossSpec):
    """The imputed-diffusion training objective, factored for data parallelism.

    ``draw`` makes exactly the random draws of the pre-engine training
    closure — policy indices, diffusion timesteps, forward noise, in that
    order on the detector's generator — so the training random stream is
    identical for every worker count; ``compute`` is the pure denoising loss
    of Eq. (11) over one shard.  Shards are weighted by their masked-region
    element count, matching the loss's normalisation, so the averaged
    worker gradients reproduce the full-batch gradient exactly.

    The spec is spawn-safe: it ships the (picklable) imputer stack and the
    pre-stacked mask policies to each worker once at pool start-up.
    """

    def __init__(self, imputer: ImputedDiffusion, masks_arr: np.ndarray) -> None:
        self.imputer = imputer
        self.masks_arr = np.asarray(masks_arr, dtype=np.float64)

    def build(self):
        return self.imputer.model.parameters()

    def draw(self, batch, rng, state):
        policies = rng.integers(0, self.masks_arr.shape[0],
                                size=batch.data.shape[0])
        steps, noise = self.imputer.draw_training_noise(batch.data, rng)
        return (policies, steps, noise)

    def compute(self, batch, payload, state):
        policies, steps, noise = payload
        return self.imputer.training_loss(batch.data, self.masks_arr[policies],
                                          policies, steps=steps, noise=noise)

    def weight(self, batch, payload) -> float:
        policies = payload[0]
        return float((1.0 - self.masks_arr[policies]).sum())


class ImputationScoreSpec(ScoreSpec):
    """The scoring pass of a fitted detector, factored for sharded inference.

    ``plan`` decomposes one batched scoring call into (mask policy, window
    chunk) tasks in exactly the serial loop's order — policy-major, chunked
    by ``config.batch_size``; ``draw`` pre-draws each task's reverse-diffusion
    noise on the parent generator in that same order (so the random stream is
    identical to the serial path for *every* worker count); ``compute`` is
    the pure, rng-free imputation-error kernel of one task.  Offline
    scoring, the serving layer's batched scorer and the sharded inference
    workers all run this one kernel, so the error formula cannot drift
    between them.

    The spec is spawn-safe: it ships the (picklable) fitted detector to each
    worker once at pool start-up; per-task messages carry only windows and
    noise, while parameters travel through the shared-memory block.
    """

    def __init__(self, detector: "ImDiffusionDetector") -> None:
        detector._check_fitted()
        self.detector = detector
        config = detector.config
        self.masks = build_masks(config, config.window_size,
                                 detector.num_features)
        self.batch_size = int(config.batch_size)
        self.sampler = config.build_sampler()
        self.deterministic = bool(config.deterministic_inference)

    def parent_parameters(self):
        return self.detector._imputer.model.parameters()

    def build(self):
        model = self.detector._imputer.model
        model.eval()  # workers are inference-only replicas
        return model.parameters()

    def plan(self, num_windows: int):
        return [ScoreTask(policy_index=policy_index, start=start,
                          stop=min(start + self.batch_size, num_windows))
                for policy_index in range(len(self.masks))
                for start in range(0, num_windows, self.batch_size)]

    def draw(self, windows, task: ScoreTask, rng):
        return self.detector._imputer.draw_impute_noise(
            windows[task.start:task.stop], rng,
            sampler=self.sampler, deterministic=self.deterministic)

    def compute(self, windows, task: ScoreTask, payload):
        """Squared imputation errors of one task, restricted to the masked region.

        Returns ``progress -> (chunk, window, features)``; progress counts
        visited steps from 1 (noisiest) upward, so it stays dense even under
        a strided sampler.
        """
        mask = self.masks[task.policy_index]
        result = self.detector._imputer.impute(
            windows, np.broadcast_to(mask, windows.shape),
            np.full(windows.shape[0], task.policy_index, dtype=np.int64), None,
            collect=self.detector.config.collect,
            deterministic=self.deterministic,
            sampler=self.sampler,
            noise=payload,
        )
        target_region = 1.0 - mask
        return {progress: ((estimate - windows) ** 2) * target_region
                for progress, (_, estimate) in enumerate(result.intermediate,
                                                         start=1)}


@dataclass
class DetectionResult:
    """Outcome of :meth:`ImDiffusionDetector.predict` with full diagnostics."""

    labels: np.ndarray
    scores: np.ndarray
    step_errors: Dict[int, np.ndarray]
    decision: Optional[EnsembleDecision] = None
    inference_seconds: float = 0.0

    @property
    def points_per_second(self) -> float:
        """Inference throughput (timestamps scored per wall-clock second)."""
        if self.inference_seconds <= 0:
            return float("inf")
        return float(self.labels.shape[0] / self.inference_seconds)


class ImDiffusionDetector:
    """Imputed-diffusion anomaly detector for multivariate time series.

    Examples
    --------
    >>> from repro import ImDiffusionConfig, ImDiffusionDetector
    >>> from repro.data import load_dataset
    >>> dataset = load_dataset("SMD", scale=0.1)
    >>> config = ImDiffusionConfig(window_size=32, num_steps=10, epochs=2)
    >>> detector = ImDiffusionDetector(config)
    >>> detector.fit(dataset.train)                            # doctest: +SKIP
    >>> result = detector.predict(dataset.test)                # doctest: +SKIP
    """

    def __init__(self, config: Optional[ImDiffusionConfig] = None) -> None:
        self.config = config or ImDiffusionConfig()
        self._rng = np.random.default_rng(self.config.seed)
        self._scaler = StandardScaler()
        self._imputer: Optional[ImputedDiffusion] = None
        self._num_features: Optional[int] = None
        self.train_losses: List[float] = []
        self.val_losses: List[float] = []  # held-out curve (validation_fraction > 0)
        self.last_train_result = None  # TrainResult of the most recent fit()

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(self, train: np.ndarray, callbacks: Sequence = (),
            resume_from=None) -> "ImDiffusionDetector":
        """Train the denoiser on a (mostly normal) training series.

        The epoch/batch loop runs through the shared
        :class:`repro.training.Trainer`; with the default configuration
        (no early stopping, no LR schedule, no validation split) it consumes
        the random stream in exactly the order of the pre-engine hand-rolled
        loop and therefore produces bit-identical parameters for a fixed
        seed.

        Parameters
        ----------
        train:
            Array of shape ``(time, features)``.
        callbacks:
            Extra :class:`repro.training.Callback` instances (e.g. a
            :class:`~repro.training.Checkpoint`), appended after the
            config-derived ones.
        resume_from:
            A trainer snapshot to continue from: a ``.npz`` path written by
            the :class:`~repro.training.Checkpoint` callback or an already
            loaded ``(arrays, metadata)`` pair.  The detector must be
            configured exactly as the run that produced the snapshot (the
            setup draws replay from the seed, then the snapshot restores
            parameters, optimizer moments, RNG and callback state), so the
            continuation is bit-identical to an uninterrupted run.
        """
        config = self.config
        train = np.asarray(train, dtype=np.float64)
        if train.ndim != 2:
            raise ValueError("train must be a 2-D array of shape (time, features)")
        if train.shape[0] < config.window_size:
            raise ValueError("training series is shorter than one window")

        self._num_features = train.shape[1]
        scaled = self._scaler.fit_transform(train)
        train_stride = config.train_stride or recommended_stride(config)
        windows, _ = sliding_windows(scaled, config.window_size, train_stride)

        if config.max_train_windows is not None and windows.shape[0] > config.max_train_windows:
            chosen = self._rng.choice(windows.shape[0], size=config.max_train_windows,
                                      replace=False)
            if config.validation_split == "tail":
                # choice() returns the subset in random order; the tail split
                # is only "the most recent windows" if time order survives
                # subsampling.  Random splits keep the legacy (unsorted)
                # order so the pre-engine bit-identity contract holds.
                chosen = np.sort(chosen)
            windows = windows[chosen]

        (windows,), val_arrays = split_windows(
            (windows,), config.validation_fraction, self._rng,
            split=config.validation_split)

        masks = self._build_network(self._num_features)
        model = self._imputer.model
        optimizer = Adam(model.parameters(), lr=config.learning_rate)

        # Mask policies are pre-stacked once so each batch gathers its masks
        # with a single fancy-index instead of a per-item Python stack.  The
        # loss spec makes the batch's random draws in the parent and its
        # computation in-process or in spawned gradient workers
        # (config.num_workers); at one worker the loop is bit-identical to
        # the pre-engine hand-rolled loop.
        masks_arr = np.stack(masks)
        spec = ImputationLossSpec(self._imputer, masks_arr)

        validate_fn = None
        if val_arrays is not None:
            validate_fn = self._make_validate_fn(val_arrays[0], masks_arr)

        loader = WindowLoader(windows, batch_size=config.batch_size, rng=self._rng)
        trainer = Trainer(
            model.parameters(), optimizer, spec,
            num_workers=config.num_workers,
            grad_clip=config.grad_clip,
            callbacks=self._build_callbacks(optimizer) + list(callbacks),
            rng=self._rng,
            validate_fn=validate_fn,
        )
        if resume_from is not None:
            if isinstance(resume_from, (str, os.PathLike)):
                snapshot_arrays, snapshot_metadata = load_checkpoint(str(resume_from))
            else:
                snapshot_arrays, snapshot_metadata = resume_from
            trainer.load_state_dict(snapshot_arrays, snapshot_metadata)
        result = trainer.fit(loader, epochs=config.epochs)
        self.train_losses = list(result.epoch_losses)
        self.val_losses = list(result.val_losses)
        self.last_train_result = result
        return self

    def fine_tune(self, recent: np.ndarray, epochs: int = 1,
                  learning_rate: Optional[float] = None,
                  num_workers: Optional[int] = None,
                  patience: Optional[int] = None,
                  validation_fraction: float = 0.0,
                  seed: Optional[int] = None,
                  callbacks: Sequence = ()):
        """Incrementally adapt a *fitted* detector to recent data.

        Unlike :meth:`fit`, this warm-starts from the current weights and
        **freezes the scaler** (the standardisation learned at training
        time), so a fine-tuned detector remains hot-swappable under a
        running :class:`~repro.serving.DetectorService` — window scaling,
        architecture and sampler trajectory are unchanged; only the denoiser
        weights move.  The pass runs on a *dedicated* random generator
        (derived from ``config.seed`` unless ``seed`` is given), so it never
        consumes the detector's scoring stream: fine-tuning a checkpoint
        clone leaves the serving detector's random state untouched, which is
        what makes rollback bit-identical.

        Parameters
        ----------
        recent:
            Array of shape ``(time, features)`` — typically a snapshot of a
            tenant's raw ring buffer around a drift event.
        epochs:
            Fine-tuning epoch budget (early stopping may use fewer).
        learning_rate:
            Optimizer step size; defaults to ``config.learning_rate``.
        num_workers:
            Gradient workers for the pass: 1 trains in-process, more shard
            every batch across spawned workers (see
            :class:`~repro.training.Trainer`); defaults to
            ``config.num_workers``.
        patience:
            When given, adds an :class:`~repro.training.EarlyStopping`
            callback with this patience (on the held-out loss when
            ``validation_fraction > 0``, else on the training loss).
        validation_fraction:
            Tail fraction of the fine-tune windows held out for the per-epoch
            validation loss.
        seed:
            Seed of the dedicated fine-tune generator (decoupled from the
            scoring stream); defaults to ``config.seed + 104729``.

        Returns
        -------
        The :class:`~repro.training.TrainResult` of the pass (also stored as
        :attr:`last_train_result`; epoch losses are appended to
        :attr:`train_losses`/:attr:`val_losses`).
        """
        self._check_fitted()
        config = self.config
        recent = np.asarray(recent, dtype=np.float64)
        if recent.ndim != 2 or recent.shape[1] != self._num_features:
            raise ValueError(
                f"recent must have shape (time, {self._num_features})")
        if recent.shape[0] < config.window_size:
            raise ValueError("recent series is shorter than one window")
        if epochs < 1:
            raise ValueError("epochs must be at least 1")

        scaled = self._scaler.transform(recent)
        train_stride = config.train_stride or recommended_stride(config)
        windows, _ = sliding_windows(scaled, config.window_size, train_stride)

        rng = np.random.default_rng(
            config.seed + 104729 if seed is None else seed)
        (windows,), val_arrays = split_windows(
            (windows,), validation_fraction, rng, split="tail")

        masks = build_masks(config, config.window_size, self._num_features)
        masks_arr = np.stack(masks)
        model = self._imputer.model
        was_training = model.training
        model.train()
        optimizer = Adam(model.parameters(),
                         lr=learning_rate if learning_rate is not None
                         else config.learning_rate)
        spec = ImputationLossSpec(self._imputer, masks_arr)
        validate_fn = None
        if val_arrays is not None:
            validate_fn = self._make_validate_fn(val_arrays[0], masks_arr)
        tune_callbacks = list(callbacks)
        if patience is not None:
            tune_callbacks.append(EarlyStopping(patience=patience,
                                                restore_best=True))
        loader = WindowLoader(windows, batch_size=config.batch_size, rng=rng)
        trainer = Trainer(
            model.parameters(), optimizer, spec,
            num_workers=num_workers if num_workers is not None
            else config.num_workers,
            grad_clip=config.grad_clip,
            callbacks=tune_callbacks,
            rng=rng,
            validate_fn=validate_fn,
        )
        try:
            result = trainer.fit(loader, epochs=epochs)
        finally:
            if not was_training:
                model.eval()
        self.train_losses.extend(result.epoch_losses)
        self.val_losses.extend(result.val_losses)
        self.last_train_result = result
        return result

    def holdout_error(self, series: np.ndarray, seed: int = 0) -> float:
        """Mean final-step imputation error on ``series`` under fixed noise.

        The evaluation draws all reverse-diffusion noise from a local
        generator seeded with ``seed`` — common random numbers — so two
        models compared with the same ``seed`` see *identical* noise and
        mask trajectories and the comparison is paired.  The detector's own
        random stream is never consumed, making the call safe on a live
        serving detector (the adaptation controller uses it to decide
        publish vs rollback on a held-out tail slice).
        """
        self._check_fitted()
        config = self.config
        series = np.asarray(series, dtype=np.float64)
        if series.ndim != 2 or series.shape[1] != self._num_features:
            raise ValueError(
                f"series must have shape (time, {self._num_features})")
        if series.shape[0] < config.window_size:
            raise ValueError("series is shorter than one window")
        scaled = self._scaler.transform(series)
        windows, _ = sliding_windows(scaled, config.window_size,
                                     recommended_stride(config))
        spec = ImputationScoreSpec(self)
        total, count = 0.0, 0.0

        def add_final_step(task, step_squared):
            nonlocal total, count
            total += float(step_squared[max(step_squared)].sum())
            count += float((1.0 - spec.masks[task.policy_index]).sum()) * task.size

        model = self._imputer.model
        was_training = model.training
        model.eval()
        try:
            SerialScoreReducer(spec).window_errors(
                windows, np.random.default_rng(seed), on_result=add_final_step)
        finally:
            if was_training:
                model.train()
        return total / max(count, 1.0)

    def _make_validate_fn(self, val_windows: np.ndarray, masks_arr: np.ndarray):
        """Held-out denoising loss, evaluated grad-free at each epoch end.

        The pass re-seeds a dedicated common-random-numbers generator
        (:func:`repro.training.crn_validation_rng`) on every call, so each
        epoch sees identical noise/timestep/policy draws — the curve is
        comparable across epochs — and the training random stream is never
        consumed.  With ``config.validation_antithetic`` the loss is
        additionally averaged over each noise draw and its negation
        (:func:`repro.training.antithetic_loss`), halving the estimator's
        odd-moment variance at the cost of a second forward pass; the
        random stream consumed is identical either way.
        """
        config = self.config
        num_policies = masks_arr.shape[0]
        val_loader = WindowLoader(val_windows, batch_size=config.batch_size,
                                  shuffle=False)

        def validate(trainer, state) -> float:
            model = self._imputer.model
            was_training = model.training
            model.eval()
            rng = crn_validation_rng(config.seed)
            total, count = 0.0, 0
            try:
                with no_grad():
                    for batch in val_loader:
                        policies = rng.integers(0, num_policies, size=batch.size)
                        if config.validation_antithetic:
                            # draw_training_noise makes exactly the draws
                            # training_loss(rng) would, so the CRN stream is
                            # bit-identical with the flag on or off.
                            steps, noise = self._imputer.draw_training_noise(
                                batch.data, rng)
                            value = antithetic_loss(
                                lambda s, z: float(self._imputer.training_loss(
                                    batch.data, masks_arr[policies], policies,
                                    steps=s, noise=z).data),
                                steps, noise)
                        else:
                            value = float(self._imputer.training_loss(
                                batch.data, masks_arr[policies], policies,
                                rng).data)
                        total += value * batch.size
                        count += batch.size
            finally:
                if was_training:
                    model.train()
            return total / max(count, 1)

        return validate

    def _build_callbacks(self, optimizer) -> list:
        """Callbacks implied by the config's training knobs.

        Empty by default, which keeps :meth:`fit` bit-identical to the
        legacy loop; early stopping and LR schedules opt in explicitly.
        """
        config = self.config
        callbacks = []
        if config.lr_schedule == "step":
            callbacks.append(LRSchedule(StepLR(optimizer, config.lr_step_size,
                                               config.lr_gamma)))
        elif config.lr_schedule == "cosine":
            callbacks.append(LRSchedule(CosineLR(
                optimizer, config.epochs,
                warmup_epochs=config.lr_warmup_epochs, min_lr=config.lr_min)))
        if config.early_stopping_patience is not None:
            callbacks.append(EarlyStopping(
                patience=config.early_stopping_patience,
                min_delta=config.early_stopping_min_delta,
                restore_best=True,
            ))
        return callbacks

    def _make_schedule(self):
        config = self.config
        if config.schedule == "cosine":
            return make_schedule("cosine", config.num_steps)
        return make_schedule(config.schedule, config.num_steps,
                             beta_start=config.beta_start, beta_end=config.beta_end)

    def _build_network(self, num_features: int) -> List[np.ndarray]:
        """Construct the denoiser + diffusion stack for ``num_features`` channels.

        Shared by :meth:`fit` and checkpoint restoration so a deserialised
        detector rebuilds exactly the architecture that was trained.  Returns
        the mask set so :meth:`fit` can reuse it for training.
        """
        config = self.config
        masks = build_masks(config, config.window_size, num_features)
        model = ImTransformer(
            num_features=num_features,
            hidden_dim=config.hidden_dim,
            num_blocks=config.num_blocks,
            num_heads=config.num_heads,
            num_policies=max(len(masks), 2),
            include_temporal=config.include_temporal,
            include_spatial=config.include_spatial,
            rng=self._rng,
        )
        diffusion = GaussianDiffusion(self._make_schedule())
        self._imputer = ImputedDiffusion(model, diffusion, conditioning=config.conditioning)
        return masks

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def to_checkpoint(self) -> Tuple[Dict[str, np.ndarray], dict]:
        """Export the fitted detector as ``(arrays, metadata)``.

        ``arrays`` holds the denoiser weights (prefixed ``model.``) and the
        scaler statistics (prefixed ``scaler.``); ``metadata`` holds the
        configuration, feature count, training curve and the exact random
        generator state, so a restored detector continues the same random
        stream and produces bit-identical predictions.
        """
        self._check_fitted()
        arrays: Dict[str, np.ndarray] = {
            f"model.{name}": value
            for name, value in self._imputer.model.state_dict().items()
        }
        arrays["scaler.mean_"] = np.asarray(self._scaler.mean_)
        arrays["scaler.std_"] = np.asarray(self._scaler.std_)
        metadata = {
            "format_version": 1,
            "config": asdict(self.config),
            "num_features": int(self._num_features),
            "train_losses": [float(loss) for loss in self.train_losses],
            "val_losses": [float(loss) for loss in self.val_losses],
            "rng_state": self._rng.bit_generator.state,
        }
        return arrays, metadata

    @classmethod
    def from_checkpoint(cls, arrays: Dict[str, np.ndarray],
                        metadata: dict) -> "ImDiffusionDetector":
        """Rebuild a fitted detector from :meth:`to_checkpoint` output."""
        version = metadata.get("format_version")
        if version != 1:
            raise ValueError(f"unsupported checkpoint format version: {version!r}")
        config = ImDiffusionConfig(**metadata["config"])
        detector = cls(config)
        detector._num_features = int(metadata["num_features"])
        detector._scaler.mean_ = np.asarray(arrays["scaler.mean_"], dtype=np.float64)
        detector._scaler.std_ = np.asarray(arrays["scaler.std_"], dtype=np.float64)
        detector._build_network(detector._num_features)
        state = {
            name[len("model."):]: value
            for name, value in arrays.items()
            if name.startswith("model.")
        }
        detector._imputer.model.load_state_dict(state)
        detector.train_losses = [float(loss) for loss in metadata.get("train_losses", [])]
        detector.val_losses = [float(loss) for loss in metadata.get("val_losses", [])]
        rng_state = metadata.get("rng_state")
        if rng_state is not None:
            detector._rng.bit_generator.state = rng_state
        return detector

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def score(self, test: np.ndarray,
              score_workers: int = 1) -> Dict[int, np.ndarray]:
        """Per-timestamp imputation error for every visited denoising step.

        Returns a mapping ``progress -> errors`` where progress ``k`` runs
        from 1 (noisiest intermediate output) to :attr:`inference_steps`
        (final, fully denoised output) and ``errors`` has one entry per test
        timestamp.  With the full sampler :attr:`inference_steps` equals
        ``num_steps``; a strided sampler collects one entry per *visited*
        step of its trajectory.

        The whole pass runs grad-free: the denoiser is switched to eval mode
        and every reverse-diffusion call executes under
        :class:`repro.nn.no_grad`, so no autograd graph is ever built.

        The (mask policy, window chunk) task plan of
        :class:`ImputationScoreSpec` runs in-process at ``score_workers=1``
        (:class:`~repro.inference.SerialScoreReducer`) and fans out across
        that many spawned scoring workers above it
        (:class:`~repro.inference.MultiprocessScoreReducer`).  All randomness
        is drawn on the detector's generator in plan order and results are
        accumulated in plan order, so the scores — and the generator state
        afterwards — are identical for every worker count.
        """
        self._check_fitted()
        if score_workers < 1:
            raise ValueError("score_workers must be at least 1")
        config = self.config
        test = np.asarray(test, dtype=np.float64)
        if test.ndim != 2 or test.shape[1] != self._num_features:
            raise ValueError(
                f"test must have shape (time, {self._num_features})"
            )
        scaled = self._scaler.transform(test)
        windows, starts = sliding_windows(scaled, config.window_size,
                                          recommended_stride(config))
        spec = ImputationScoreSpec(self)

        length = scaled.shape[0]
        window = config.window_size
        num_collected = spec.sampler.num_inference_steps(config.num_steps)
        error_sum = {k: np.zeros((length, self._num_features))
                     for k in range(1, num_collected + 1)}
        masked_count = np.zeros((length, self._num_features))

        def scatter_add(task, step_squared):
            # For each progress (trajectory order), each window of the chunk
            # scatter-adds its errors at its start offset.
            chunk_starts = starts[task.start:task.stop]
            for progress, squared in step_squared.items():
                for window_error, start in zip(squared, chunk_starts):
                    error_sum[progress][start:start + window] += window_error

        reducer = (SerialScoreReducer(spec) if score_workers == 1
                   else MultiprocessScoreReducer(spec, score_workers))
        model = self._imputer.model
        was_training = model.training
        model.eval()
        try:
            with reducer:
                reducer.window_errors(windows, self._rng, on_result=scatter_add)
        finally:
            if was_training:
                model.train()
        for mask in spec.masks:
            target_region = 1.0 - mask
            for start in starts:
                masked_count[start:start + window] += target_region

        coverage = np.maximum(masked_count.sum(axis=1), 1.0)
        step_errors: Dict[int, np.ndarray] = {}
        for progress, totals in error_sum.items():
            step_errors[progress] = totals.sum(axis=1) / coverage
        return step_errors

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict(self, test: np.ndarray,
                score_workers: int = 1) -> DetectionResult:
        """Score ``test`` and derive binary anomaly labels.

        ``score_workers`` is forwarded to :meth:`score`; labels are
        worker-count-invariant because the scores are.
        """
        config = self.config
        start_time = time.perf_counter()
        step_errors = self.score(test, score_workers=score_workers)
        elapsed = time.perf_counter() - start_time

        voter = EnsembleVoter(
            error_percentile=config.error_percentile,
            vote_fraction=config.vote_fraction,
            step_stride=config.vote_step_stride,
            last_fraction=config.vote_last_fraction,
        )
        final_error = step_errors[max(step_errors)]
        if config.ensemble:
            decision = voter.vote(step_errors)
            labels = decision.labels
        else:
            decision = None
            labels = voter.single_step_labels(step_errors)
        return DetectionResult(
            labels=labels,
            scores=final_error,
            step_errors=step_errors,
            decision=decision,
            inference_seconds=elapsed,
        )

    def fit_predict(self, train: np.ndarray, test: np.ndarray,
                    score_workers: int = 1) -> DetectionResult:
        """Convenience wrapper: :meth:`fit` on ``train`` then :meth:`predict` on ``test``."""
        return self.fit(train).predict(test, score_workers=score_workers)

    # ------------------------------------------------------------------
    @property
    def model(self) -> Optional[ImTransformer]:
        """The trained denoiser network (``None`` before :meth:`fit`)."""
        if self._imputer is None:
            return None
        return self._imputer.model

    @property
    def num_features(self) -> Optional[int]:
        """Number of input channels the detector was fitted on."""
        return self._num_features

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` (or a checkpoint restore) has run."""
        return self._imputer is not None

    def _check_fitted(self) -> None:
        if self._imputer is None:
            raise RuntimeError("detector must be fitted before scoring")
