"""Configuration of the ImDiffusion detector.

The defaults mirror the paper's Table 1 where feasible; sizes that would make
CPU-only training impractical (window size, hidden width, number of diffusion
steps) are reduced, and every value is overridable.  DESIGN.md documents the
mapping between the paper's values and the defaults used here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from ..diffusion.samplers import SPACINGS, sampler_names
from ..training.loader import VALIDATION_SPLITS

__all__ = ["ImDiffusionConfig"]

MODELING_MODES = ("imputation", "forecasting", "reconstruction")
MASKING_STRATEGIES = ("grating", "random")
CONDITIONING_MODES = ("unconditional", "conditional")
LR_SCHEDULES = (None, "step", "cosine")


@dataclass
class ImDiffusionConfig:
    """Hyper-parameters of :class:`repro.core.ImDiffusionDetector`.

    Attributes mirror the paper's terminology:

    * ``window_size`` — detection window size (paper: 100).
    * ``num_masked_windows`` / ``num_unmasked_windows`` — grating chunks (5/5).
    * ``num_steps`` — total denoising steps ``T`` (paper: 50).
    * ``hidden_dim`` / ``num_blocks`` — ImTransformer width / residual blocks
      (paper: 128 / 4).
    * ``error_percentile`` — the upper percentile of final-step imputed errors
      used as the base threshold ``tau_T`` of Eq. (12).
    * ``vote_fraction`` — fraction of ensemble votes ``xi`` required to flag a
      timestamp as anomalous.
    * ``vote_step_stride`` / ``vote_last_fraction`` — the paper samples every
      3rd of the last 30 denoising steps (of 50) for voting; here expressed as
      a stride and a trailing fraction so it scales with ``num_steps``.
    * ``mode`` — ``imputation`` (ImDiffusion), ``forecasting`` or
      ``reconstruction`` (the modelling-mode ablations of Sec. 5.3.1).
    * ``sampler`` / ``num_inference_steps`` — the inference engine's
      speed/accuracy knob: ``"full"`` walks every reverse step (the exact
      paper algorithm); the subsequence samplers (``"strided"``, ``"ddim"``,
      ``"pndm"``) visit ``num_inference_steps`` steps, cutting denoiser
      calls by ``~num_steps / num_inference_steps``.  Samplers are resolved
      against the :mod:`repro.diffusion.samplers` registry, so registered
      third-party samplers are valid here too.  Setting
      ``num_inference_steps`` with the default ``sampler="full"`` implies
      ``sampler="strided"``; when only a subsequence sampler is named, its
      trajectory defaults to roughly a quarter of the steps (a ~4x scoring
      speedup).
    * ``ddim_eta`` — transition-noise scale of the ``"ddim"`` sampler's
      jumps: 0 (default) is the deterministic rule (bit-identical to
      ``"strided"``), 1 matches the DDPM posterior variance.
    * ``stride_spacing`` — step spacing of subsequence trajectories:
      ``"uniform"`` (default), ``"quadratic"`` or ``"karras"`` (both
      concentrate visited steps near ``t = 1``).
    * ``validation_fraction`` — hold this fraction of the training windows
      out of gradient descent; the held-out denoising loss is evaluated
      grad-free at every epoch end (with a dedicated generator, so the
      training random stream is untouched) and becomes the metric early
      stopping and best snapshots monitor.  0 disables validation.
    * ``validation_split`` — how the held-out windows are chosen:
      ``"random"`` draws a deterministic permutation, ``"tail"`` holds out
      the last windows of the series (closest to production drift
      monitoring, and consumes no randomness).
    * ``validation_antithetic`` — variance-reduced validation: evaluate the
      held-out denoising loss at each drawn noise *and its negation* and
      average the pair (antithetic variates on top of the common-random-
      numbers reseed), so early stopping triggers on signal rather than
      sampler variance.  Costs a second grad-free forward pass per
      validation batch; off by default to preserve the historical loss
      stream bit for bit.
    * ``num_workers`` — the ``num_workers`` of :class:`repro.training.Trainer`:
      1 (the default) computes each batch's loss spec in-process; more
      shards every batch across that many spawned gradient workers whose
      averaged gradients feed the single optimizer step.  The random stream
      is identical for every worker count, and parameters agree up to float
      summation order.
    * ``early_stopping_patience`` / ``early_stopping_min_delta`` — training
      engine: stop after this many non-improving epochs (on the held-out
      loss when ``validation_fraction > 0``, the train loss otherwise) and
      restore the best weights; ``None`` always runs ``epochs`` epochs.
    * ``lr_schedule`` — ``None`` keeps the learning rate constant; ``"step"``
      decays by ``lr_gamma`` every ``lr_step_size`` epochs; ``"cosine"``
      anneals from ``learning_rate`` down to ``lr_min`` with
      ``lr_warmup_epochs`` of linear warmup.
    """

    # Windowing / masking
    window_size: int = 64
    stride: Optional[int] = None
    mode: str = "imputation"
    masking: str = "grating"
    num_masked_windows: int = 5
    num_unmasked_windows: int = 5
    random_mask_ratio: float = 0.5

    # Diffusion
    num_steps: int = 20
    schedule: str = "quadratic"
    beta_start: float = 1e-4
    beta_end: float = 0.25
    conditioning: str = "unconditional"

    # Denoiser network
    hidden_dim: int = 32
    num_blocks: int = 2
    num_heads: int = 4
    include_temporal: bool = True
    include_spatial: bool = True

    # Training
    epochs: int = 5
    batch_size: int = 8
    learning_rate: float = 1e-3
    grad_clip: float = 5.0
    max_train_windows: Optional[int] = 64
    train_stride: Optional[int] = None
    validation_fraction: float = 0.0
    validation_split: str = "random"
    validation_antithetic: bool = False
    num_workers: int = 1
    early_stopping_patience: Optional[int] = None
    early_stopping_min_delta: float = 0.0
    lr_schedule: Optional[str] = None
    lr_warmup_epochs: int = 0
    lr_step_size: int = 10
    lr_gamma: float = 0.5
    lr_min: float = 0.0

    # Inference engine
    sampler: str = "full"
    num_inference_steps: Optional[int] = None
    ddim_eta: float = 0.0
    stride_spacing: str = "uniform"

    # Inference / ensembling
    ensemble: bool = True
    collect: str = "sample"
    error_percentile: float = 97.5
    vote_fraction: float = 0.5
    vote_step_stride: int = 3
    vote_last_fraction: float = 0.6
    deterministic_inference: bool = False

    # Misc
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in MODELING_MODES:
            raise ValueError(f"mode must be one of {MODELING_MODES}")
        if self.masking not in MASKING_STRATEGIES:
            raise ValueError(f"masking must be one of {MASKING_STRATEGIES}")
        if self.conditioning not in CONDITIONING_MODES:
            raise ValueError(f"conditioning must be one of {CONDITIONING_MODES}")
        if self.window_size < 4:
            raise ValueError("window_size must be at least 4")
        if self.num_steps < 2:
            raise ValueError("num_steps must be at least 2")
        if not 0.0 < self.vote_fraction <= 1.0:
            raise ValueError("vote_fraction must be in (0, 1]")
        if not 0.0 < self.error_percentile < 100.0:
            raise ValueError("error_percentile must be in (0, 100)")
        if self.sampler not in sampler_names():
            raise ValueError(f"sampler must be one of {sampler_names()}")
        if not 0.0 <= self.ddim_eta <= 1.0:
            raise ValueError("ddim_eta must lie in [0, 1]")
        if self.ddim_eta > 0.0 and self.sampler != "ddim":
            raise ValueError("ddim_eta > 0 requires sampler='ddim'")
        if self.stride_spacing not in SPACINGS:
            raise ValueError(f"stride_spacing must be one of {SPACINGS}")
        if self.lr_schedule not in LR_SCHEDULES:
            raise ValueError(f"lr_schedule must be one of {LR_SCHEDULES}")
        if self.early_stopping_patience is not None and self.early_stopping_patience < 1:
            raise ValueError("early_stopping_patience must be at least 1")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must lie in [0, 1)")
        if self.validation_split not in VALIDATION_SPLITS:
            raise ValueError(f"validation_split must be one of {VALIDATION_SPLITS}")
        if self.num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        if not 0 <= self.lr_warmup_epochs < max(self.epochs, 1):
            raise ValueError("lr_warmup_epochs must lie in [0, epochs)")
        if self.num_inference_steps is not None:
            if not 2 <= self.num_inference_steps <= self.num_steps:
                raise ValueError(
                    "num_inference_steps must lie in [2, num_steps]"
                )
            # Asking for fewer inference steps only makes sense with a
            # subsequence sampler; setting the knob implies the strided one
            # rather than being silently ignored by the full trajectory (an
            # explicitly chosen zoo sampler is kept as-is).
            if self.sampler == "full":
                self.sampler = "strided"
        if self.stride_spacing != "uniform" and self.sampler == "full":
            raise ValueError(
                "stride_spacing applies to subsequence samplers; "
                "pick one of "
                + str(tuple(n for n in sampler_names() if n != "full")))
        if self.stride is None:
            self.stride = self.window_size

    def with_overrides(self, **kwargs) -> "ImDiffusionConfig":
        """Return a copy with the given fields replaced (ablation helper)."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    # Inference engine
    # ------------------------------------------------------------------
    def build_sampler(self):
        """The :class:`~repro.diffusion.ReverseSampler` this config selects."""
        from ..diffusion.samplers import make_sampler

        if self.sampler == "full":
            return make_sampler("full")
        steps = self.num_inference_steps
        if steps is None:
            # A subsequence sampler named without a step budget defaults to
            # roughly a quarter of the trajectory (a ~4x scoring speedup).
            steps = max(2, int(np.ceil(self.num_steps / 4)))
        return make_sampler(
            self.sampler, num_inference_steps=steps,
            spacing=self.stride_spacing if self.stride_spacing != "uniform" else None,
            eta=self.ddim_eta if self.sampler == "ddim" else None)

    @property
    def inference_steps(self) -> int:
        """Denoiser calls per reverse pass (= collected intermediate steps).

        Equals ``num_steps`` for the full sampler and the strided
        trajectory's length otherwise; every scoring consumer (detector,
        serving scorer, ensemble voter) sizes its per-step structures with
        this value, not with ``num_steps``.
        """
        return self.build_sampler().num_inference_steps(self.num_steps)
