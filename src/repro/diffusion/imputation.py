"""Imputed diffusion models (Sec. 4.1 of the paper).

This module couples the generic DDPM machinery with a denoiser network and a
masking strategy to perform *time-series imputation by diffusion*:

* **Unconditional** imputed diffusion (the ImDiffusion default): both masked
  and unmasked values are corrupted; the model only ever sees the forward
  noise of the unmasked region as a reference, never the raw values.  This
  widens the imputation-error gap between normal and anomalous points.
* **Conditional** imputed diffusion (the CSDI-style ablation): the clean
  unmasked values are given to the model directly.

The class operates on windows of shape ``(batch, window_length, num_features)``
with observation masks of the same shape (1 = observed, 0 = masked).

Randomness is drawn in exactly two places: :meth:`ImputedDiffusion
.draw_training_noise` (timesteps and forward noise of the Eq. (11) loss) and
:meth:`ImputedDiffusion.draw_impute_noise` (every draw of one reverse pass,
bundled as an :class:`ImputeNoise`).  ``training_loss`` and ``impute`` given
an ``rng`` call these and then run the same rng-free code as a caller that
passes the draws in, so there is one reverse loop and one loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..nn import Tensor, no_grad
from ..nn import functional as F
from .ddpm import GaussianDiffusion
from .samplers import FullReverseSampler, ReverseSampler

__all__ = ["ImputationResult", "ImputeNoise", "ImputedDiffusion"]

CONDITIONING_MODES = ("unconditional", "conditional")


@dataclass
class ImputationResult:
    """Output of a reverse-diffusion imputation pass.

    Attributes
    ----------
    final:
        The fully denoised windows, shape ``(batch, window_length, num_features)``.
        Observed positions carry the ground-truth values; masked positions the
        imputed values.
    intermediate:
        A list of ``(step, windows)`` pairs with the *partially* denoised
        prediction after each reverse step, ordered from the noisiest visited
        step down to 1.  These are the signals consumed by the ensemble
        voting mechanism.  Under a strided sampler the list holds one entry
        per *visited* step only — :meth:`steps` always reflects the actual
        trajectory, never the nominal ``T .. 1`` range.
    """

    final: np.ndarray
    intermediate: List[Tuple[int, np.ndarray]]

    def steps(self) -> List[int]:
        """Visited diffusion steps, descending (the sampler's trajectory)."""
        return [step for step, _ in self.intermediate]


@dataclass
class ImputeNoise:
    """Pre-drawn randomness of one :meth:`ImputedDiffusion.impute` call.

    Produced by :meth:`ImputedDiffusion.draw_impute_noise`, the one place
    the reverse process draws, and consumed by
    :meth:`~ImputedDiffusion.impute`, which runs rng-free on it (the sharded
    inference engine draws in the parent and computes in scoring workers).
    All arrays are in the model's native ``(batch, K, L)`` layout.

    Attributes
    ----------
    prior:
        The ``x_T`` prior sample, shape ``(batch, K, L)``.
    reference:
        Per visited step, the reference-channel forward noise
        (``(batch, K, L)`` each, ordered along the trajectory).
    transition:
        Per visited step, the reverse-transition noise — ``None`` for steps
        whose transition is noise-free for the sampler in use (deterministic
        inference, ``eta = 0`` jumps and the terminal ``t == 1`` step;
        stochastic ``eta > 0`` DDIM jumps *do* carry a draw).  Which steps
        sample is the sampler's :meth:`~repro.diffusion.ReverseSampler
        .samples_noise` contract.
    """

    prior: np.ndarray
    reference: List[np.ndarray]
    transition: List[Optional[np.ndarray]]

    @property
    def batch_size(self) -> int:
        return int(self.prior.shape[0])


class ImputedDiffusion:
    """Train and run a diffusion model as a time-series imputer."""

    def __init__(self, model, diffusion: GaussianDiffusion,
                 conditioning: str = "unconditional") -> None:
        if conditioning not in CONDITIONING_MODES:
            raise ValueError(f"conditioning must be one of {CONDITIONING_MODES}")
        self.model = model
        self.diffusion = diffusion
        self.conditioning = conditioning

    # ------------------------------------------------------------------
    # Input construction
    # ------------------------------------------------------------------
    def _build_input(self, corrupted_masked: np.ndarray, reference: np.ndarray) -> np.ndarray:
        """Stack the two input channels into ``(batch, 2, K, L)``."""
        return np.stack([corrupted_masked, reference], axis=1)

    def _reference_channel(self, x0_kl: np.ndarray, observed: np.ndarray,
                           noise: np.ndarray) -> np.ndarray:
        """Reference channel on the observed region (Sec. 4.1).

        For the unconditional model this is the forward noise applied to the
        unmasked values; for the conditional model it is the clean values.
        """
        if self.conditioning == "unconditional":
            return noise * observed
        return x0_kl * observed

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def draw_training_noise(self, windows: np.ndarray, rng: np.random.Generator
                            ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw the ``(steps, noise)`` randomness of :meth:`training_loss`.

        The only place the loss's randomness is drawn: ``training_loss(rng)``
        calls it, and a caller can call it once on a shared generator and
        evaluate the loss rng-free (the data-parallel engine draws in the
        parent and computes in the workers).  ``noise`` is returned in the
        model's native ``(batch, K, L)`` layout.
        """
        windows = np.asarray(windows, dtype=np.float64)
        steps = self.diffusion.sample_timesteps(windows.shape[0], rng)
        noise = rng.standard_normal(windows.transpose(0, 2, 1).shape)
        return steps, noise

    def training_loss(self, windows: np.ndarray, masks: np.ndarray,
                      policies: np.ndarray,
                      rng: Optional[np.random.Generator] = None,
                      steps: Optional[np.ndarray] = None,
                      noise: Optional[np.ndarray] = None) -> Tensor:
        """Denoising loss of Eq. (11), evaluated on the masked region only.

        Parameters
        ----------
        windows:
            Ground-truth windows, shape ``(batch, window_length, num_features)``.
        masks:
            Observation masks of the same shape (1 = observed).
        policies:
            Masking-policy indices ``p`` of shape ``(batch,)``.
        rng:
            Generator the timestep/noise draws are made from through
            :meth:`draw_training_noise`; may be omitted when both ``steps``
            and ``noise`` are given.
        steps, noise:
            Pre-drawn diffusion timesteps ``(batch,)`` and forward noise in
            ``(batch, K, L)`` layout.
        """
        windows = np.asarray(windows, dtype=np.float64)
        masks = np.asarray(masks, dtype=np.float64)
        if windows.shape != masks.shape:
            raise ValueError("windows and masks must have the same shape")

        # Work in (batch, K, L) layout, the model's native orientation.
        x0 = windows.transpose(0, 2, 1)
        observed = masks.transpose(0, 2, 1)
        target_region = 1.0 - observed

        if steps is None or noise is None:
            if rng is None:
                raise ValueError(
                    "training_loss needs an rng unless steps and noise are pre-drawn"
                )
            steps, noise = self.draw_training_noise(windows, rng)
        alpha_bars = self.diffusion.schedule.alpha_bars[steps - 1][:, None, None]
        x_t = np.sqrt(alpha_bars) * x0 + np.sqrt(1.0 - alpha_bars) * noise

        corrupted_masked = x_t * target_region
        reference = self._reference_channel(x0, observed, noise)
        model_input = self._build_input(corrupted_masked, reference)

        predicted = self.model(model_input, steps, policies)
        return F.masked_mse_loss(predicted, Tensor(noise), target_region)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def draw_impute_noise(self, windows: np.ndarray, rng: np.random.Generator,
                          sampler: Optional[ReverseSampler] = None,
                          deterministic: bool = False) -> ImputeNoise:
        """Draw every random number of one :meth:`impute` call.

        The draws, in order: the ``x_T`` prior, then per visited step the
        reference-channel noise and, when the sampler's
        :meth:`~repro.diffusion.ReverseSampler.samples_noise` says that
        step's transition samples, the reverse-transition noise.  This is
        the only place the reverse process draws: ``impute(..., rng)`` calls
        it and then runs on the payload, so drawing here and passing
        ``noise=`` leaves the generator in the same state with the same
        result.
        """
        sampler = sampler or FullReverseSampler()
        windows = np.asarray(windows, dtype=np.float64)
        kl_shape = windows.transpose(0, 2, 1).shape
        prior = self.diffusion.prior_sample(kl_shape, rng)
        table = sampler.transition_table(self.diffusion)
        reference: List[np.ndarray] = []
        transition: List[Optional[np.ndarray]] = []
        for t, t_prev in zip(table.steps, table.prev_steps):
            reference.append(rng.standard_normal(kl_shape))
            # The sampler itself declares which transitions consume a draw
            # (adjacent DDPM steps, stochastic eta > 0 jumps, ...); its step
            # adds noise exactly when handed a draw.
            if sampler.samples_noise(t, t_prev, deterministic):
                transition.append(rng.standard_normal(kl_shape))
            else:
                transition.append(None)
        return ImputeNoise(prior=prior, reference=reference, transition=transition)

    def impute(self, windows: np.ndarray, masks: np.ndarray, policies: np.ndarray,
               rng: Optional[np.random.Generator], collect: str = "sample",
               deterministic: bool = False,
               sampler: Optional[ReverseSampler] = None,
               noise: Optional[ImputeNoise] = None) -> ImputationResult:
        """Impute the masked region by running the reverse process.

        The whole pass executes under :class:`repro.nn.no_grad` — imputation
        is pure inference, so no autograd graph is built for any of the
        denoiser calls.

        Parameters
        ----------
        windows:
            Ground-truth windows ``(batch, window_length, num_features)``; the
            observed positions are used as context (directly or through their
            forward noise), the masked positions are re-generated from noise.
        rng:
            Generator the pass's randomness is drawn from through
            :meth:`draw_impute_noise`; may be ``None`` when ``noise`` is given.
        collect:
            ``"sample"`` collects the partially denoised sample ``x_{t-1}`` at
            every step (Algorithm 1 of the paper); ``"x0"`` collects the
            implied clean estimate, which is a lower-variance alternative.
        deterministic:
            If True, the reverse process uses the posterior mean without
            sampling noise (useful for tests and reproducible examples).
        sampler:
            The reverse trajectory to walk; defaults to
            :class:`~repro.diffusion.FullReverseSampler` (every step ``T..1``,
            identical to the pre-engine loop).  A strided sampler visits a
            subsequence, cutting denoiser calls proportionally.
        noise:
            Pre-drawn randomness from :meth:`draw_impute_noise` for the same
            ``(windows, sampler, deterministic)``; the pass then draws
            nothing.
        """
        if collect not in ("sample", "x0"):
            raise ValueError("collect must be 'sample' or 'x0'")
        sampler = sampler or FullReverseSampler()
        windows = np.asarray(windows, dtype=np.float64)
        masks = np.asarray(masks, dtype=np.float64)
        batch = windows.shape[0]
        if noise is None:
            if rng is None:
                raise ValueError("impute needs an rng unless noise is pre-drawn")
            noise = self.draw_impute_noise(windows, rng, sampler=sampler,
                                           deterministic=deterministic)
        elif noise.batch_size != batch:
            raise ValueError(
                f"noise payload covers {noise.batch_size} windows, got {batch}")

        x0 = windows.transpose(0, 2, 1)
        observed = masks.transpose(0, 2, 1)
        target_region = 1.0 - observed

        x_t = noise.prior * target_region
        intermediate: List[Tuple[int, np.ndarray]] = []
        # The cached table turns every transition into indexed
        # scalar-times-array arithmetic: no per-step schedule gathers.
        table = sampler.transition_table(self.diffusion)
        sampler_state = sampler.init_state()

        with no_grad():
            for i, t in enumerate(table.steps):
                steps = np.full(batch, t, dtype=np.int64)
                reference = self._reference_channel(x0, observed,
                                                    noise.reference[i])
                model_input = self._build_input(x_t * target_region, reference)
                predicted_eps = self.model(model_input, steps, policies).data

                if collect == "x0":
                    estimate = (x_t - table.sqrt_one_minus_alpha_bar[i]
                                * predicted_eps) / table.sqrt_alpha_bar[i]
                x_prev = sampler.step(table, i, x_t, predicted_eps,
                                      noise=noise.transition[i],
                                      state=sampler_state)
                x_prev = x_prev * target_region
                if collect == "sample":
                    estimate = x_prev

                merged = estimate * target_region + x0 * observed
                intermediate.append((t, merged.transpose(0, 2, 1)))
                x_t = x_prev

        final = (x_t * target_region + x0 * observed).transpose(0, 2, 1)
        return ImputationResult(final=final, intermediate=intermediate)
