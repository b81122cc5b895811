"""Frozen reference reverse process: the bit-identity pins of the one-path loop.

The reverse process now has one path: :meth:`ImputedDiffusion.draw_impute_noise`
draws every random number, :meth:`ImputedDiffusion.impute` runs on that
payload, and every :meth:`ReverseSampler.step` reads the cached
:class:`~repro.diffusion.TransitionTable`.  The paths that replaced live on
here, copied verbatim:

* :func:`frozen_impute` — the reverse loop that drew its randomness from
  ``rng`` inside the loop (``prior_sample``, then per step the reference
  noise and, through the step, the transition noise);
* :func:`frozen_step` — the sampler transition rules with both branches:
  the tabled one and the ``table=None`` one that recomputes every
  coefficient from the schedule (``p_sample`` for adjacent steps, the DDIM
  closed form for jumps), each able to draw its own noise.

Only ``self`` became the explicit ``sampler``/``imputer`` argument, and the
rules are dispatched by sampler class in :func:`frozen_step`.  Tests and
benchmarks compare the live path against these bitwise.

Imported as ``frozen_reverse_process`` by the tier-1 suite and as
``tests.frozen_reverse_process`` by the benchmark harness.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.diffusion import (
    FullReverseSampler,
    ImputationResult,
    PNDMSampler,
    StridedReverseSampler,
)
from repro.nn import no_grad


# ----------------------------------------------------------------------
# Transition rules (ReverseSampler._ddpm_step / _jump_step and each step)
# ----------------------------------------------------------------------
def _ddpm_step(sampler, diffusion, x_t, t, eps, rng, deterministic, noise,
               table, index):
    """Exact DDPM posterior step at ``t`` (adjacent transitions)."""
    if table is None:
        return diffusion.p_sample(x_t, t, eps, rng=rng,
                                  deterministic=deterministic, noise=noise)
    mean = (x_t - table.ddpm_eps_coef[index] * eps) / table.sqrt_alpha[index]
    if deterministic or t == 1:
        return mean
    if noise is None:
        rng = rng or np.random.default_rng()
        noise = rng.standard_normal(x_t.shape)
    return mean + table.ddpm_sigma[index] * noise


def _jump_step(sampler, diffusion, x_t, t, t_prev, eps, rng, deterministic,
               noise, table, index):
    """Generalised DDIM jump ``t -> t_prev`` at this sampler's ``eta``."""
    if table is not None:
        x0_hat = (x_t - table.sqrt_one_minus_alpha_bar[index] * eps) \
            / table.sqrt_alpha_bar[index]
        x_prev = table.jump_x0_coef[index] * x0_hat \
            + table.jump_eps_coef[index] * eps
        sigma = table.jump_sigma[index]
    else:
        alpha_bar = diffusion.schedule.alpha_bars[t - 1]
        alpha_bar_prev = (diffusion.schedule.alpha_bars[t_prev - 1]
                          if t_prev >= 1 else 1.0)
        sigma = sampler.eta * np.sqrt((1.0 - alpha_bar_prev) / (1.0 - alpha_bar)) \
            * np.sqrt(max(1.0 - alpha_bar / alpha_bar_prev, 0.0))
        x0_hat = diffusion.predict_x0_from_eps(x_t, t, eps)
        x_prev = np.sqrt(alpha_bar_prev) * x0_hat \
            + np.sqrt(max(1.0 - alpha_bar_prev - sigma ** 2, 0.0)) * eps
    if sigma > 0.0 and not deterministic and t_prev >= 1:
        if noise is None:
            rng = rng or np.random.default_rng()
            noise = rng.standard_normal(x_t.shape)
        return x_prev + sigma * noise
    return x_prev


def _full_step(sampler, diffusion, x_t, t, t_prev, eps, rng=None,
               deterministic=False, noise=None, table=None, index=None,
               state=None):
    if t_prev != t - 1:
        raise ValueError(
            f"FullReverseSampler only takes adjacent steps, got {t} -> {t_prev}")
    return _ddpm_step(sampler, diffusion, x_t, t, eps, rng, deterministic,
                      noise, table, index)


def _strided_step(sampler, diffusion, x_t, t, t_prev, eps, rng=None,
                  deterministic=False, noise=None, table=None, index=None,
                  state=None):
    if t_prev == t - 1:
        # Adjacent transition: the exact DDPM step, identical to the full
        # trajectory (this is what makes stride 1 a strict no-op).
        return _ddpm_step(sampler, diffusion, x_t, t, eps, rng, deterministic,
                          noise, table, index)
    # Non-adjacent jumps are the deterministic DDIM update: noise-free
    # at eta = 0, so an injected draw is never consumed here.
    return _jump_step(sampler, diffusion, x_t, t, t_prev, eps, rng,
                      deterministic, noise, table, index)


def _pndm_step(sampler, diffusion, x_t, t, t_prev, eps, rng=None,
               deterministic=False, noise=None, table=None, index=None,
               state=None):
    prev_eps = state.get("prev_eps") if state is not None else None
    eps_used = eps if prev_eps is None else (3.0 * eps - prev_eps) / 2.0
    if state is not None:
        state["prev_eps"] = eps
    if table is not None:
        x0_hat = (x_t - table.sqrt_one_minus_alpha_bar[index] * eps_used) \
            / table.sqrt_alpha_bar[index]
        return table.jump_x0_coef[index] * x0_hat \
            + table.jump_eps_coef[index] * eps_used
    alpha_bar = diffusion.schedule.alpha_bars[t - 1]
    alpha_bar_prev = (diffusion.schedule.alpha_bars[t_prev - 1]
                      if t_prev >= 1 else 1.0)
    x0_hat = (x_t - np.sqrt(1.0 - alpha_bar) * eps_used) / np.sqrt(alpha_bar)
    return np.sqrt(alpha_bar_prev) * x0_hat \
        + np.sqrt(1.0 - alpha_bar_prev) * eps_used


def frozen_step(sampler, diffusion, x_t, t, t_prev, eps, rng=None,
                deterministic=False, noise=None, table=None, index=None,
                state=None):
    """The frozen ``sampler.step`` rule of ``sampler``'s class."""
    if isinstance(sampler, PNDMSampler):
        rule = _pndm_step
    elif isinstance(sampler, StridedReverseSampler):  # DDIMSampler included
        rule = _strided_step
    elif isinstance(sampler, FullReverseSampler):
        rule = _full_step
    else:
        raise TypeError(f"no frozen rule for {type(sampler).__name__}")
    return rule(sampler, diffusion, x_t, t, t_prev, eps, rng=rng,
                deterministic=deterministic, noise=noise, table=table,
                index=index, state=state)


# ----------------------------------------------------------------------
# The in-loop reverse process (ImputedDiffusion.impute)
# ----------------------------------------------------------------------
def frozen_impute(imputer, windows: np.ndarray, masks: np.ndarray,
                  policies: np.ndarray, rng: Optional[np.random.Generator],
                  collect: str = "sample", deterministic: bool = False,
                  sampler=None, noise=None) -> ImputationResult:
    """``ImputedDiffusion.impute`` with its in-loop draws, frozen."""
    if collect not in ("sample", "x0"):
        raise ValueError("collect must be 'sample' or 'x0'")
    sampler = sampler or FullReverseSampler()
    windows = np.asarray(windows, dtype=np.float64)
    masks = np.asarray(masks, dtype=np.float64)
    batch = windows.shape[0]
    if noise is None and rng is None:
        raise ValueError("impute needs an rng unless noise is pre-drawn")
    if noise is not None and noise.batch_size != batch:
        raise ValueError(
            f"noise payload covers {noise.batch_size} windows, got {batch}")

    x0 = windows.transpose(0, 2, 1)
    observed = masks.transpose(0, 2, 1)
    target_region = 1.0 - observed

    prior = (noise.prior if noise is not None
             else imputer.diffusion.prior_sample(x0.shape, rng))
    x_t = prior * target_region
    intermediate: List[Tuple[int, np.ndarray]] = []
    trajectory = sampler.trajectory(imputer.diffusion.num_steps)
    # Hoist the per-step schedule gathers / sqrt work out of the loop:
    # the cached table turns every transition into indexed
    # scalar-times-array arithmetic (bit-identical to the direct path).
    table = imputer.diffusion.transition_table(trajectory, eta=sampler.eta)
    sampler_state = sampler.init_state()

    with no_grad():
        for i, t in enumerate(trajectory):
            t_prev = trajectory[i + 1] if i + 1 < len(trajectory) else 0
            steps = np.full(batch, t, dtype=np.int64)
            step_noise = (noise.reference[i] if noise is not None
                          else rng.standard_normal(x0.shape))
            reference = imputer._reference_channel(x0, observed, step_noise)
            model_input = imputer._build_input(x_t * target_region, reference)
            predicted_eps = imputer.model(model_input, steps, policies).data

            if collect == "x0":
                estimate = (x_t - table.sqrt_one_minus_alpha_bar[i]
                            * predicted_eps) / table.sqrt_alpha_bar[i]
            x_prev = frozen_step(sampler, imputer.diffusion, x_t, t, t_prev,
                                 predicted_eps, rng=rng,
                                 deterministic=deterministic,
                                 noise=(noise.transition[i]
                                        if noise is not None else None),
                                 table=table, index=i, state=sampler_state)
            x_prev = x_prev * target_region
            if collect == "sample":
                estimate = x_prev

            merged = estimate * target_region + x0 * observed
            intermediate.append((t, merged.transpose(0, 2, 1)))
            x_t = x_prev

    final = (x_t * target_region + x0 * observed).transpose(0, 2, 1)
    return ImputationResult(final=final, intermediate=intermediate)
