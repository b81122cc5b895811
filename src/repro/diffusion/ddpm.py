"""Core DDPM machinery: forward corruption and reverse denoising steps.

The :class:`GaussianDiffusion` class implements the equations of Sec. 3.3 of
the paper on plain NumPy arrays (the denoiser network is the only learnable
component, handled by the caller).  It is intentionally model-agnostic: the
imputation-specific logic (masks, conditioning on forward noise) lives in
:mod:`repro.diffusion.imputation`.

Every step argument ``t`` is either a scalar (the classic single-timestep
form) or an integer array of shape ``(batch,)``, in which case the schedule
coefficients are gathered per sample and broadcast against the data — the
array form is what lets one denoiser/reverse-step call serve a micro-batch
whose windows sit at *different* points of the reverse trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .schedule import NoiseSchedule

__all__ = ["GaussianDiffusion", "TransitionTable"]

StepLike = Union[int, np.integer, np.ndarray]


def _require_rng(rng: Optional[np.random.Generator], caller: str) -> np.random.Generator:
    if rng is None:
        raise ValueError(f"{caller} needs noise or an rng to draw it from")
    return rng


@dataclass(frozen=True)
class TransitionTable:
    """Per-trajectory reverse-transition coefficients, gathered once.

    One entry per visited step of a reverse trajectory.  The inner loop of
    :meth:`repro.diffusion.ImputedDiffusion.impute` repeats the same scalar
    schedule gathers and ``sqrt`` work at every step of every window batch;
    this table hoists all of it into a single vectorised precomputation so a
    reverse step reduces to indexed scalar-times-array arithmetic.

    Every reverse transition reads its coefficients from this table; there
    is no other path.  Each coefficient is the float expression of the
    :class:`GaussianDiffusion` closed forms (``posterior_mean_from_eps``,
    ``p_sample``, ``predict_x0_from_eps``) with the same operand order, so a
    tabled step matches the closed form bit for bit — the equivalence the
    sampler test suites check against those closed forms.

    Attributes
    ----------
    steps / prev_steps:
        The visited steps ``t`` (descending) and each entry's successor
        ``t_prev`` (0 terminates the trajectory).
    sqrt_alpha_bar / sqrt_one_minus_alpha_bar:
        ``sqrt(abar_t)`` and ``sqrt(1 - abar_t)`` — the ``x0``-from-``eps``
        coefficients at ``t``.
    sqrt_alpha / ddpm_eps_coef / ddpm_sigma:
        The exact DDPM posterior step at ``t``:
        ``mean = (x_t - ddpm_eps_coef * eps) / sqrt_alpha`` with noise scale
        ``ddpm_sigma = sqrt(posterior_variance(t))`` (valid for adjacent
        transitions ``t -> t-1``).
    jump_x0_coef / jump_eps_coef / jump_sigma:
        The (generalised) DDIM transition to ``t_prev``:
        ``x_prev = jump_x0_coef * x0_hat + jump_eps_coef * eps
        + jump_sigma * z`` where ``jump_x0_coef = sqrt(abar_prev)``,
        ``jump_sigma`` is the DDIM ``sigma_t(eta)`` and ``jump_eps_coef =
        sqrt(1 - abar_prev - jump_sigma**2)``.  At ``eta = 0`` this is the
        deterministic jump rule bit for bit; terminal entries
        (``t_prev == 0``) use ``abar_prev = 1``.
    eta:
        The DDIM noise scale the jump columns were built for.
    """

    steps: Tuple[int, ...]
    prev_steps: Tuple[int, ...]
    eta: float
    sqrt_alpha_bar: np.ndarray
    sqrt_one_minus_alpha_bar: np.ndarray
    sqrt_alpha: np.ndarray
    ddpm_eps_coef: np.ndarray
    ddpm_sigma: np.ndarray
    jump_x0_coef: np.ndarray
    jump_eps_coef: np.ndarray
    jump_sigma: np.ndarray

    def __len__(self) -> int:
        return len(self.steps)


class GaussianDiffusion:
    """Forward / reverse process utilities for a fixed :class:`NoiseSchedule`.

    All step indices ``t`` are 1-based (``1 .. T``) to match the paper's
    notation; index ``t`` therefore reads array position ``t - 1``.  Scalar
    and array-valued ``t`` are both accepted everywhere (see module
    docstring).
    """

    def __init__(self, schedule: NoiseSchedule) -> None:
        self.schedule = schedule
        self._table_cache: Dict[Tuple[Tuple[int, ...], float], TransitionTable] = {}
        self._table_schedule: NoiseSchedule = schedule

    @property
    def num_steps(self) -> int:
        return self.schedule.num_steps

    def __getstate__(self):
        # The table cache is a pure derived quantity: drop it when pickling
        # (e.g. shipping a scoring spec to inference workers) so payload size
        # and content never depend on which trajectories ran first.
        state = self.__dict__.copy()
        state["_table_cache"] = {}
        state["_table_schedule"] = state["schedule"]
        return state

    # ------------------------------------------------------------------
    # Cached transition tables
    # ------------------------------------------------------------------
    def transition_table(self, trajectory: Sequence[int], eta: float = 0.0) -> TransitionTable:
        """The :class:`TransitionTable` of a reverse trajectory, cached.

        Tables are memoised per ``(trajectory, eta)`` and invalidated when
        :attr:`schedule` is replaced, so repeated ``impute`` calls — and the
        per-window-chunk calls of the sharded scoring engine — pay the
        schedule gathers and ``sqrt`` work exactly once.
        """
        key = (tuple(int(t) for t in trajectory), float(eta))
        if self._table_schedule is not self.schedule:
            self._table_cache = {}
            self._table_schedule = self.schedule
        table = self._table_cache.get(key)
        if table is None:
            table = self._build_transition_table(key[0], key[1])
            self._table_cache[key] = table
        return table

    def _build_transition_table(self, steps: Tuple[int, ...], eta: float) -> TransitionTable:
        if not steps:
            raise ValueError("trajectory must visit at least one step")
        for t in steps:
            self._check_step(t)
        sched = self.schedule
        idx = np.asarray(steps, dtype=np.int64) - 1
        prev_steps = tuple(steps[1:]) + (0,)
        prev_idx = np.asarray(prev_steps, dtype=np.int64) - 1  # -1 marks terminal
        alpha_bar = sched.alpha_bars[idx]
        # abar_0 := 1 for terminal transitions (the jump lands on clean data).
        alpha_bar_prev = np.where(prev_idx >= 0,
                                  sched.alpha_bars[np.maximum(prev_idx, 0)], 1.0)
        # Adjacent-step sigma via the schedule's own scalar path so the t == 1
        # special case (and every rounding) matches p_sample bit for bit.
        posterior_var = np.array([sched.posterior_variance(int(t)) for t in steps])
        # DDIM sigma_t(eta); 0 everywhere at eta = 0 and on terminal entries.
        jump_sigma = eta * np.sqrt((1.0 - alpha_bar_prev) / (1.0 - alpha_bar)) \
            * np.sqrt(np.maximum(1.0 - alpha_bar / alpha_bar_prev, 0.0))
        return TransitionTable(
            steps=tuple(steps),
            prev_steps=prev_steps,
            eta=float(eta),
            sqrt_alpha_bar=np.sqrt(alpha_bar),
            sqrt_one_minus_alpha_bar=np.sqrt(1.0 - alpha_bar),
            sqrt_alpha=np.sqrt(sched.alphas[idx]),
            ddpm_eps_coef=sched.betas[idx] / np.sqrt(1.0 - alpha_bar),
            ddpm_sigma=np.sqrt(posterior_var),
            jump_x0_coef=np.sqrt(alpha_bar_prev),
            jump_eps_coef=np.sqrt(np.maximum(1.0 - alpha_bar_prev - jump_sigma ** 2, 0.0)),
            jump_sigma=jump_sigma,
        )

    # ------------------------------------------------------------------
    # Forward process
    # ------------------------------------------------------------------
    def q_sample(self, x0: np.ndarray, t: StepLike, noise: Optional[np.ndarray] = None,
                 rng: Optional[np.random.Generator] = None) -> Tuple[np.ndarray, np.ndarray]:
        """Sample ``x_t ~ q(x_t | x_0)`` in closed form.

        Returns ``(x_t, noise)`` where ``noise`` is the standard Gaussian used
        for the corruption (the regression target of the denoiser).  With
        array-valued ``t`` of shape ``(batch,)`` each sample ``x0[i]`` is
        corrupted to its own step ``t[i]``.  One of ``noise`` or ``rng`` is
        required: the corruption is never drawn from an unseeded generator.
        """
        self._check_step(t)
        if noise is None:
            noise = _require_rng(rng, "q_sample").standard_normal(x0.shape)
        alpha_bar = self._gather(self.schedule.alpha_bars, t, np.ndim(x0))
        x_t = np.sqrt(alpha_bar) * x0 + np.sqrt(1.0 - alpha_bar) * noise
        return x_t, noise

    def sample_timesteps(self, batch_size: int, rng: np.random.Generator) -> np.ndarray:
        """Uniformly sample training timesteps in ``1 .. T``."""
        return rng.integers(1, self.num_steps + 1, size=batch_size)

    # ------------------------------------------------------------------
    # Reverse process
    # ------------------------------------------------------------------
    def predict_x0_from_eps(self, x_t: np.ndarray, t: StepLike, eps: np.ndarray) -> np.ndarray:
        """Recover the implied clean sample from a noise prediction."""
        self._check_step(t)
        alpha_bar = self._gather(self.schedule.alpha_bars, t, np.ndim(x_t))
        return (x_t - np.sqrt(1.0 - alpha_bar) * eps) / np.sqrt(alpha_bar)

    def posterior_mean_from_eps(self, x_t: np.ndarray, t: StepLike, eps: np.ndarray) -> np.ndarray:
        """Mean of ``p(x_{t-1} | x_t)`` with the DDPM fixed-variance parameterisation (Eq. 5)."""
        self._check_step(t)
        ndim = np.ndim(x_t)
        alpha = self._gather(self.schedule.alphas, t, ndim)
        alpha_bar = self._gather(self.schedule.alpha_bars, t, ndim)
        beta = self._gather(self.schedule.betas, t, ndim)
        return (x_t - beta / np.sqrt(1.0 - alpha_bar) * eps) / np.sqrt(alpha)

    def p_mean_variance(self, x_t: np.ndarray, t: StepLike,
                        eps: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Mean and variance of the reverse transition ``p(x_{t-1} | x_t)``.

        The variance is the schedule's posterior variance
        :math:`\\tilde\\beta_t`, broadcastable against ``x_t`` (a scalar for
        scalar ``t``, shape ``(batch, 1, ...)`` for array ``t``).
        """
        mean = self.posterior_mean_from_eps(x_t, t, eps)
        variance = self.schedule.posterior_variance(t)
        if np.ndim(t) > 0:
            variance = np.reshape(variance, np.shape(t) + (1,) * (np.ndim(x_t) - 1))
        return mean, variance

    def p_sample(self, x_t: np.ndarray, t: StepLike, eps: np.ndarray,
                 rng: Optional[np.random.Generator] = None,
                 deterministic: bool = False,
                 noise: Optional[np.ndarray] = None) -> np.ndarray:
        """One reverse step: sample ``x_{t-1}`` given ``x_t`` and the predicted noise.

        With array-valued ``t`` every sample takes its own reverse step; rows
        at ``t == 1`` receive the posterior mean without added noise, exactly
        as in the scalar case.  ``noise`` optionally injects the transition's
        standard-normal draw (shape of ``x_t``); a stochastic step needs
        ``noise`` or ``rng``, while deterministic and all-``t == 1`` steps
        need neither.  This is the closed-form
        reference the table-driven :meth:`ReverseSampler.step
        <repro.diffusion.ReverseSampler.step>` is checked against; the
        reverse loop itself never calls it.
        """
        mean = self.posterior_mean_from_eps(x_t, t, eps)
        t_arr = np.asarray(t)
        if deterministic or np.all(t_arr == 1):
            return mean
        sigma = np.sqrt(self.schedule.posterior_variance(t))
        if noise is None:
            noise = _require_rng(rng, "p_sample").standard_normal(x_t.shape)
        if t_arr.ndim == 0:
            return mean + sigma * noise
        keep = (t_arr > 1).astype(np.float64)
        shape = t_arr.shape + (1,) * (np.ndim(x_t) - 1)
        return mean + np.reshape(sigma * keep, shape) * noise

    def prior_sample(self, shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        """Sample ``x_T`` from the standard-normal prior."""
        return rng.standard_normal(shape)

    # ------------------------------------------------------------------
    @staticmethod
    def _gather(values: np.ndarray, t: StepLike, ndim: int):
        """Schedule coefficients at step(s) ``t``, broadcastable to the data.

        Scalar ``t`` returns the plain coefficient; a ``(batch,)`` array
        returns the gathered coefficients reshaped to ``(batch, 1, ..., 1)``
        so they broadcast against ``(batch, ...)`` data of rank ``ndim``.
        """
        t_arr = np.asarray(t)
        if t_arr.ndim == 0:
            return values[int(t_arr) - 1]
        gathered = values[t_arr.astype(np.int64) - 1]
        return gathered.reshape(t_arr.shape + (1,) * (ndim - 1))

    def _check_step(self, t: StepLike) -> None:
        t_arr = np.asarray(t)
        if t_arr.ndim > 1:
            raise ValueError("step t must be a scalar or a 1-D array of shape (batch,)")
        if np.any(t_arr < 1) or np.any(t_arr > self.num_steps):
            raise ValueError(f"step {t} outside the valid range 1..{self.num_steps}")
