"""Reverse-trajectory samplers for diffusion inference (the inference engine).

The reverse process does not have to visit every step ``T .. 1``: with the
``eps``-parameterisation the model can jump directly between any two steps of
the schedule (the DDIM subsequence trick, which the paper's denoising-steps
ablation exploits).  This module abstracts the *trajectory* — which steps are
visited — and the *transition rule* — how ``x_{t_prev}`` is produced from
``x_t`` — behind a :class:`ReverseSampler` interface, with a registry
(:func:`register_sampler` / :func:`make_sampler`) the config and CLI resolve
names against:

* :class:`FullReverseSampler` (``"full"``) walks every step with the exact
  DDPM posterior transition; it reproduces the pre-engine reverse loop bit
  for bit.
* :class:`StridedReverseSampler` (``"strided"``) visits a subsequence.
  Adjacent transitions (``t -> t-1``) still use the exact DDPM step — which
  is why a stride of 1 is *numerically identical* to the full trajectory —
  while longer jumps use the deterministic DDIM update
  ``x_prev = sqrt(abar_prev) * x0_hat + sqrt(1 - abar_prev) * eps``.
* :class:`DDIMSampler` (``"ddim"``) generalises the strided jumps with the
  tunable DDIM noise scale ``eta``: ``eta = 0`` reproduces the strided
  sampler bit for bit, ``eta > 0`` re-injects ``sigma_t(eta)``-scaled noise
  on every jump (drawn through the :class:`~repro.diffusion.ImputeNoise`
  bundle, so sharded scoring stays bit-identical at every worker count).
* :class:`PNDMSampler` (``"pndm"``) is a second-order multistep sampler: it
  replaces the model's noise prediction with the two-step Adams–Bashforth
  combination ``(3*eps_t - eps_{t_prev_visited}) / 2`` before applying the
  deterministic jump rule, reusing the eps history across visited steps for
  a higher-order accurate trajectory at the same denoiser-call budget.

Independently of the transition rule, subsequence trajectories support
non-uniform step spacing (``spacing`` in :data:`SPACINGS`): ``"uniform"``
(evenly spaced, the default), ``"quadratic"`` and ``"karras"`` both
concentrate visited steps near ``t = 1`` where the posterior changes
fastest.

Scoring cost scales linearly with the trajectory length, so ``n`` inference
steps cut denoiser calls by ``T / n`` at a modest accuracy cost (the
speed/accuracy knob exposed as ``sampler=`` / ``num_inference_steps=`` /
``ddim_eta=`` / ``stride_spacing=`` in :class:`repro.core.ImDiffusionConfig`).
Every transition reads its coefficients from the sampler's cached
:class:`~repro.diffusion.TransitionTable` (see :meth:`transition_table`):
:meth:`ReverseSampler.step` is a pure function of ``(table, index, x_t,
eps, noise, state)`` and draws nothing.  Which transitions sample is
decided in one place, :meth:`ReverseSampler.samples_noise`;
:meth:`ImputedDiffusion.draw_impute_noise` draws exactly those, and a step
handed ``noise=None`` is the noise-free transition.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .ddpm import GaussianDiffusion, TransitionTable

__all__ = ["ReverseSampler", "FullReverseSampler", "StridedReverseSampler",
           "DDIMSampler", "PNDMSampler", "make_sampler", "register_sampler",
           "sampler_names", "sampler_help", "trajectory_steps",
           "SAMPLER_NAMES", "SPACINGS"]

SPACINGS = ("uniform", "quadratic", "karras")

#: Exponent of the karras-style spacing: interpolate in ``t ** (1/rho)``.
KARRAS_RHO = 7.0


# ----------------------------------------------------------------------
# Trajectory construction
# ----------------------------------------------------------------------
def _spaced_positions(num_steps: int, n: int, spacing: str) -> np.ndarray:
    """``n`` ascending float positions in ``[1, num_steps]`` for a spacing."""
    if spacing == "uniform":
        return np.linspace(1, num_steps, n)
    if spacing == "quadratic":
        # Quadratic ramp: visited steps cluster near t = 1 (the low-noise
        # region where the imputation estimate sharpens fastest).
        return 1.0 + (num_steps - 1.0) * np.linspace(0.0, 1.0, n) ** 2
    if spacing == "karras":
        # Karras et al. (2022) style: interpolate in t ** (1/rho); rho = 7
        # concentrates steps near t = 1 even harder than quadratic.
        return np.linspace(1.0, float(num_steps) ** (1.0 / KARRAS_RHO), n) ** KARRAS_RHO
    raise ValueError(f"spacing must be one of {SPACINGS}, got {spacing!r}")


def _repair_ascending(rounded: List[int], num_steps: int) -> List[int]:
    """Make rounded positions strictly ascending without changing the count.

    Rounding non-uniform spacings can collapse neighbouring positions onto
    the same integer step; a plain ``sorted(set(...))`` would then silently
    shorten the trajectory below the requested length.  Instead, bump every
    duplicate up to the next free step (forward pass) and, if that pushed the
    tail past ``num_steps``, pull the tail back down (backward pass).  Both
    passes are no-ops when the rounding is already strictly ascending — which
    uniform spacing always is — so existing trajectories are preserved
    exactly.
    """
    steps = list(rounded)
    steps[0] = max(1, min(steps[0], num_steps))
    for i in range(1, len(steps)):
        if steps[i] <= steps[i - 1]:
            steps[i] = steps[i - 1] + 1
    if steps[-1] > num_steps:
        steps[-1] = num_steps
        for i in range(len(steps) - 2, -1, -1):
            if steps[i] >= steps[i + 1]:
                steps[i] = steps[i + 1] - 1
    return steps


def trajectory_steps(num_steps: int, num_inference_steps: int,
                     spacing: str = "uniform") -> List[int]:
    """A descending reverse trajectory of exactly ``min(n, T)`` visited steps.

    The first visited step is always ``num_steps`` and the last is always 1;
    intermediate steps follow the requested ``spacing``.  Unlike a naive
    round-and-dedup, the result honours the requested count deterministically
    (see :func:`_repair_ascending`).
    """
    n = min(int(num_inference_steps), int(num_steps))
    if n < 1:
        raise ValueError("num_inference_steps must be at least 1")
    positions = _spaced_positions(int(num_steps), n, spacing)
    steps = _repair_ascending([int(round(p)) for p in positions], int(num_steps))
    return steps[::-1]


# ----------------------------------------------------------------------
# Sampler interface
# ----------------------------------------------------------------------
class ReverseSampler:
    """Strategy object: which reverse steps to visit and how to transition.

    Sub-classes implement :meth:`trajectory` (the descending list of visited
    steps, always ending at 1) and :meth:`step` (one transition
    ``x_t -> x_{t_prev}`` given the model's noise prediction at ``t``).
    Samplers are stateless and picklable; per-reverse-pass state (e.g. the
    PNDM eps history) lives in the dict returned by :meth:`init_state`,
    which the caller threads through :meth:`step`.
    """

    name: str = "base"
    #: DDIM transition-noise scale of the jump rule; 0 = deterministic jumps.
    eta: float = 0.0

    def trajectory(self, num_steps: int) -> List[int]:
        """Visited steps in descending order; the last entry is always 1."""
        raise NotImplementedError

    def num_inference_steps(self, num_steps: int) -> int:
        """Number of denoiser calls a reverse pass makes (trajectory length)."""
        return len(self.trajectory(num_steps))

    def samples_noise(self, t: int, t_prev: int, deterministic: bool) -> bool:
        """Whether the ``t -> t_prev`` transition consumes a standard-normal draw.

        The one place that decides which transitions sample:
        :meth:`ImputedDiffusion.draw_impute_noise` draws a transition's noise
        exactly when this returns True, and :meth:`step` adds noise exactly
        when it is handed some.  The base rule covers the DDPM-posterior
        samplers: adjacent non-terminal transitions sample, everything else
        is noise-free.
        """
        return (not deterministic) and t_prev == t - 1 and t > 1

    def init_state(self) -> Optional[dict]:
        """Fresh per-reverse-pass state, or ``None`` for stateless samplers."""
        return None

    def transition_table(self, diffusion: GaussianDiffusion) -> TransitionTable:
        """This sampler's cached coefficient table on ``diffusion``'s schedule."""
        return diffusion.transition_table(self.trajectory(diffusion.num_steps),
                                          eta=self.eta)

    def step(self, table: TransitionTable, index: int, x_t: np.ndarray,
             eps: np.ndarray, noise: Optional[np.ndarray] = None,
             state: Optional[dict] = None) -> np.ndarray:
        """Produce ``x_{t_prev}`` from ``x_t`` and the predicted noise at ``t``.

        ``table`` is this sampler's :meth:`transition_table` and ``index``
        the transition's entry in it (``t = table.steps[index]``,
        ``t_prev = table.prev_steps[index]``, 0 terminating the trajectory).
        ``noise`` is the transition's standard-normal draw; ``None`` gives
        the noise-free transition.  ``state`` is the dict from
        :meth:`init_state` for samplers that carry history across steps.
        A step is a pure function of its arguments.
        """
        raise NotImplementedError

    # -- shared transition rules ---------------------------------------
    @staticmethod
    def _ddpm_step(table, index, x_t, eps, noise):
        """Exact DDPM posterior step at ``t`` (adjacent transitions)."""
        mean = (x_t - table.ddpm_eps_coef[index] * eps) / table.sqrt_alpha[index]
        if noise is None:
            return mean
        return mean + table.ddpm_sigma[index] * noise

    @staticmethod
    def _jump_step(table, index, x_t, eps, noise):
        """Generalised DDIM jump ``t -> t_prev`` at the table's ``eta``."""
        x0_hat = (x_t - table.sqrt_one_minus_alpha_bar[index] * eps) \
            / table.sqrt_alpha_bar[index]
        x_prev = table.jump_x0_coef[index] * x0_hat \
            + table.jump_eps_coef[index] * eps
        if noise is None:
            return x_prev
        return x_prev + table.jump_sigma[index] * noise

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class FullReverseSampler(ReverseSampler):
    """Every step ``T .. 1`` with the exact DDPM posterior transition."""

    name = "full"

    def trajectory(self, num_steps: int) -> List[int]:
        return list(range(num_steps, 0, -1))

    def step(self, table, index, x_t, eps, noise=None, state=None):
        t, t_prev = table.steps[index], table.prev_steps[index]
        if t_prev != t - 1:
            raise ValueError(
                f"FullReverseSampler only takes adjacent steps, got {t} -> {t_prev}")
        return self._ddpm_step(table, index, x_t, eps, noise)


class _SubsequenceSampler(ReverseSampler):
    """Shared trajectory logic of the subsequence (strided/ddim/pndm) samplers.

    Parameters
    ----------
    stride:
        Visit every ``stride``-th step starting from ``T`` (plus step 1).
    num_inference_steps:
        Alternatively, visit exactly ``n`` steps between ``T`` and 1.
    spacing:
        Step spacing of the ``num_inference_steps`` form — one of
        :data:`SPACINGS` (``stride`` trajectories are literal and take no
        spacing).

    Exactly one of ``stride`` / ``num_inference_steps`` must be given.
    """

    def __init__(self, stride: Optional[int] = None,
                 num_inference_steps: Optional[int] = None,
                 spacing: str = "uniform") -> None:
        if (stride is None) == (num_inference_steps is None):
            raise ValueError("provide exactly one of stride or num_inference_steps")
        if stride is not None and stride < 1:
            raise ValueError("stride must be at least 1")
        if num_inference_steps is not None and num_inference_steps < 2:
            raise ValueError("num_inference_steps must be at least 2")
        if spacing not in SPACINGS:
            raise ValueError(f"spacing must be one of {SPACINGS}, got {spacing!r}")
        if stride is not None and spacing != "uniform":
            raise ValueError(
                "spacing schedules apply to num_inference_steps trajectories; "
                "a stride visits literal steps")
        self.stride = stride
        self._num_inference_steps = num_inference_steps
        self.spacing = spacing

    def trajectory(self, num_steps: int) -> List[int]:
        if self.stride is not None:
            steps = list(range(num_steps, 0, -self.stride))
            if steps[-1] != 1:
                steps.append(1)
            return steps
        return trajectory_steps(num_steps, self._num_inference_steps, self.spacing)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.stride is not None:
            return f"{type(self).__name__}(stride={self.stride})"
        return (f"{type(self).__name__}"
                f"(num_inference_steps={self._num_inference_steps}, "
                f"spacing={self.spacing!r})")


class StridedReverseSampler(_SubsequenceSampler):
    """DDIM-style strided subsequence of the reverse trajectory.

    Adjacent transitions use the exact DDPM posterior step (so ``stride=1``
    degenerates to :class:`FullReverseSampler` bit for bit); longer jumps use
    the deterministic (``eta=0``) DDIM update, which never samples.
    """

    name = "strided"

    def step(self, table, index, x_t, eps, noise=None, state=None):
        if table.prev_steps[index] == table.steps[index] - 1:
            # Adjacent transition: the exact DDPM step, identical to the full
            # trajectory (this is what makes stride 1 a strict no-op).
            return self._ddpm_step(table, index, x_t, eps, noise)
        return self._jump_step(table, index, x_t, eps, noise)


class DDIMSampler(StridedReverseSampler):
    """Strided trajectory with the tunable DDIM transition-noise scale ``eta``.

    ``eta = 0`` (the default) is the fully deterministic jump rule and
    reproduces :class:`StridedReverseSampler` bit for bit — same outputs,
    same random-stream consumption.  ``eta > 0`` re-injects
    ``sigma_t(eta) = eta * sqrt((1-abar_prev)/(1-abar_t)) *
    sqrt(1 - abar_t/abar_prev)`` scaled noise on every non-adjacent jump
    (``eta = 1`` recovers DDPM-matched transition variance).  Jump noise is
    drawn through the :class:`~repro.diffusion.ImputeNoise` bundle, so
    sharded scoring stays bit-identical at every worker count.
    """

    name = "ddim"

    def __init__(self, stride: Optional[int] = None,
                 num_inference_steps: Optional[int] = None,
                 spacing: str = "uniform", eta: float = 0.0) -> None:
        super().__init__(stride=stride, num_inference_steps=num_inference_steps,
                         spacing=spacing)
        if not 0.0 <= eta <= 1.0:
            raise ValueError("eta must lie in [0, 1]")
        self.eta = float(eta)

    def samples_noise(self, t: int, t_prev: int, deterministic: bool) -> bool:
        if deterministic:
            return False
        if t_prev == t - 1:
            return t > 1
        return self.eta > 0.0 and t_prev >= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        base = super().__repr__()
        return f"{base[:-1]}, eta={self.eta})"


class PNDMSampler(_SubsequenceSampler):
    """Second-order PNDM/PLMS-style multistep sampler.

    Re-uses the eps history across visited steps: from the second step on,
    the transition applies the two-step Adams–Bashforth combination
    ``eps' = (3 * eps_t - eps_prev) / 2`` of the current and previous noise
    predictions before the deterministic jump rule, cancelling the first-order
    discretisation error of plain DDIM jumps.  The first visited step (no
    history yet) falls back to the plain prediction, so a PNDM pass makes
    exactly as many denoiser calls as a DDIM pass over the same trajectory.

    All transitions — adjacent ones included — use the deterministic jump
    rule, so the sampler consumes no transition randomness at all; the eps
    history lives in the per-pass ``state`` dict (:meth:`init_state`), which
    keeps the sampler object stateless, picklable and shard-safe.
    """

    name = "pndm"
    order = 2

    def samples_noise(self, t: int, t_prev: int, deterministic: bool) -> bool:
        return False

    def init_state(self) -> dict:
        return {"prev_eps": None}

    def step(self, table, index, x_t, eps, noise=None, state=None):
        prev_eps = state.get("prev_eps") if state is not None else None
        eps_used = eps if prev_eps is None else (3.0 * eps - prev_eps) / 2.0
        if state is not None:
            state["prev_eps"] = eps
        return self._jump_step(table, index, x_t, eps_used, noise)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SamplerEntry:
    """One registered sampler: its factory plus the help line the CLI shows."""

    name: str
    factory: Callable[..., ReverseSampler]
    description: str


SAMPLER_REGISTRY: Dict[str, SamplerEntry] = {}

#: Registered sampler names, refreshed on every registration.  Prefer
#: :func:`sampler_names` (always current) over importing this tuple.
SAMPLER_NAMES: Tuple[str, ...] = ()


def register_sampler(name: str, description: str = ""):
    """Class/function decorator adding a sampler factory to the registry.

    The factory is called with whichever of the knobs
    ``num_inference_steps`` / ``stride`` / ``spacing`` / ``eta`` its
    signature accepts (see :func:`make_sampler`).  Registering an existing
    name replaces it.
    """

    def decorator(factory: Callable[..., ReverseSampler]):
        global SAMPLER_NAMES
        SAMPLER_REGISTRY[name] = SamplerEntry(name=name, factory=factory,
                                              description=description)
        SAMPLER_NAMES = tuple(SAMPLER_REGISTRY)
        return factory

    return decorator


def sampler_names() -> Tuple[str, ...]:
    """Currently registered sampler names, in registration order."""
    return tuple(SAMPLER_REGISTRY)


def sampler_help() -> str:
    """One-line per-sampler summary for CLI ``--sampler`` help text."""
    return "; ".join(f"'{entry.name}' {entry.description}"
                     for entry in SAMPLER_REGISTRY.values())


register_sampler(
    "full", "walks every reverse step with the exact DDPM transition "
    "(the paper algorithm)")(lambda: FullReverseSampler())
register_sampler(
    "strided", "visits a subsequence with deterministic DDIM jumps "
    "(~T/n fewer denoiser calls)")(StridedReverseSampler)
register_sampler(
    "ddim", "strided trajectory with tunable jump-noise scale eta "
    "(eta=0 equals 'strided' bit for bit)")(DDIMSampler)
register_sampler(
    "pndm", "second-order multistep: reuses eps history across visited "
    "steps for higher accuracy at the same step budget")(PNDMSampler)


def _accepted_kwargs(factory: Callable[..., ReverseSampler]) -> Optional[set]:
    """Keyword names a factory accepts, or ``None`` when it takes ``**kwargs``."""
    signature = inspect.signature(factory)
    if any(p.kind == inspect.Parameter.VAR_KEYWORD
           for p in signature.parameters.values()):
        return None
    return {p.name for p in signature.parameters.values()
            if p.kind in (inspect.Parameter.POSITIONAL_OR_KEYWORD,
                          inspect.Parameter.KEYWORD_ONLY)}


def make_sampler(name: str, num_inference_steps: Optional[int] = None,
                 stride: Optional[int] = None, spacing: Optional[str] = None,
                 eta: Optional[float] = None) -> ReverseSampler:
    """Build a registered reverse sampler by name.

    Knobs left at ``None`` are omitted; passing a knob the named sampler's
    factory does not accept raises ``ValueError`` (e.g. ``eta`` with
    ``strided``).  For the subsequence samplers pass either
    ``num_inference_steps`` (spaced subsequence, see ``spacing``) or
    ``stride`` (every ``stride``-th step).
    """
    entry = SAMPLER_REGISTRY.get(name)
    if entry is None:
        raise KeyError(f"unknown sampler {name!r}; available: {sampler_names()}")
    supplied = {key: value for key, value in (
        ("num_inference_steps", num_inference_steps), ("stride", stride),
        ("spacing", spacing), ("eta", eta)) if value is not None}
    accepted = _accepted_kwargs(entry.factory)
    if accepted is not None:
        rejected = sorted(set(supplied) - accepted)
        if rejected:
            raise ValueError(
                f"sampler {name!r} does not take {', '.join(rejected)}")
        if "num_inference_steps" in accepted and \
                num_inference_steps is None and stride is None:
            raise ValueError(
                f"the {name} sampler needs num_inference_steps (or stride); "
                "set num_inference_steps in the config")
    return entry.factory(**supplied)
