"""Loss specs and the gradient reducers that execute them.

:class:`~repro.training.Trainer` computes every batch gradient through a
:class:`GradientReducer` over a :class:`ParallelLossSpec`.  At
``num_workers=1`` the :class:`SpecReducer` runs the spec in-process; above
that the :class:`MultiprocessReducer` splits every mini-batch into
contiguous per-sample shards, ``num_workers`` spawned processes each run one
forward/backward over their shard, and the parent weight-averages the shard
gradients before taking the *single* optimizer step the in-process loop
would have taken.  The decomposition is exact — for a loss of the form
``sum(errors) / weight`` the full-batch gradient equals
``sum(w_i * g_i) / sum(w_i)`` over the shards — so data parallelism is a pure
execution detail:

* the random stream is worker-count invariant: all batch-level randomness is
  drawn **in the parent** (:meth:`ParallelLossSpec.draw`) before sharding,
* callbacks, gradient clipping, checkpointing and resume run in the parent,
  untouched; ``num_workers`` is not part of the checkpoint, so a snapshot can
  be resumed under a different worker count,
* at ``num_workers=1`` no process is spawned,
* at ``num_workers>1`` runs are bitwise reproducible for a fixed worker
  count and numerically equivalent (up to float summation order) across
  worker counts.

Workers are ``spawn``-started (fork-free), so everything that crosses the
process boundary must be picklable: the :class:`ParallelLossSpec` is shipped
once at pool start-up (module/optimizer transport is provided by
``repro.nn``'s pickle support).  Parameters never cross the pipes at all:
each worker attaches once to a shared-memory parameter block
(:mod:`repro.nn.shm`) that the parent re-publishes before every step — the
same zero-copy transport the sharded inference engine uses — so a step
message carries only the batch shard, its random payload and the block
generation, and per-step serialization no longer scales with model size.
"""

from __future__ import annotations

import traceback
from dataclasses import replace
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from ..inference.pool import WorkerPool, register_cleanup, unregister_cleanup
from ..nn.shm import SharedParameterBlock, SharedParameterSpec, SharedParameterView
from .loader import Batch

if TYPE_CHECKING:
    from .trainer import Trainer, TrainState

__all__ = [
    "ParallelLossSpec",
    "MethodLossSpec",
    "AdversarialMethodLossSpec",
    "GradientReducer",
    "SpecReducer",
    "MultiprocessReducer",
]


class ParallelLossSpec:
    """A training loss factored for data-parallel execution.

    Workers cannot run an opaque loss closure, both because closures do not
    pickle and because any randomness drawn *inside* the loss would depend
    on how the batch was sharded.  A spec splits the loss into three
    picklable parts:

    * :meth:`draw` — every random draw the loss makes for a batch, executed
      in the parent on the trainer's generator *before* sharding.  Returns a
      tuple of arrays whose leading dimension indexes batch samples, so the
      payload shards alongside the batch.  Specs of deterministic losses
      return the default empty tuple.
    * :meth:`compute` — the pure, rng-free loss of one (shard, payload
      shard); runs identically in the parent (``num_workers=1``) and in a
      worker.
    * :meth:`weight` — the shard's weight in the gradient average.  The
      default (shard size) is exact for per-sample mean losses; losses
      normalised by something else (e.g. a masked-region element count)
      override it so ``sum(w_i * g_i) / sum(w_i)`` reproduces the full-batch
      gradient.

    The contract: ``compute(batch, draw(batch, rng, state), state)`` is the
    batch loss, and every random draw it needs happens in ``draw``.

    Specs of adversarially trained models additionally set ``has_adversary``
    and implement the adversary hooks (see
    :class:`AdversarialMethodLossSpec`): before each main-loss step the
    reducers run one *adversary round* — compute ``adversary_compute`` over
    the (sharded) batch, reduce the gradients onto the parent's adversary
    parameters with the same weighted average, and take the adversary's
    optimizer step in the parent — the GAN alternation (one discriminator
    step before every generator step) without worker replicas ever stepping
    a model of their own.
    """

    #: Whether the spec carries a second, adversarially trained model whose
    #: parameters update before every main-loss computation.
    has_adversary: bool = False

    def build(self) -> List:
        """Materialise the parameter list on the worker side.

        Called once per worker after the spec is unpickled; must return the
        trainable parameters in exactly the order of the parent trainer's
        parameter list (each step overwrites them with the parent's data).
        """
        raise NotImplementedError

    def draw(self, batch: Batch, rng: Optional[np.random.Generator],
             state: TrainState) -> Tuple[np.ndarray, ...]:
        return ()

    def compute(self, batch: Batch, payload: Tuple[np.ndarray, ...],
                state: TrainState):
        raise NotImplementedError

    def weight(self, batch: Batch, payload: Tuple[np.ndarray, ...]) -> float:
        return float(batch.size)

    # -- adversary hooks (no-ops unless ``has_adversary``) ---------------
    def build_adversary(self) -> List:
        """Materialise the adversary parameter list on the worker side."""
        return []

    def adversary_parameters(self) -> List:
        """The parent-side adversary parameters (same order as the workers')."""
        return []

    def adversary_compute(self, batch: Batch, payload: Tuple[np.ndarray, ...],
                          state: TrainState):
        raise NotImplementedError

    def adversary_step(self) -> None:
        """Take the adversary's optimizer step in the parent."""
        raise NotImplementedError


class MethodLossSpec(ParallelLossSpec):
    """Spec over methods of a picklable owner (the baseline detectors).

    Ships the owning detector to each worker once and resolves the loss and
    parameter-list methods by name, so a baseline opts into data parallelism
    by exposing its loss as a *method* (picklable by reference) instead of a
    local closure.  The loss must be rng-free and side-effect free in
    ``compute``: the worker-side owner is a replica, so anything the loss
    mutated there would diverge from the parent.  Losses that need
    randomness name a ``draw_method`` — ``draw_method(batch, rng, state)``
    runs in the parent on the trainer's generator and its result is handed
    to the loss as a ``payload`` argument (sharded alongside the batch), so
    the random stream stays worker-count invariant; the loss method then
    takes ``(batch, payload, state)`` instead of ``(batch, state)``.
    """

    def __init__(self, owner, loss_method: str,
                 parameters_method: str = "_trainer_parameters",
                 draw_method: Optional[str] = None) -> None:
        self.owner = owner
        self.loss_method = loss_method
        self.parameters_method = parameters_method
        self.draw_method = draw_method

    def build(self) -> List:
        return list(getattr(self.owner, self.parameters_method)())

    def draw(self, batch: Batch, rng: Optional[np.random.Generator],
             state: TrainState) -> Tuple[np.ndarray, ...]:
        if self.draw_method is None:
            return ()
        return tuple(getattr(self.owner, self.draw_method)(batch, rng, state))

    def compute(self, batch: Batch, payload: Tuple[np.ndarray, ...],
                state: TrainState):
        if self.draw_method is None:
            return getattr(self.owner, self.loss_method)(batch, state)
        return getattr(self.owner, self.loss_method)(batch, payload, state)


class AdversarialMethodLossSpec(MethodLossSpec):
    """Method spec for GAN-style baselines with a parent-stepped adversary.

    A GAN takes one discriminator step before every generator step; sharded
    workers cannot take it inside the loss (each replica would step a
    private discriminator on its shard and diverge).  This spec factors the
    alternation the same way the main loss is factored: workers compute the
    *gradients* of ``adversary_loss_method`` on their shard, the parent
    weight-averages them onto the real discriminator and steps its optimizer
    (``adversary_optimizer_attr``, an attribute of the owner), and only then
    is the main loss computed against the freshly updated adversary — the
    same ordering :class:`SpecReducer` runs in-process.  Both loss methods take ``(batch, payload,
    state)``, sharing one payload so e.g. MAD-GAN's latent draw feeds the
    discriminator and generator phases with the same noise.
    """

    has_adversary = True

    def __init__(self, owner, loss_method: str, adversary_loss_method: str,
                 parameters_method: str = "_trainer_parameters",
                 adversary_parameters_method: str = "_adversary_parameters",
                 adversary_optimizer_attr: str = "_discriminator_opt",
                 draw_method: Optional[str] = None) -> None:
        super().__init__(owner, loss_method, parameters_method,
                         draw_method=draw_method)
        self.adversary_loss_method = adversary_loss_method
        self.adversary_parameters_method = adversary_parameters_method
        self.adversary_optimizer_attr = adversary_optimizer_attr

    def compute(self, batch: Batch, payload: Tuple[np.ndarray, ...],
                state: TrainState):
        return getattr(self.owner, self.loss_method)(batch, payload, state)

    def build_adversary(self) -> List:
        return list(getattr(self.owner, self.adversary_parameters_method)())

    def adversary_parameters(self) -> List:
        return list(getattr(self.owner, self.adversary_parameters_method)())

    def adversary_compute(self, batch: Batch, payload: Tuple[np.ndarray, ...],
                          state: TrainState):
        return getattr(self.owner, self.adversary_loss_method)(batch, payload, state)

    def adversary_step(self) -> None:
        getattr(self.owner, self.adversary_optimizer_attr).step()


class GradientReducer:
    """Strategy that turns one batch into gradients on the trainer's parameters.

    The reducer is the seam between the epoch/batch loop and *how* the batch
    gradient is produced: :class:`SpecReducer` runs the loss spec in-process
    (one forward/backward), while :class:`MultiprocessReducer` shards the
    batch across worker processes and averages their gradients.  Everything
    around the seam — callbacks, gradient clipping, the optimizer step,
    checkpoint and resume — is reducer-agnostic and stays in
    :class:`~repro.training.Trainer`.
    """

    def open(self, trainer: "Trainer") -> None:
        """Acquire resources for one ``fit`` call (worker pools, ...)."""

    def close(self) -> None:
        """Release resources acquired by :meth:`open`; idempotent."""

    def __enter__(self) -> "GradientReducer":
        # open() needs the trainer, so entering does not acquire; the context
        # manager only guarantees release (close() must be idempotent).
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def accumulate(self, batch: Batch, state: "TrainState") -> float:
        """Leave the batch gradient in each parameter's ``grad`` slot.

        Returns the batch loss as a float.  Called with all gradients
        zeroed; must not step the optimizer or clip.
        """
        raise NotImplementedError


class SpecReducer(GradientReducer):
    """In-process execution of a :class:`ParallelLossSpec`.

    The ``num_workers=1`` path: no process is spawned and no arrays are
    copied; draw, adversary step (if any) and loss run on the full batch.
    """

    def __init__(self, spec: ParallelLossSpec) -> None:
        self.spec = spec
        self._trainer: Optional[Trainer] = None

    def open(self, trainer: Trainer) -> None:
        self._trainer = trainer

    def accumulate(self, batch: Batch, state: TrainState) -> float:
        payload = self.spec.draw(batch, self._trainer.rng, state)
        if self.spec.has_adversary:
            # Adversary alternation: zero the adversary's grads,
            # backpropagate its loss over the full batch and step its
            # optimizer before the main loss sees it.
            for parameter in self.spec.adversary_parameters():
                parameter.grad = None
            adversary_loss = self.spec.adversary_compute(batch, payload, state)
            adversary_loss.backward()
            self.spec.adversary_step()
        loss = self.spec.compute(batch, payload, state)
        loss.backward()
        return float(loss.data)


def _shard_bounds(num_samples: int, num_shards: int) -> List[Tuple[int, int]]:
    """Contiguous, near-equal ``(start, stop)`` shard bounds; empty shards dropped."""
    base, extra = divmod(num_samples, num_shards)
    bounds: List[Tuple[int, int]] = []
    start = 0
    for index in range(num_shards):
        size = base + (1 if index < extra else 0)
        if size == 0:
            break
        bounds.append((start, start + size))
        start += size
    return bounds


def _worker_main(conn, spec: ParallelLossSpec,
                 shm_spec: SharedParameterSpec) -> None:
    """Gradient-worker loop: receive (generation, shard), reply (loss, weight, grads).

    Runs in a spawned subprocess.  The spec and the shared-memory handle
    arrive pickled through the process arguments; the worker rebuilds its
    replica once and swaps the parameters to zero-copy views of the parent's
    block, so resume/early-stop restores in the parent propagate through the
    next ``publish`` without any per-step parameter transfer.  Each message
    carries the expected block generation, one batch shard with its
    pre-drawn random payload, and a slim :class:`TrainState`.  Start-up
    failures are remembered and re-raised per step, and per-step exceptions
    ship back as formatted tracebacks, so the parent can re-raise without
    losing pipe lockstep.
    """
    view: Optional[SharedParameterView] = None
    failure: Optional[str] = None
    try:
        parameters = spec.build()
        adversary_parameters = spec.build_adversary() if spec.has_adversary else []
        view = SharedParameterView(shm_spec)
        # The parent's block covers main + adversary parameters in that
        # order; both groups become zero-copy views so each publish refreshes
        # the whole replica at once.
        view.attach_to(parameters + adversary_parameters)
    except Exception:  # noqa: BLE001 - reported on first step
        failure = traceback.format_exc()
    while True:
        try:
            message = conn.recv()
        except EOFError:  # parent died / closed the pipe
            break
        if message is None:
            break
        phase, generation, shard_arrays, shard_indices, payload, state = message
        try:
            if failure is not None:
                raise RuntimeError(
                    "gradient worker failed to initialise:\n" + failure)
            view.check_generation(generation)
            # Zero both groups: the main loss of a GAN backpropagates into
            # the adversary too (through the fooling term), and those stray
            # grads must not leak into the next adversary round.
            for parameter in parameters + adversary_parameters:
                parameter.grad = None
            batch = Batch(arrays=shard_arrays, indices=shard_indices)
            if phase == "adversary":
                loss = spec.adversary_compute(batch, payload, state)
                report = adversary_parameters
            else:
                loss = spec.compute(batch, payload, state)
                report = parameters
            loss.backward()
            # None marks a parameter the loss did not touch; it must stay
            # None through the reduction, because the optimizers skip
            # None-grad parameters entirely (no moment decay) and the
            # parallel run must match that serial semantic.
            gradients = [parameter.grad for parameter in report]
            conn.send(("ok", float(loss.data),
                       float(spec.weight(batch, payload)), gradients))
        except Exception:  # noqa: BLE001 - shipped to the parent verbatim
            conn.send(("error", traceback.format_exc()))
    if view is not None:
        view.close()


class MultiprocessReducer(GradientReducer):
    """Shard each batch across spawned workers and average their gradients.

    The pool lives for the duration of one :meth:`Trainer.fit` call
    (``open``/``close``); per step the parent publishes the current
    parameters to the shared-memory block (one memcpy — workers read them
    through zero-copy views, see :mod:`repro.nn.shm`), scatters contiguous
    shards, and combines the replies in shard order as
    ``sum(w_i * g_i) / sum(w_i)`` — the exact full-batch gradient for every
    spec that honours the :class:`ParallelLossSpec` weight contract.  A
    batch smaller than the pool simply leaves the trailing workers idle for
    that step.

    ``close()`` is idempotent, runs as a context manager (inherited from
    :class:`~repro.training.GradientReducer`) and is additionally registered
    with the atexit cleanup registry while open, so an exception or Ctrl-C
    mid-epoch cannot leak spawned workers or orphaned shared-memory
    segments.
    """

    def __init__(self, spec: ParallelLossSpec, num_workers: int) -> None:
        if num_workers < 2:
            raise ValueError("MultiprocessReducer needs at least 2 workers; "
                             "use SpecReducer for the in-process path")
        self.spec = spec
        self.num_workers = int(num_workers)
        self._trainer: Optional[Trainer] = None
        self._pool: Optional[WorkerPool] = None
        self._block: Optional[SharedParameterBlock] = None
        self._all_parameters: List = []

    # ------------------------------------------------------------------
    def open(self, trainer: Trainer) -> None:
        self._trainer = trainer
        if self._pool is not None:
            return
        try:
            # Adversary parameters ride in the same shared block, after the
            # trainer's own, so one publish refreshes both models in every
            # worker (the workers attach in the same concatenated order).
            self._all_parameters = (list(trainer.parameters)
                                    + list(self.spec.adversary_parameters()))
            self._block = SharedParameterBlock(self._all_parameters)
            self._pool = WorkerPool(
                _worker_main, (self.spec, self._block.spec()),
                self.num_workers, name="gradient-worker")
            self._pool.start()
        except Exception:
            # A partial pool must never survive: reap what did spawn so a
            # retried fit() starts from scratch instead of silently sharding
            # batches across fewer workers than requested.
            self.close()
            raise
        register_cleanup(self)

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()
        block, self._block = self._block, None
        if block is not None:
            block.close()
        unregister_cleanup(self)

    # ------------------------------------------------------------------
    def _compose_step_message(self, phase: str, generation: int, batch: Batch,
                              payload: Tuple[np.ndarray, ...],
                              state: TrainState, start: int, stop: int):
        """The per-step pipe message for one shard — parameter-free by design.

        Everything that scales with model size travels through the
        shared-memory block instead; what crosses the pipe is only the phase
        tag (``"loss"`` or ``"adversary"``), the block generation, the
        shard's slice of the batch and payload arrays, and a slim train
        state (regression-tested: pickled size is independent of the
        parameter count).
        """
        return (
            phase,
            generation,
            tuple(array[start:stop] for array in batch.arrays),
            batch.indices[start:stop],
            tuple(array[start:stop] for array in payload),
            state,
        )

    def _sharded_round(self, phase: str, batch: Batch,
                       payload: Tuple[np.ndarray, ...], state: TrainState,
                       targets: Sequence) -> float:
        """One scatter/gather round: leave the reduced gradients on ``targets``.

        Publishes the current parameters (so the workers see the freshest
        weights — in particular the adversary step taken between the two
        rounds of a GAN batch), shards the batch, and folds the replies as
        ``sum(w_i * g_i) / sum(w_i)``.  Returns the weighted batch loss.
        """
        connections = self._pool.connections
        bounds = _shard_bounds(batch.size, self.num_workers)
        generation = self._block.publish(self._all_parameters)
        slim_state = replace(state, epoch_losses=[], val_losses=[],
                             batch_losses=[])
        for (start, stop), conn in zip(bounds, connections):
            conn.send(self._compose_step_message(
                phase, generation, batch, payload, slim_state, start, stop))

        replies = []
        for _, conn in zip(bounds, connections):
            try:
                replies.append(conn.recv())
            except EOFError:
                raise RuntimeError(
                    "a gradient worker died mid-step; the loss spec is "
                    "probably not spawn-safe (it must be picklable and "
                    "rng-free in compute())"
                ) from None
        errors = [reply[1] for reply in replies if reply[0] == "error"]
        if errors:
            raise RuntimeError("gradient worker failed:\n" + "\n".join(errors))

        if len(replies) == 1:
            # Single shard (batch smaller than the pool): the worker's output
            # IS the batch output — no averaging, bitwise identical to a
            # one-worker step.
            _, loss_value, _, gradients = replies[0]
            for parameter, gradient in zip(targets, gradients):
                parameter.grad = gradient
            return loss_value

        total_weight = 0.0
        total_loss = 0.0
        totals: List[Optional[np.ndarray]] = [None] * len(targets)
        for _, loss_value, weight, gradients in replies:
            total_weight += weight
            total_loss += weight * loss_value
            for index, gradient in enumerate(gradients):
                if gradient is None:
                    continue
                scaled = weight * gradient
                totals[index] = scaled if totals[index] is None \
                    else totals[index] + scaled
        if total_weight <= 0:
            raise RuntimeError("gradient workers reported non-positive total weight")
        # A parameter no shard touched keeps grad=None, exactly as a serial
        # backward would have left it (the optimizers skip such parameters).
        for parameter, total in zip(targets, totals):
            parameter.grad = None if total is None else total / total_weight
        return total_loss / total_weight

    def accumulate(self, batch: Batch, state: TrainState) -> float:
        trainer = self._trainer
        if self._pool is None or self._pool.size != self.num_workers:
            raise RuntimeError(
                f"worker pool holds {0 if self._pool is None else self._pool.size} "
                f"connections but {self.num_workers} were requested; call "
                "open() first"
            )
        payload = self.spec.draw(batch, trainer.rng, state)
        if self.spec.has_adversary:
            # Round 1 — discriminator: sharded gradients of the adversary
            # loss, reduced onto the parent's adversary parameters, then the
            # adversary's own optimizer step (unclipped, as in SpecReducer).
            # The next publish ships the updated weights.
            adversary = self.spec.adversary_parameters()
            for parameter in adversary:
                parameter.grad = None
            self._sharded_round("adversary", batch, payload, state, adversary)
            self.spec.adversary_step()
        # Round 2 (or the only round) — the trainer's own loss.
        return self._sharded_round("loss", batch, payload, state,
                                   trainer.parameters)
