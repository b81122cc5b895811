"""The shared training engine.

:class:`Trainer` owns the epoch/batch loop that the seed code repeated in
``ImDiffusionDetector.fit`` and nine baseline ``_fit`` methods: shuffle (via
a :class:`~repro.training.WindowLoader`), compute the loss, backpropagate,
clip gradients, step the optimizer — and emit callback hooks around every
stage.  The loss is a :class:`~repro.training.ParallelLossSpec`: its
``draw`` makes the batch's random draws on the trainer's generator and its
``compute`` forms the loss, in-process at ``num_workers=1`` or sharded over
spawned gradient workers above that.  The loop is RNG-transparent: for an
identical loader, loss and optimizer it consumes the random stream in
exactly the order the legacy hand-rolled loops did, so a migrated detector
produces bit-identical parameters for a fixed seed (regression-tested
against frozen copies of the pre-refactor loops).

The trainer is also checkpointable mid-run: :meth:`Trainer.state_dict`
captures parameters, optimizer slots, RNG state, loss history and callback
states, and :meth:`Trainer.load_state_dict` restores them so a resumed run
continues the exact trajectory of an uninterrupted one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn import Optimizer, clip_grad_norm
from .callbacks import Callback
from .parallel import (
    GradientReducer,
    MultiprocessReducer,
    ParallelLossSpec,
    SpecReducer,
)

__all__ = ["TrainState", "TrainResult", "Trainer"]

_STATE_FORMAT_VERSION = 1


@dataclass
class TrainState:
    """Mutable progress of one training run, visible to every callback."""

    epoch: int = 0                 #: epochs completed so far
    step: int = 0                  #: optimizer steps taken so far
    batch: int = 0                 #: batch index within the current epoch
    last_loss: float = float("nan")
    epoch_losses: List[float] = field(default_factory=list)
    val_losses: List[float] = field(default_factory=list)  #: held-out, per epoch
    batch_losses: List[float] = field(default_factory=list)  #: current epoch
    stop_requested: bool = False
    stop_reason: Optional[str] = None


@dataclass
class TrainResult:
    """Summary returned by :meth:`Trainer.fit`."""

    epoch_losses: List[float]
    epochs_run: int
    stopped_early: bool
    stop_reason: Optional[str]
    wall_seconds: float
    val_losses: List[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        """Training loss of the last epoch (NaN before any epoch ran)."""
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")

    @property
    def final_val_loss(self) -> float:
        """Validation loss of the last epoch (NaN when validation is off)."""
        return self.val_losses[-1] if self.val_losses else float("nan")


class Trainer:
    """Drive gradient-descent training with a callback/hook protocol.

    Parameters
    ----------
    parameters:
        The parameters to clip and (via ``optimizer``) update.
    optimizer:
        Any :class:`repro.nn.Optimizer` over the same parameters.
    loss_spec:
        The :class:`~repro.training.ParallelLossSpec` of one mini-batch:
        ``draw(batch, rng, state)`` makes its random draws on ``rng`` and
        ``compute(batch, payload, state)`` returns the scalar loss.
        ``batch`` is whatever the loader yields (a
        :class:`~repro.training.Batch`); ``state`` is the live
        :class:`TrainState`, letting epoch-dependent objectives (e.g.
        TranAD's adversarial schedule) read ``state.epoch``.
    num_workers:
        1 computes each batch in-process (:class:`SpecReducer`); more shards
        it across that many spawned gradient workers
        (:class:`MultiprocessReducer`) for the duration of each :meth:`fit`.
        The worker count never enters a checkpoint, so a snapshot may be
        resumed under a different one.
    grad_clip:
        Global L2 gradient-norm bound applied before every optimizer step
        (``None`` disables clipping).
    callbacks:
        :class:`~repro.training.Callback` instances, invoked in order.
    rng:
        The random generator driving the run (loader shuffle + the spec's
        ``draw``).  Checkpoints capture and restore its state for
        bit-identical resumption.
    validate_fn:
        ``(trainer, state) -> float`` returning the held-out validation loss,
        evaluated once at the end of every epoch *before* the
        ``on_epoch_end`` hooks fire, so callbacks (early stopping, best
        snapshots) can monitor ``state.val_losses[-1]``.  Implementations
        should run grad-free (under :class:`repro.nn.no_grad`) and must not
        consume the trainer's ``rng``, or the validated run's training
        stream would diverge from an unvalidated one.
    """

    def __init__(self, parameters: Sequence, optimizer: Optimizer,
                 loss_spec: ParallelLossSpec, *, num_workers: int = 1,
                 grad_clip: Optional[float] = None,
                 callbacks: Sequence[Callback] = (),
                 rng: Optional[np.random.Generator] = None,
                 validate_fn: Optional[Callable[["Trainer", "TrainState"], float]] = None
                 ) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("Trainer received an empty parameter list")
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        self.optimizer = optimizer
        self.loss_spec = loss_spec
        self.num_workers = int(num_workers)
        self.grad_clip = grad_clip
        self.callbacks = list(callbacks)
        self.rng = rng
        self.validate_fn = validate_fn
        self.reducer: GradientReducer = (
            SpecReducer(loss_spec) if num_workers == 1
            else MultiprocessReducer(loss_spec, num_workers))
        self.state = TrainState()

    # ------------------------------------------------------------------
    def _emit(self, hook: str) -> None:
        for callback in self.callbacks:
            getattr(callback, hook)(self, self.state)

    # ------------------------------------------------------------------
    def fit(self, loader, epochs: int) -> TrainResult:
        """Run (or, after :meth:`load_state_dict`, continue) training.

        ``epochs`` is the *total* epoch budget: a trainer restored from an
        epoch-3 checkpoint with ``epochs=5`` runs two more epochs.
        """
        if epochs < 0:
            raise ValueError("epochs must be non-negative")
        state = self.state
        start_time = time.perf_counter()
        self.reducer.open(self)
        try:
            self._emit("on_train_start")
            while state.epoch < epochs and not state.stop_requested:
                state.batch = 0
                state.batch_losses = []
                self._emit("on_epoch_start")
                for batch in loader:
                    self.optimizer.zero_grad()
                    loss_value = self.reducer.accumulate(batch, state)
                    if self.grad_clip is not None:
                        clip_grad_norm(self.parameters, self.grad_clip)
                    self.optimizer.step()
                    state.last_loss = loss_value
                    state.batch_losses.append(state.last_loss)
                    state.step += 1
                    state.batch += 1
                    self._emit("on_batch_end")
                state.epoch_losses.append(float(np.mean(state.batch_losses)))
                state.epoch += 1
                if self.validate_fn is not None:
                    state.val_losses.append(float(self.validate_fn(self, state)))
                self._emit("on_epoch_end")
            self._emit("on_train_end")
        finally:
            self.reducer.close()
        return TrainResult(
            epoch_losses=list(state.epoch_losses),
            epochs_run=state.epoch,
            stopped_early=state.stop_requested,
            stop_reason=state.stop_reason,
            wall_seconds=time.perf_counter() - start_time,
            val_losses=list(state.val_losses),
        )

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------
    def state_dict(self) -> Tuple[Dict[str, np.ndarray], dict]:
        """Full trainer state as ``(arrays, metadata)``.

        Compatible with :func:`repro.nn.serialization.save_checkpoint`; the
        :class:`~repro.training.Checkpoint` callback writes exactly this
        payload.  Restoring it into a trainer built over the same
        architecture and continuing with :meth:`fit` reproduces an
        uninterrupted run bit for bit (parameters, optimizer moments and the
        random stream all resume where they left off).
        """
        arrays = {f"param.{index}": np.asarray(p.data).copy()
                  for index, p in enumerate(self.parameters)}
        opt_scalars, opt_arrays = self.optimizer.state_dict()
        for name, value in opt_arrays.items():
            arrays[f"optimizer.{name}"] = value
        # Callback-owned arrays (e.g. EarlyStopping's best-epoch weights)
        # travel in the array payload, keyed by the callback's position.
        for index, callback in enumerate(self.callbacks):
            for name, value in callback.state_arrays().items():
                arrays[f"callback.{index}.{name}"] = np.asarray(value).copy()
        state = self.state
        metadata = {
            "format_version": _STATE_FORMAT_VERSION,
            "epoch": state.epoch,
            "step": state.step,
            "epoch_losses": [float(loss) for loss in state.epoch_losses],
            "val_losses": [float(loss) for loss in state.val_losses],
            "optimizer": opt_scalars,
            "rng_state": (self.rng.bit_generator.state
                          if self.rng is not None else None),
            "callbacks": [callback.state_dict() for callback in self.callbacks],
        }
        return arrays, metadata

    def load_state_dict(self, arrays: Dict[str, np.ndarray], metadata: dict) -> None:
        """Restore a snapshot captured by :meth:`state_dict`.

        The trainer must be constructed over the same parameter list (same
        order, same shapes), optimizer type and callback sequence as the one
        that produced the snapshot.
        """
        version = metadata.get("format_version")
        if version != _STATE_FORMAT_VERSION:
            raise ValueError(f"unsupported trainer state version: {version!r}")
        for index, p in enumerate(self.parameters):
            key = f"param.{index}"
            if key not in arrays:
                raise KeyError(f"checkpoint is missing {key!r}")
            value = np.asarray(arrays[key], dtype=np.float64)
            if value.shape != np.asarray(p.data).shape:
                raise ValueError(
                    f"checkpoint parameter {index} has shape {value.shape}, "
                    f"expected {np.asarray(p.data).shape}"
                )
            p.data = value.copy()
        prefix = "optimizer."
        opt_arrays = {name[len(prefix):]: value
                      for name, value in arrays.items() if name.startswith(prefix)}
        self.optimizer.load_state_dict(metadata["optimizer"], opt_arrays)
        state = self.state
        state.epoch = int(metadata["epoch"])
        state.step = int(metadata["step"])
        state.epoch_losses = [float(loss) for loss in metadata["epoch_losses"]]
        state.val_losses = [float(loss) for loss in metadata.get("val_losses", [])]
        state.stop_requested = False
        state.stop_reason = None
        if metadata.get("rng_state") is not None:
            if self.rng is None:
                raise ValueError(
                    "checkpoint carries an RNG state but the trainer has no rng"
                )
            self.rng.bit_generator.state = metadata["rng_state"]
        saved_callbacks = metadata.get("callbacks", [])
        for callback, saved in zip(self.callbacks, saved_callbacks):
            if saved is not None:
                callback.load_state_dict(saved)
        for index, callback in enumerate(self.callbacks):
            prefix = f"callback.{index}."
            callback.load_state_arrays({
                name[len(prefix):]: value
                for name, value in arrays.items() if name.startswith(prefix)
            })
