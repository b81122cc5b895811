"""Unified training engine: Trainer + callbacks + vectorized window loading.

This package is the third subsystem of the reproduction (after the serving
layer and the grad-free inference engine): one reusable gradient-descent
loop for the ImDiffusion denoiser and all nine trainable baselines.

* :class:`WindowLoader` — vectorized shuffled mini-batches over pre-cut
  window arrays (single fancy-index gather per batch, RNG-identical to the
  legacy hand-rolled loops),
* :func:`split_windows` — deterministic held-out validation split over the
  same aligned arrays (one permutation draw; none at fraction 0),
* :class:`Trainer` — the epoch/batch loop (loss, backward, gradient clip,
  optimizer step) with per-epoch held-out validation (``validate_fn``) and
  mid-run checkpoint/resume,
* callbacks — :class:`LossHistory`, :class:`EarlyStopping`,
  :class:`LRSchedule` (``StepLR``/``CosineLR``), :class:`Checkpoint`,
  :class:`LambdaCallback`.  Early stopping and best snapshots both track
  :func:`monitored_loss` — the held-out loss whenever validation runs,
* :class:`ParallelLossSpec` — the loss of one batch, split into a
  parent-side ``draw`` of its randomness and a pure ``compute``.  The
  trainer runs it in-process at ``num_workers=1`` (:class:`SpecReducer`) or
  shards every batch across spawned gradient workers above that
  (:class:`MultiprocessReducer`), averaging shard gradients before the
  single optimizer step.

Quickstart::

    from repro.nn import Adam, Tensor
    from repro.nn import functional as F
    from repro.training import (EarlyStopping, ParallelLossSpec, Trainer,
                                WindowLoader)

    class MSELoss(ParallelLossSpec):
        def __init__(self, model):
            self.model = model

        def build(self):
            return self.model.parameters()

        def compute(self, batch, payload, state):
            inputs, targets = batch
            return F.mse_loss(self.model(Tensor(inputs)), Tensor(targets))

    loader = WindowLoader(inputs, targets, batch_size=16, rng=rng)
    trainer = Trainer(model.parameters(), Adam(model.parameters(), lr=1e-3),
                      MSELoss(model), grad_clip=5.0, rng=rng,
                      callbacks=[EarlyStopping(patience=3)])
    result = trainer.fit(loader, epochs=50)
"""

from .callbacks import (
    Callback,
    Checkpoint,
    EarlyStopping,
    LambdaCallback,
    LossHistory,
    LRSchedule,
    monitored_loss,
)
from .loader import (
    VALIDATION_SEED_OFFSET,
    VALIDATION_SPLITS,
    Batch,
    WindowLoader,
    split_windows,
)
from .parallel import (
    AdversarialMethodLossSpec,
    GradientReducer,
    MethodLossSpec,
    MultiprocessReducer,
    ParallelLossSpec,
    SpecReducer,
)
from .trainer import Trainer, TrainResult, TrainState
from .variance import antithetic_loss, crn_validation_rng

__all__ = [
    "Batch",
    "WindowLoader",
    "split_windows",
    "VALIDATION_SEED_OFFSET",
    "VALIDATION_SPLITS",
    "Trainer",
    "TrainResult",
    "TrainState",
    "GradientReducer",
    "ParallelLossSpec",
    "MethodLossSpec",
    "AdversarialMethodLossSpec",
    "SpecReducer",
    "MultiprocessReducer",
    "Callback",
    "LossHistory",
    "EarlyStopping",
    "LRSchedule",
    "Checkpoint",
    "LambdaCallback",
    "monitored_loss",
    "antithetic_loss",
    "crn_validation_rng",
]
