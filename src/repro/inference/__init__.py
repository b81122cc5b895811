"""Sharded inference: data-parallel scoring over spawn-safe worker pools.

The inference-side sibling of the training package's gradient-reducer seam:

* :class:`WorkerPool` — the one worker protocol, shared with the training
  reducer: spawn-started daemon workers, the shared-memory parameter block
  they attach to, ``(generation, body)`` messages, dead-worker errors and
  idempotent, atexit-guaranteed cleanup,
* :class:`ScoreSpec` / :class:`ScoreTask` — one batched scoring call
  factored into parent-side randomness and pure worker-side kernels,
* :class:`SerialScoreReducer` — the in-process path, bit-identical to the
  pre-engine inline scoring loop,
* :class:`MultiprocessScoreReducer` — the same plan fanned out round-robin
  across a persistent scoring-worker pool.

See the README's "Sharded inference" section for the determinism contract
and guidance on when extra score workers help.
"""

from .parallel import (
    MultiprocessScoreReducer,
    ScoreReducer,
    ScoreSpec,
    ScoreTask,
    SerialScoreReducer,
)
from .pool import WorkerPool

__all__ = [
    "MultiprocessScoreReducer",
    "ScoreReducer",
    "ScoreSpec",
    "ScoreTask",
    "SerialScoreReducer",
    "WorkerPool",
]
