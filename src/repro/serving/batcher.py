"""Cross-tenant micro-batching of denoiser calls.

One reverse-diffusion pass has substantial per-call overhead (mask set-up,
chunking, Python dispatch), so scoring each tenant's windows separately wastes
most of the accelerator-friendly batch dimension.  The :class:`MicroBatcher`
queues pending windows from *all* tenants and flushes them through a single
batched scoring call when either

* ``flush_size`` windows are pending (flush by size),
* the oldest pending window has waited ``flush_age`` seconds (flush by age), or
* the caller forces a flush (end of stream, shutdown).

Backpressure: when the queue reaches ``max_pending`` the submitting producer
pays for a synchronous flush before its window is accepted, so the queue can
never grow without bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from .scorer import PendingWindow

__all__ = ["BatchResult", "BatcherStats", "MicroBatcher"]

#: ``score_fn(windows) -> {progress: (batch, window) errors}`` — progress
#: indexes the *visited* denoising steps of the detector's configured reverse
#: sampler (1 = noisiest, max = final), so a strided sampler yields fewer,
#: cheaper entries per flush without any batcher-side changes.
ScoreFn = Callable[[np.ndarray], Dict[int, np.ndarray]]
#: ``on_result(request, step_errors)`` with per-window ``{progress: (window,)}``
ResultFn = Callable[[PendingWindow, Dict[int, np.ndarray]], None]


@dataclass
class BatchResult:
    """Outcome of one flushed batch."""

    reason: str                       # "size" | "age" | "forced" | "backpressure"
    requests: List[PendingWindow]
    step_errors: Dict[int, np.ndarray]  # progress -> (batch, window)
    seconds: float

    @property
    def num_windows(self) -> int:
        return len(self.requests)


@dataclass
class BatcherStats:
    batches_flushed: int = 0
    windows_scored: int = 0
    backpressure_events: int = 0
    flush_reasons: Dict[str, int] = field(default_factory=dict)


class MicroBatcher:
    """Coalesce pending windows across tenants into batched scoring calls."""

    def __init__(self, score_fn: ScoreFn, flush_size: int = 8,
                 flush_age: float = 1.0, max_pending: int = 64,
                 on_result: Optional[ResultFn] = None,
                 on_batch: Optional[Callable[["BatchResult"], None]] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if flush_size < 1:
            raise ValueError("flush_size must be positive")
        if max_pending < flush_size:
            raise ValueError("max_pending must be at least flush_size")
        if flush_age <= 0:
            raise ValueError("flush_age must be positive")
        self.score_fn = score_fn
        self.flush_size = int(flush_size)
        self.flush_age = float(flush_age)
        self.max_pending = int(max_pending)
        self.on_result = on_result
        self.on_batch = on_batch
        self.clock = clock
        self.stats = BatcherStats()
        self._pending: List[PendingWindow] = []
        self._enqueued_at: List[float] = []

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self._pending)

    def oldest_age(self) -> float:
        """Seconds the oldest pending window has been waiting (0 when empty)."""
        if not self._enqueued_at:
            return 0.0
        return max(0.0, self.clock() - self._enqueued_at[0])

    # ------------------------------------------------------------------
    def submit(self, request: PendingWindow) -> Optional[BatchResult]:
        """Enqueue one window; returns a result if backpressure forced a flush.

        A full queue triggers a synchronous backpressure flush — the producer
        pays for the scoring pass — *before* the new window is accepted.
        The window is accepted even when that flush raises, so a failed
        scoring call loses nothing.  Ordinary size/age flushing happens in
        :meth:`maybe_flush`, which the driving loop calls between submissions.
        """
        result = None
        try:
            if len(self._pending) >= self.max_pending:
                self.stats.backpressure_events += 1
                result = self.flush(reason="backpressure")
        finally:
            self._pending.append(request)
            self._enqueued_at.append(self.clock())
        return result

    def maybe_flush(self) -> Optional[BatchResult]:
        """Flush if the size or age trigger fires; called on every poll tick."""
        if len(self._pending) >= self.flush_size:
            return self.flush(reason="size")
        if self._pending and self.oldest_age() >= self.flush_age:
            return self.flush(reason="age")
        return None

    def flush(self, reason: str = "forced") -> Optional[BatchResult]:
        """Score every pending window in one coalesced call.

        The windows leave the queue only once ``score_fn`` returns: a call
        that raises keeps them pending for the next flush, so each window is
        merged exactly once.
        """
        if not self._pending:
            return None
        requests = self._pending
        windows = np.stack([r.window for r in requests])
        started = self.clock()
        step_errors = self.score_fn(windows)
        seconds = max(0.0, self.clock() - started)
        self._pending = []
        self._enqueued_at = []

        self.stats.batches_flushed += 1
        self.stats.windows_scored += len(requests)
        self.stats.flush_reasons[reason] = self.stats.flush_reasons.get(reason, 0) + 1

        if self.on_result is not None:
            for i, request in enumerate(requests):
                per_window = {k: errors[i] for k, errors in step_errors.items()}
                self.on_result(request, per_window)
        result = BatchResult(reason=reason, requests=requests,
                             step_errors=step_errors, seconds=seconds)
        if self.on_batch is not None:
            self.on_batch(result)
        return result
