"""The multi-tenant detector service: router → micro-batcher → scorer.

:class:`DetectorService` wires the serving pieces into one long-lived,
multi-tenant monitor around a single shared (typically registry-loaded)
detector:

* producers push telemetry through :meth:`ingest`,
* the :class:`~repro.serving.router.StreamRouter` forms detection windows and
  hands them to the :class:`~repro.serving.batcher.MicroBatcher`,
* flushed batches run one coalesced denoiser call in the
  :class:`~repro.serving.scorer.IncrementalScorer`, whose per-tenant score
  caches the service then re-evaluates for fresh alarms,
* :class:`~repro.serving.metrics.ServiceMetrics` tracks throughput, scoring
  latency percentiles, queue depth and alarm rate throughout.

The service is single-threaded and event-driven: call :meth:`pump` (or let
:meth:`ingest` do it) to advance flush-by-age timers, and :meth:`drain` at
shutdown to score whatever is still queued.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..core import ImDiffusionDetector
from ..core.detector import ImputationScoreSpec
from ..inference import MultiprocessScoreReducer, ScoreReducer
from .batcher import BatchResult, MicroBatcher
from .metrics import ServiceMetrics
from .router import StreamRouter, TelemetryEvent
from .scorer import IncrementalScorer, PendingWindow, ScoreView

if TYPE_CHECKING:  # pragma: no cover - import cycle: analytics uses our buffers
    from ..analytics import AlertEvent, AnalyticsEngine

__all__ = ["Alarm", "ServingConfig", "DetectorService"]


@dataclass(frozen=True)
class Alarm:
    """One anomaly alarm: a flagged timestamp in one tenant's stream."""

    tenant: str
    index: int    # absolute stream index of the flagged point
    score: float  # final-step imputation error at that point


@dataclass
class ServingConfig:
    """Knobs of the serving layer (the model itself is configured separately)."""

    flush_size: int = 8        # windows per coalesced denoiser call
    flush_age: float = 2.0     # seconds a window may wait before an age flush
    max_pending: int = 64      # queue bound triggering backpressure
    history: int = 1024        # per-tenant score-cache / evaluation buffer
    raw_capacity: Optional[int] = None  # per-tenant raw ring (default from scorer)
    # Sharded inference: fan each flushed batch out across this many scoring
    # workers (1 = score in-process).  Scores are worker-count-invariant;
    # see the README's "Sharded inference" section for when it helps.
    score_workers: int = 1
    # Analytics layer (repro.analytics): queryable score history + alerting
    alert_policies: Sequence[str] = ()  # policy expressions (see parse_policy)
    analytics_history: Optional[int] = None  # score-store retention (default: history)
    episode_gap: int = 2       # quiet points merged into an anomaly episode
    episode_min_length: int = 1  # shortest episode worth reporting


class DetectorService:
    """Serve many telemetry streams through one shared fitted detector."""

    def __init__(self, detector: ImDiffusionDetector,
                 config: Optional[ServingConfig] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.config = config or ServingConfig()
        if self.config.score_workers < 1:
            raise ValueError("score_workers must be at least 1")
        self.metrics = ServiceMetrics(clock=clock)
        reducer: Optional[ScoreReducer] = None
        if self.config.score_workers > 1:
            reducer = MultiprocessScoreReducer(
                ImputationScoreSpec(detector), self.config.score_workers)
        self.scorer = IncrementalScorer(
            detector, history=self.config.history,
            raw_capacity=self.config.raw_capacity,
            reducer=reducer)
        self.batcher = MicroBatcher(
            score_fn=self.scorer.score_window_batch,
            flush_size=self.config.flush_size,
            flush_age=self.config.flush_age,
            max_pending=self.config.max_pending,
            on_result=self._merge_result,
            on_batch=self._record_batch,
            clock=clock,
        )
        self.router = StreamRouter(self.scorer, on_window=self.batcher.submit)
        # Deferred import: repro.analytics builds on the serving ring buffers,
        # so importing it at module scope would be circular.
        from ..analytics import AnalyticsEngine

        self.analytics: "AnalyticsEngine" = AnalyticsEngine(
            history=self.config.analytics_history or self.config.history,
            policies=list(self.config.alert_policies),
            episode_gap=self.config.episode_gap,
            episode_min_length=self.config.episode_min_length,
        )
        self._alarm_cursor: Dict[str, int] = {}
        self._dirty: Dict[str, bool] = {}

    # ------------------------------------------------------------------
    def register_tenant(self, tenant: str) -> None:
        """Register a tenant; idempotent for tenants the router auto-registered."""
        if not self.scorer.is_registered(tenant):
            self.router.register_tenant(tenant)
        self.analytics.register_tenant(tenant)
        self._alarm_cursor.setdefault(tenant, 0)
        self._dirty.setdefault(tenant, False)
        self.metrics.active_tenants = len(self.scorer.tenants())

    def tenants(self) -> List[str]:
        """Registered tenant names, sorted."""
        return self.scorer.tenants()

    # ------------------------------------------------------------------
    # Batcher callbacks
    # ------------------------------------------------------------------
    def _merge_result(self, request: PendingWindow,
                      step_errors: Dict[int, np.ndarray]) -> None:
        self.scorer.merge(request.tenant, request.start, step_errors)
        # Tenants may enter through the router's auto-register path, so the
        # service-side cursors are created lazily.
        self._alarm_cursor.setdefault(request.tenant, 0)
        self._dirty[request.tenant] = True

    def _record_batch(self, result: BatchResult) -> None:
        points = result.num_windows * self.scorer.window_size
        self.metrics.record_batch(result.num_windows, points, result.seconds,
                                  result.reason)

    def _sync_gauges(self) -> None:
        self.metrics.events_ingested = self.router.events_ingested
        self.metrics.points_evicted = self.router.points_evicted
        self.metrics.backpressure_events = self.batcher.stats.backpressure_events
        self.metrics.queue_depth = self.batcher.queue_depth

    # ------------------------------------------------------------------
    # Ingress
    # ------------------------------------------------------------------
    def ingest(self, tenant: str, values: np.ndarray) -> List[Alarm]:
        """Push one sample (or a contiguous block) from one tenant.

        Completed windows are queued for micro-batched scoring; any flush
        triggered along the way (size or backpressure) may produce fresh
        alarms, which are returned.
        """
        if tenant not in self._alarm_cursor:
            self.register_tenant(tenant)
        self.router.ingest_points(tenant, values)
        self.batcher.maybe_flush()
        self._sync_gauges()
        return self.collect_alarms()

    def ingest_event(self, event: TelemetryEvent) -> List[Alarm]:
        """Push one :class:`~repro.serving.router.TelemetryEvent` (see :meth:`ingest`)."""
        return self.ingest(event.tenant, np.atleast_2d(event.values))

    # ------------------------------------------------------------------
    # Poll-driven progress
    # ------------------------------------------------------------------
    def pump(self) -> List[Alarm]:
        """Advance time-based flushing; call periodically when ingest is idle."""
        self.batcher.maybe_flush()
        self._sync_gauges()
        return self.collect_alarms()

    def drain(self) -> List[Alarm]:
        """Flush every queued window and score all anchored tails (shutdown)."""
        self.batcher.flush(reason="forced")
        # Score partial tails directly so the last points of each stream get
        # labels even when they never filled a window.  Anchored tails mostly
        # re-score points already counted, so only the newly covered span is
        # added to the throughput counters, and no synthetic latency sample
        # is recorded.
        for tenant in self.scorer.tenants():
            before = self.scorer.scored_until(tenant)
            scored = self.scorer.score_pending(tenant, anchor_tail=True)
            if scored:
                new_points = self.scorer.scored_until(tenant) - before
                self.metrics.record_drain(scored, new_points)
                self._dirty[tenant] = True
        self._sync_gauges()
        return self.collect_alarms()

    # ------------------------------------------------------------------
    # Alarms
    # ------------------------------------------------------------------
    def collect_alarms(self) -> List[Alarm]:
        """Fresh alarms from every tenant whose scores changed since last check.

        Each fresh span is also pushed through the analytics layer: scores
        and labels land in the per-tenant score store, episodes advance, and
        every configured alert policy is evaluated incrementally (events are
        queued on ``self.analytics`` — see :meth:`drain_alert_events`).
        A scan that finds no dirty tenant (the common case after an
        ``ingest`` that flushed nothing) is only counted, so the scan
        latency distribution describes scans that did work.
        """
        scan_started = self.metrics.clock()
        alarms: List[Alarm] = []
        dirty_tenants = [tenant for tenant, dirty in self._dirty.items() if dirty]
        if not dirty_tenants:
            self.metrics.alarm_scans_empty += 1
            return alarms
        for tenant in dirty_tenants:
            self._dirty[tenant] = False
            view = self.scorer.decide(tenant)
            cursor = max(self._alarm_cursor[tenant], view.start)
            start, labels, scores = view.slice_from(cursor)
            for offset in np.flatnonzero(labels):
                alarms.append(Alarm(tenant=tenant, index=start + int(offset),
                                    score=float(scores[offset])))
            self._alarm_cursor[tenant] = view.end
            if labels.shape[0]:
                # A span evicted before evaluation leaves a hole; the store
                # skips it so its watermark stays aligned with the cursor.
                self.analytics.store.skip_to(tenant, start)
                for event in self.analytics.observe_block(
                        tenant, start, scores, labels):
                    self.metrics.record_alert(event)
        self.metrics.alarms_raised += len(alarms)
        self.metrics.record_alarm_scan(self.metrics.clock() - scan_started)
        return alarms

    # ------------------------------------------------------------------
    # Analytics
    # ------------------------------------------------------------------
    def drain_alert_events(self) -> List["AlertEvent"]:
        """Alert-policy events queued since the last drain (stream order)."""
        return self.analytics.drain_events()

    def tenant_view(self, tenant: str) -> ScoreView:
        """Current labels/scores over one tenant's retained evaluation buffer."""
        return self.scorer.decide(tenant)

    # ------------------------------------------------------------------
    # Online adaptation
    # ------------------------------------------------------------------
    def hot_swap(self, detector: ImDiffusionDetector) -> int:
        """Swap the serving model's weights in place, without a restart.

        Delegates to :meth:`IncrementalScorer.swap_detector`: weights and
        scaler statistics are copied into the live arrays and, under
        ``score_workers > 1``, re-published to the shared-memory parameter
        block — the generation counter bump makes every scoring worker pick
        the new weights up on its next task.  Tenant state, score caches and
        the scoring random stream are untouched.  Returns the new parameter
        generation (0 when scoring in-process) and counts the transition in
        :attr:`metrics`.
        """
        generation = self.scorer.swap_detector(detector)
        self.metrics.record_hot_swap()
        return generation

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the scorer's inference resources; idempotent.

        With ``score_workers > 1`` this shuts the scoring-worker pool down
        and unlinks the shared-memory parameter block.  Queued windows are
        NOT scored — call :meth:`drain` first if their labels matter.
        """
        self.scorer.close()

    def __enter__(self) -> "DetectorService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
