"""Operational telemetry of the serving layer.

A long-lived monitor is itself a service that must be monitored.  This module
collects the counters and latency distributions an operator of the detector
service would page on: ingest/scoring throughput, micro-batch flush behaviour,
queue depth, backpressure and alarm rates.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

import numpy as np

__all__ = ["LatencyTracker", "ServiceMetrics"]


class LatencyTracker:
    """Bounded reservoir of latency samples with percentile queries."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self._samples: List[float] = []
        self.count = 0
        self.total_seconds = 0.0

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total_seconds += float(seconds)
        self._samples.append(float(seconds))
        if len(self._samples) > self.capacity:
            del self._samples[: len(self._samples) - self.capacity]

    def percentile(self, q: float) -> float:
        """q-th percentile (0-100) of the retained samples; 0 when empty."""
        if not self._samples:
            return 0.0
        return float(np.percentile(self._samples, q))

    @property
    def mean(self) -> float:
        if self.count == 0:
            return 0.0
        return self.total_seconds / self.count


class ServiceMetrics:
    """Counters, gauges and latency distributions of the detector service."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        self.started_at = clock()
        # Counters
        self.events_ingested = 0
        self.points_scored = 0
        self.windows_scored = 0
        self.batches_flushed = 0
        self.alarms_raised = 0
        self.alarm_scans_empty = 0  # scans that found no dirty tenant
        self.backpressure_events = 0
        self.points_evicted = 0
        self.flush_reasons: Dict[str, int] = {}
        # Alert-policy engine (repro.analytics) edges, by policy and kind
        self.alerts_fired = 0
        self.alerts_resolved = 0
        self.alerts_by_policy: Dict[str, int] = {}
        # Online adaptation loop (repro.adaptation) transitions
        self.drift_events = 0
        self.drift_recoveries = 0
        self.adaptations_applied = 0
        self.adaptations_skipped = 0
        self.models_published = 0
        self.rollbacks = 0
        self.hot_swaps = 0
        # Gauges
        self.queue_depth = 0
        self.active_tenants = 0
        # Latency of batched scoring calls
        self.scoring_latency = LatencyTracker()
        # Latency of the post-merge alarm scans that found a dirty tenant
        # (decide + fresh-span analytics); empty scans only count above
        self.alarm_scan_latency = LatencyTracker()

    # ------------------------------------------------------------------
    def record_batch(self, num_windows: int, points: int, seconds: float,
                     reason: str) -> None:
        """Account one flushed scoring batch and its latency sample."""
        self.batches_flushed += 1
        self.windows_scored += num_windows
        self.points_scored += points
        self.flush_reasons[reason] = self.flush_reasons.get(reason, 0) + 1
        self.scoring_latency.record(seconds)

    def record_alert(self, event) -> None:
        """Account one :class:`repro.analytics.AlertEvent` edge."""
        if event.kind == "fired":
            self.alerts_fired += 1
            self.alerts_by_policy[event.policy] = (
                self.alerts_by_policy.get(event.policy, 0) + 1)
        else:
            self.alerts_resolved += 1

    def record_drift(self, event) -> None:
        """Account one :class:`repro.adaptation.DriftEvent` edge."""
        if event.kind == "drift":
            self.drift_events += 1
        else:
            self.drift_recoveries += 1

    def record_adaptation(self, action: str) -> None:
        """Account one adaptation outcome (``adapted``/``rolled_back``/``skipped``)."""
        if action == "adapted":
            self.adaptations_applied += 1
        elif action == "rolled_back":
            self.rollbacks += 1
        elif action == "skipped":
            self.adaptations_skipped += 1
        else:
            raise ValueError(f"unknown adaptation action {action!r}")

    def record_publish(self) -> None:
        """Account one model version published to the registry."""
        self.models_published += 1

    def record_hot_swap(self) -> None:
        """Account one in-place weight swap under the running service."""
        self.hot_swaps += 1

    def record_alarm_scan(self, seconds: float) -> None:
        """Account one :meth:`DetectorService.collect_alarms` scan that did work."""
        self.alarm_scan_latency.record(seconds)

    def record_drain(self, num_windows: int, new_points: int) -> None:
        """Account a shutdown drain pass without polluting latency samples."""
        self.batches_flushed += 1
        self.windows_scored += num_windows
        self.points_scored += new_points
        self.flush_reasons["drain"] = self.flush_reasons.get("drain", 0) + 1

    @property
    def elapsed_seconds(self) -> float:
        """Wall-clock seconds since the metrics object was created."""
        return max(self.clock() - self.started_at, 1e-9)

    @property
    def points_per_second(self) -> float:
        """Scoring throughput over the lifetime of the service."""
        return self.points_scored / self.elapsed_seconds

    @property
    def alarms_per_second(self) -> float:
        """Alarm rate over the lifetime of the service."""
        return self.alarms_raised / self.elapsed_seconds

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """Flat dictionary of every metric, for logging or assertions."""
        return {
            "elapsed_seconds": self.elapsed_seconds,
            "events_ingested": float(self.events_ingested),
            "points_scored": float(self.points_scored),
            "windows_scored": float(self.windows_scored),
            "batches_flushed": float(self.batches_flushed),
            "alarms_raised": float(self.alarms_raised),
            "alarm_scans_empty": float(self.alarm_scans_empty),
            "alerts_fired": float(self.alerts_fired),
            "alerts_resolved": float(self.alerts_resolved),
            "drift_events": float(self.drift_events),
            "drift_recoveries": float(self.drift_recoveries),
            "adaptations_applied": float(self.adaptations_applied),
            "adaptations_skipped": float(self.adaptations_skipped),
            "models_published": float(self.models_published),
            "rollbacks": float(self.rollbacks),
            "hot_swaps": float(self.hot_swaps),
            "backpressure_events": float(self.backpressure_events),
            "points_evicted": float(self.points_evicted),
            "queue_depth": float(self.queue_depth),
            "active_tenants": float(self.active_tenants),
            "points_per_second": self.points_per_second,
            "alarms_per_second": self.alarms_per_second,
            "scoring_latency_p50": self.scoring_latency.percentile(50.0),
            "scoring_latency_p99": self.scoring_latency.percentile(99.0),
            "scoring_latency_mean": self.scoring_latency.mean,
            "alarm_scan_latency_p50": self.alarm_scan_latency.percentile(50.0),
            "alarm_scan_latency_p99": self.alarm_scan_latency.percentile(99.0),
            "alarm_scan_latency_mean": self.alarm_scan_latency.mean,
        }

    def format_table(self) -> str:
        """Human-readable metrics table for the CLI."""
        snap = self.snapshot()
        lines = ["metric                        value",
                 "-" * 40]
        for key in ("active_tenants", "events_ingested", "points_scored",
                    "windows_scored", "batches_flushed", "alarms_raised",
                    "alerts_fired", "alerts_resolved",
                    "drift_events", "adaptations_applied",
                    "adaptations_skipped", "models_published", "rollbacks",
                    "hot_swaps",
                    "backpressure_events", "points_evicted", "queue_depth"):
            lines.append(f"{key:28s} {snap[key]:>10.0f}")
        lines.append(f"{'points_per_second':28s} {snap['points_per_second']:>10.1f}")
        lines.append(f"{'alarms_per_second':28s} {snap['alarms_per_second']:>10.3f}")
        lines.append(f"{'scoring_latency_p50 (ms)':28s} "
                     f"{1000 * snap['scoring_latency_p50']:>10.2f}")
        lines.append(f"{'scoring_latency_p99 (ms)':28s} "
                     f"{1000 * snap['scoring_latency_p99']:>10.2f}")
        lines.append(f"{'alarm_scan_latency_p50 (ms)':28s} "
                     f"{1000 * snap['alarm_scan_latency_p50']:>10.2f}")
        lines.append(f"{'alarm_scan_latency_p99 (ms)':28s} "
                     f"{1000 * snap['alarm_scan_latency_p99']:>10.2f}")
        if self.flush_reasons:
            reasons = ", ".join(f"{k}={v}" for k, v in sorted(self.flush_reasons.items()))
            lines.append(f"{'flushes_by_reason':28s} {reasons:>10s}")
        if self.alerts_by_policy:
            policies = ", ".join(f"{k}={v}"
                                 for k, v in sorted(self.alerts_by_policy.items()))
            lines.append(f"{'alerts_by_policy':28s} {policies:>10s}")
        return "\n".join(lines)
