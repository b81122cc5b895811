"""Open-loop load generator and per-window latency accounting.

The generator sends every sample at its scheduled time whether or not the
service has kept up: when a call into the service stalls, the samples that
fell due meanwhile are sent back to back as soon as it returns.  A window's
latency runs from the moment its *last sample was due* to the first moment,
observed after a public call returns, at which the service reports that
window scored.  Generator lateness therefore counts against latency, as it
does for a user whose data arrived on time.

The clock, the sleep function and the service are injected, so the
self-tests drive this module on a fake clock.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol, Sequence

import numpy as np

from .stats import percentile

__all__ = ["Schedule", "make_schedule", "ServiceAdapter", "WindowTracker",
           "LoopResult", "run_open_loop"]


@dataclass
class Schedule:
    """When each sample is due, relative to the start of the loop."""

    tenants: List[str]
    window: int
    length: int                  # samples per tenant, a multiple of ``window``
    offsets: np.ndarray          # (n,) seconds, non-decreasing
    tenant_index: np.ndarray     # (n,) which tenant each sample belongs to
    sample_index: np.ndarray     # (n,) position of the sample in its stream

    @property
    def total(self) -> int:
        return int(self.offsets.shape[0])

    def window_due(self, tenant: int) -> np.ndarray:
        """Due offset of the last sample of each of the tenant's windows."""
        per_tenant = self.offsets[self.tenant_index == tenant]
        return per_tenant[self.window - 1::self.window]


def make_schedule(tenants: Sequence[str], window: int, rate: float,
                  seconds: float,
                  phase_order: Optional[Sequence[int]] = None) -> Schedule:
    """Even per-tenant rates, tenant phases staggered across one window period.

    ``rate`` is the offered load in samples per second over all tenants.
    Each tenant sends ``rate / len(tenants)`` samples per second for
    ``seconds``, rounded down to whole windows.  Tenant ``i`` starts
    ``phase_order[i] / len(tenants)`` of a window period after the first
    (``phase_order`` defaults to ``0, 1, ...``), so windows complete at
    evenly spread times rather than all at once.
    """
    count = len(tenants)
    slots = list(range(count)) if phase_order is None else [int(p) for p in phase_order]
    if sorted(slots) != list(range(count)):
        raise ValueError("phase_order must be a permutation of the tenant indices")
    per_tenant_rate = rate / count
    length = int(per_tenant_rate * seconds) // window * window
    if length < window:
        raise ValueError("schedule too short for one window per tenant")
    period = window / per_tenant_rate
    steps = np.arange(length) / per_tenant_rate
    offsets = np.concatenate([steps + period * slot / count for slot in slots])
    tenant_index = np.repeat(np.arange(count), length)
    sample_index = np.tile(np.arange(length), count)
    order = np.lexsort((tenant_index, offsets))
    return Schedule(list(tenants), window, length, offsets[order],
                    tenant_index[order], sample_index[order])


class ServiceAdapter(Protocol):
    """The calls the loop makes into the system under test."""

    def ingest(self, tenant: str, sample_index: int) -> None: ...
    def pump(self) -> None: ...
    def drain(self) -> None: ...
    def scored_until(self, tenant: str) -> int: ...
    def progress_token(self) -> int: ...


class WindowTracker:
    """Turn ``scored_until`` observations into per-window latencies."""

    def __init__(self, schedule: Schedule, start: float) -> None:
        self.schedule = schedule
        self.due = [start + schedule.window_due(i)
                    for i in range(len(schedule.tenants))]
        self.done = [0] * len(schedule.tenants)
        self.latencies: List[float] = []

    def observe(self, service: ServiceAdapter, now: float) -> None:
        window = self.schedule.window
        for i, tenant in enumerate(self.schedule.tenants):
            complete = min(service.scored_until(tenant) // window,
                           len(self.due[i]))
            while self.done[i] < complete:
                self.latencies.append(now - float(self.due[i][self.done[i]]))
                self.done[i] += 1

    @property
    def windows(self) -> int:
        return sum(len(due) for due in self.due)

    @property
    def unscored(self) -> int:
        return self.windows - sum(self.done)

    def latencies_with_failures(self) -> List[float]:
        """Scored latencies plus ``inf`` for every window never scored."""
        return self.latencies + [math.inf] * self.unscored


@dataclass
class LoopResult:
    latencies: List[float]        # seconds; ``inf`` for never-scored windows
    windows: int
    unscored: int
    lateness: np.ndarray          # seconds each sample was sent after its due time
    elapsed: float                # from loop start to the end of drain
    health: Dict[str, float] = field(default_factory=dict)


def generator_health(offsets: np.ndarray, sent_at: np.ndarray,
                     lateness: np.ndarray, grid: float = 0.1) -> Dict[str, float]:
    """How late the generator ran, and whether its backlog grew.

    The backlog at time ``t`` is the number of samples due before ``t`` but
    not yet sent at ``t``.  ``backlog_end`` is taken when the last sample
    fell due.  The backlog *grew* when ``backlog_end`` exceeds the largest
    backlog seen in the first half of the schedule: a service that keeps up
    stays within the range its normal stalls produce.
    """
    end = float(offsets[-1])
    times = np.arange(0.0, end, grid)

    def backlog(at: np.ndarray) -> np.ndarray:
        due = np.searchsorted(offsets, at, side="left")
        sent = np.searchsorted(sent_at, at, side="right")
        return np.maximum(due - sent, 0)

    first_half = backlog(times[times <= end / 2])
    backlog_end = int(backlog(np.array([end]))[0])
    late_p90 = percentile(list(lateness), 90)
    return {
        "late_ms_p50": 1e3 * float(np.median(lateness)),
        "late_ms_p90": 1e3 * late_p90 if late_p90 is not None else math.nan,
        "late_ms_max": 1e3 * float(lateness.max()),
        "backlog_max": int(backlog(times).max()) if times.size else 0,
        "backlog_end": backlog_end,
        "backlog_grew": bool(backlog_end > (first_half.max() if first_half.size else 0)),
    }


def run_open_loop(schedule: Schedule, service: ServiceAdapter, *,
                  clock: Callable[[], float], sleep: Callable[[float], None],
                  pump_every: float = 0.5, lead: float = 0.05,
                  span: Optional[Callable[[str], object]] = None) -> LoopResult:
    """Send the schedule into ``service``, then drain it; time every window.

    ``pump_every`` bounds how often an idle generator calls ``pump`` (the
    service's age-based flush tick).  ``span(name)`` returns a context
    manager; the traced run passes the tracer's so that sleeping and the
    harness's own bookkeeping show up as ``bench.*`` spans.
    """
    span = span or (lambda name: nullcontext())
    start = clock() + lead
    offsets = schedule.offsets
    tracker = WindowTracker(schedule, start)
    total = schedule.total
    lateness = np.empty(total)
    sent_at = np.empty(total)
    token = service.progress_token()
    last_pump = -math.inf
    sent = 0

    def after_call() -> None:
        nonlocal token
        current = service.progress_token()
        if current != token:
            token = current
            with span("bench.observe"):
                tracker.observe(service, clock())

    while sent < total:
        now = clock()
        due = start + float(offsets[sent])
        if now < due:
            if now - last_pump >= pump_every:
                last_pump = now
                service.pump()
                after_call()
            else:
                with span("bench.idle"):
                    sleep(due - now)
            continue
        lateness[sent] = now - due
        sent_at[sent] = now - start
        service.ingest(schedule.tenants[int(schedule.tenant_index[sent])],
                       int(schedule.sample_index[sent]))
        sent += 1
        after_call()
    service.drain()
    with span("bench.observe"):
        tracker.observe(service, clock())
    elapsed = clock() - start
    return LoopResult(
        latencies=tracker.latencies_with_failures(),
        windows=tracker.windows, unscored=tracker.unscored,
        lateness=lateness, elapsed=elapsed,
        health=generator_health(offsets, sent_at, lateness))
