"""Tests for the stream router, detector service and service metrics."""

import numpy as np
import pytest

from repro import ImDiffusionConfig, ImDiffusionDetector
from repro.serving import (
    DetectorService,
    LatencyTracker,
    ServiceMetrics,
    ServingConfig,
    StreamRouter,
    IncrementalScorer,
    TelemetryEvent,
)

WINDOW = 16


def make_series(length, channels=3, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    base = np.sin(2 * np.pi * t / 32)[:, None] * np.ones((1, channels))
    return base + 0.1 * rng.standard_normal((length, channels))


@pytest.fixture(scope="module")
def detector():
    config = ImDiffusionConfig(
        window_size=WINDOW, num_steps=4, epochs=1, hidden_dim=8, num_blocks=1,
        num_heads=2, max_train_windows=12, num_masked_windows=2,
        num_unmasked_windows=2, deterministic_inference=True, collect="x0",
        seed=0)
    return ImDiffusionDetector(config).fit(make_series(200, seed=1))


class TestStreamRouter:
    def test_ingest_emits_windows_downstream(self, detector):
        received = []
        scorer = IncrementalScorer(detector, history=64)
        router = StreamRouter(scorer, on_window=received.append)
        router.register_tenant("a")
        series = make_series(WINDOW * 2 + 3, seed=2)
        for row in series:
            router.ingest(TelemetryEvent(tenant="a", values=row))
        assert [w.start for w in received] == [0, WINDOW]
        assert router.events_ingested == series.shape[0]

    def test_auto_registration(self, detector):
        router = StreamRouter(IncrementalScorer(detector, history=64))
        router.ingest_points("new-tenant", make_series(4, seed=3))
        assert router.tenants() == ["new-tenant"]

    def test_strict_mode_rejects_unknown_tenants(self, detector):
        router = StreamRouter(IncrementalScorer(detector, history=64),
                              auto_register=False)
        with pytest.raises(KeyError):
            router.ingest_points("ghost", make_series(4, seed=3))


class TestDetectorService:
    def test_four_tenants_share_one_model(self, detector):
        service = DetectorService(detector, ServingConfig(flush_size=4,
                                                          history=128))
        tenants = [f"t{i}" for i in range(4)]
        streams = {t: make_series(3 * WINDOW, seed=10 + i)
                   for i, t in enumerate(tenants)}
        for step in range(3 * WINDOW):
            for tenant in tenants:
                service.ingest(tenant, streams[tenant][step])
        service.drain()
        for tenant in tenants:
            view = service.tenant_view(tenant)
            assert view.end == 3 * WINDOW
            assert view.labels.shape[0] == 3 * WINDOW
        snap = service.metrics.snapshot()
        assert snap["active_tenants"] == 4
        assert snap["points_scored"] >= 4 * 3 * WINDOW
        assert snap["batches_flushed"] >= 1
        assert snap["queue_depth"] == 0

    def test_alarms_are_monotone_and_deduplicated(self, detector):
        service = DetectorService(detector, ServingConfig(flush_size=2,
                                                          history=128))
        series = make_series(4 * WINDOW, seed=4)
        series[40:44] += 4.0  # strong injected anomaly
        alarms = []
        for row in series:
            alarms.extend(service.ingest("a", row))
        alarms.extend(service.drain())
        indices = [a.index for a in alarms if a.tenant == "a"]
        assert len(indices) == len(set(indices)), "duplicate alarms"
        assert any(40 <= i < 44 for i in indices), "injected anomaly missed"

    def test_drain_scores_partial_tails(self, detector):
        service = DetectorService(detector, ServingConfig(flush_size=4,
                                                          history=128))
        service.ingest("a", make_series(WINDOW + 5, seed=5))
        assert service.scorer.scored_until("a") < WINDOW + 5
        service.drain()
        assert service.scorer.scored_until("a") == WINDOW + 5
        assert service.tenant_view("a").labels.shape[0] == WINDOW + 5

    def test_router_auto_registered_tenants_are_served(self, detector):
        """Tenants entering through the router front door must not crash the
        service-side alarm bookkeeping (regression test)."""
        service = DetectorService(detector, ServingConfig(flush_size=1,
                                                          history=128))
        series = make_series(2 * WINDOW, seed=7)
        for row in series:
            service.ingest_event(TelemetryEvent(tenant="side-door", values=row))
        service.pump()
        service.drain()
        view = service.tenant_view("side-door")
        assert view.end == 2 * WINDOW
        # register_tenant afterwards is idempotent, not an error.
        service.register_tenant("side-door")

    def test_backpressure_engages_on_burst_ingest(self, detector):
        """A single huge block emits more windows than max_pending allows."""
        service = DetectorService(detector, ServingConfig(
            flush_size=2, max_pending=3, history=512))
        service.ingest("a", make_series(10 * WINDOW, seed=8))
        assert service.metrics.backpressure_events >= 1
        service.drain()
        assert service.tenant_view("a").end == 10 * WINDOW

    def test_killed_scoring_worker_loses_no_window(self, detector,
                                                   kill_and_reap):
        """A worker SIGKILLed between flushes fails one flush; its windows
        stay queued and are scored, exactly once, by the next flush."""
        series = make_series(10 * WINDOW, seed=9)
        with DetectorService(detector, ServingConfig(
                flush_size=4, flush_age=1e9, history=512,
                score_workers=2)) as service:
            service.ingest("a", series[:4 * WINDOW])
            assert service.scorer.scored_until("a") == 4 * WINDOW
            kill_and_reap(service.scorer.worker_pids[0])
            with pytest.raises(RuntimeError, match="scoring worker died"):
                service.ingest("a", series[4 * WINDOW:8 * WINDOW])
            assert service.batcher.queue_depth == 4
            service.ingest("a", series[8 * WINDOW:])
            assert service.batcher.queue_depth == 0
            assert service.scorer.scored_until("a") == 10 * WINDOW
            assert service.batcher.stats.windows_scored == 10
            view = service.tenant_view("a")
            assert (view.start, view.end) == (0, 10 * WINDOW)
            assert np.all(view.scores > 0)

    def test_pump_flushes_by_age(self, detector):
        clock = [0.0]
        service = DetectorService(
            detector,
            ServingConfig(flush_size=100, flush_age=5.0, max_pending=100,
                          history=128),
            clock=lambda: clock[0])
        service.ingest("a", make_series(WINDOW, seed=6))
        assert service.batcher.queue_depth == 1
        service.pump()
        assert service.batcher.queue_depth == 1  # not old enough yet
        clock[0] += 6.0
        service.pump()
        assert service.batcher.queue_depth == 0
        assert service.metrics.flush_reasons.get("age") == 1


class TestServiceMetrics:
    def test_latency_percentiles(self):
        tracker = LatencyTracker()
        assert tracker.percentile(50) == 0.0
        for value in [0.01, 0.02, 0.03, 0.04, 0.10]:
            tracker.record(value)
        assert tracker.percentile(50) == pytest.approx(0.03)
        assert tracker.percentile(99) <= 0.10
        assert tracker.mean == pytest.approx(0.04)

    def test_latency_reservoir_is_bounded(self):
        tracker = LatencyTracker(capacity=10)
        for i in range(100):
            tracker.record(float(i))
        assert tracker.count == 100
        assert tracker.percentile(0) == 90.0  # only the newest 10 retained

    def test_snapshot_and_table(self):
        metrics = ServiceMetrics(clock=lambda: 1.0)
        metrics.record_batch(num_windows=4, points=64, seconds=0.05,
                             reason="size")
        snap = metrics.snapshot()
        assert snap["windows_scored"] == 4
        assert snap["points_scored"] == 64
        assert snap["scoring_latency_p50"] == pytest.approx(0.05)
        table = metrics.format_table()
        assert "points_per_second" in table
        assert "flushes_by_reason" in table
