"""Serving at scale: micro-batcher behaviour under 100+ tenants and the
sharded-inference wiring (scorer reducer, ``ServingConfig.score_workers``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ImDiffusionConfig, ImDiffusionDetector
from repro.core.detector import ImputationScoreSpec
from repro.inference import MultiprocessScoreReducer, SerialScoreReducer
from repro.serving import (
    DetectorService,
    IncrementalScorer,
    MicroBatcher,
    PendingWindow,
    ServingConfig,
)

WINDOW = 4
NUM_TENANTS = 120


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


class RecordingScorer:
    """Stub score_fn recording every batch it is asked to score."""

    def __init__(self, num_steps=3):
        self.num_steps = num_steps
        self.batches = []

    def __call__(self, windows):
        batch = windows.shape[0]
        self.batches.append(batch)
        return {k: np.full((batch, windows.shape[1]), float(k))
                for k in range(1, self.num_steps + 1)}


def request(tenant, start=0):
    return PendingWindow(tenant=tenant, start=start,
                         window=np.zeros((WINDOW, 2)))


class TestBatcherManyTenants:
    def test_backpressure_bounds_the_queue_across_120_tenants(self):
        scorer = RecordingScorer()
        merged = []
        batcher = MicroBatcher(scorer, flush_size=32, flush_age=60.0,
                               max_pending=32,
                               on_result=lambda req, errors:
                                   merged.append(req.tenant))
        # Every tenant submits one window without the driving loop ever
        # polling maybe_flush, so only the queue bound keeps the batcher in
        # check via synchronous backpressure flushes.
        for i in range(NUM_TENANTS):
            batcher.submit(request(f"tenant-{i:03d}"))
        assert batcher.queue_depth < 32
        assert batcher.stats.backpressure_events >= 3
        assert all(size <= 32 for size in scorer.batches)
        # No window is lost or duplicated on the way through.
        batcher.flush()
        assert sorted(merged) == sorted(f"tenant-{i:03d}"
                                        for i in range(NUM_TENANTS))

    def test_flush_by_age_scores_stragglers_from_every_tenant(self):
        clock = FakeClock()
        scorer = RecordingScorer()
        batcher = MicroBatcher(scorer, flush_size=500, flush_age=2.0,
                               max_pending=500, clock=clock)
        for i in range(NUM_TENANTS):
            batcher.submit(request(f"tenant-{i:03d}"))
        assert batcher.maybe_flush() is None  # young queue, below flush_size
        clock.advance(2.5)
        result = batcher.maybe_flush()
        assert result is not None and result.reason == "age"
        assert result.num_windows == NUM_TENANTS
        tenants = {req.tenant for req in result.requests}
        assert len(tenants) == NUM_TENANTS

    def test_result_rows_stay_aligned_with_their_tenants(self):
        # Tenants are interleaved and each window's merged errors must come
        # from its own row of the batched result.
        rows = {}

        def score_fn(windows):
            batch = windows.shape[0]
            return {1: windows[:, :, 0].copy(),
                    2: np.zeros((batch, windows.shape[1]))}

        def on_result(req, errors):
            rows[req.tenant] = float(errors[1][0])

        batcher = MicroBatcher(score_fn, flush_size=NUM_TENANTS,
                               flush_age=60.0, max_pending=NUM_TENANTS,
                               on_result=on_result)
        for i in range(NUM_TENANTS):
            window = np.full((WINDOW, 2), float(i))
            batcher.submit(PendingWindow(tenant=f"tenant-{i:03d}", start=0,
                                         window=window))
        batcher.maybe_flush()
        assert rows == {f"tenant-{i:03d}": float(i)
                        for i in range(NUM_TENANTS)}


def _fitted_detector(seed=0):
    config = ImDiffusionConfig(
        window_size=8, num_steps=2, epochs=1, hidden_dim=8, num_blocks=1,
        num_heads=2, batch_size=4, num_masked_windows=1,
        num_unmasked_windows=1, max_train_windows=8, train_stride=8,
        seed=seed)
    rng = np.random.default_rng(seed)
    return ImDiffusionDetector(config).fit(rng.standard_normal((40, 2)))


@pytest.fixture(scope="module")
def detector():
    return _fitted_detector()


class TestScorerReducerWiring:
    def test_default_reducer_is_serial(self, detector):
        scorer = IncrementalScorer(detector, history=64)
        assert isinstance(scorer._reducer, SerialScoreReducer)
        scorer.close()

    def test_multiprocess_reducer_scores_identically(self, detector):
        windows = np.random.default_rng(3).standard_normal((6, 8, 2))

        serial = IncrementalScorer(detector, history=64)
        expected = serial.score_window_batch(
            windows, rng=np.random.default_rng(5))
        serial.close()

        reducer = MultiprocessScoreReducer(ImputationScoreSpec(detector), 2)
        with IncrementalScorer(detector, history=64, reducer=reducer) as scorer:
            got = scorer.score_window_batch(windows,
                                            rng=np.random.default_rng(5))
        assert set(expected) == set(got)
        for progress in expected:
            assert np.array_equal(expected[progress], got[progress])

    def test_batches_larger_than_one_worker_shard_round_trip(self, detector):
        # 11 windows with batch_size=4 and 2 mask policies -> 6 tasks over
        # 2 workers: several tasks per worker, a ragged final chunk, and
        # results that must still come back in plan order.
        windows = np.random.default_rng(4).standard_normal((11, 8, 2))
        serial = SerialScoreReducer(ImputationScoreSpec(detector))
        expected = serial.window_errors(windows, np.random.default_rng(6))
        with MultiprocessScoreReducer(ImputationScoreSpec(detector), 2) as red:
            got = red.window_errors(windows, np.random.default_rng(6))
        for progress in expected:
            assert np.array_equal(expected[progress], got[progress])

    def test_empty_batch_keeps_the_progress_contract(self, detector):
        scorer = IncrementalScorer(detector, history=64)
        try:
            errors = scorer.score_window_batch(
                np.empty((0, 8, 2)), rng=np.random.default_rng(0))
            assert set(errors) == set(range(1, scorer.num_steps + 1))
            for values in errors.values():
                assert values.shape == (0, 8)
        finally:
            scorer.close()


class TestServiceScoreWorkers:
    def test_config_rejects_non_positive_workers(self, detector):
        with pytest.raises(ValueError, match="at least 1"):
            DetectorService(detector, ServingConfig(score_workers=0))

    def test_default_service_scores_in_process(self, detector):
        service = DetectorService(detector, ServingConfig())
        try:
            assert isinstance(service.scorer._reducer, SerialScoreReducer)
        finally:
            service.close()

    def test_sharded_service_matches_serial_service(self, detector):
        import copy

        def stream(config):
            # Each run gets its own detector copy so both start from the
            # same generator state (scoring consumes the detector's rng).
            service = DetectorService(copy.deepcopy(detector), config)
            rng = np.random.default_rng(8)
            alarms = []
            with service:
                for _ in range(3):
                    for tenant in ("a", "b", "c"):
                        alarms.extend(service.ingest(
                            tenant, rng.standard_normal((8, 2))))
                alarms.extend(service.drain())
                views = {tenant: service.tenant_view(tenant)
                         for tenant in ("a", "b", "c")}
            return alarms, views

        serial_alarms, serial_views = stream(ServingConfig(flush_size=4))
        shard_alarms, shard_views = stream(
            ServingConfig(flush_size=4, score_workers=2))
        assert [(a.tenant, a.index, a.score) for a in serial_alarms] == \
               [(a.tenant, a.index, a.score) for a in shard_alarms]
        for tenant in serial_views:
            assert np.array_equal(serial_views[tenant].labels,
                                  shard_views[tenant].labels)
            assert np.array_equal(serial_views[tenant].scores,
                                  shard_views[tenant].scores)

    def test_alarm_scan_latency_is_tracked(self, detector):
        service = DetectorService(detector, ServingConfig(flush_size=2))
        try:
            rng = np.random.default_rng(9)
            for _ in range(2):
                service.ingest("a", rng.standard_normal((8, 2)))
            service.drain()
            snap = service.metrics.snapshot()
            assert service.metrics.alarm_scan_latency.count > 0
            assert "alarm_scan_latency_p50" in snap
            assert "alarm_scan_latency_p99" in snap
            assert "alarm_scan_latency_p50 (ms)" in service.metrics.format_table()
        finally:
            service.close()

    def test_empty_alarm_scans_are_counted_not_timed(self, detector):
        # A flush size (and age) no ingest reaches: every ingest's scan finds
        # no dirty tenant, then drain scores both tenants and scans once
        # with work.
        service = DetectorService(detector, ServingConfig(
            flush_size=10_000, max_pending=10_000, flush_age=3600.0))
        try:
            rng = np.random.default_rng(10)
            for _ in range(3):
                for tenant in ("a", "b"):
                    service.ingest(tenant, rng.standard_normal((8, 2)))
            assert service.metrics.alarm_scan_latency.count == 0
            service.drain()
            service.pump()  # nothing new since the drain: empty again
            snap = service.metrics.snapshot()
            assert snap["alarm_scans_empty"] == 6 + 1
            assert service.metrics.alarm_scan_latency.count == 1
            assert snap["alarm_scan_latency_p99"] > 0.0
        finally:
            service.close()
