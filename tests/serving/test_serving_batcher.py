"""Tests for the cross-tenant micro-batcher (flush triggers, backpressure)."""

import numpy as np
import pytest

from repro.serving import MicroBatcher, PendingWindow

WINDOW = 4


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


def make_request(tenant="a", start=0):
    return PendingWindow(tenant=tenant, start=start,
                         window=np.zeros((WINDOW, 2)))


class RecordingScorer:
    """Stub score_fn recording every batch it is asked to score."""

    def __init__(self, num_steps=3):
        self.num_steps = num_steps
        self.batches = []

    def __call__(self, windows):
        self.batches.append(windows.shape[0])
        batch = windows.shape[0]
        return {k: np.full((batch, windows.shape[1]), float(k))
                for k in range(1, self.num_steps + 1)}


class TestFlushBySize:
    def test_maybe_flush_fires_at_flush_size(self):
        scorer = RecordingScorer()
        batcher = MicroBatcher(scorer, flush_size=3, flush_age=60.0)
        batcher.submit(make_request(start=0))
        batcher.submit(make_request(start=4))
        assert batcher.maybe_flush() is None  # below flush_size
        batcher.submit(make_request(start=8))
        result = batcher.maybe_flush()
        assert result is not None
        assert result.reason == "size"
        assert result.num_windows == 3
        assert scorer.batches == [3]
        assert batcher.queue_depth == 0

    def test_batches_coalesce_across_tenants(self):
        scorer = RecordingScorer()
        batcher = MicroBatcher(scorer, flush_size=2, flush_age=60.0)
        batcher.submit(make_request(tenant="a"))
        batcher.submit(make_request(tenant="b"))
        result = batcher.maybe_flush()
        assert [r.tenant for r in result.requests] == ["a", "b"]


class TestFlushByAge:
    def test_maybe_flush_fires_after_flush_age(self):
        clock = FakeClock()
        scorer = RecordingScorer()
        batcher = MicroBatcher(scorer, flush_size=10, flush_age=5.0, clock=clock)
        batcher.submit(make_request())
        assert batcher.maybe_flush() is None
        clock.advance(4.9)
        assert batcher.maybe_flush() is None
        clock.advance(0.2)
        result = batcher.maybe_flush()
        assert result is not None and result.reason == "age"
        assert batcher.queue_depth == 0

    def test_empty_queue_never_age_flushes(self):
        clock = FakeClock()
        batcher = MicroBatcher(RecordingScorer(), flush_size=4, flush_age=1.0,
                               clock=clock)
        clock.advance(100.0)
        assert batcher.maybe_flush() is None


class TestBackpressure:
    def test_full_queue_forces_synchronous_flush(self):
        """Producers that outrun the flushing loop hit the queue bound."""
        scorer = RecordingScorer()
        batcher = MicroBatcher(scorer, flush_size=3, flush_age=60.0, max_pending=3)
        for i in range(3):
            assert batcher.submit(make_request(start=i * WINDOW)) is None
        result = batcher.submit(make_request(start=99))
        assert batcher.stats.backpressure_events == 1
        # The backpressure flush drained the 3 queued windows before the new
        # one was accepted; the new one stays pending afterwards.
        assert scorer.batches[0] == 3
        assert result is not None and result.reason == "backpressure"
        assert batcher.queue_depth == 1

    def test_queue_never_exceeds_max_pending(self):
        scorer = RecordingScorer()
        batcher = MicroBatcher(scorer, flush_size=4, flush_age=60.0, max_pending=4)
        for i in range(50):
            batcher.submit(make_request(start=i * WINDOW))
            assert batcher.queue_depth <= 4


class TestResults:
    def test_on_result_routes_per_window_errors(self):
        received = []
        scorer = RecordingScorer(num_steps=2)
        batcher = MicroBatcher(scorer, flush_size=2, flush_age=60.0,
                               on_result=lambda req, errs: received.append((req, errs)))
        batcher.submit(make_request(tenant="a", start=0))
        batcher.submit(make_request(tenant="b", start=4))
        batcher.maybe_flush()
        assert len(received) == 2
        (req_a, errs_a), (req_b, errs_b) = received
        assert req_a.tenant == "a" and req_b.tenant == "b"
        assert set(errs_a) == {1, 2}
        assert errs_a[1].shape == (WINDOW,)
        assert np.all(errs_a[2] == 2.0)

    def test_forced_flush_of_empty_queue_is_noop(self):
        batcher = MicroBatcher(RecordingScorer(), flush_size=4, flush_age=60.0)
        assert batcher.flush() is None

    def test_stats_accumulate(self):
        batcher = MicroBatcher(RecordingScorer(), flush_size=2, flush_age=60.0)
        for i in range(6):
            batcher.submit(make_request(start=i * WINDOW))
            batcher.maybe_flush()
        assert batcher.stats.batches_flushed == 3
        assert batcher.stats.windows_scored == 6
        assert batcher.stats.flush_reasons == {"size": 3}


class TestValidation:
    def test_invalid_parameters(self):
        scorer = RecordingScorer()
        with pytest.raises(ValueError):
            MicroBatcher(scorer, flush_size=0)
        with pytest.raises(ValueError):
            MicroBatcher(scorer, flush_size=4, max_pending=2)
        with pytest.raises(ValueError):
            MicroBatcher(scorer, flush_age=0.0)


class FailOnce(RecordingScorer):
    """Stub score_fn whose first call raises, like a flush hitting a dead
    scoring worker."""

    def __call__(self, windows):
        if not self.batches:
            self.batches.append(None)
            raise RuntimeError("a scoring worker died mid-call")
        return super().__call__(windows)


class TestFailedFlush:
    def _batcher(self, merged, **kwargs):
        return MicroBatcher(
            FailOnce(), flush_age=60.0,
            on_result=lambda request, errors: merged.append(request.start),
            **kwargs)

    def test_failed_flush_keeps_its_windows_for_the_next(self):
        merged = []
        batcher = self._batcher(merged, flush_size=2)
        batcher.submit(make_request(start=0))
        batcher.submit(make_request(start=4))
        with pytest.raises(RuntimeError, match="died"):
            batcher.maybe_flush()
        assert batcher.queue_depth == 2
        assert batcher.stats.windows_scored == 0
        batcher.submit(make_request(start=8))
        result = batcher.maybe_flush()
        assert result.num_windows == 3
        assert merged == [0, 4, 8]  # each window merged exactly once
        assert batcher.queue_depth == 0

    def test_failed_backpressure_flush_still_accepts_the_window(self):
        merged = []
        batcher = self._batcher(merged, flush_size=2, max_pending=2)
        batcher.submit(make_request(start=0))
        batcher.submit(make_request(start=4))
        with pytest.raises(RuntimeError, match="died"):
            batcher.submit(make_request(start=8))
        assert batcher.queue_depth == 3
        batcher.flush()
        assert merged == [0, 4, 8]
        assert batcher.queue_depth == 0
