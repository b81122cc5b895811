"""Self-tests of the benchmark harness, driven by a fake clock.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.compare import fingerprint_conflicts, verdict  # noqa: E402
from perfbench.openloop import (Schedule, generator_health,  # noqa: E402
                                make_schedule, run_open_loop)
from perfbench.spans import Tracer, covered_length  # noqa: E402
from perfbench.stats import percentile  # noqa: E402
from perfbench.workloads import check_serve, load_pins, parse_importtime  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += max(seconds, 0.0)


class FakeService:
    """Scores a tenant's window ``flush_cost`` seconds after it completes.

    ``never_score`` windows (by index) stay unscored, even after drain.
    """

    def __init__(self, clock: FakeClock, window: int, flush_cost: float,
                 never_score=()) -> None:
        self.clock = clock
        self.window = window
        self.flush_cost = flush_cost
        self.never_score = set(never_score)
        self.received = {}
        self.scored = {}
        self.flushes = 0

    def ingest(self, tenant: str, sample_index: int) -> None:
        count = self.received.get(tenant, 0) + 1
        self.received[tenant] = count
        if count % self.window == 0 and count // self.window - 1 not in self.never_score:
            self.clock.sleep(self.flush_cost)
            self.scored[tenant] = count
            self.flushes += 1

    def pump(self) -> None:
        pass

    def drain(self) -> None:
        pass

    def scored_until(self, tenant: str) -> int:
        return self.scored.get(tenant, 0)

    def progress_token(self) -> int:
        return self.flushes


def one_tenant_schedule(samples: int, window: int) -> Schedule:
    """One tenant, one sample per second, due at 0, 1, 2, ..."""
    return Schedule(["t"], window, samples, np.arange(samples, dtype=float),
                    np.zeros(samples, dtype=int), np.arange(samples))


# ----------------------------------------------------------------------
# Percentiles need ten samples beyond them
# ----------------------------------------------------------------------
def test_p90_needs_one_hundred_samples():
    assert percentile(list(range(99)), 90) is None
    assert percentile(list(range(100)), 90) == pytest.approx(89.1)


def test_p50_needs_twenty_samples():
    assert percentile(list(range(19)), 50) is None
    assert percentile(list(range(20)), 50) == pytest.approx(9.5)


def test_percentile_matches_numpy_linear_interpolation():
    values = list(np.random.default_rng(0).exponential(size=500))
    for q in (50, 90, 98):
        assert percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_infinite_samples_push_the_upper_percentile():
    values = [1.0] * 970 + [math.inf] * 30
    assert percentile(values, 50) == 1.0
    assert percentile(values, 98) == math.inf


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_children():
    tracer = Tracer()
    root = tracer.record("serve", 0.0, 10.0)
    tracer.record("serving.ingest", 1.0, 4.0, root)
    tracer.record("serving.ingest", 6.0, 7.0, root)
    table = tracer.table()
    assert table.self_time[root] == pytest.approx(6.0)


def test_self_time_counts_overlapping_children_once():
    tracer = Tracer()
    parent = tracer.record("serve", 0.0, 10.0)
    tracer.record("a.x", 1.0, 5.0, parent)
    tracer.record("b.y", 3.0, 6.0, parent)     # overlaps a.x on [3, 5]
    tracer.record("c.z", 8.0, 12.0, parent)    # runs past the parent: clipped
    table = tracer.table()
    assert table.self_time[parent] == pytest.approx(10.0 - 5.0 - 2.0)
    assert covered_length(0.0, 10.0, [(1, 5), (3, 6), (8, 12)]) == pytest.approx(7.0)


def test_overlapping_children_fail_the_coverage_check():
    tracer = Tracer()
    phase = tracer.record("fit", 0.0, 10.0)
    tracer.record("nn.a", 0.0, 6.0, phase)
    tracer.record("nn.b", 4.0, 10.0, phase)
    # Each child keeps its full self time, so the layers sum to 12 s of 10.
    assert tracer.table().coverage("fit") == pytest.approx(1.2)


def test_coverage_counts_unattributed_time():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.phase("score"):
        with tracer.span("core.score"):
            clock.sleep(3.0)
            with tracer.span("nn.matmul"):
                clock.sleep(5.0)
        clock.sleep(2.0)  # outside every layer
    table = tracer.table()
    assert table.layer_self()["score"] == pytest.approx({"core": 3.0, "nn": 5.0})
    assert table.coverage("score") == pytest.approx(0.8)
    assert table.coverage("fit") is None


def test_spans_must_close_innermost_first():
    tracer = Tracer(FakeClock())
    outer = tracer.begin("a.outer")
    tracer.begin("a.inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_table_rejects_unfinished_spans():
    tracer = Tracer(FakeClock())
    tracer.begin("a.open")
    with pytest.raises(ValueError):
        tracer.table()


# ----------------------------------------------------------------------
# Open-loop latency
# ----------------------------------------------------------------------
def test_latency_runs_from_due_time_and_includes_generator_lateness():
    clock = FakeClock()
    schedule = one_tenant_schedule(samples=4, window=2)
    service = FakeService(clock, window=2, flush_cost=2.5)
    result = run_open_loop(schedule, service, clock=clock, sleep=clock.sleep,
                           pump_every=math.inf, lead=0.0)
    # Window 0 (samples due at 0 and 1) is scored at 1 + 2.5.  The flush
    # stalls the generator: sample 2, due at 2, goes out at 3.5, sample 3
    # on time at 3.5, and window 1 is scored at 3.5 + 2.5 = 6.  Measured
    # from the due time of sample 3 that is 3 s, of which 0.5 s is the
    # generator's lateness.
    assert result.latencies == pytest.approx([2.5, 3.0])
    assert result.lateness == pytest.approx([0.0, 0.0, 1.5, 0.5])
    assert result.unscored == 0


def test_unscored_window_counts_as_failed_and_misses_every_limit():
    clock = FakeClock()
    schedule = one_tenant_schedule(samples=6, window=2)
    service = FakeService(clock, window=2, flush_cost=0.1, never_score={2})
    result = run_open_loop(schedule, service, clock=clock, sleep=clock.sleep,
                           pump_every=math.inf, lead=0.0)
    assert result.windows == 3
    assert result.unscored == 1
    assert sorted(result.latencies)[-1] == math.inf
    assert max(result.latencies[:2]) < math.inf


def test_schedule_staggers_tenants_and_keeps_whole_windows():
    schedule = make_schedule(["a", "b", "c", "d"], window=4, rate=8.0, seconds=10)
    assert schedule.length == 20            # 2 samples/s for 10 s, whole windows
    assert schedule.total == 80
    assert np.all(np.diff(schedule.offsets) >= 0)
    dues = [schedule.window_due(i)[0] for i in range(4)]
    assert dues == pytest.approx([1.5, 2.0, 2.5, 3.0])  # a quarter period apart
    shuffled = make_schedule(["a", "b", "c", "d"], window=4, rate=8.0, seconds=10,
                             phase_order=[2, 0, 3, 1])
    dues = [shuffled.window_due(i)[0] for i in range(4)]
    assert dues == pytest.approx([2.5, 1.5, 3.0, 2.0])


def test_generator_health_flags_a_growing_backlog():
    offsets = np.arange(0.0, 10.0, 0.01)
    on_time = generator_health(offsets, offsets.copy(), np.zeros_like(offsets))
    assert on_time["backlog_end"] == 0 and not on_time["backlog_grew"]
    # A generator that can only send at half the offered rate falls further behind.
    slow = offsets * 2.0
    behind = generator_health(offsets, slow, slow - offsets)
    assert behind["backlog_grew"]
    assert behind["backlog_end"] > 400


# ----------------------------------------------------------------------
# Comparison verdicts, serve pins, import profile and fingerprints
# ----------------------------------------------------------------------
def test_compare_flags_only_the_worse_direction():
    lower = {"name": "latency", "better": "lower", "bound": 0.2}
    higher = {"name": "throughput", "better": "higher", "bound": 0.2}
    assert verdict(+0.3, 0.05, lower).startswith("REGRESSION")
    assert verdict(-0.3, 0.05, lower) == ""
    assert verdict(-0.3, 0.05, higher).startswith("REGRESSION")
    assert verdict(+0.3, 0.05, higher) == ""
    assert verdict(+0.1, None, lower) == ""
    # A base noisier than the bound cannot tell a change from noise.
    assert verdict(+0.3, 0.25, lower).startswith("unresolved")
    # Per-layer metrics have no bound and get no verdict.
    assert verdict(+5.0, 0.0, {"name": "calls", "better": "lower"}) == ""


def _serve_outputs(f1: float, flush_reasons: dict) -> dict:
    class Loop:
        unscored = 0
    return {"scored_until": {"tenant-00": 64}, "length": 64, "points_evicted": 0,
            "loop": Loop(), "f1": f1, "flush_reasons": flush_reasons}


def test_serve_pin_is_compared_only_for_ordered_flushes():
    pinned = load_pins()["serve-model"]["seed=0,seconds=20"]["f1"]
    off = pinned / 2
    problems, notes = [], {}
    check_serve("serve-model", 0, 20, _serve_outputs(pinned, {"size": 31}), problems, notes)
    assert problems == [] and notes["pin"] == "seed=0,seconds=20"
    check_serve("serve-model", 0, 20, _serve_outputs(off, {"size": 31}), problems, notes)
    assert len(problems) == 1 and "pinned" in problems[0]
    # An age flush regroups windows into batches: the pin no longer applies,
    # and the run is flagged rather than failed.
    problems, notes = [], {}
    check_serve("serve-model", 0, 20, _serve_outputs(off, {"size": 30, "age": 1}),
                problems, notes)
    assert problems == []
    assert notes["timed_flushes"] == {"age": 1}
    assert notes["pin"].startswith("not compared")


def test_parse_importtime():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       300 |        900 |       scipy.stats._distn",
        "import time:       200 |        600 |     scipy.stats",
        "import time:        50 |       1200 |   repro.core",
        "import time:        10 |       1300 | repro",
    ])
    assert parse_importtime(stderr) == pytest.approx(
        {"import.total_s": 1300e-6, "import.scipy_s": 500e-6})


def test_fingerprint_conflicts_name_the_differing_key():
    a = {"fingerprint": {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6",
                         "blas": "openblas", "blas_threads": 2, "machine": "x86_64"}}
    b = {"fingerprint": dict(a["fingerprint"], blas_threads=1)}
    assert fingerprint_conflicts([a, a]) == []
    assert fingerprint_conflicts([a, b]) == ["blas_threads: 1 vs 2"]


def test_probes_restore_every_original():
    from perfbench.probes import Probes
    from repro.nn.tensor import Tensor
    from repro.serving.service import DetectorService

    before = (dict(vars(Tensor)), dict(vars(DetectorService)))
    tracer = Tracer()
    with Probes(tracer):
        assert Tensor.__dict__["matmul"] is not before[0]["matmul"]
        with tracer.phase("score"):
            (Tensor(np.ones((2, 3))) @ Tensor(np.ones((3, 4)))).sum()
    assert (dict(vars(Tensor)), dict(vars(DetectorService))) == before
    aggregate = tracer.table().aggregate()
    # __matmul__ delegates to matmul: one op span, not two.
    assert aggregate[("score", "nn.matmul")]["calls"] == 1
    assert tracer.counters[("score", "nn.matmul.bytes")] == (6 + 12 + 8) * 8


def test_denoiser_marks_restore_the_originals():
    from perfbench.segments import SegmentClock
    from perfbench.workloads import denoiser_marks
    from repro.diffusion.imputation import ImputedDiffusion
    from repro.models.imtransformer import ImTransformer

    before = (ImputedDiffusion.__dict__["impute"], ImTransformer.__dict__["forward"])
    with denoiser_marks(SegmentClock(probe=lambda: None)):
        assert ImTransformer.__dict__["forward"] is not before[1]
    assert (ImputedDiffusion.__dict__["impute"], ImTransformer.__dict__["forward"]) == before


# ----------------------------------------------------------------------
# Segment timing scaled by the reference kernel
# ----------------------------------------------------------------------
def machine(clock: FakeClock, probe_s: float, speed: float):
    """A fake machine ``speed`` times slower than the reference: the probe
    takes ``probe_s * speed``; ``work(s)`` spends ``s * speed``."""

    def probe():
        clock.sleep(probe_s * speed)

    def work(seconds):
        clock.sleep(seconds * speed)

    return probe, work


def timed_repeats(clock, probe, work, costs, repeats=3):
    from perfbench.segments import SegmentClock

    segments = SegmentClock(clock=clock, cpu=clock, probe=probe)
    for _ in range(repeats):
        segments.start()
        for key, seconds in costs:
            work(seconds)
            segments.mark(key)
        segments.stop()
    return segments


def test_segment_time_is_scaled_by_the_probe_and_excludes_it():
    from perfbench.segments import REFERENCE_S

    costs = [("a", 0.2), ("b", 0.5)]
    for speed in (1.0, 1.4):
        clock = FakeClock()
        probe, work = machine(clock, REFERENCE_S, speed)
        segments = timed_repeats(clock, probe, work, costs)
        assert segments.estimate() == pytest.approx(0.7)
        assert segments.estimate(cpu=True) == pytest.approx(0.7)
        # Unscaled totals leave the probes out but keep the slowdown.
        assert segments.totals() == pytest.approx([0.7 * speed] * 3)


def test_segment_estimate_takes_the_median_per_key_over_repeats():
    from perfbench.segments import REFERENCE_S, SegmentClock

    clock = FakeClock()
    probe, work = machine(clock, REFERENCE_S, 1.0)
    segments = SegmentClock(clock=clock, cpu=clock, probe=probe)
    for step_costs in ([0.1, 0.1, 0.1], [0.1, 0.4], [0.3, 0.1, 0.1, 0.1]):
        segments.start()
        for cost in step_costs:
            work(cost)
            segments.mark("step")  # steps of like work share a key
        segments.stop()
    # The median of the nine "step" samples is 0.1; the first repeat has three.
    assert segments.estimate() == pytest.approx(0.3)


def test_one_slow_probe_barely_moves_the_estimate():
    from perfbench.segments import REFERENCE_S

    clock = FakeClock()
    calls = {"n": 0}

    def jittery_probe():
        calls["n"] += 1
        clock.sleep(REFERENCE_S * (3.0 if calls["n"] == 6 else 1.0))  # the 3rd timed probe

    _, work = machine(clock, REFERENCE_S, 1.0)
    costs = [("step", 0.1)] * 12
    segments = timed_repeats(clock, jittery_probe, work, costs, repeats=1)
    assert segments.estimate() == pytest.approx(1.2)


def test_marks_outside_a_repeat_are_ignored():
    from perfbench.segments import REFERENCE_S, SegmentClock

    clock = FakeClock()
    probes = []
    segments = SegmentClock(clock=clock, cpu=clock,
                            probe=lambda: (probes.append(1), clock.sleep(REFERENCE_S)))
    segments.mark("before")
    segments.start()
    clock.sleep(0.2)
    segments.mark("batch")
    clock.sleep(0.1)
    segments.stop("tail")
    assert [key for key, *_ in segments.repeats[0]] == ["batch", "tail"]
    assert len(probes) == 6  # a warm-up and a timed run at start, the mark and stop
    assert segments.estimate() == pytest.approx(0.3)
