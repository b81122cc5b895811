"""Segment timing, scaled by a reference kernel timed beside the work.

This machine shares its cores with other tenants of the host.  A fixed
kernel timed for minutes runs in a fast state or in one about 1.4x slower,
and a state lasts from a second to well over a minute, so whole runs of the
same code land in one state or the other: epoch times of 1.13 s and 1.63 s
in two runs a minute apart, 1.44x apart, near the ratio of the kernel's two
speeds.  No statistic over one run removes that.

So each timed call is cut into *segments* at points where the program's
own structure repeats (a training batch ends, a denoiser call returns, an
open-loop slice ends), and a fixed reference kernel, numpy code unrelated
to the program, is timed next to them (once untimed, so that it starts
with warm caches, then timed).  A segment's time is scaled by
``REFERENCE_S`` over the kernel time measured around it, which reads the
segment in seconds of a machine on which the kernel takes ``REFERENCE_S``.
One probe jitters by 10-20%, so the kernel time of a segment is the mean of
the probes just before and just after it, each first replaced by the
running median of the ``SMOOTH`` probes around it in the same repeat.
Probe time is never part of a segment.  Work that does not slow in step
with the kernel, training and the serving scorer more than ``predict``,
keeps part of the spread.

Segments share a *key* when they do the same work: the same batch
position of an epoch, or the denoising steps of one imputation call.  The
estimate of a call is the sum, over the segments of its first repeat, of
the median scaled time of the segment's key over every repeat.  Wall and
CPU time are kept side by side.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, Hashable, List, Sequence, Tuple

import numpy as np

__all__ = ["REFERENCE_S", "reference_kernel", "SegmentClock", "segment_sum"]

#: The reference kernel's time in the machine's fast state (the lowest 5%
#: of 8800 timings on a 2-vCPU Xeon at 2.1 GHz, NumPy 2.4, one BLAS thread).
REFERENCE_S = 0.0018

#: Probes in the running median that smooths the probe series of a repeat.
SMOOTH = 11

_RNG = np.random.default_rng(0)
_ACTIVATIONS = _RNG.standard_normal((32, 32, 24))
_WEIGHTS = _RNG.standard_normal((24, 24)) / 5.0


def reference_kernel() -> float:
    """A few milliseconds of small-array numpy and interpreter work.

    The mix (batched matmuls, softmax, a tanh GELU, a Python loop) is the
    mix the denoiser and the serving bookkeeping run on.
    """
    x = _ACTIVATIONS
    for _ in range(4):
        y = x @ _WEIGHTS
        y = np.exp(y - y.max(axis=-1, keepdims=True))
        x = y / y.sum(axis=-1, keepdims=True)
        x = 0.5 * x * (1.0 + np.tanh(0.79788456 * (x + 0.044715 * x ** 3)))
    total = 0
    for i in range(2000):
        total += i * i
    return float(x[0, 0, 0]) + total


#: ``(key, wall seconds, cpu seconds, probe wall seconds, probe cpu seconds)``
Segment = Tuple[Hashable, float, float, float, float]


class SegmentClock:
    """Record the segments of each repeat of a timed call.

    ``start()`` opens a repeat, ``mark(key)`` closes the segment that ran
    since the previous mark (or the start) under ``key``, ``stop()`` closes
    the repeat.  Each of them runs the probe.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 cpu: Callable[[], float] = time.process_time,
                 probe: Callable[[], object] = reference_kernel) -> None:
        self.clock = clock
        self.cpu = cpu
        self.probe = probe
        self.repeats: List[List[Segment]] = []
        self.running = False
        self._segments: List[Tuple[Hashable, float, float]] = []
        self._probes: List[Tuple[int, float, float]] = []
        self._last = (0.0, 0.0)

    def _run_probe(self) -> None:
        self.probe()  # untimed: the timed run below starts with warm caches
        wall, cpu = self.clock(), self.cpu()
        self.probe()
        wall, cpu = self.clock() - wall, self.cpu() - cpu
        self._probes.append((len(self._segments), wall, cpu))

    def start(self) -> None:
        if self.running:
            raise RuntimeError("start() while a repeat is open")
        self.running = True
        self._segments, self._probes = [], []
        self._run_probe()
        self._last = (self.clock(), self.cpu())

    def mark(self, key: Hashable) -> None:
        if not self.running:
            return  # a mark outside a timed call (set-up, say) is ignored
        now = (self.clock(), self.cpu())
        self._segments.append((key, now[0] - self._last[0], now[1] - self._last[1]))
        self._run_probe()
        self._last = (self.clock(), self.cpu())

    def stop(self, key: Hashable = "end") -> None:
        self.mark(key)
        self.running = False
        self.repeats.append(_attach_probes(self._segments, self._probes))

    def totals(self) -> List[float]:
        """Unscaled wall time of every repeat, probes left out."""
        return [sum(segment[1] for segment in repeat) for repeat in self.repeats]

    def estimate(self, cpu: bool = False) -> float:
        return segment_sum(self.repeats, cpu=cpu)


def _running_median(values: Sequence[float], width: int) -> List[float]:
    half = width // 2
    return [statistics.median(values[max(0, i - half):i + half + 1])
            for i in range(len(values))]


def _attach_probes(segments, probes) -> List[Segment]:
    """Give segment ``i`` the mean smoothed probe just before and just after it.

    ``probes`` are ``(segments done before the probe, wall, cpu)``.
    """
    positions = [p[0] for p in probes]
    wall = _running_median([p[1] for p in probes], SMOOTH)
    cpu = _running_median([p[2] for p in probes], SMOOTH)
    out = []
    for index, (key, seconds, cpu_seconds) in enumerate(segments):
        before = max(j for j, done in enumerate(positions) if done <= index)
        after = min(j for j, done in enumerate(positions) if done >= index + 1)
        out.append((key, seconds, cpu_seconds,
                    (wall[before] + wall[after]) / 2, (cpu[before] + cpu[after]) / 2))
    return out


def segment_sum(repeats: Sequence[Sequence[Segment]], cpu: bool = False,
                reference: float = REFERENCE_S) -> float:
    """Sum over the first repeat's segments of the median scaled time per key.

    Every repeat contributes samples; the first one fixes which segments
    make up the call.  A segment's time is scaled by ``reference`` over its
    probe time; with ``cpu`` the CPU times of segment and probe are used.
    """
    if not repeats or not repeats[0]:
        raise ValueError("no timed segments")
    value, probe = (2, 4) if cpu else (1, 3)
    samples: Dict[Hashable, List[float]] = {}
    for repeat in repeats:
        for segment in repeat:
            samples.setdefault(segment[0], []).append(
                segment[value] * reference / segment[probe])
    medians = {key: statistics.median(values) for key, values in samples.items()}
    return float(sum(medians[segment[0]] for segment in repeats[0]))
