"""The three workloads, their set-up, output checks and metrics.

``offline-smd``
    ``ImDiffusionDetector.fit`` then ``predict`` with the ``repro detect``
    defaults on the SMD analogue at scale 0.1.  One fit+predict is one
    operation; operations repeat until ``--seconds`` have passed.
``serve-model``
    ``DetectorService`` serving 8 tenants of the microservice latency
    simulator with the ``repro serve`` model defaults, fed by an open loop.
``serve-fanout``
    The same service with 32 tenants, a cheap strided model and two alert
    policies, so per-point bookkeeping rather than the model dominates.

On the serve workloads each detection window is one operation.

What the seed draws.  The data corpus is fixed, as the real SMD is: the SMD
analogue and the tenant streams are always generated from the registry's
seed 0 (tenant ``i`` from simulator seed ``i``, as ``repro serve --seed 0``
does).  ``--seed`` draws everything random about a run: the detector's
initialisation and its training and scoring noise, and on the serve
workloads the order of the tenants' phase offsets.  Generating the data
from the seed as well makes F1 swing by 17-23% between seeds (interquartile
range over median, 12 seeds), more than any regression bound could absorb;
with the corpus fixed the spread is 4-9%.  Same seed, same inputs.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import (DetectorService, ImDiffusionConfig, ImDiffusionDetector,
                   ModelRegistry, ServingConfig)
from repro.data import load_dataset
from repro.data.production import MicroserviceLatencySimulator, ProductionConfig
from repro.diffusion.imputation import ImputedDiffusion
from repro.evaluation import evaluate_labels
from repro.models.imtransformer import ImTransformer
from repro.training import Callback

from . import catalog
from .catalog import COVERAGE_MARGIN, PHASES
from .openloop import make_schedule, run_open_loop
from .probes import Probes
from .segments import REFERENCE_S, SegmentClock, segment_sum
from .spans import Tracer
from .stats import median, percentile

__all__ = ["WORKLOADS", "RunResult", "run_workload"]

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
PINS = ROOT / "perfbench" / "pins.json"

#: Set-up is repeated this many times per run (see ``setup_seconds``).
SETUP_REPEATS = 5

#: Epochs timed per run for ``fit_s_per_epoch``: offline, the fit+predict
#: operations give three each and fits of their own make up the rest.
OFFLINE_EPOCHS = 12
SERVE_EPOCHS = 40

#: Generator seed of the fixed data corpus (see the module docstring).
DATA_SEED = 0

OFFLINE = {
    "dataset": "SMD", "scale": 0.1,
    # `repro detect` defaults.
    "model": dict(window_size=32, num_steps=10, epochs=3, hidden_dim=24,
                  error_percentile=96.0, ensemble=True),
}

_SERVE_MODEL = dict(
    # `repro serve` defaults for a freshly trained shared model.
    window_size=32, num_steps=8, epochs=2, hidden_dim=16, num_blocks=1,
    num_masked_windows=4, num_unmasked_windows=4, max_train_windows=48,
    train_stride=8, deterministic_inference=True, collect="x0",
    error_percentile=96.0,
)

SERVE = {
    "serve-model": {
        "tenants": 8, "services": 6, "train_days": 2.0,
        "rate": 400.0,  # samples/s over all tenants; capacity is about 1050
        "replay_batches": 12,  # about 3 s (see ``replay_scoring``)
        "model": _SERVE_MODEL,
        "serving": dict(flush_size=8, flush_age=2.0, history=512),
        "policies": (),
    },
    "serve-fanout": {
        "tenants": 32, "services": 6, "train_days": 2.0,
        "rate": 1800.0,  # capacity is about 3600
        "replay_batches": 40,
        "model": dict(_SERVE_MODEL, hidden_dim=8, sampler="strided",
                      num_inference_steps=2),
        "serving": dict(flush_size=8, flush_age=2.0, history=1024),
        "policies": ("score > 0.8", "quantile(q=0.99, window=64, mult=1.0)"),
    },
}

WORKLOADS = ("offline-smd", "serve-model", "serve-fanout")

#: Flush reasons fixed by the order of ingest calls alone.  A flush by age or
#: backpressure happens when the process fell behind the open loop.  It
#: changes which windows share a batch, and a batch draws its scoring noise
#: in one block, so serve F1 is reproducible only without such flushes.
ORDERED_FLUSHES = ("size", "forced", "drain")


@dataclass
class RunResult:
    attempted: int
    failed: int
    metrics: Dict[str, float]
    problems: List[str] = field(default_factory=list)  # failed output checks
    notes: Dict[str, object] = field(default_factory=dict)
    tracer: Optional[Tracer] = None

    @property
    def correct(self) -> bool:
        return not self.problems


# ----------------------------------------------------------------------
# Shared measurements
# ----------------------------------------------------------------------
def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def time_import() -> Tuple[float, float]:
    """Seconds ``import repro`` takes in a fresh interpreter, and the time of
    the reference kernel in that interpreter right after (median of five)."""
    code = "\n".join([
        "import time",
        "t = time.perf_counter()",
        "import repro",
        "t = time.perf_counter() - t",
        "import statistics",
        "from perfbench.segments import reference_kernel",
        "probes = []",
        "for _ in range(5):",
        "    s = time.perf_counter(); reference_kernel()",
        "    probes.append(time.perf_counter() - s)",
        "print(t, statistics.median(probes))",
    ])
    done = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"import repro failed:\n{done.stderr}")
    seconds, probe = done.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(probe)


def setup_seconds(imports: List[Tuple[float, float]], setups: SegmentClock) -> float:
    """``setup_s``: the median scaled import plus the median scaled set-up.

    ``imports`` are the run's ``time_import`` results; ``setups`` holds one
    segment per in-process rest of a set-up.  Both are scaled by the
    reference kernel timed beside them (see ``segments``).
    """
    return (median([seconds * REFERENCE_S / probe for seconds, probe in imports])
            + setups.estimate())


def parse_importtime(stderr: str) -> Dict[str, float]:
    """``import.total_s`` and ``import.scipy_s`` from ``-X importtime`` output.

    The total is the cumulative time of the top-level ``repro`` import; the
    scipy share sums the *self* time of every ``scipy`` module, which counts
    each module once however deeply it was nested.
    """
    total = scipy = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us, cumulative_us = float(fields[0]), float(fields[1])
        except ValueError:
            continue  # the header line
        name = fields[2].strip()
        if name == "repro":
            total = cumulative_us / 1e6
        if name == "scipy" or name.startswith("scipy."):
            scipy += self_us / 1e6
    return {"import.total_s": total, "import.scipy_s": scipy}


def import_profile(repeats: int = 3) -> Dict[str, float]:
    runs = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import repro"],
                              env=_child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"import repro failed:\n{done.stderr}")
        runs.append(parse_importtime(done.stderr))
    return {key: median([run[key] for run in runs]) for key in runs[0]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_pins() -> Dict[str, Dict[str, dict]]:
    if PINS.is_file():
        return json.loads(PINS.read_text())
    return {}


def pin_key(workload: str, seed: int, seconds: int) -> str:
    # The offline operation does not depend on the run length.
    if workload == "offline-smd":
        return f"seed={seed}"
    return f"seed={seed},seconds={seconds}"


def check_pin(workload: str, key: str, observed: Dict[str, float],
              problems: List[str], notes: Dict[str, object]) -> None:
    pinned = load_pins().get(workload, {}).get(key)
    notes["pin"] = key if pinned is not None else "unpinned"
    if pinned is None:
        return
    for name, expected in pinned.items():
        value = observed[name]
        if not math.isclose(value, expected, rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"{name} = {value!r}, pinned {expected!r} ({key})")


class EpochSegments(Callback):
    """Training callback cutting every epoch at its batch ends (see ``segments``).

    Batch ``i`` of one epoch does the same work as batch ``i`` of any other,
    so each batch position is one segment key.
    """

    def __init__(self) -> None:
        self.clock = SegmentClock()
        self._batch = 0

    def on_epoch_start(self, trainer, state) -> None:
        self._batch = 0
        self.clock.start()

    def on_batch_end(self, trainer, state) -> None:
        self.clock.mark(("batch", self._batch))
        self._batch += 1

    def on_epoch_end(self, trainer, state) -> None:
        self.clock.stop("epoch end")

    @property
    def count(self) -> int:
        return len(self.clock.repeats)


@contextmanager
def denoiser_marks(clock: SegmentClock):
    """Mark ``clock`` when each denoiser call returns, keyed by its imputation call.

    The steps of one ``ImputedDiffusion.impute`` call run the denoiser on
    the same shapes, so they share a key; the first step also pays for the
    call's set-up and keeps a key of its own.  Only timestamps are taken,
    a few dozen per ``predict``.
    """
    impute, forward = ImputedDiffusion.impute, ImTransformer.forward
    calls = {"impute": -1, "step": 0}

    def marked_impute(self, *args, **kwargs):
        calls["impute"] += 1
        calls["step"] = 0
        return impute(self, *args, **kwargs)

    def marked_forward(self, *args, **kwargs):
        out = forward(self, *args, **kwargs)
        clock.mark(("denoise", calls["impute"], calls["step"] == 0))
        calls["step"] += 1
        return out

    ImputedDiffusion.impute, ImTransformer.forward = marked_impute, marked_forward
    try:
        yield
    finally:
        ImputedDiffusion.impute, ImTransformer.forward = impute, forward


def _phase(tracer: Optional[Tracer], name: str):
    return tracer.phase(name) if tracer is not None else nullcontext()


# ----------------------------------------------------------------------
# offline-smd
# ----------------------------------------------------------------------
def offline_dataset():
    return load_dataset(OFFLINE["dataset"], seed=DATA_SEED, scale=OFFLINE["scale"])


def offline_op(dataset, seed: int, epochs: EpochSegments, scoring: SegmentClock,
               tracer: Optional[Tracer] = None) -> Dict[str, float]:
    """One fit+predict; returns its timings and outputs.

    ``epochs`` and ``scoring`` collect the segments of the fit's epochs and
    of ``predict``; the denoiser marks are left out of a traced run.
    """
    detector = ImDiffusionDetector(ImDiffusionConfig(**OFFLINE["model"], seed=seed))
    cpu = time.process_time()
    with _phase(tracer, "fit"):
        detector.fit(dataset.train, callbacks=[epochs])
    with _phase(tracer, "score"), \
            (denoiser_marks(scoring) if tracer is None else nullcontext()):
        scoring.start()
        result = detector.predict(dataset.test)
        scoring.stop("predict end")
    predict_s = scoring.totals()[-1]
    cpu = time.process_time() - cpu
    scores = np.asarray(result.scores)
    labels = np.asarray(result.labels)
    f1 = evaluate_labels(labels, scores, dataset.test_labels).f1
    return {"predict_s": predict_s, "cpu_s": cpu, "f1": float(f1),
            "labels": int(labels.sum()), "finite": bool(np.isfinite(scores).all()),
            "binary": bool(np.isin(labels, (0, 1)).all()),
            "points": int(dataset.test.shape[0]),
            "ingested": int(dataset.train.shape[0] + dataset.test.shape[0])}


def check_offline(outputs: Dict[str, float], problems: List[str]) -> None:
    """Checks that hold for every seed, pinned or not."""
    if not outputs["finite"]:
        problems.append("predict returned non-finite scores")
    if not outputs["binary"]:
        problems.append("predict returned non-binary labels")
    if not 0 < outputs["labels"] < outputs["points"]:
        problems.append(f"{outputs['labels']} of {outputs['points']} points labelled")
    if not 0 < outputs["f1"] <= 1:
        problems.append(f"f1 = {outputs['f1']}")


def run_offline(seed: int, seconds: int, trace: bool) -> RunResult:
    problems: List[str] = []
    notes: Dict[str, object] = {}
    if trace:
        return _trace_offline(seed, problems, notes)
    imports: List[Tuple[float, float]] = []
    setups = SegmentClock()

    def set_up():
        imports.append(time_import())
        setups.start()
        dataset = offline_dataset()
        setups.stop("set-up")
        return dataset

    # The machine's speed drifts over seconds, so the set-ups are split
    # between the start and the end of the run rather than taken in one burst.
    for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2):
        dataset = set_up()
    epochs, scoring = EpochSegments(), SegmentClock()
    ops: List[Dict[str, float]] = []
    attempted = failed = 0
    started = time.perf_counter()
    while attempted == 0 or time.perf_counter() - started < seconds:
        attempted += 1
        try:
            outputs = offline_op(dataset, seed, epochs, scoring)
        except Exception:  # one failed operation is counted, not fatal
            traceback.print_exc()
            failed += 1
            continue
        op_problems: List[str] = []
        check_offline(outputs, op_problems)
        check_pin("offline-smd", pin_key("offline-smd", seed, seconds),
                  {"f1": outputs["f1"], "labels": outputs["labels"]},
                  op_problems, notes)
        if ops and (outputs["f1"], outputs["labels"]) != (ops[0]["f1"], ops[0]["labels"]):
            op_problems.append("repeated fit+predict gave different outputs")
        if op_problems:
            failed += 1
            problems.extend(op_problems)
        ops.append(outputs)
    for _ in range(SETUP_REPEATS // 2):
        set_up()
    if not ops:
        problems.append("every operation raised")
        return RunResult(attempted, failed, {}, problems, notes)
    train_until(epochs, OFFLINE_EPOCHS, OFFLINE["model"], seed, dataset.train)

    # Timings are scaled segment sums (see ``segments``): an epoch from its
    # batches, predict from its denoising steps, over every op of the run.
    predict_s = scoring.estimate()
    op_cpu_s = (OFFLINE["model"]["epochs"] * epochs.clock.estimate(cpu=True)
                + scoring.estimate(cpu=True))
    metrics = {
        "setup_s": setup_seconds(imports, setups),
        "peak_rss_mb": peak_rss_mb(),
        "f1": ops[0]["f1"],
        "fit_s_per_epoch": epochs.clock.estimate(),
        "score_points_per_s": ops[0]["points"] / predict_s,
        # A batch job's windows all arrive when predict starts and are all
        # scored when it returns, so both percentiles are predict's time.
        "window_latency_p50_ms": predict_s * 1e3,
        "window_latency_p90_ms": predict_s * 1e3,
        "cpu_s_per_kpoint": op_cpu_s / ops[0]["ingested"] * 1e3,
    }
    notes.update(operations=len(ops), labels=ops[0]["labels"],
                 epoch_segments=epochs.clock.repeats, predict_s=scoring.totals(),
                 op_cpu_s=[op["cpu_s"] for op in ops],
                 import_s=imports, setup_s=setups.totals())
    return RunResult(attempted, failed, metrics, problems, notes)


def _trace_offline(seed: int, problems: List[str], notes: Dict[str, object]) -> RunResult:
    layer = import_profile()
    tracer = Tracer()
    with tracer.phase("data"), tracer.span("data.generate"):
        dataset = offline_dataset()
    untraced = offline_op(dataset, seed, EpochSegments(), SegmentClock())
    with Probes(tracer):
        traced = offline_op(dataset, seed, EpochSegments(), SegmentClock(), tracer=tracer)
    attempted, failed = 2, 0
    for outputs in (untraced, traced):
        op_problems: List[str] = []
        check_offline(outputs, op_problems)
        if op_problems:
            failed += 1
            problems.extend(op_problems)
    if (traced["f1"], traced["labels"]) != (untraced["f1"], untraced["labels"]):
        problems.append("tracing changed the outputs")
    layer["trace.overhead_ratio"] = traced["cpu_s"] / untraced["cpu_s"]
    metrics = per_layer_metrics(tracer, layer, ("fit", "score"), problems, notes)
    return RunResult(attempted, failed, metrics, problems, notes, tracer)


# ----------------------------------------------------------------------
# serve-model, serve-fanout
# ----------------------------------------------------------------------
def serve_traces(spec: dict, length: int) -> Dict[str, tuple]:
    """Per tenant ``(train, test, labels)`` in log scale, as ``repro serve`` does."""
    traces = {}
    for i in range(spec["tenants"]):
        simulator = MicroserviceLatencySimulator(ProductionConfig(
            num_services=spec["services"], train_days=spec["train_days"],
            test_days=(length + 0.5) / 96.0, seed=DATA_SEED + i))
        raw = simulator.generate()
        traces[f"tenant-{i:02d}"] = (np.log(raw.train), np.log(raw.test[:length]),
                                     raw.test_labels[:length])
    return traces


class ServiceDriver:
    """The open loop's view of a ``DetectorService`` (see ``ServiceAdapter``).

    The loop is cut into slices of ``slice_samples`` ingests, with the
    reference kernel timed at every cut (see ``segments``).  With one window
    per tenant in a slice, every slice completes the same windows and
    flushes the same batches, so all slices share one key; the history a
    ``decide`` re-votes over still grows during the run, and the median
    slice stands for the whole.
    """

    def __init__(self, service, streams: Dict[str, np.ndarray],
                 slice_samples: int) -> None:
        self.service = service
        self.streams = streams
        self.alarms = 0
        self.slice_samples = slice_samples
        self.slices = SegmentClock()
        self._sent = 0

    def ingest(self, tenant: str, sample_index: int) -> None:
        self.alarms += len(self.service.ingest(tenant, self.streams[tenant][sample_index]))
        self._sent += 1
        if self._sent % self.slice_samples == 0:
            self.slices.mark("slice")

    def slice_cpu_per_point(self) -> float:
        """Scaled CPU seconds per ingested point over the whole slices."""
        whole = [segment for segment in self.slices.repeats[0] if segment[0] == "slice"]
        if not whole:
            raise RuntimeError("the loop was shorter than one slice")
        return segment_sum([whole], cpu=True) / (len(whole) * self.slice_samples)

    def pump(self) -> None:
        self.alarms += len(self.service.pump())

    def drain(self) -> None:
        self.alarms += len(self.service.drain())

    def scored_until(self, tenant: str) -> int:
        return self.service.scorer.scored_until(tenant)

    def progress_token(self) -> int:
        return self.service.metrics.batches_flushed


def serve_setup(workload: str, seed: int, schedule, tracer: Optional[Tracer] = None,
                setups: Optional[SegmentClock] = None):
    """Generate streams, train + publish + reload the shared model, start the service.

    The model is published to a scratch registry under ``perfbench/out``;
    ``setups`` times the whole as one segment.  Returns ``(service, traces)``.
    """
    spec = SERVE[workload]
    workdir = OUT / f"registry-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    if setups is not None:
        setups.start()
    with _phase(tracer, "data"), (tracer.span("data.generate") if tracer else nullcontext()):
        traces = serve_traces(spec, schedule.length)
    detector = ImDiffusionDetector(ImDiffusionConfig(**spec["model"], seed=seed))
    with _phase(tracer, "fit"):
        detector.fit(next(iter(traces.values()))[0])
    try:
        with _phase(tracer, "setup"):
            registry = ModelRegistry(str(workdir))
            registry.save(workload, detector)
            service = DetectorService(registry.load(workload), ServingConfig(
                **spec["serving"], alert_policies=spec["policies"]))
            for tenant in traces:
                service.register_tenant(tenant)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if setups is not None:
        setups.stop("set-up")
    return service, traces


def _schedule(workload: str, seed: int, seconds: int):
    spec = SERVE[workload]
    tenants = [f"tenant-{i:02d}" for i in range(spec["tenants"])]
    order = np.random.default_rng(seed).permutation(len(tenants))
    return make_schedule(tenants, spec["model"]["window_size"], spec["rate"],
                         seconds, phase_order=order)


def serve_once(workload: str, seed: int, schedule, tracer: Optional[Tracer] = None,
               setups: Optional[SegmentClock] = None) -> dict:
    """Set up, run the open loop and drain; returns the outputs."""
    service, traces = serve_setup(workload, seed, schedule, tracer, setups)
    driver = ServiceDriver(service, {t: traces[t][1] for t in schedule.tenants},
                           schedule.window * len(schedule.tenants))
    with service:
        # The replay draws on a generator of its own; the traced run
        # measures the loop alone.
        replay = replay_scoring(service, traces, workload, seed) if tracer is None else None
        cpu = time.process_time()
        driver.slices.start()
        with _phase(tracer, "serve"):
            loop = run_open_loop(schedule, driver, clock=time.perf_counter,
                                 sleep=time.sleep,
                                 span=tracer.span if tracer is not None else None)
        driver.slices.stop("rest")  # the last partial slice and the drain
        cpu = time.process_time() - cpu
    outputs = serve_outputs(service, traces, schedule, loop)
    outputs.update(cpu_s=cpu, alarms=driver.alarms, replay=replay,
                   cpu_s_per_point=driver.slice_cpu_per_point(),
                   slices=[segment[1:] for segment in driver.slices.repeats[0]])
    return outputs


def replay_scoring(service, traces, workload: str, seed: int) -> dict:
    """Score batches of the tenants' windows through the service's scorer.

    In the loop the service times each score batch inside an ingest call,
    next to bookkeeping whose cost wanders by 10% over seconds.  So before
    the loop, ``replay_batches`` batches of ``flush_size`` windows (one
    window per tenant in turn, as the loop completes them) are scored on a
    generator of their own, which leaves the detector's state untouched;
    each batch is one segment between two reference-kernel probes.
    """
    spec = SERVE[workload]
    window, size = spec["model"]["window_size"], spec["serving"]["flush_size"]
    scorer = service.scorer
    tests = [scorer.scale(test) for _, test, _ in traces.values()]
    windows = [test[start:start + window]
               for start in range(0, min(len(t) for t in tests) - window + 1, window)
               for test in tests]
    rng = np.random.default_rng(seed)
    clock = SegmentClock()
    for batch in range(spec["replay_batches"]):
        chunk = np.stack([windows[(batch * size + k) % len(windows)] for k in range(size)])
        clock.start()
        scorer.score_window_batch(chunk, rng)
        clock.stop("batch")
    return {"points_per_s": size * window / clock.estimate(), "segments": clock.repeats}


def serve_outputs(service, traces, schedule, loop) -> dict:
    f1s = []
    for tenant, (_, test, labels) in traces.items():
        view = service.tenant_view(tenant)
        end = min(view.end, labels.shape[0])
        f1s.append(evaluate_labels(view.labels[:end - view.start],
                                   view.scores[:end - view.start],
                                   labels[view.start:end]).f1)
    window = schedule.window
    dropped = {t: service.scorer.dropped_points(t) for t in traces}
    # Which windows lost points is not observable from outside; a dropped
    # span of n points touches at most ceil(n / window) + 1 windows.
    evicted_windows = sum(-(-count // window) + 1 for count in dropped.values() if count)
    metrics = service.metrics
    return {
        "loop": loop, "f1": float(np.mean(f1s)),
        "scored_until": {t: service.scorer.scored_until(t) for t in traces},
        "length": schedule.length, "points": schedule.total,
        # Points that left the raw ring before they were scored.  The
        # service's own points_evicted also counts the normal rotation of
        # points already scored, so it is not a loss counter.
        "points_evicted": int(sum(dropped.values())),
        "evicted_windows": evicted_windows,
        "backpressure": int(metrics.backpressure_events),
        "flush_reasons": dict(metrics.flush_reasons),
        "points_scored": int(metrics.points_scored),
    }


def check_serve(workload: str, seed: int, seconds: int, outputs: dict,
                problems: List[str], notes: Dict[str, object]) -> None:
    short = {t: s for t, s in outputs["scored_until"].items() if s != outputs["length"]}
    if short:
        problems.append(f"scored_until != stream length {outputs['length']}: {short}")
    if outputs["points_evicted"]:
        problems.append(f"{outputs['points_evicted']} points evicted before scoring")
    if outputs["loop"].unscored:
        problems.append(f"{outputs['loop'].unscored} windows unscored after drain")
    if not 0 < outputs["f1"] <= 1:
        problems.append(f"mean f1 = {outputs['f1']}")
    timed = {reason: count for reason, count in outputs["flush_reasons"].items()
             if reason not in ORDERED_FLUSHES}
    if timed:
        # The machine did not keep up; that is no fault of the outputs.
        notes.setdefault("timed_flushes", {}).update(timed)
        notes["pin"] = "not compared: batches were regrouped by timing"
        return
    check_pin(workload, pin_key(workload, seed, seconds), {"f1": outputs["f1"]},
              problems, notes)


def _latency_ms(latencies: List[float], q: float, cap: float) -> float:
    value = percentile(latencies, q)
    if value is None:
        raise RuntimeError(f"too few windows ({len(latencies)}) for p{q:g}")
    # A never-scored window misses every limit; report the run's span then.
    return 1e3 * min(value, cap)


def health_line(workload: str, health: Dict[str, float]) -> str:
    flag = "BACKLOG GREW" if health["backlog_grew"] else "steady"
    return (f"generator[{workload}]: {flag}; late p50 {health['late_ms_p50']:.2f} ms, "
            f"p90 {health['late_ms_p90']:.2f} ms, max {health['late_ms_max']:.1f} ms; "
            f"backlog max {health['backlog_max']}, at end {health['backlog_end']}")


def run_serve(workload: str, seed: int, seconds: int, trace: bool) -> RunResult:
    problems: List[str] = []
    notes: Dict[str, object] = {}
    if trace:
        return _trace_serve(workload, seed, seconds, problems, notes)
    # The first set-up's service is driven, while the process holds nothing
    # else: after a few throwaway set-ups and trainings the same scoring
    # code ran up to 1.4x slower, by a factor the reference kernel does not
    # see.  The other set-ups and the timed epochs follow, interleaved.
    imports: List[Tuple[float, float]] = [time_import()]
    setups = SegmentClock()
    epochs = EpochSegments()
    schedule = _schedule(workload, seed, seconds)
    outputs = serve_once(workload, seed, schedule, setups=setups)
    for repeat in range(1, SETUP_REPEATS):
        imports.append(time_import())
        service, _ = serve_setup(workload, seed, schedule, setups=setups)
        service.close()
        time_more_epochs(workload, seed, epochs, SERVE_EPOCHS * repeat // (SETUP_REPEATS - 1))

    loop = outputs["loop"]
    check_serve(workload, seed, seconds, outputs, problems, notes)
    metrics = {
        "setup_s": setup_seconds(imports, setups),
        "peak_rss_mb": peak_rss_mb(),
        "f1": outputs["f1"],
        "fit_s_per_epoch": epochs.clock.estimate(),
        "score_points_per_s": outputs["replay"]["points_per_s"],
        "window_latency_p50_ms": _latency_ms(loop.latencies, 50, loop.elapsed),
        "window_latency_p90_ms": _latency_ms(loop.latencies, 90, loop.elapsed),
        "cpu_s_per_kpoint": outputs["cpu_s_per_point"] * 1e3,
    }
    notes.update(health=loop.health, windows=loop.windows,
                 epoch_segments=epochs.clock.repeats,
                 loop_cpu_s=outputs["cpu_s"], slices=outputs["slices"],
                 replay_segments=outputs["replay"]["segments"],
                 import_s=imports, setup_s=setups.totals(),
                 flush_reasons=outputs["flush_reasons"],
                 alarms=outputs["alarms"], backpressure_events=outputs["backpressure"])
    failed = loop.unscored + outputs["evicted_windows"]
    return RunResult(loop.windows, failed, metrics, problems, notes)


def time_more_epochs(workload: str, seed: int, epochs_seen: EpochSegments, epochs: int) -> None:
    """Train the shared model again until ``epochs`` epochs are timed.

    A shared-model epoch is a few batches of tens of milliseconds each, so
    the set-ups alone give too few samples of each batch position.
    """
    spec = SERVE[workload]
    train = serve_traces(dict(spec, tenants=1), spec["model"]["window_size"])["tenant-00"][0]
    train_until(epochs_seen, epochs, spec["model"], seed, train)


def train_until(epochs_seen: EpochSegments, epochs: int, model: dict, seed: int,
                train: np.ndarray) -> None:
    """Fit fresh detectors on ``train`` until ``epochs`` epochs are timed."""
    while epochs_seen.count < epochs:
        detector = ImDiffusionDetector(ImDiffusionConfig(**model, seed=seed))
        detector.fit(train, callbacks=[epochs_seen])


def _trace_serve(workload, seed, seconds, problems, notes) -> RunResult:
    layer = import_profile()
    schedule = _schedule(workload, seed, seconds)
    untraced = serve_once(workload, seed, schedule)
    tracer = Tracer()
    with Probes(tracer):
        traced = serve_once(workload, seed, schedule, tracer=tracer)
    for outputs in (untraced, traced):
        check_serve(workload, seed, seconds, outputs, problems, notes)
    if "timed_flushes" not in notes and traced["f1"] != untraced["f1"]:
        problems.append("tracing changed the outputs")
    loop = traced["loop"]
    layer["trace.overhead_ratio"] = traced["cpu_s"] / untraced["cpu_s"]
    health = loop.health
    layer.update({"gen.late_ms_p90": health["late_ms_p90"],
                  "gen.backlog_end": health["backlog_end"],
                  "gen.backlog_grew": float(health["backlog_grew"]),
                  "serving.points_evicted": traced["points_evicted"],
                  "serving.backpressure_events": traced["backpressure"]})
    notes.update(health=health, untraced_health=untraced["loop"].health)
    metrics = per_layer_metrics(tracer, layer, ("fit", "serve"), problems, notes)
    failed = loop.unscored + traced["evicted_windows"]
    return RunResult(loop.windows, failed, metrics, problems, notes, tracer)


# ----------------------------------------------------------------------
# Per-layer metrics from a finished trace
# ----------------------------------------------------------------------
_NAMED_OPS = ("gelu", "softmax", "matmul", "layer_norm", "add", "mul")


def per_layer_metrics(tracer: Tracer, known: Dict[str, float],
                      checked: Tuple[str, ...], problems: List[str],
                      notes: Dict[str, object]) -> Dict[str, float]:
    """Fold the span table into the per-layer metrics of ``BENCHMARK.json``.

    ``known`` holds values measured outside the trace (import profile,
    overhead ratio, generator health).  Phases in ``checked`` must pass the
    coverage check; a failure is recorded in ``problems``.
    """
    table = tracer.table()
    agg = table.aggregate()
    walls = table.phases()
    layers = table.layer_self()

    def total(name, phases=None, field_="total_s"):
        return sum(entry[field_] for (phase, span), entry in agg.items()
                   if span == name and (phases is None or phase in phases))

    def counter(key, phases=None):
        return sum(value for (phase, k), value in tracer.counters.items()
                   if k == key and (phases is None or phase in phases))

    def samples(key):
        return [v for (phase, k), values in tracer.samples.items() if k == key
                for v in values]

    values: Dict[str, float] = dict(known)
    values["data.generate_s"] = total("data.generate")
    values["training.batches"] = total("training.batch", field_="calls")
    for short in ("draw", "forward", "backward", "optimizer", "loader"):
        values[f"training.{short}_s"] = total(f"training.{short}")
    for phase in PHASES:
        ops = {name: entry for (p, name), entry in agg.items()
               if p == phase and name.startswith("nn.")}
        for op in _NAMED_OPS:
            values[f"{phase}.nn.{op}.self_s"] = ops.get(f"nn.{op}", {}).get("self_s", 0.0)
        values[f"{phase}.nn.gelu.calls"] = ops.get("nn.gelu", {}).get("calls", 0.0)
        values[f"{phase}.nn.matmul.bytes"] = counter("nn.matmul.bytes", (phase,))
        values[f"{phase}.nn.other.self_s"] = sum(
            entry["self_s"] for name, entry in ops.items()
            if name[3:] not in _NAMED_OPS)
        values[f"{phase}.models.imtransformer.forward_s"] = total(
            "models.imtransformer", (phase,))
        values[f"{phase}.models.imtransformer.calls"] = total(
            "models.imtransformer", (phase,), "calls")
        values[f"{phase}.models.attention.self_s"] = total(
            "models.attention", (phase,), "self_s")
    values["diffusion.impute_s"] = total("diffusion.impute")
    values["diffusion.impute_calls"] = total("diffusion.impute", field_="calls")
    values["diffusion.denoiser_calls"] = float(table.count_under(
        "models.imtransformer", "diffusion.impute"))
    values["diffusion.transition_self_s"] = total("diffusion.transition", field_="self_s")
    values["core.score_s"] = total("core.score")
    values["core.accumulate_self_s"] = total("core.score", field_="self_s")
    values["core.vote_s"] = total("core.vote")
    values["core.vote_calls"] = total("core.vote", field_="calls")
    values["inference.window_errors_s"] = total("inference.window_errors")
    values["inference.tasks"] = total("inference.task", field_="calls")

    flushes = counter("serving.batch.flushes")
    waits = [1e3 * w for w in samples("serving.batch.wait_s")]
    values["serving.batch.flushes"] = flushes
    values["serving.batch.windows_mean"] = (
        counter("serving.batch.windows") / flushes if flushes else 0.0)
    for q in (50, 90):
        wait = percentile(waits, q)
        values[f"serving.batch.wait_ms_p{q}"] = wait if wait is not None else 0.0
    values["serving.score_batch_s"] = total("serving.score_batch")
    values["serving.ingest_calls"] = total("serving.ingest", field_="calls")
    values["serving.router.self_s"] = total("serving.router", field_="self_s")
    values["serving.decide_s"] = total("serving.decide")
    values["serving.decide_calls"] = total("serving.decide", field_="calls")
    values["serving.alarm_scan.self_s"] = total("serving.alarm_scan", field_="self_s")
    scans = counter("serving.alarm_scans")
    values["serving.alarm_scans"] = scans
    values["serving.alarm_scan.useful_ratio"] = (
        counter("serving.alarm_scans_useful") / scans if scans else 0.0)
    values["serving.queue_depth_max"] = max(samples("serving.queue_depth"), default=0)
    values.setdefault("serving.points_evicted", 0.0)
    values.setdefault("serving.backpressure_events", 0.0)
    values["analytics.observe_block_s"] = total("analytics.observe_block")
    values["analytics.policy_update_s"] = total("analytics.policy_update")
    values["analytics.store_append_s"] = total("analytics.store_append")
    values["analytics.points"] = counter("analytics.points")
    values["analytics.events"] = counter("analytics.events")
    for key in ("gen.late_ms_p90", "gen.backlog_end", "gen.backlog_grew"):
        values.setdefault(key, 0.0)

    coverage = {}
    for phase in PHASES:
        share = table.coverage(phase)
        values[f"trace.coverage.{phase}"] = share if share is not None else 0.0
        if share is not None:
            coverage[phase] = {"wall_s": walls[phase], "coverage": share,
                               "layers_self_s": layers.get(phase, {})}
    notes["coverage"] = coverage
    for phase in checked:
        share = table.coverage(phase)
        if share is None or abs(share - 1.0) > COVERAGE_MARGIN:
            problems.append(f"trace does not add up in phase {phase!r}: layer self "
                            f"times cover {share} of its wall time "
                            f"(margin {COVERAGE_MARGIN})")
    names = [metric["name"] for metric in catalog.metrics(trace=True)]
    missing = [name for name in names if name not in values]
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {missing}")
    return {name: float(values[name]) for name in names}


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> RunResult:
    """Run one workload.  ``repro`` is already imported (this module imports
    it), so no in-process timing includes the import; set-up time measures
    the import in fresh interpreters instead."""
    if workload == "offline-smd":
        return run_offline(seed, seconds, trace)
    if workload in SERVE:
        return run_serve(workload, seed, seconds, trace)
    raise KeyError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def metric_units(trace: bool) -> Dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in catalog.metrics(trace)}
