"""Sampler-zoo benchmark: accuracy-vs-NFE frontier + cached-table speedup.

Three properties of the fast-sampler zoo are validated and recorded:

* the accuracy-vs-NFE frontier: one detector trained once, then scored with
  the full trajectory and with every subsequence sampler (strided / DDIM /
  PNDM) at several step budgets.  The gate requires at least one frontier
  point with **>= 4x fewer denoiser calls** whose F1 stays within 1% of the
  full sampler,
* the cached transition tables: a per-step microbenchmark of the sampler
  transition with the precomputed table against the legacy gather-per-step
  rules (schedule lookups + scalar ``sqrt`` inside the loop), frozen in
  ``tests/frozen_reverse_process.py``.  The cached path must be a real win,
* two bit-identity regressions, printed as greppable lines for CI:
  eta=0 DDIM must equal the strided jump rule exactly, and stride 1 must
  equal the full trajectory exactly.

Every run appends its numbers to ``BENCH_samplers.json`` (path overridable
via ``REPRO_BENCH_SAMPLER_OUTPUT``).  ``REPRO_BENCH_SAMPLER_SCALE`` shrinks
the dataset for smoke runs; ``REPRO_BENCH_SAMPLER_DATASET`` picks the
analogue (default SMD).
"""

from __future__ import annotations

import copy
import json
import os
import time

import numpy as np

from repro import ImDiffusionConfig, ImDiffusionDetector
from repro.data import load_dataset
from repro.diffusion import (
    DDIMSampler,
    FullReverseSampler,
    GaussianDiffusion,
    PNDMSampler,
    StridedReverseSampler,
    quadratic_beta_schedule,
)
from repro.evaluation import evaluate_labels
from tests.frozen_reverse_process import frozen_step

from ._helpers import print_header, run_once

SCALE = float(os.environ.get("REPRO_BENCH_SAMPLER_SCALE", "0.08"))
DATASET = os.environ.get("REPRO_BENCH_SAMPLER_DATASET", "SMD")
OUTPUT = os.environ.get("REPRO_BENCH_SAMPLER_OUTPUT", "BENCH_samplers.json")
NUM_STEPS = 20
F1_TOLERANCE = 0.01

#: The frontier: every zoo sampler at a ladder of denoiser-call budgets.
#: ``num_steps // 4`` is the gated >= 4x point.
FRONTIER = [
    ("strided", {"num_inference_steps": NUM_STEPS // 2}),
    ("strided", {"num_inference_steps": NUM_STEPS // 4}),
    ("ddim", {"num_inference_steps": NUM_STEPS // 2}),
    ("ddim", {"num_inference_steps": NUM_STEPS // 4}),
    ("ddim", {"num_inference_steps": NUM_STEPS // 4, "stride_spacing": "quadratic"}),
    ("pndm", {"num_inference_steps": NUM_STEPS // 2}),
    ("pndm", {"num_inference_steps": NUM_STEPS // 4}),
]


def _record(payload: dict) -> None:
    """Append this run's numbers to the JSON artifact tracked by CI."""
    history = []
    if os.path.exists(OUTPUT):
        try:
            with open(OUTPUT) as handle:
                history = json.load(handle)
        except (json.JSONDecodeError, OSError):
            history = []
    if not isinstance(history, list):
        history = [history]
    history.append(payload)
    with open(OUTPUT, "w") as handle:
        json.dump(history, handle, indent=2)


def _zoo_config(**overrides) -> ImDiffusionConfig:
    base = dict(
        window_size=32, num_steps=NUM_STEPS, epochs=4, hidden_dim=24,
        num_blocks=1, num_heads=2, batch_size=8, max_train_windows=48,
        train_stride=12, num_masked_windows=4, num_unmasked_windows=4,
        error_percentile=96.0, deterministic_inference=True, collect="x0",
        early_stopping_patience=2, validation_fraction=0.2, seed=0)
    base.update(overrides)
    return ImDiffusionConfig(**base)


def _nfe(config: ImDiffusionConfig) -> int:
    """Denoiser calls per scored window: the reverse-trajectory length."""
    return len(config.build_sampler().trajectory(config.num_steps))


def _scored_f1(fitted: ImDiffusionDetector, dataset, **overrides):
    detector = copy.deepcopy(fitted)
    detector.config = detector.config.with_overrides(**overrides)
    started = time.perf_counter()
    prediction = detector.predict(dataset.test)
    seconds = max(time.perf_counter() - started, 1e-9)
    metrics = evaluate_labels(np.asarray(prediction.labels),
                              np.asarray(prediction.scores),
                              dataset.test_labels)
    return metrics.f1, seconds, _nfe(detector.config)


def test_accuracy_vs_nfe_frontier(benchmark):
    """>= 4x fewer denoiser calls must keep F1 within 1% of the full sampler."""
    dataset = load_dataset(DATASET, seed=0, scale=SCALE)

    def run():
        fitted = ImDiffusionDetector(_zoo_config()).fit(dataset.train)
        full_f1, full_seconds, full_nfe = _scored_f1(fitted, dataset)
        points = []
        for sampler, knobs in FRONTIER:
            f1, seconds, nfe = _scored_f1(fitted, dataset, sampler=sampler,
                                          **knobs)
            points.append({"sampler": sampler, **knobs, "nfe": nfe, "f1": f1,
                           "seconds": seconds,
                           "nfe_reduction": full_nfe / nfe,
                           "speedup": full_seconds / seconds})
        return full_f1, full_seconds, full_nfe, points

    full_f1, full_seconds, full_nfe, points = run_once(benchmark, run)

    print_header(f"Sampler zoo: accuracy-vs-NFE frontier "
                 f"({DATASET} @ scale {SCALE}, T={NUM_STEPS})")
    print(f"{'sampler':<10} {'knobs':<32} {'NFE':>4} {'F1':>7} "
          f"{'dF1':>8} {'speedup':>8}")
    print(f"{'full':<10} {'':<32} {full_nfe:>4} {full_f1:>7.4f} "
          f"{0.0:>8.4f} {1.0:>7.1f}x")
    for point in points:
        knobs = ", ".join(f"{k}={v}" for k, v in point.items()
                          if k not in ("sampler", "nfe", "f1", "seconds",
                                       "nfe_reduction", "speedup"))
        print(f"{point['sampler']:<10} {knobs:<32} {point['nfe']:>4} "
              f"{point['f1']:>7.4f} {point['f1'] - full_f1:>8.4f} "
              f"{point['speedup']:>7.1f}x")

    gated = [p for p in points
             if p["nfe_reduction"] >= 4.0 and p["f1"] >= full_f1 - F1_TOLERANCE]

    _record({
        "benchmark": "accuracy_vs_nfe_frontier",
        "dataset": DATASET,
        "scale": SCALE,
        "num_steps": NUM_STEPS,
        "full": {"nfe": full_nfe, "f1": full_f1, "seconds": full_seconds},
        "frontier": points,
        "f1_tolerance": F1_TOLERANCE,
        "gated_points": [{"sampler": p["sampler"], "nfe": p["nfe"],
                          "f1": p["f1"], "nfe_reduction": p["nfe_reduction"]}
                         for p in gated],
    })

    assert gated, (
        f"no frontier point achieves >= 4x fewer denoiser calls within "
        f"{F1_TOLERANCE} F1 of the full sampler (full F1 {full_f1:.4f}); "
        f"frontier: {[(p['sampler'], p['nfe'], round(p['f1'], 4)) for p in points]}")
    best = max(gated, key=lambda p: p["nfe_reduction"])
    print(f"\ngated point: {best['sampler']} at NFE {best['nfe']} "
          f"({best['nfe_reduction']:.1f}x fewer calls, F1 {best['f1']:.4f} "
          f"vs full {full_f1:.4f})")


def test_cached_table_inner_loop_speedup(benchmark):
    """The cached transition table must beat per-step schedule gathers."""
    diffusion = GaussianDiffusion(quadratic_beta_schedule(NUM_STEPS))
    sampler = DDIMSampler(num_inference_steps=NUM_STEPS // 4, eta=0.0)
    trajectory = sampler.trajectory(NUM_STEPS)
    rng = np.random.default_rng(0)
    x_t = rng.standard_normal((8, 4, 32))
    eps = rng.standard_normal((8, 4, 32))
    repeats = 400

    def walk_legacy():
        # The frozen table=None rules: schedule gathers + sqrt every step.
        for i, t in enumerate(trajectory):
            t_prev = trajectory[i + 1] if i + 1 < len(trajectory) else 0
            frozen_step(sampler, diffusion, x_t, t, t_prev, eps,
                        deterministic=True)

    def walk_table():
        table = sampler.transition_table(diffusion)
        for i in range(len(table)):
            sampler.step(table, i, x_t, eps)

    def run():
        walk_legacy(), walk_table()  # warm-up (also builds + caches the table)
        legacy_best = min(
            _timed(walk_legacy, repeats // 4) for _ in range(4))
        table_best = min(
            _timed(walk_table, repeats // 4) for _ in range(4))
        return legacy_best, table_best

    legacy_seconds, table_seconds = run_once(benchmark, run)
    per_step = len(trajectory) * (repeats // 4)
    speedup = legacy_seconds / max(table_seconds, 1e-12)

    print_header("Sampler zoo: cached-table inner loop vs gather-per-step "
                 f"(batch 8x4x32, {len(trajectory)}-step trajectory)")
    print(f"gather-per-step : {legacy_seconds / per_step * 1e6:8.2f} us/step")
    print(f"cached table    : {table_seconds / per_step * 1e6:8.2f} us/step")
    print(f"speedup         : {speedup:8.2f}x")

    _record({
        "benchmark": "cached_table_inner_loop",
        "trajectory_len": len(trajectory),
        "legacy_us_per_step": legacy_seconds / per_step * 1e6,
        "table_us_per_step": table_seconds / per_step * 1e6,
        "speedup": speedup,
    })

    # The exact margin is machine-dependent; require a real, repeatable win.
    assert speedup > 1.0, (
        f"cached table ({table_seconds:.4f}s) is not faster than the "
        f"gather-per-step baseline ({legacy_seconds:.4f}s)")


def _timed(func, repeats: int) -> float:
    started = time.perf_counter()
    for _ in range(repeats):
        func()
    return max(time.perf_counter() - started, 1e-12)


def test_sampler_bit_identities(benchmark):
    """eta=0 DDIM == strided and stride-1 == full, bit for bit (CI greps)."""
    from repro.diffusion import ImputedDiffusion
    from repro.masking import GratingMasking
    from repro.models import ImTransformer

    rng = np.random.default_rng(0)
    model = ImTransformer(num_features=4, hidden_dim=8, num_blocks=1,
                          num_heads=2, rng=rng)
    diffusion = GaussianDiffusion(quadratic_beta_schedule(NUM_STEPS))
    imputer = ImputedDiffusion(model, diffusion)
    masks = GratingMasking(2, 2).masks(32, 4)
    windows = np.random.default_rng(1).normal(size=(4, 32, 4))
    mask_batch = np.stack([masks[0], masks[1], masks[0], masks[1]])
    policies = np.array([0, 1, 0, 1])

    def run():
        strided = imputer.impute(
            windows, mask_batch, policies, np.random.default_rng(7),
            sampler=StridedReverseSampler(num_inference_steps=5))
        ddim = imputer.impute(
            windows, mask_batch, policies, np.random.default_rng(7),
            sampler=DDIMSampler(num_inference_steps=5, eta=0.0))
        full = imputer.impute(
            windows, mask_batch, policies, np.random.default_rng(7),
            sampler=FullReverseSampler())
        stride1 = imputer.impute(
            windows, mask_batch, policies, np.random.default_rng(7),
            sampler=StridedReverseSampler(stride=1))
        pndm = imputer.impute(
            windows, mask_batch, policies, np.random.default_rng(7),
            sampler=PNDMSampler(num_inference_steps=5))
        return strided, ddim, full, stride1, pndm

    strided, ddim, full, stride1, pndm = run_once(benchmark, run)

    ddim_identical = bool(np.array_equal(ddim.final, strided.final))
    stride1_identical = bool(np.array_equal(stride1.final, full.final))
    pndm_runs = bool(np.all(np.isfinite(pndm.final)))

    print_header("Sampler zoo: bit-identity regressions")
    print("bit-identity (eta=0 DDIM vs strided jumps): "
          + ("OK" if ddim_identical else "FAIL"))
    print("bit-identity (stride-1 vs full trajectory): "
          + ("OK" if stride1_identical else "FAIL"))
    print("pndm trajectory finite                    : "
          + ("OK" if pndm_runs else "FAIL"))

    _record({
        "benchmark": "sampler_bit_identities",
        "ddim_eta0_equals_strided": ddim_identical,
        "stride1_equals_full": stride1_identical,
        "pndm_finite": pndm_runs,
    })

    assert ddim_identical and stride1_identical and pndm_runs
