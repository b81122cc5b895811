"""Parallel-training benchmark: worker-count bit-identity + fit speedup.

Two properties of the data-parallel engine are validated and recorded:

* **bit-identity** — a :class:`~repro.training.Trainer` at
  ``num_workers=1`` must reproduce a hand-rolled loop over the frozen
  pre-spec loss closure bit for bit (same parameters, same loss curve, same
  random stream): the draw/compute factoring of the loss spec is a pure
  refactor of that closure.  CI greps the ``bit-identity`` line this test
  prints.
* **speedup** — an end-to-end ``ImDiffusionDetector.fit`` sharded across
  spawned gradient workers must beat the serial fit wall-clock (target
  1.5x at 4 workers; the gate adapts to the machine's core count, because a
  single-core runner cannot speed anything up by adding processes).

Every run appends its numbers to ``BENCH_parallel.json`` (path overridable
via ``REPRO_BENCH_PARALLEL_OUTPUT``).  ``REPRO_BENCH_PARALLEL_WINDOWS``,
``REPRO_BENCH_PARALLEL_EPOCHS`` and ``REPRO_BENCH_PARALLEL_WORKERS`` resize
the speedup workload; ``REPRO_BENCH_PARALLEL_MIN_SPEEDUP`` overrides the
gate.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro import ImDiffusionConfig, ImDiffusionDetector
from repro.core.detector import ImputationLossSpec
from repro.diffusion import GaussianDiffusion, ImputedDiffusion, make_schedule
from repro.models import ImTransformer
from repro.nn import Adam
from repro.training import Trainer, WindowLoader
from tests.frozen_training_loops import hand_rolled_fit

from ._helpers import print_header, run_once

NUM_WINDOWS = int(os.environ.get("REPRO_BENCH_PARALLEL_WINDOWS", "192"))
NUM_EPOCHS = int(os.environ.get("REPRO_BENCH_PARALLEL_EPOCHS", "2"))
NUM_WORKERS = int(os.environ.get("REPRO_BENCH_PARALLEL_WORKERS", "4"))
OUTPUT = os.environ.get("REPRO_BENCH_PARALLEL_OUTPUT", "BENCH_parallel.json")
SPEEDUP_TARGET = 1.5

# A machine whose pool does not fit in its cores cannot win by adding
# processes: the core-count guard always disables the gate there, and the
# env knob only tunes the threshold used on capable machines (default 1.2
# rather than the 1.5 target, as shared CI runners are noisy).
_CORES = os.cpu_count() or 1
if _CORES < NUM_WORKERS:
    MIN_SPEEDUP = 0.0
else:
    MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_PARALLEL_MIN_SPEEDUP", "1.2"))


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


def _imputation_stack(seed: int):
    """A small but real denoiser/diffusion/mask stack, deterministically built."""
    rng = np.random.default_rng(seed)
    num_features, window = 6, 16
    model = ImTransformer(num_features=num_features, hidden_dim=12,
                          num_blocks=1, num_heads=2, num_policies=4, rng=rng)
    diffusion = GaussianDiffusion(make_schedule("quadratic", 6))
    imputer = ImputedDiffusion(model, diffusion)
    mask_rng = np.random.default_rng(99)
    masks_arr = (mask_rng.random((4, window, num_features)) < 0.5).astype(np.float64)
    windows = np.random.default_rng(7).standard_normal((24, window, num_features))
    return rng, imputer, masks_arr, windows


def test_single_worker_bit_identity(benchmark):
    """Trainer(spec, num_workers=1) must equal the frozen closure loop bitwise."""

    def run():
        # --- frozen reference: hand-rolled loop over the pre-spec closure ---
        rng_a, imputer_a, masks_arr, windows = _imputation_stack(0)
        num_policies = masks_arr.shape[0]

        def legacy_loss(batch, state):
            policies = rng_a.integers(0, num_policies, size=batch.data.shape[0])
            return imputer_a.training_loss(batch.data, masks_arr[policies],
                                           policies, rng_a)

        params_a = imputer_a.model.parameters()
        legacy_losses, _ = hand_rolled_fit(
            params_a, Adam(params_a, lr=1e-3), legacy_loss,
            WindowLoader(windows, batch_size=8, rng=rng_a), 3, grad_clip=5.0)

        # --- the engine at one worker: draw/compute spec --------------------
        rng_b, imputer_b, _, _ = _imputation_stack(0)
        spec = ImputationLossSpec(imputer_b, masks_arr)
        params_b = imputer_b.model.parameters()
        trainer = Trainer(params_b, Adam(params_b, lr=1e-3), spec,
                          num_workers=1, grad_clip=5.0, rng=rng_b)
        trainer.fit(WindowLoader(windows, batch_size=8, rng=rng_b), epochs=3)
        return params_a, legacy_losses, rng_a, trainer

    params_a, legacy_losses, rng_a, trainer = run_once(benchmark, run)

    print_header("Parallel training: frozen closure loop vs Trainer(num_workers=1)")
    identical = (
        all(np.array_equal(a.data, b.data)
            for a, b in zip(params_a, trainer.parameters))
        and legacy_losses == trainer.state.epoch_losses
        and rng_a.bit_generator.state == trainer.rng.bit_generator.state
    )
    print(f"frozen losses : {[f'{loss:.12f}' for loss in legacy_losses]}")
    print(f"trainer losses: {[f'{loss:.12f}' for loss in trainer.state.epoch_losses]}")
    print("bit-identity (frozen closure loop vs Trainer num_workers=1): "
          + ("OK" if identical else "FAILED"))

    _record({
        "benchmark": "parallel_bit_identity",
        "epochs": 3,
        "bit_identical": bool(identical),
        "final_loss": legacy_losses[-1],
    })
    assert identical, (
        "Trainer at num_workers=1 diverged from the frozen closure loop"
    )


def test_multiworker_fit_speedup(benchmark):
    """End-to-end detector fit must get faster when sharded across workers."""
    rng = np.random.default_rng(0)
    length = NUM_WINDOWS * 10 + 64
    series = (np.sin(np.arange(length) / 20.0)[:, None] * np.ones((1, 16))
              + 0.1 * rng.standard_normal((length, 16)))

    def config(num_workers):
        return ImDiffusionConfig(
            window_size=32, num_steps=8, epochs=NUM_EPOCHS, hidden_dim=32,
            num_blocks=2, num_heads=4, batch_size=64,
            max_train_windows=NUM_WINDOWS, train_stride=10,
            num_workers=num_workers, seed=0)

    def timed_fit(num_workers):
        detector = ImDiffusionDetector(config(num_workers))
        started = time.perf_counter()
        detector.fit(series)
        return detector, time.perf_counter() - started

    def run():
        serial_detector, serial_seconds = timed_fit(1)
        parallel_detector, parallel_seconds = timed_fit(NUM_WORKERS)
        return serial_detector, serial_seconds, parallel_detector, parallel_seconds

    serial_detector, serial_seconds, parallel_detector, parallel_seconds = \
        run_once(benchmark, run)
    speedup = serial_seconds / max(parallel_seconds, 1e-9)

    # The sharded run follows the same random stream; parameters may differ
    # only by float summation order in the gradient average.
    max_diff = max(
        float(np.abs(a.data - b.data).max())
        for a, b in zip(serial_detector.model.parameters(),
                        parallel_detector.model.parameters()))

    print_header(f"Parallel training: end-to-end fit, 1 vs {NUM_WORKERS} workers "
                 f"({NUM_WINDOWS} windows x {NUM_EPOCHS} epochs, "
                 f"{_CORES} cores available)")
    print(f"serial fit (1 worker)       : {serial_seconds:8.2f}s")
    print(f"parallel fit ({NUM_WORKERS} workers)    : {parallel_seconds:8.2f}s")
    print(f"speedup                     : {speedup:8.2f}x (target {SPEEDUP_TARGET}x)")
    print(f"1-vs-{NUM_WORKERS} max parameter diff : {max_diff:.3e} "
          "(float summation order only)")

    _record({
        "benchmark": "multiworker_fit_speedup",
        "num_windows": NUM_WINDOWS,
        "epochs": NUM_EPOCHS,
        "num_workers": NUM_WORKERS,
        "cpu_count": _CORES,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": speedup,
        "speedup_target": SPEEDUP_TARGET,
        "max_param_diff": max_diff,
    })

    assert max_diff < 1e-8, (
        f"worker-count changed the training trajectory (diff {max_diff:.3e})"
    )
    if MIN_SPEEDUP > 0:
        assert speedup >= MIN_SPEEDUP, (
            f"{NUM_WORKERS}-worker fit is only {speedup:.2f}x faster than "
            f"serial (gate {MIN_SPEEDUP}x, target {SPEEDUP_TARGET}x)")
    else:
        print(f"speedup gate skipped: {_CORES} core(s) cannot host "
              f"{NUM_WORKERS} gradient workers")
