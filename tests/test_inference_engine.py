"""Sharded inference engine: determinism, transport, wiring, cleanup.

The contract under test mirrors the data-parallel training engine:

* all randomness is drawn in the parent, in plan order, so
  ``draw_impute_noise`` + noise-injected ``impute`` is **bit-identical** to
  the internal-rng path (including the generator's end state),
* :class:`SerialScoreReducer` reproduces the pre-engine inline scoring loop
  bit for bit — and so do ``detector.score()`` and ``holdout_error()``,
  which run through it — and :class:`MultiprocessScoreReducer` reproduces
  the serial reducer for **every** worker count (1-worker = the
  bit-identity gate),
* parameters cross to the workers through the shared-memory transport, so
  per-step pipe messages do not scale with the parameter count (gradient
  and scoring reducers alike),
* ``close()`` is idempotent everywhere and the atexit cleanup registry
  reaps leaked pools/blocks without resource-tracker warnings.
"""

from __future__ import annotations

import pickle
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro import ImDiffusionConfig, ImDiffusionDetector
from repro.core.detector import ImputationLossSpec, ImputationScoreSpec
from repro.core.modes import build_masks, recommended_stride
from repro.data.windows import sliding_windows
from repro.diffusion import ImputeNoise
from repro.inference import (
    MultiprocessScoreReducer,
    ScoreTask,
    SerialScoreReducer,
    WorkerPool,
)
from repro.training import Batch, MultiprocessReducer, TrainState
from repro.training.parallel import _shard_bounds


def _config(**overrides):
    base = dict(window_size=16, num_steps=4, epochs=1, hidden_dim=8,
                num_blocks=1, num_heads=2, batch_size=4,
                num_masked_windows=2, num_unmasked_windows=2,
                max_train_windows=16, train_stride=8, seed=0)
    base.update(overrides)
    return ImDiffusionConfig(**base)


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(0)
    train = rng.standard_normal((120, 3))
    return ImDiffusionDetector(_config()).fit(train)


@pytest.fixture(scope="module")
def test_series():
    return np.random.default_rng(1).standard_normal((64, 3))


def _windows(fitted, count=10, seed=5):
    config = fitted.config
    return np.random.default_rng(seed).standard_normal(
        (count, config.window_size, fitted.num_features))


# ---------------------------------------------------------------------------
# Frozen pre-reducer scoring loops (verbatim copies, rng-driven)
# ---------------------------------------------------------------------------
def _legacy_window_errors(detector, chunk, mask, policy_index, rng, sampler):
    """The pre-reducer ``_impute_window_errors`` body, frozen."""
    config = detector.config
    target_region = 1.0 - mask
    batch_masks = np.broadcast_to(mask, chunk.shape)
    policies = np.full(chunk.shape[0], policy_index, dtype=np.int64)
    result = detector._imputer.impute(
        chunk, batch_masks, policies, rng,
        collect=config.collect,
        deterministic=config.deterministic_inference,
        sampler=sampler,
    )
    for progress, (_, estimate) in enumerate(result.intermediate, start=1):
        yield progress, ((estimate - chunk) ** 2) * target_region


def _legacy_score(detector, test):
    """The pre-reducer inline ``score`` loop (``score_workers=1``), frozen."""
    config = detector.config
    scaled = detector._scaler.transform(np.asarray(test, dtype=np.float64))
    stride = recommended_stride(config)
    windows, starts = sliding_windows(scaled, config.window_size, stride)
    masks = build_masks(config, config.window_size, detector.num_features)
    length = scaled.shape[0]
    window = config.window_size
    sampler = config.build_sampler()
    num_collected = sampler.num_inference_steps(config.num_steps)
    error_sum = {k: np.zeros((length, detector.num_features))
                 for k in range(1, num_collected + 1)}
    masked_count = np.zeros((length, detector.num_features))
    detector._imputer.model.eval()
    for policy_index, mask in enumerate(masks):
        target_region = 1.0 - mask
        for chunk_start in range(0, windows.shape[0], config.batch_size):
            chunk = windows[chunk_start:chunk_start + config.batch_size]
            chunk_starts = starts[chunk_start:chunk_start + config.batch_size]
            for progress, squared in _legacy_window_errors(
                    detector, chunk, mask, policy_index, detector._rng, sampler):
                for window_error, start in zip(squared, chunk_starts):
                    error_sum[progress][start:start + window] += window_error
            for start in chunk_starts:
                masked_count[start:start + window] += target_region
    coverage = np.maximum(masked_count.sum(axis=1), 1.0)
    step_errors = {progress: totals.sum(axis=1) / coverage
                   for progress, totals in error_sum.items()}
    return step_errors, coverage


def _legacy_holdout_error(detector, series, seed):
    """The pre-reducer ``holdout_error`` loop, frozen."""
    config = detector.config
    scaled = detector._scaler.transform(np.asarray(series, dtype=np.float64))
    windows, _ = sliding_windows(scaled, config.window_size,
                                 recommended_stride(config))
    masks = build_masks(config, config.window_size, detector.num_features)
    sampler = config.build_sampler()
    rng = np.random.default_rng(seed)
    detector._imputer.model.eval()
    total, count = 0.0, 0.0
    for policy_index, mask in enumerate(masks):
        target_elements = float((1.0 - mask).sum())
        for chunk_start in range(0, windows.shape[0], config.batch_size):
            chunk = windows[chunk_start:chunk_start + config.batch_size]
            final = None
            for _, squared in _legacy_window_errors(
                    detector, chunk, mask, policy_index, rng, sampler):
                final = squared
            total += float(final.sum())
            count += target_elements * chunk.shape[0]
    return total / max(count, 1.0)


class ExplodingSpec(ImputationScoreSpec):
    """Module-level (spawn needs to pickle it) spec whose kernel always fails."""

    def compute(self, windows, task, payload):
        raise ValueError("boom in the worker")


# ---------------------------------------------------------------------------
# Parent-side noise drawing: draw o impute == internal-rng impute
# ---------------------------------------------------------------------------
class TestDrawImputeNoise:
    def _run_both(self, fitted, deterministic=False):
        config = fitted.config
        imputer = fitted._imputer
        sampler = config.build_sampler()
        mask = build_masks(config, config.window_size, fitted.num_features)[0]
        windows = _windows(fitted, count=3)
        batch_masks = np.broadcast_to(mask, windows.shape)
        policies = np.zeros(windows.shape[0], dtype=np.int64)

        rng_internal = np.random.default_rng(99)
        internal = imputer.impute(windows, batch_masks, policies, rng_internal,
                                  sampler=sampler, deterministic=deterministic)

        rng_injected = np.random.default_rng(99)
        noise = imputer.draw_impute_noise(windows, rng_injected,
                                          sampler=sampler,
                                          deterministic=deterministic)
        injected = imputer.impute(windows, batch_masks, policies, rng=None,
                                  sampler=sampler, deterministic=deterministic,
                                  noise=noise)
        return internal, injected, rng_internal, rng_injected

    def test_injected_noise_is_bit_identical(self, fitted):
        internal, injected, rng_a, rng_b = self._run_both(fitted)
        assert np.array_equal(internal.final, injected.final)
        for (step_a, est_a), (step_b, est_b) in zip(internal.intermediate,
                                                    injected.intermediate):
            assert step_a == step_b
            assert np.array_equal(est_a, est_b)
        # The parent-side draw consumed the stream exactly as impute would.
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_deterministic_trajectory_matches_too(self, fitted):
        internal, injected, rng_a, rng_b = self._run_both(fitted,
                                                          deterministic=True)
        assert np.array_equal(internal.final, injected.final)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_impute_requires_rng_or_noise(self, fitted):
        config = fitted.config
        mask = build_masks(config, config.window_size, fitted.num_features)[0]
        windows = _windows(fitted, count=2)
        with pytest.raises(ValueError, match="rng"):
            fitted._imputer.impute(
                windows, np.broadcast_to(mask, windows.shape),
                np.zeros(2, dtype=np.int64), rng=None)

    def test_shard_slices_every_component(self, fitted):
        imputer = fitted._imputer
        sampler = fitted.config.build_sampler()
        windows = _windows(fitted, count=6)
        noise = imputer.draw_impute_noise(windows, np.random.default_rng(3),
                                          sampler=sampler)
        part = noise.shard(2, 5)
        assert isinstance(part, ImputeNoise)
        assert part.batch_size == 3
        assert np.array_equal(part.prior, noise.prior[2:5])
        for full, sliced in zip(noise.reference, part.reference):
            assert np.array_equal(sliced, full[2:5])
        for full, sliced in zip(noise.transition, part.transition):
            if full is None:
                assert sliced is None
            else:
                assert np.array_equal(sliced, full[2:5])


# ---------------------------------------------------------------------------
# The score spec and the serial reducer
# ---------------------------------------------------------------------------
class TestImputationScoreSpec:
    def test_plan_is_policy_major_chunk_minor(self, fitted):
        spec = ImputationScoreSpec(fitted)
        num_masks = len(spec.masks)
        plan = spec.plan(10)  # batch_size=4 -> chunks (0,4) (4,8) (8,10)
        assert len(plan) == 3 * num_masks
        expected = [(p, s, min(s + 4, 10))
                    for p in range(num_masks) for s in (0, 4, 8)]
        assert [(t.policy_index, t.start, t.stop) for t in plan] == expected
        assert plan[-1].size == 2

    def test_requires_a_fitted_detector(self):
        with pytest.raises(RuntimeError, match="fitted"):
            ImputationScoreSpec(ImDiffusionDetector(_config()))

    def test_spec_survives_pickling(self, fitted):
        spec = pickle.loads(pickle.dumps(ImputationScoreSpec(fitted)))
        params = spec.build()
        assert len(params) == len(fitted._imputer.model.parameters())


class TestSerialScoreReducer:
    def test_equals_the_legacy_inline_loop(self, fitted):
        config = fitted.config
        windows = _windows(fitted, count=9)
        masks = build_masks(config, config.window_size, fitted.num_features)
        sampler = config.build_sampler()

        rng_legacy = np.random.default_rng(11)
        batch = windows.shape[0]
        legacy = {}
        for policy_index, mask in enumerate(masks):
            for chunk_start in range(0, batch, config.batch_size):
                chunk = windows[chunk_start:chunk_start + config.batch_size]
                for progress, squared in _legacy_window_errors(
                        fitted, chunk, mask, policy_index, rng_legacy, sampler):
                    if progress not in legacy:
                        legacy[progress] = np.zeros(
                            (batch,) + squared.shape[1:])
                    legacy[progress][chunk_start:chunk_start + chunk.shape[0]] \
                        += squared

        rng_spec = np.random.default_rng(11)
        totals = SerialScoreReducer(ImputationScoreSpec(fitted)).window_errors(
            windows, rng_spec)

        assert set(totals) == set(legacy)
        for progress in legacy:
            assert np.array_equal(totals[progress], legacy[progress])
        assert rng_legacy.bit_generator.state == rng_spec.bit_generator.state

    @pytest.mark.parametrize("overrides", [
        {},
        dict(sampler="ddim", num_inference_steps=2, ddim_eta=0.5),
        dict(deterministic_inference=True, collect="x0"),
    ], ids=["full", "ddim-eta0.5", "deterministic-x0"])
    def test_score_equals_the_frozen_inline_loop(self, overrides):
        train = np.random.default_rng(0).standard_normal((120, 3))
        # 61 points over a stride that does not divide it: the tail is
        # covered by fewer windows, so the coverage normalisation varies.
        test = np.random.default_rng(1).standard_normal((61, 3))
        detector = ImDiffusionDetector(_config(**overrides)).fit(train)
        twin = pickle.loads(pickle.dumps(detector))

        scores = detector.score(test)
        legacy, coverage = _legacy_score(twin, test)

        assert len(set(coverage.tolist())) > 1
        assert list(scores) == list(legacy)
        assert list(scores) == list(range(1, len(legacy) + 1))
        for progress in legacy:
            assert np.array_equal(scores[progress], legacy[progress])
        assert (detector._rng.bit_generator.state
                == twin._rng.bit_generator.state)

    @pytest.mark.parametrize("overrides", [
        {}, dict(sampler="ddim", num_inference_steps=2, ddim_eta=0.5),
    ], ids=["full", "ddim-eta0.5"])
    def test_holdout_error_equals_the_frozen_loop(self, overrides):
        train = np.random.default_rng(0).standard_normal((120, 3))
        series = np.random.default_rng(2).standard_normal((61, 3))
        detector = ImDiffusionDetector(_config(**overrides)).fit(train)
        twin = pickle.loads(pickle.dumps(detector))
        state_before = detector._rng.bit_generator.state

        value = detector.holdout_error(series, seed=4)

        assert value == _legacy_holdout_error(twin, series, seed=4)
        # The local CRN generator is the only one consumed.
        assert detector._rng.bit_generator.state == state_before

    def test_custom_on_result_sees_plan_order(self, fitted):
        windows = _windows(fitted, count=6)
        seen = []
        result = SerialScoreReducer(ImputationScoreSpec(fitted)).window_errors(
            windows, np.random.default_rng(0),
            on_result=lambda task, errors: seen.append(task))
        assert result is None
        assert seen == ImputationScoreSpec(fitted).plan(6)


# ---------------------------------------------------------------------------
# The multiprocess reducer: worker-count invariance and bit-identity
# ---------------------------------------------------------------------------
class TestMultiprocessScoreReducer:
    def test_rejects_zero_workers(self, fitted):
        with pytest.raises(ValueError, match="at least 1"):
            MultiprocessScoreReducer(ImputationScoreSpec(fitted), 0)

    def test_one_worker_is_bit_identical_to_serial(self, fitted):
        windows = _windows(fitted, count=7)
        rng_serial = np.random.default_rng(21)
        serial = SerialScoreReducer(ImputationScoreSpec(fitted)).window_errors(
            windows, rng_serial)

        rng_pool = np.random.default_rng(21)
        with MultiprocessScoreReducer(ImputationScoreSpec(fitted), 1) as reducer:
            pooled = reducer.window_errors(windows, rng_pool)

        assert set(serial) == set(pooled)
        for progress in serial:
            assert np.array_equal(serial[progress], pooled[progress])
        assert rng_serial.bit_generator.state == rng_pool.bit_generator.state

    def test_two_workers_match_and_pool_persists_across_batches(self, fitted):
        windows = _windows(fitted, count=7)
        rng_serial = np.random.default_rng(22)
        serial_reducer = SerialScoreReducer(ImputationScoreSpec(fitted))
        serial_one = serial_reducer.window_errors(windows, rng_serial)
        serial_two = serial_reducer.window_errors(windows[:3], rng_serial)

        rng_pool = np.random.default_rng(22)
        with MultiprocessScoreReducer(ImputationScoreSpec(fitted), 2) as reducer:
            pooled_one = reducer.window_errors(windows, rng_pool)
            pooled_two = reducer.window_errors(windows[:3], rng_pool)

        for serial, pooled in ((serial_one, pooled_one),
                               (serial_two, pooled_two)):
            for progress in serial:
                assert np.array_equal(serial[progress], pooled[progress])
        assert rng_serial.bit_generator.state == rng_pool.bit_generator.state

    def test_close_is_idempotent_and_reopen_works(self, fitted):
        reducer = MultiprocessScoreReducer(ImputationScoreSpec(fitted), 1)
        reducer.open()
        reducer.close()
        reducer.close()
        # window_errors self-heals by reopening the pool.
        totals = reducer.window_errors(_windows(fitted, count=2),
                                       np.random.default_rng(0))
        assert totals
        reducer.close()

    def test_worker_failure_raises_and_tears_the_pool_down(self, fitted):
        reducer = MultiprocessScoreReducer(ExplodingSpec(fitted), 1)
        with reducer:
            with pytest.raises(RuntimeError, match="boom in the worker"):
                reducer.window_errors(_windows(fitted, count=2),
                                      np.random.default_rng(0))
            # The failed batch closed the pool so lockstep cannot desync.
            assert reducer._pool is None


class TestDetectorScoreWorkers:
    def test_score_workers_must_be_positive(self, fitted, test_series):
        with pytest.raises(ValueError, match="at least 1"):
            fitted.score(test_series, score_workers=0)

    def test_parallel_scores_and_labels_match_serial(self, fitted, test_series):
        import copy

        serial_det = copy.deepcopy(fitted)
        pooled_det = copy.deepcopy(fitted)
        serial = serial_det.predict(test_series)
        pooled = pooled_det.predict(test_series, score_workers=2)
        assert np.array_equal(serial.scores, pooled.scores)
        assert np.array_equal(serial.labels, pooled.labels)
        for progress in serial.step_errors:
            assert np.array_equal(serial.step_errors[progress],
                                  pooled.step_errors[progress])
        assert (serial_det._rng.bit_generator.state
                == pooled_det._rng.bit_generator.state)


# ---------------------------------------------------------------------------
# Zero-copy transport: per-step messages never scale with the model
# ---------------------------------------------------------------------------
class TestSharedMemoryTransport:
    def _step_message_bytes(self, hidden_dim, num_blocks):
        config = _config(hidden_dim=hidden_dim, num_blocks=num_blocks)
        rng = np.random.default_rng(0)
        detector = ImDiffusionDetector(config).fit(
            rng.standard_normal((120, 3)))
        masks = build_masks(config, config.window_size, 3)
        spec = ImputationLossSpec(detector._imputer, np.stack(masks))
        reducer = MultiprocessReducer(spec, 2)
        windows = rng.standard_normal((8, config.window_size, 3))
        batch = Batch(arrays=(windows,), indices=np.arange(8))
        payload = spec.draw(batch, np.random.default_rng(1), TrainState())
        start, stop = _shard_bounds(batch.size, 2)[0]
        message = reducer._compose_step_message(
            "loss", 7, batch, payload, TrainState(), start, stop)
        return len(pickle.dumps(message)), detector

    def test_gradient_step_bytes_independent_of_parameter_count(self):
        small_bytes, small_det = self._step_message_bytes(8, 1)
        large_bytes, large_det = self._step_message_bytes(32, 2)
        small_params = sum(p.data.size
                           for p in small_det._imputer.model.parameters())
        large_params = sum(p.data.size
                           for p in large_det._imputer.model.parameters())
        assert large_params > 4 * small_params
        assert small_bytes == large_bytes

    def test_score_task_bytes_independent_of_parameter_count(self, fitted):
        def task_message_bytes(detector):
            spec = ImputationScoreSpec(detector)
            windows = _windows(detector, count=4)
            task = ScoreTask(policy_index=0, start=0, stop=4)
            payload = spec.draw(windows, task, np.random.default_rng(2))
            return len(pickle.dumps((7, task, windows[0:4], payload)))

        rng = np.random.default_rng(0)
        large = ImDiffusionDetector(
            _config(hidden_dim=32, num_blocks=2)).fit(
                rng.standard_normal((120, 3)))
        assert task_message_bytes(fitted) == task_message_bytes(large)


# ---------------------------------------------------------------------------
# WorkerPool and the cleanup registry
# ---------------------------------------------------------------------------
class TestWorkerPool:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="at least 1"):
            WorkerPool(lambda conn: None, (), 0)

    def test_close_before_start_and_double_close(self):
        pool = WorkerPool(lambda conn: None, (), 2)
        pool.close()
        assert not pool.is_open
        pool.close()


class TestCleanupRegistry:
    def test_leaked_reducers_are_reaped_at_exit_without_warnings(self, tmp_path):
        # A process that opens scoring workers and a shared parameter block,
        # then exits without closing anything: the atexit cleanup registry
        # must shut the pool down and unlink the segment, with no
        # resource_tracker "leaked" complaints on stderr.
        script = tmp_path / "leaky.py"
        script.write_text(textwrap.dedent("""\
            import numpy as np
            from repro.core import ImDiffusionConfig, ImDiffusionDetector
            from repro.core.detector import ImputationScoreSpec
            from repro.inference import MultiprocessScoreReducer

            def main():
                config = ImDiffusionConfig(
                    window_size=8, num_steps=2, epochs=1, hidden_dim=8,
                    num_blocks=1, num_heads=2, batch_size=4,
                    num_masked_windows=1, num_unmasked_windows=1,
                    max_train_windows=8, train_stride=8, seed=0)
                rng = np.random.default_rng(0)
                detector = ImDiffusionDetector(config).fit(
                    rng.standard_normal((40, 2)))
                reducer = MultiprocessScoreReducer(
                    ImputationScoreSpec(detector), 1)
                reducer.open()
                reducer.window_errors(
                    rng.standard_normal((2, 8, 2)), np.random.default_rng(1))
                raise SystemExit(3)

            if __name__ == "__main__":
                main()
            """))
        result = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True,
            timeout=300)
        assert result.returncode == 3, result.stderr
        assert "leaked" not in result.stderr, result.stderr
        assert "Traceback" not in result.stderr, result.stderr

    def test_training_reducer_close_is_idempotent(self, fitted):
        masks = build_masks(fitted.config, fitted.config.window_size, 3)
        spec = ImputationLossSpec(fitted._imputer, np.stack(masks))
        reducer = MultiprocessReducer(spec, 2)
        # Never opened: close must still be a no-op, twice.
        reducer.close()
        reducer.close()

    def test_gradient_reducer_is_a_context_manager(self, fitted):
        masks = build_masks(fitted.config, fitted.config.window_size, 3)
        spec = ImputationLossSpec(fitted._imputer, np.stack(masks))
        with MultiprocessReducer(spec, 2) as reducer:
            assert reducer._pool is None  # entering does not acquire
        reducer.close()
