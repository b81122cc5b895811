"""Data-parallel training engine: sharding, bit-identity, invariance, resume.

The determinism contract under test:

* ``Trainer(spec, num_workers=1)`` is **bit-identical** to a hand-rolled
  loop over the equivalent pre-spec loss closure (same parameters, losses,
  optimizer moments and random stream),
* for ``num_workers > 1`` the random stream is unchanged (all draws happen
  in the parent before sharding) and parameters agree with the serial run up
  to float summation order in the gradient average,
* checkpoints never record the worker count, so a snapshot resumes
  bit-identically under the same worker count and equivalently under a
  different one.
"""

from __future__ import annotations

import multiprocessing
import pickle

import numpy as np
import pytest
from frozen_training_loops import hand_rolled_fit

from repro import ImDiffusionConfig, ImDiffusionDetector
from repro.baselines import LSTMADDetector, MADGANDetector, MSCREDDetector
from repro.core.detector import ImputationLossSpec
from repro.diffusion import GaussianDiffusion, ImputedDiffusion, make_schedule
from repro.models import ImTransformer
from repro.nn import Adam, Linear, SGD, Tensor
from repro.nn import functional as F
from repro.training import (
    Batch,
    Callback,
    Checkpoint,
    MethodLossSpec,
    MultiprocessReducer,
    SpecReducer,
    Trainer,
    WindowLoader,
)
from repro.training.parallel import _shard_bounds


def _series(length=200, num_channels=4, seed=0):
    rng = np.random.default_rng(seed)
    base = np.sin(np.arange(length) / 10.0)[:, None] * np.ones((1, num_channels))
    return base + 0.1 * rng.standard_normal((length, num_channels))


def _small_config(**overrides):
    base = dict(window_size=16, num_steps=4, epochs=2, hidden_dim=8,
                num_blocks=1, num_heads=2, batch_size=8,
                num_masked_windows=2, num_unmasked_windows=2,
                max_train_windows=16, train_stride=8, seed=0)
    base.update(overrides)
    return ImDiffusionConfig(**base)


def _imputation_stack(seed=0, num_features=4, window=16):
    rng = np.random.default_rng(seed)
    model = ImTransformer(num_features=num_features, hidden_dim=8,
                          num_blocks=1, num_heads=2, num_policies=3, rng=rng)
    imputer = ImputedDiffusion(model, GaussianDiffusion(make_schedule("quadratic", 4)))
    mask_rng = np.random.default_rng(42)
    masks_arr = (mask_rng.random((3, window, num_features)) < 0.5).astype(np.float64)
    windows = np.random.default_rng(7).standard_normal((16, window, num_features))
    return rng, imputer, masks_arr, windows


# ---------------------------------------------------------------------------
# Sharding arithmetic
# ---------------------------------------------------------------------------
class TestShardBounds:
    def test_even_split(self):
        assert _shard_bounds(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_remainder_goes_to_leading_shards(self):
        assert _shard_bounds(10, 4) == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_small_batch_drops_empty_shards(self):
        assert _shard_bounds(2, 4) == [(0, 1), (1, 2)]

    def test_single_shard_covers_everything(self):
        assert _shard_bounds(7, 1) == [(0, 7)]

    def test_bounds_partition_the_samples(self):
        for num, shards in [(13, 5), (3, 8), (64, 7)]:
            bounds = _shard_bounds(num, shards)
            assert bounds[0][0] == 0 and bounds[-1][1] == num
            for (_, stop), (start, _) in zip(bounds, bounds[1:]):
                assert stop == start


# ---------------------------------------------------------------------------
# The loss-spec contract: draw o compute == the pre-spec closure
# ---------------------------------------------------------------------------
class TestImputationLossSpec:
    def test_spec_equals_legacy_closure_bitwise(self):
        rng_a, imputer_a, masks_arr, windows = _imputation_stack()
        rng_b, imputer_b, _, _ = _imputation_stack()
        batch = Batch(arrays=(windows[:8],), indices=np.arange(8))

        policies = rng_a.integers(0, masks_arr.shape[0], size=8)
        legacy = imputer_a.training_loss(batch.data, masks_arr[policies],
                                         policies, rng_a)
        legacy.backward()

        spec = ImputationLossSpec(imputer_b, masks_arr)
        loss = spec.compute(batch, spec.draw(batch, rng_b, None), None)
        loss.backward()

        assert float(legacy.data) == float(loss.data)
        for a, b in zip(imputer_a.model.parameters(), imputer_b.model.parameters()):
            assert np.array_equal(a.grad, b.grad)
        # Both consumed the generator identically.
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_weight_is_the_masked_region_count(self):
        _, imputer, masks_arr, windows = _imputation_stack()
        spec = ImputationLossSpec(imputer, masks_arr)
        batch = Batch(arrays=(windows[:5],), indices=np.arange(5))
        policies = np.array([0, 1, 2, 0, 1])
        payload = (policies, None, None)
        expected = float((1.0 - masks_arr[policies]).sum())
        assert spec.weight(batch, payload) == expected

    def test_sharded_gradient_average_matches_full_batch(self):
        # sum(w_i * g_i) / sum(w_i) over shards == the full-batch gradient.
        rng, imputer, masks_arr, windows = _imputation_stack()
        spec = ImputationLossSpec(imputer, masks_arr)
        batch = Batch(arrays=(windows[:8],), indices=np.arange(8))
        payload = spec.draw(batch, rng, None)

        full = spec.compute(batch, payload, None)
        full.backward()
        full_grads = [p.grad.copy() for p in imputer.model.parameters()]

        totals, total_weight = None, 0.0
        for start, stop in _shard_bounds(8, 3):
            for p in imputer.model.parameters():
                p.grad = None
            shard = Batch(arrays=(windows[start:stop],),
                          indices=np.arange(start, stop))
            shard_payload = tuple(a[start:stop] for a in payload)
            loss = spec.compute(shard, shard_payload, None)
            loss.backward()
            weight = spec.weight(shard, shard_payload)
            grads = [weight * p.grad for p in imputer.model.parameters()]
            totals = grads if totals is None else [t + g for t, g in zip(totals, grads)]
            total_weight += weight

        for full_grad, total in zip(full_grads, totals):
            np.testing.assert_allclose(total / total_weight, full_grad,
                                       rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# Bit-identity at num_workers=1
# ---------------------------------------------------------------------------
class TestSingleWorkerBitIdentity:
    def test_spec_trainer_equals_hand_rolled_closure_loop(self):
        rng_a, imputer_a, masks_arr, windows = _imputation_stack()
        num_policies = masks_arr.shape[0]

        def legacy_loss(batch, state):
            policies = rng_a.integers(0, num_policies, size=batch.data.shape[0])
            return imputer_a.training_loss(batch.data, masks_arr[policies],
                                           policies, rng_a)

        params_a = imputer_a.model.parameters()
        optimizer_a = Adam(params_a, lr=1e-3)
        legacy_losses, _ = hand_rolled_fit(
            params_a, optimizer_a, legacy_loss,
            WindowLoader(windows, batch_size=8, rng=rng_a), 3, grad_clip=5.0)

        rng_b, imputer_b, _, _ = _imputation_stack()
        spec = ImputationLossSpec(imputer_b, masks_arr)
        params_b = imputer_b.model.parameters()
        optimizer_b = Adam(params_b, lr=1e-3)
        trainer = Trainer(params_b, optimizer_b, spec, num_workers=1,
                          grad_clip=5.0, rng=rng_b)
        trainer.fit(WindowLoader(windows, batch_size=8, rng=rng_b), epochs=3)

        assert legacy_losses == trainer.state.epoch_losses
        for a, b in zip(params_a, params_b):
            assert np.array_equal(a.data, b.data)
        scalars_a, arrays_a = optimizer_a.state_dict()
        scalars_b, arrays_b = optimizer_b.state_dict()
        assert scalars_a == scalars_b
        for name in arrays_a:
            assert np.array_equal(arrays_a[name], arrays_b[name])
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_single_worker_uses_no_subprocess(self):
        _, imputer, masks_arr, _ = _imputation_stack()
        spec = ImputationLossSpec(imputer, masks_arr)
        params = imputer.model.parameters()
        trainer = Trainer(params, Adam(params, lr=1e-3), spec)
        assert isinstance(trainer.reducer, SpecReducer)
        assert trainer.num_workers == 1

    def test_num_workers_must_be_positive(self):
        _, imputer, masks_arr, _ = _imputation_stack()
        spec = ImputationLossSpec(imputer, masks_arr)
        params = imputer.model.parameters()
        with pytest.raises(ValueError, match="num_workers"):
            Trainer(params, Adam(params, lr=1e-3), spec, num_workers=0)
        with pytest.raises(ValueError, match="at least 2"):
            MultiprocessReducer(spec, num_workers=1)


# ---------------------------------------------------------------------------
# Worker-count invariance (spawned pools)
# ---------------------------------------------------------------------------
class TestWorkerCountInvariance:
    @staticmethod
    def _fit(num_workers):
        detector = ImDiffusionDetector(_small_config(
            num_workers=num_workers, validation_fraction=0.25))
        detector.fit(_series())
        return detector

    @pytest.mark.parametrize("num_workers", [1, 2, 4])
    def test_params_and_val_history_match_serial(self, num_workers):
        reference = self._fit(1)
        detector = self._fit(num_workers)
        ref_params = [p.data for p in reference.model.parameters()]
        params = [p.data for p in detector.model.parameters()]
        if num_workers == 1:
            for a, b in zip(ref_params, params):
                assert np.array_equal(a, b)
            assert reference.val_losses == detector.val_losses
        else:
            # Same random stream, same trajectory; only the float summation
            # order of the gradient average may differ.
            for a, b in zip(ref_params, params):
                np.testing.assert_allclose(b, a, rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(detector.val_losses,
                                       reference.val_losses,
                                       rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(detector.train_losses,
                                       reference.train_losses,
                                       rtol=1e-9, atol=1e-12)

    def test_parallel_run_is_reproducible_for_fixed_worker_count(self):
        first = self._fit(2)
        second = self._fit(2)
        for a, b in zip(first.model.parameters(), second.model.parameters()):
            assert np.array_equal(a.data, b.data)
        assert first.train_losses == second.train_losses
        assert first.val_losses == second.val_losses


# ---------------------------------------------------------------------------
# Resume under parallelism
# ---------------------------------------------------------------------------
class TestResumeUnderParallelism:
    def test_round_trip_is_bit_identical(self, tmp_path):
        series = _series()
        snapshot = str(tmp_path / "trainer.npz")

        uninterrupted = ImDiffusionDetector(_small_config(epochs=3, num_workers=2))
        uninterrupted.fit(series)

        interrupted = ImDiffusionDetector(_small_config(epochs=2, num_workers=2))
        interrupted.fit(series, callbacks=[Checkpoint(snapshot)])

        resumed = ImDiffusionDetector(_small_config(epochs=3, num_workers=2))
        resumed.fit(series, resume_from=snapshot)

        assert resumed.train_losses == uninterrupted.train_losses
        for a, b in zip(uninterrupted.model.parameters(),
                        resumed.model.parameters()):
            assert np.array_equal(a.data, b.data)

    def test_worker_count_may_change_on_resume(self, tmp_path):
        # The snapshot never records num_workers: a run interrupted under two
        # workers continues in-process on the same random stream.
        series = _series()
        snapshot = str(tmp_path / "trainer.npz")

        uninterrupted = ImDiffusionDetector(_small_config(epochs=3, num_workers=1))
        uninterrupted.fit(series)

        interrupted = ImDiffusionDetector(_small_config(epochs=2, num_workers=2))
        interrupted.fit(series, callbacks=[Checkpoint(snapshot)])

        resumed = ImDiffusionDetector(_small_config(epochs=3, num_workers=1))
        resumed.fit(series, resume_from=snapshot)

        for a, b in zip(uninterrupted.model.parameters(),
                        resumed.model.parameters()):
            np.testing.assert_allclose(b.data, a.data, rtol=1e-9, atol=1e-9)


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------
class TestBaselineParallelism:
    def test_lstm_ad_parallel_matches_serial(self):
        series = _series(length=160)
        kwargs = dict(history=8, hidden_size=8, epochs=2, max_train_samples=48,
                      seed=0)
        serial = LSTMADDetector(**kwargs).fit(series)
        parallel = LSTMADDetector(num_workers=2, **kwargs).fit(series)
        for a, b in zip(serial._trainer_parameters(),
                        parallel._trainer_parameters()):
            np.testing.assert_allclose(b.data, a.data, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(parallel.train_losses, serial.train_losses,
                                   rtol=1e-9, atol=1e-12)

    def test_unsupported_baseline_rejects_parallelism_with_its_reason(self):
        from repro.baselines import IsolationForestDetector

        detector = IsolationForestDetector(seed=0)
        detector.num_workers = 2  # IForest takes no num_workers knob
        assert not detector.supports_parallel
        with pytest.raises(ValueError, match="no gradient"):
            detector._run_trainer((np.zeros((4, 2)),),
                                  epochs=1, batch_size=2, learning_rate=1e-3)

    def test_every_detector_declares_parallel_support(self):
        from repro.baselines import BASELINE_REGISTRY

        for name, cls in BASELINE_REGISTRY.items():
            if name == "IForest":
                assert not cls.supports_parallel
                continue
            assert cls.supports_parallel, name
            assert cls._parallel_loss_method is not None, name

    def test_all_nine_constructors_take_the_knobs(self):
        from repro.baselines import BASELINE_REGISTRY
        import inspect

        trainable = [name for name in BASELINE_REGISTRY if name != "IForest"]
        assert len(trainable) == 9
        for name in trainable:
            signature = inspect.signature(BASELINE_REGISTRY[name])
            assert "num_workers" in signature.parameters, name
            assert "validation_split" in signature.parameters, name

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="num_workers"):
            MSCREDDetector(num_workers=0)
        with pytest.raises(ValueError, match="validation_split"):
            MSCREDDetector(validation_split="head")


# ---------------------------------------------------------------------------
# Method-spec plumbing and pickle transport
# ---------------------------------------------------------------------------
class TestTransport:
    def test_tensor_pickle_drops_the_graph(self):
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        y = (x * x).sum()
        restored = pickle.loads(pickle.dumps(y))
        assert float(restored.data) == float(y.data)
        assert restored._parents == () and restored._backward is None

    def test_module_round_trips_through_pickle(self):
        rng = np.random.default_rng(0)
        layer = Linear(3, 2, rng=rng)
        clone = pickle.loads(pickle.dumps(layer))
        for a, b in zip(layer.parameters(), clone.parameters()):
            assert np.array_equal(a.data, b.data)
        out = clone(Tensor(np.ones((4, 3))))
        assert out.shape == (4, 2)

    @pytest.mark.parametrize("optimizer_cls, kwargs", [
        (Adam, {"lr": 0.01}),
        (SGD, {"lr": 0.01, "momentum": 0.9}),
    ])
    def test_optimizer_pickle_rekeys_slots(self, optimizer_cls, kwargs):
        rng = np.random.default_rng(0)
        layer = Linear(3, 2, rng=rng)
        optimizer = optimizer_cls(layer.parameters(), **kwargs)
        loss = (layer(Tensor(np.ones((4, 3)))) ** 2).sum()
        loss.backward()
        optimizer.step()

        restored = pickle.loads(pickle.dumps(optimizer))
        # The restored slots must be attached to the *restored* parameters:
        # stepping both with identical gradients keeps them in lockstep.
        for source in (optimizer, restored):
            for p in source.parameters:
                p.grad = np.ones_like(p.data)
            source.step()
        for a, b in zip(optimizer.parameters, restored.parameters):
            assert np.array_equal(a.data, b.data)

    def test_method_spec_rebuilds_loss_worker_side(self):
        series = _series(length=160)
        detector = MSCREDDetector(window_size=16, scales=(4, 8, 16), epochs=1,
                                  max_train_windows=16, seed=0).fit(series)
        spec = detector._parallel_spec()
        assert isinstance(spec, MethodLossSpec)

        # Simulate the worker: unpickle the spec, rebuild the parameter list,
        # and compute the loss on the replica — the parent detector is never
        # touched.
        clone_spec = pickle.loads(pickle.dumps(spec))
        params = clone_spec.build()
        originals = detector._trainer_parameters()
        assert len(params) == len(originals)
        assert all(a is not b for a, b in zip(params, originals))

        windows, _ = detector._windows(detector.scaler.transform(series), 16, 8)
        features = detector._features(windows[:4])
        batch = Batch(arrays=(features,), indices=np.arange(features.shape[0]))
        loss = clone_spec.compute(batch, (), None)
        replica_loss = detector._reconstruction_loss(batch, None)
        assert float(loss.data) == float(replica_loss.data)


# ---------------------------------------------------------------------------
# The reducer seam
# ---------------------------------------------------------------------------
class TestReducerSeam:
    def test_killed_worker_raises_and_leaves_no_child(self, kill_and_reap):
        _, imputer, masks_arr, windows = _imputation_stack()
        spec = ImputationLossSpec(imputer, masks_arr)
        params = imputer.model.parameters()

        pids = []

        class KillAfterFirstBatch(Callback):
            def on_batch_end(self, trainer, state):
                if state.step == 1:
                    pids.extend(trainer.reducer._pool.pids)
                    kill_and_reap(pids[1])

        trainer = Trainer(params, Adam(params, lr=1e-3), spec, num_workers=2,
                          callbacks=[KillAfterFirstBatch()],
                          rng=np.random.default_rng(0))
        with pytest.raises(RuntimeError, match="gradient worker died"):
            trainer.fit(WindowLoader(windows, batch_size=8,
                                     rng=trainer.rng), epochs=1)
        assert trainer.reducer._pool is None
        assert len(pids) == 2
        assert not any(child.pid in pids
                       for child in multiprocessing.active_children())

    def test_worker_error_propagates_with_traceback(self):
        _, imputer, masks_arr, windows = _imputation_stack()
        spec = ImputationLossSpec(imputer, np.ones_like(masks_arr))  # no masked region
        params = imputer.model.parameters()
        trainer = Trainer(params, Adam(params, lr=1e-3), spec, num_workers=2,
                          rng=np.random.default_rng(0))
        with pytest.raises(RuntimeError, match="gradient worker failed"):
            trainer.fit(WindowLoader(windows, batch_size=8,
                                     rng=trainer.rng), epochs=1)
