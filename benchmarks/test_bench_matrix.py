"""Bench matrix smoke: a tiny grid through the runner + parallel bit-identity.

Two CI-facing guarantees live here:

* :func:`repro.evaluation.run_bench_matrix` sweeps a small detector ×
  dataset × sampler × workers grid end-to-end and serialises ONE
  schema-versioned ``BENCH_matrix.json`` (path overridable via
  ``REPRO_BENCH_MATRIX_OUTPUT``) — the artifact CI uploads,
* every baseline whose :class:`~repro.training.ParallelLossSpec` replaced
  a single-process closure trains **bit-identically** through the spec path
  at one worker vs that closure, frozen in ``tests/frozen_training_loops.py``
  (parameters including the adversary, train and validation curves, and
  the random stream).  Each check prints a greppable line::

      bit-identity (frozen closure loop vs ParallelLossSpec num_workers=1) [OmniAnomaly]: OK

  which the CI job asserts on (run pytest with ``-s``).

Environment knobs: ``REPRO_BENCH_MATRIX_SCALE`` (default 0.04) and
``REPRO_BENCH_MATRIX_OUTPUT``.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.data import load_dataset
from repro.evaluation import (
    BENCH_SCHEMA_VERSION,
    bench_detector_factory,
    run_bench_matrix,
    write_bench_matrix,
)
from tests.frozen_training_loops import all_parameters, legacy_fit

MATRIX_SCALE = float(os.environ.get("REPRO_BENCH_MATRIX_SCALE", "0.04"))
OUTPUT = os.environ.get("REPRO_BENCH_MATRIX_OUTPUT", "BENCH_matrix.json")

#: The baselines whose spec replaced a single-process closure; the other
#: spec baselines (LSTM-AD, MSCRED, MTAD-GAT, TranAD) are covered by the
#: unit suite.
NEWLY_PARALLEL = ["OmniAnomaly", "InterFusion", "MAD-GAN", "BeatGAN", "GDN"]


class TestBenchMatrix:
    def test_tiny_grid_writes_single_artifact(self):
        result = run_bench_matrix(
            ["ImDiffusion", "OmniAnomaly"], ["SMD", "GCP"],
            samplers=("full", "ddim"), workers=(1, 2),
            scale=MATRIX_SCALE, progress=print)
        write_bench_matrix(result, OUTPUT)

        with open(OUTPUT) as handle:
            loaded = json.load(handle)
        assert loaded["schema"] == "repro.bench_matrix"
        assert loaded["schema_version"] == BENCH_SCHEMA_VERSION
        assert loaded["num_cells"] == 2 * 2 * 2 * 2
        assert loaded["num_cells"] == len(loaded["cells"])
        # ImDiffusion honours every cell; OmniAnomaly has no sampler knob,
        # so its ddim cells are marked skipped rather than re-run.
        ran = [c for c in loaded["cells"] if not c["skipped"]]
        skipped = [c for c in loaded["cells"] if c["skipped"]]
        assert len(ran) == 8 + 4
        assert all(c["detector"] == "OmniAnomaly" and c["sampler"] == "ddim"
                   for c in skipped)
        assert all(c["metrics"] is None for c in skipped)
        for cell in ran:
            assert 0.0 <= cell["metrics"]["f1"] <= 1.0
            assert cell["metrics"]["train_seconds"] >= 0.0
        print(f"\nBENCH_matrix.json: {len(ran)} cells run, "
              f"{len(skipped)} skipped (schema v{loaded['schema_version']})")

    def test_worker_cells_match_serial_metrics(self):
        with open(OUTPUT) as handle:
            cells = json.load(handle)["cells"]

        def metric(detector, workers):
            for cell in cells:
                if (cell["detector"] == detector and cell["sampler"] == "full"
                        and cell["num_workers"] == workers
                        and cell["dataset"] == "SMD"):
                    return cell["metrics"]
            raise AssertionError(f"missing cell {detector}/{workers}")

        for detector in ("ImDiffusion", "OmniAnomaly"):
            serial, parallel = metric(detector, 1), metric(detector, 2)
            for key in ("precision", "recall", "f1", "r_auc_pr"):
                assert abs(serial[key] - parallel[key]) < 1e-6, (detector, key)


class TestSpecBitIdentity:
    def test_newly_parallel_baselines_bit_identical_at_one_worker(self):
        train = load_dataset("GCP", seed=0, scale=0.04).train
        print()
        for name in NEWLY_PARALLEL:
            frozen = legacy_fit(bench_detector_factory(name, 0), train)
            spec = bench_detector_factory(name, 0).fit(train)
            identical = (
                all(np.array_equal(b.data, a.data) for a, b in
                    zip(all_parameters(frozen), all_parameters(spec)))
                and spec.train_losses == frozen.train_losses
                and (spec.rng.bit_generator.state
                     == frozen.rng.bit_generator.state))
            print("bit-identity (frozen closure loop vs ParallelLossSpec "
                  f"num_workers=1) [{name}]: {'OK' if identical else 'FAIL'}")
            assert identical, name

    def test_validation_curve_bit_identical_at_one_worker(self):
        train = load_dataset("GCP", seed=0, scale=0.04).train
        for name in NEWLY_PARALLEL:
            frozen = bench_detector_factory(name, 0)
            spec = bench_detector_factory(name, 0)
            for detector in (frozen, spec):
                detector.validation_fraction = 0.25
            legacy_fit(frozen, train)
            spec.fit(train)
            assert spec.val_losses, name
            assert spec.val_losses == frozen.val_losses, name
            assert spec.train_losses == frozen.train_losses, name
            for a, b in zip(all_parameters(frozen), all_parameters(spec)):
                assert np.array_equal(b.data, a.data), name
