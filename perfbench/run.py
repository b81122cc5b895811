"""Run one benchmark workload against the ``repro`` source tree beside this directory.

    python3 perfbench/run.py --workload offline-smd --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` makes the traced run that yields the per-layer metrics.  The
last line of standard output is one JSON object::

    {"correct": true, "attempted": 2, "failed": 0,
     "metrics": {"setup_s": {"value": 1.02, "unit": "s"}, ...}}

Every run also writes a record with the source revision and machine
fingerprint to ``perfbench/out/records/`` (compare two with
``perfbench/compare.py``); a traced run that adds up writes its spans to
``perfbench/out/spans/``.  ``--write-pin`` stores this run's outputs as the
expected ones for its seed (see ``perfbench/pins.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: BLAS threads.  On a shared 2-core machine, two BLAS threads made the
#: serve-model score throughput drop by 30% whenever neighbours were busy
#: (a 10-15% drop for the single-threaded Python paths); one thread keeps
#: the other core out of every timed step.
BLAS_THREADS = "1"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("offline-smd", "serve-model", "serve-fanout"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pin", action="store_true",
                        help="record this run's outputs as the pinned expectation")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = BLAS_THREADS  # before NumPy is first imported
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import records, workloads

    started = time.time()
    result = workloads.run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    if not result.metrics:
        for problem in result.problems:
            print(f"perfbench: {problem}", file=sys.stderr)
        return 1
    units = workloads.metric_units(bool(args.trace))
    record = records.build(args, result, units, started)
    path = records.write(record, result)
    print(records.format_table(record), flush=True)
    if "health" in result.notes:
        print(workloads.health_line(args.workload, result.notes["health"]))
        if result.notes["health"]["backlog_grew"]:
            print("perfbench: the generator's backlog grew during this run; "
                  "its latencies are not steady-state numbers", file=sys.stderr)
    if "timed_flushes" in result.notes:
        print("perfbench: the service fell behind and flushed by timing "
              f"({result.notes['timed_flushes']}); batch composition, and so "
              "F1, depends on it, so F1 was not compared with its pin",
              file=sys.stderr)
    for problem in result.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    if path is not None:
        print(f"record: {path.relative_to(ROOT)}")
    if args.write_pin:
        records.write_pin(args, result)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
