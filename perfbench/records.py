"""Run records: what was measured, on which code and which machine.

A record is one JSON file per run under ``perfbench/out/records/``.  It
carries the source revision and the machine fingerprint next to the
metrics, so that ``perfbench/compare.py`` can refuse to compare numbers
taken on different machines or toolchains.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, Optional

from .fingerprint import fingerprint, source_revision
from .workloads import OUT, PINS, RunResult, load_pins, pin_key

__all__ = ["SCHEMA", "build", "write", "format_table", "write_pin"]

SCHEMA = "perfbench.record/1"
ROOT = OUT.parents[1]


def build(args, result: RunResult, units: Dict[str, str], started: float) -> dict:
    return {
        "schema": SCHEMA,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(started)),
        "wall_s": time.time() - started,
        "revision": source_revision(ROOT),
        "fingerprint": fingerprint(),
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "problems": result.problems,
        "metrics": {name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in units.items()},
        "notes": result.notes,
    }


def write(record: dict, result: RunResult) -> Optional[Path]:
    """Write the record (and a traced run's spans); ``None`` when not written.

    A traced run whose checks failed — including layer times that do not
    add up to the phase wall time — is reported as failed and not written.
    """
    if record["trace"] and not result.correct:
        return None
    stamp = record["started"].replace(":", "")
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}-{stamp}"
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{name}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    if result.tracer is not None:
        spans = OUT / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        result.tracer.dump(str(spans / f"{name}.json"))
    return path


def format_table(record: dict) -> str:
    lines = [f"{record['workload']} seed={record['seed']} seconds={record['seconds']} "
             f"trace={record['trace']}: attempted {record['attempted']}, "
             f"failed {record['failed']}, correct {record['correct']}"]
    width = max(len(name) for name in record["metrics"])
    for name, metric in record["metrics"].items():
        lines.append(f"  {name:<{width}}  {metric['value']:>14.6g} {metric['unit']}")
    return "\n".join(lines)


def write_pin(args, result: RunResult) -> None:
    """Pin this run's outputs for its seed; refuses to overwrite a different pin."""
    if args.trace or result.failed or result.problems or "timed_flushes" in result.notes:
        raise SystemExit("perfbench: only a clean untraced run can be pinned")
    observed = {"f1": result.metrics["f1"]}
    if args.workload == "offline-smd":
        observed["labels"] = result.notes["labels"]
    pins = load_pins()
    key = pin_key(args.workload, args.seed, args.seconds)
    existing = pins.setdefault(args.workload, {}).get(key)
    if existing is not None and existing != observed:
        raise SystemExit(f"perfbench: {key} is pinned to {existing}, run gave {observed}")
    pins[args.workload][key] = observed
    ordered = {workload: dict(sorted(entries.items(),
                                     key=lambda item: _seed_order(item[0])))
               for workload, entries in sorted(pins.items())}
    PINS.write_text(json.dumps(ordered, indent=1) + "\n")


def _seed_order(key: str):
    fields = dict(part.split("=") for part in key.split(","))
    return tuple(int(value) for value in fields.values())
