"""Compare benchmark records: medians per metric, and a fingerprint check.

    python3 perfbench/compare.py --base perfbench/out/records/A*.json \\
                                 --new  perfbench/out/records/B*.json

Each side may hold several records of one workload and trace mode; the
table shows each side's median, the base's run-to-run spread (quartile
distance over median, with four or more records) and the change.  A change
in a metric's worse direction (``better`` in ``BENCHMARK.json``) by more
than its bound is flagged ``REGRESSION``; a metric whose base spread is
wider than its bound is flagged ``unresolved``, since the base cannot tell
such a change from noise.  Records whose machine fingerprints differ
(cores, Python, NumPy, BLAS, BLAS threads) are flagged and the comparison
exits with status 2: numbers from different machines or toolchains say
nothing about the code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import catalog  # noqa: E402
from perfbench.fingerprint import MACHINE_KEYS  # noqa: E402
from perfbench.stats import median, quartile_spread  # noqa: E402


def load(paths: List[str]) -> List[dict]:
    return [json.loads(Path(path).read_text()) for path in paths]


def fingerprint_conflicts(records: List[dict]) -> List[str]:
    """One line per machine key on which the records disagree."""
    conflicts = []
    for key in MACHINE_KEYS:
        seen = sorted({str(r["fingerprint"].get(key)) for r in records})
        if len(seen) > 1:
            conflicts.append(f"{key}: {' vs '.join(seen)}")
    return conflicts


def verdict(change: float, spread: Optional[float], spec: Optional[dict]) -> str:
    """``REGRESSION``, ``unresolved`` or ``""`` for one metric's change.

    Only metrics with a bound (the end-to-end ones) get a verdict.
    """
    if spec is None or "bound" not in spec:
        return ""
    bound = spec["bound"]
    if spread is not None and spread > bound:
        return f"unresolved (base spread above bound {bound:g})"
    worse = change if spec["better"] == "lower" else -change
    return f"REGRESSION (bound {bound:g})" if worse > bound else ""


def compare(base: List[dict], new: List[dict]) -> List[str]:
    keys = {(r["workload"], r["trace"]) for r in base + new}
    if len(keys) != 1:
        raise SystemExit(f"records mix workloads or trace modes: {sorted(keys)}")
    specs = {m["name"]: m for m in catalog.metrics(trace=bool(base[0]["trace"]))}
    lines = [f"{'metric':<40} {'base':>12} {'spread':>7} {'new':>12} {'change':>8}  unit"]
    for name, metric in base[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in base]
        before = median(values)
        after = median([r["metrics"][name]["value"] for r in new])
        change = (after - before) / before if before else float("nan")
        spread = quartile_spread(values) if len(values) >= 4 else None
        shown = f"{spread:>7.1%}" if spread is not None else f"{'-':>7}"
        flag = verdict(change, spread, specs.get(name))
        lines.append(f"{name:<40} {before:>12.6g} {shown} {after:>12.6g} "
                     f"{change:>+8.1%}  {metric['unit']}" + (f"  {flag}" if flag else ""))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    for side, records in (("base", base), ("new", new)):
        revisions = sorted({r["revision"].get("git_sha", r["revision"]["src_sha256"])
                            for r in records})
        print(f"{side}: {len(records)} record(s), revision {', '.join(revisions)}")
    conflicts = fingerprint_conflicts(base + new)
    for conflict in conflicts:
        print(f"FINGERPRINT MISMATCH {conflict}")
    print("\n".join(compare(base, new)))
    if conflicts:
        print("records come from different machines or toolchains", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
