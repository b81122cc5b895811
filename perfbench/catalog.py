"""Every metric the benchmark reports, as ``BENCHMARK.json`` declares it.

``BENCHMARK.json`` at the repository root is the one list of metrics: their
names, units, which direction is better and, for end-to-end metrics, the
regression bound.  End-to-end metrics come from untraced runs
(``--trace 0``); per-layer metrics from the traced run (``--trace 1``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

__all__ = ["BENCHMARK", "PHASES", "COVERAGE_MARGIN", "metrics"]

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

#: Phases whose nn and model numbers are reported separately.
PHASES = ("fit", "score", "serve")

#: A traced run fails when the layers' self times in a checked phase sum to
#: less than ``1 - margin`` or more than ``1 + margin`` of the phase's wall time.
COVERAGE_MARGIN = 0.05


def metrics(trace: bool) -> List[Dict[str, object]]:
    """The ``per_layer`` (traced) or ``end_to_end`` entries of ``BENCHMARK.json``."""
    spec = json.loads(BENCHMARK.read_text())
    return spec["per_layer" if trace else "end_to_end"]
