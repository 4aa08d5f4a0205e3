"""Write BENCHMARK.json at the repository root from the metric tables and
the workload registry, so the file and the code cannot drift apart.

    python3 perfbench/manifest.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_SECONDS = 25


def manifest() -> dict:
    from perfbench.metrics import END_TO_END, PER_LAYER, tail_fraction
    from perfbench.workloads import WORKLOADS

    workloads = []
    for w in WORKLOADS.values():
        items = w.items_per_pass * w.passes(RUN_SECONDS)
        pct = round(100 * tail_fraction(items))
        workloads.append(
            {
                "name": w.name,
                "why": f"{w.purpose}; {items} items a run, tail p{pct}",
            }
        )
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
