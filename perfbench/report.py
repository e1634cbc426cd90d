"""What one run of a workload found, and the result line it prints.

The metrics and their units are the ones ``BENCHMARK.json`` lists.
Every workload reports every metric: a layer a workload never calls
reads 0 in the traced run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

_SPEC = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text(encoding="utf-8")
)
END_TO_END = {metric["name"]: metric["unit"] for metric in _SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in _SPEC["per_layer"]}


@dataclass
class Outcome:
    """Operations attempted and failed, check problems, and metrics."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)

    def operation(self, ok: bool, problem: str = "") -> None:
        """Count one operation; a failed one records ``problem``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if problem:
                self.problems.append(problem)


def result_line(outcome: Outcome, traced: bool) -> str:
    """The run's final JSON line: every metric of the requested kind."""
    catalog = PER_LAYER if traced else END_TO_END
    values = outcome.layers if traced else outcome.end_to_end
    missing = sorted(set(catalog) - set(values))
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return json.dumps(
        {
            "correct": outcome.failed == 0 and not outcome.problems,
            "attempted": max(outcome.attempted, 1),
            "failed": outcome.failed,
            "metrics": {
                name: {"value": float(values[name]), "unit": unit}
                for name, unit in catalog.items()
            },
        }
    )
