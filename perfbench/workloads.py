"""The benchmark's workloads: their configurations, seed pools and pins.

Every input a run uses is a pure function of the run's ``--seed``: it
picks the order in which a workload's pinned simulation seeds are run
(:func:`seed_order`), so each cell's result can be checked against the
digest pinned for that workload and seed in ``pins.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Sequence

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: Offered by the service workload's hot stream: a tiny cell computed
#: once (cold) and then asked for again and again (hot).
HOT_PAYLOAD = {"scenario": "paper", "population": 60, "rounds": 300}
HOT_SEEDS = (0, 1, 2, 3)

#: The cold cells of the service workload: the `paper` cell at the
#: wire-default `abstract` fidelity, at a quarter of the default scale
#: (800 peers x 14 000 rounds) so that a run holds about twenty of them.
COLD_PAYLOAD = {"scenario": "paper", "population": 400, "rounds": 7_000}
COLD_SEEDS = tuple(range(24))


@dataclass(frozen=True)
class EngineWorkload:
    """One engine workload: a config per simulation seed, and its pool."""

    name: str
    build: Callable[[int], object]
    seeds: Sequence[int]

    def peer_rounds(self, config) -> int:
        return config.population * config.rounds


def _paper_default(seed: int):
    from repro.scenarios.wire import spec_from_payload

    spec = spec_from_payload(
        {
            "scenario": "paper",
            "scale": "default",
            "fidelity": "abstract_soa",
            "seeds": [seed],
        }
    )
    return spec.cells()[0].config


ENGINE_WORKLOADS: Dict[str, EngineWorkload] = {
    workload.name: workload
    for workload in (
        EngineWorkload("paper-default", _paper_default, tuple(range(12))),
    )
}

SERVICE_WORKLOAD = "service-mixed"

WORKLOAD_NAMES = tuple(ENGINE_WORKLOADS) + (SERVICE_WORKLOAD,)


def seed_order(run_seed: int, pool: Sequence[int]) -> List[int]:
    """The pool's seeds in the order run ``run_seed`` uses them."""
    order = list(pool)
    random.Random(run_seed).shuffle(order)
    return order


def payload_with_seed(payload: Dict[str, object], seed: int) -> Dict[str, object]:
    return dict(payload, seeds=[seed])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def result_digest(payload: Dict[str, object]) -> str:
    """Digest of one result's canonical ``to_dict`` form."""
    from repro.exec.cache import canonical_json

    return sha256(canonical_json(payload).encode("utf-8"))


def load_pins(path: Path = PINS_PATH) -> Dict[str, Dict[str, str]]:
    """``{workload or "service-mixed/hot"|"/cold": {seed: digest}}``."""
    return json.loads(path.read_text(encoding="utf-8"))
