"""Recompute the result digests the benchmark checks against.

Engine workloads pin the SHA-256 of each cell's canonical
``SimulationResult.to_dict()``; the service workload pins the SHA-256
of what a serial ``SweepExecutor`` run of each submitted spec yields,
``canonical_json([result.to_dict(), ...])``, which the service's result
endpoint must return byte for byte.  Run after a change that is meant
to alter trajectories, from the root of a checkout::

    python3 perfbench/pin.py
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import (  # noqa: E402
    COLD_PAYLOAD,
    COLD_SEEDS,
    ENGINE_WORKLOADS,
    HOT_PAYLOAD,
    HOT_SEEDS,
    PINS_PATH,
    payload_with_seed,
    result_digest,
    sha256,
)


def serial_digest(payload) -> str:
    from repro.exec import SweepExecutor
    from repro.exec.cache import canonical_json
    from repro.scenarios.wire import spec_from_payload

    sweep = SweepExecutor().run(spec_from_payload(payload))
    body = canonical_json([result.to_dict() for result in sweep.results])
    return sha256(body.encode("utf-8"))


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    from repro.sim.engine import run_simulation

    pins = {
        name: {
            str(seed): result_digest(run_simulation(workload.build(seed)).to_dict())
            for seed in workload.seeds
        }
        for name, workload in ENGINE_WORKLOADS.items()
    }
    pins["service-mixed/hot"] = {
        str(seed): serial_digest(payload_with_seed(HOT_PAYLOAD, seed))
        for seed in HOT_SEEDS
    }
    pins["service-mixed/cold"] = {
        str(seed): serial_digest(payload_with_seed(COLD_PAYLOAD, seed))
        for seed in COLD_SEEDS
    }
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
