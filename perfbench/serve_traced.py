"""Run the sweep service with spans around its layers, then write them.

Installs the same wrappers as the in-process benchmark (service,
distributed cell execution, executor, result cache) before calling
``repro.service.server.serve``; when the server stops (SIGINT), writes
the spans to ``<trace-out>.npz`` and a per-layer summary, with the
durations of every cell and executor run in start order, to
``<trace-out>.json``.

    PYTHONPATH=src python3 perfbench/serve_traced.py --trace-out OUT \\
        --cache-dir DIR [--port 0] [--service-workers 1] \\
        [--quota-capacity N] [--quota-refill N]
"""

from __future__ import annotations

import argparse
import json
import sys

import layers
from spans import Tracer, child_total, layer_table, write_spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--service-workers", type=int, default=1)
    parser.add_argument("--quota-capacity", type=float, required=True)
    parser.add_argument("--quota-refill", type=float, required=True)
    args = parser.parse_args(argv)

    from repro.service.server import serve

    tracer = Tracer()
    layers.trace_service(tracer)
    try:
        code = serve(
            cache_dir=args.cache_dir,
            port=args.port,
            workers=args.service_workers,
            quota_capacity=args.quota_capacity,
            quota_refill=args.quota_refill,
        )
    finally:
        tracer.unpatch()
    spans = tracer.spans()
    table = layer_table(spans)
    run_total = table.get("exec.run", {}).get("total_s", 0.0)
    labels = list(spans["labels"])
    order = spans["starts"].argsort(kind="stable")
    durations = {}
    for name in ("sim.cell", "exec.run"):
        if name in labels:
            mask = spans["names"][order] == labels.index(name)
            picked = order[mask]
            durations[name] = (spans["ends"][picked] - spans["starts"][picked]).tolist()
    summary = {
        "durations": durations,
        "table": table,
        "counts": dict(tracer.counts()),
        "coverage": child_total(spans, "exec.run") / run_total if run_total else 0.0,
    }
    write_spans(args.trace_out + ".npz", spans)
    with open(args.trace_out + ".json", "w", encoding="utf-8") as stream:
        json.dump(summary, stream)
    return code


if __name__ == "__main__":
    sys.exit(main())
