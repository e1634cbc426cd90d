"""Run one benchmark workload and print its metrics as a JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-default --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` measures the per-layer metrics from spans recorded around
calls into each layer (written to ``.perfbench-out/spans-*.npz``).
The last line of standard output is the result object; the lines
before it are the environment fingerprint and a progress note.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import envinfo
    from report import result_line
    from workloads import ENGINE_WORKLOADS, WORKLOAD_NAMES

    if args.workload not in WORKLOAD_NAMES:
        print(
            f"unknown workload {args.workload!r}; one of {WORKLOAD_NAMES}",
            file=sys.stderr,
        )
        return 2
    fingerprint = envinfo.fingerprint()
    print(json.dumps({"fingerprint": fingerprint}))
    out_dir = ROOT / ".perfbench-out"
    work_dir = out_dir / f"work-{args.workload}-{args.seed}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    traced = bool(args.trace)
    try:
        if args.workload in ENGINE_WORKLOADS:
            import engine_bench

            outcome = engine_bench.run(
                args.workload, args.seed, args.seconds, traced, work_dir, out_dir
            )
        else:
            import service_bench

            outcome = service_bench.run(
                args.seed, args.seconds, traced, work_dir, out_dir
            )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if traced:
        outcome.layers["env.calibration_s"] = fingerprint["calibration_s"]
    for problem in outcome.problems[:20]:
        print(f"check failed: {problem}")
    print(result_line(outcome, traced))
    return 0


if __name__ == "__main__":
    sys.exit(main())
