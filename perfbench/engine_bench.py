"""The engine workloads: cold cells, then hot re-requests of them.

A run computes cells (simulation seeds from the workload's pinned
pool) for its ``--seconds``, checking each result's digest against the
pin and auditing the first cell's state after its timed part.  It
stores every result in a private result cache, and after each cell
asks for the cells computed so far again through a fresh
``SweepExecutor`` per request, the warm-cache path of
``repro-experiments run``.

The run is pinned to one CPU.  Every timed part (each set-up build,
each cell, each window of hot requests) is scaled to the reference
machine speed by the speed probes of that CPU taken just before and
after it (``envinfo.Speed``), and the run reports
medians over cells and windows, and a percentile over every hot
request.

With tracing on, every cell runs twice, untraced then traced, so the
tracing overhead is measured on the same cell in the same run.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import time
from pathlib import Path

import envinfo
import layers
import loadgen
from report import PER_LAYER, Outcome
from spans import Tracer, layer_table, write_spans
from workloads import ENGINE_WORKLOADS, load_pins, result_digest, seed_order

#: setup_s is the median of this many simulation builds.
SETUP_BUILDS = 5

#: Hot requests: after each cold cell, one caller asks again for the
#: cells computed so far, each request sent when the previous one is
#: done, for HOT_SHARE of that cell's time; spreading them over the
#: run samples the machine at many moments.  A failed request counts
#: as HOT_LIMIT_S; hot_max_rps is the rate the caller sustains (the
#: median over windows), hot_p50_ms the mean of the windows' medians.
HOT_SHARE = 0.2
HOT_LIMIT_S = 0.025


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload_name: str, seed: int, seconds: float, traced: bool,
        work_dir: Path, out_dir: Path) -> Outcome:
    """One run of an engine workload, on one CPU; spans go to ``out_dir``."""
    cpu = envinfo.bench_cpus()[0]
    with envinfo.pinned({cpu}):
        return _run(workload_name, seed, seconds, traced, work_dir, out_dir, cpu)


def _run(workload_name: str, seed: int, seconds: float, traced: bool,
         work_dir: Path, out_dir: Path, cpu: int) -> Outcome:
    from repro.exec import ResultCache, SweepExecutor
    from repro.exec.cache import config_digest
    from repro.scenarios.builder import Scenario
    from repro.sim.fidelity import simulation_for

    workload = ENGINE_WORKLOADS[workload_name]
    pins = load_pins()[workload_name]
    order = seed_order(seed, workload.seeds)
    outcome = Outcome()
    cache = ResultCache(work_dir / "cache")
    tracer = Tracer() if traced else None
    if traced:
        layers.trace_storage(tracer)

    setup_times, rates, cold_times = [], [], []
    run_walls = {False: [], True: []}
    cell_spans = []

    # Hot requests: a computed cell asked for again, through a fresh
    # executor over the warm cache, by one caller that waits for each
    # answer (a user re-running `repro-experiments run`).  Freezing the
    # benchmark's own heap (the results it keeps for the checks) keeps
    # collector passes over it out of the hot latencies.
    chooser = random.Random(seed)
    specs = []  # (spec, payload) of every computed cell

    def hot_call():
        spec, payload = specs[chooser.randrange(len(specs))]
        return SweepExecutor(cache=cache).run(spec), payload

    def hot_check(answer) -> bool:
        sweep, payload = answer
        return sweep.stats.simulated == 0 and sweep.results[0].to_dict() == payload

    def cold_cell(sim_seed: int, trace_this: bool):
        """Compute, store and check one cell; return its time, the
        time of its ``run()`` and its simulation."""
        config = workload.build(sim_seed)
        started = time.perf_counter()
        sim = simulation_for(config)
        built = time.perf_counter()
        run_call = sim.run
        if trace_this:
            layers.trace_simulation(tracer, sim)
            run_call = tracer.wrap("engine_soa.run", sim.run)
        result = run_call()
        ran = time.perf_counter()
        payload = result.to_dict()
        cache.store(config_digest(config), payload)
        finished = time.perf_counter()
        run_walls[trace_this].append(ran - built)
        if not trace_this:
            specs.append(
                (Scenario.from_config(config).spec(seeds=(config.seed,)), payload)
            )
        else:
            cell_spans.append(finished - started)
        digest = result_digest(payload)
        outcome.operation(
            digest == pins.get(str(sim_seed)),
            f"{workload_name} seed {sim_seed}: result digest {digest} "
            f"!= pinned {pins.get(str(sim_seed))}",
        )
        return finished - started, ran - built, sim

    # Set-up is timed on its own, before any cell runs, so every build
    # starts from the same process state; the first build also pays
    # for lazy imports, which the median leaves out.
    speed = envinfo.Speed([cpu])
    for index in range(SETUP_BUILDS):
        config = workload.build(order[index % len(order)])
        started = time.perf_counter()
        sim = simulation_for(config)
        elapsed = time.perf_counter() - started
        speed.probe()
        setup_times.append(elapsed * speed.factor())
        del sim
        gc.collect()

    windows = []  # (hot samples, speed factor) per window
    deadline = time.perf_counter() + seconds
    index, last = 0, 0.0
    while index == 0 or time.perf_counter() + last * (1 + HOT_SHARE) <= deadline:
        sim_seed = order[index % len(order)]
        last, run_wall, sim = cold_cell(sim_seed, False)
        speed.probe()
        factor = speed.factor()
        rates.append(workload.peer_rounds(sim.config) / (run_wall * factor))
        cold_times.append(last * factor)
        if index == 0:
            # The first cell's audit runs after its timed part and moves
            # the deadline out by its own duration.
            audit_started = time.perf_counter()
            for problem in sim.audit():
                outcome.problems.append(f"{workload_name} seed {sim_seed}: {problem}")
            deadline += time.perf_counter() - audit_started
        del sim
        hot_seconds = last * HOT_SHARE
        if traced:
            last += cold_cell(sim_seed, True)[0]
        gc.collect()
        gc.freeze()
        speed.probe()
        window = loadgen.closed_loop(hot_call, hot_check, hot_seconds)
        speed.probe()
        windows.append((window, speed.factor()))
        gc.unfreeze()
        index += 1

    windows = [(window, factor) for window, factor in windows if window]
    samples = [sample for window, _ in windows for sample in window]
    for sample in samples:
        outcome.operation(sample.ok, f"{workload_name}: hot request failed")
    hot_latencies = [
        latency
        for window, factor in windows
        for latency in loadgen.latencies(window, HOT_LIMIT_S, factor)
    ]
    print(f"[{workload_name}] cells {len(cold_times)} hot {len(samples)} requests")

    outcome.end_to_end = {
        "setup_s": statistics.median(setup_times),
        "peer_rounds_per_s": statistics.median(rates),
        "peak_rss_mib": _peak_rss_mib(),
        "cold_cell_s": statistics.median(cold_times),
        # A hot request runs in one of two modes about 1.3x apart, and
        # which one holds shifts with the host from window to window: a
        # median would flip between the modes, a mean moves with their mix.
        "hot_p50_ms": statistics.mean(
            loadgen.percentile(loadgen.latencies(window, HOT_LIMIT_S, factor), 50)
            for window, factor in windows
        ) * 1e3,
        "hot_p90_ms": loadgen.percentile(hot_latencies, 90) * 1e3,
        "hot_max_rps": statistics.median(
            loadgen.closed_loop_throughput(window) / factor
            for window, factor in windows
        ),
    }
    if traced:
        tracer.unpatch()
        spans = tracer.spans()
        table = layer_table(spans)
        counts = tracer.counts()
        # The service layers are not called here; they read 0.
        metrics = {name: 0.0 for name in PER_LAYER}
        metrics.update(
            layers.engine_layers(spans, table, counts, len(run_walls[True]))
        )
        metrics.update(layers.storage_layers(table, counts))
        metrics.update(
            {
                "trace.overhead": statistics.median(run_walls[True])
                / statistics.median(run_walls[False])
                - 1.0,
                "sim.cell_s": statistics.mean(cell_spans),
                "client.late_s": 0.0,
            }
        )
        outcome.layers = metrics
        write_spans(out_dir / f"spans-{workload_name}.npz", spans)
    return outcome
