"""Which public calls of the program each layer's spans wrap.

Engine layers are wrapped on one simulation's instances before its
``run()``; service, executor and cache layers on their classes (and the
distributed backend's cell function on its module), for as long as the
tracer stays patched.
"""

from __future__ import annotations

from typing import Dict

from spans import Tracer, child_total

#: SoaSimulation handler -> span name; run() dispatches every event to one.
ENGINE_HANDLERS = {
    "_process_toggle_batch": "engine_soa.toggle",
    "_handle_check": "engine_soa.check",
    "_spawn_peer": "engine_soa.join",
    "_handle_death": "engine_soa.death",
    "_handle_sample": "engine_soa.sample",
    "_handle_top_up": "engine_soa.top_up",
}


def trace_simulation(tracer: Tracer, sim) -> None:
    """Wrap one simulation's queue, handlers, strategy and metrics.

    The wrappers shadow bound methods on this simulation's own objects
    and are never undone: the simulation is dropped after its run.
    """

    def patch(owner, attribute, name):
        setattr(owner, attribute, tracer.wrap(name, getattr(owner, attribute)))

    queue = sim.queue
    patch(queue, "pop_until", "events.pop_until")
    pop_round_batch = queue.pop_round_batch

    def counted_batch():
        ids = pop_round_batch()
        tracer.count("events.toggle_ids", len(ids))
        return ids

    queue.pop_round_batch = tracer.wrap("events.pop_round_batch", counted_batch)
    for attribute, name in ENGINE_HANDLERS.items():
        patch(sim, attribute, name)
    patch(sim.strategy, "select_pairs", "selection.select_pairs")

    metrics = sim.metrics
    record_pool = metrics.record_pool
    record_repair = metrics.record_repair
    record_starved = metrics.record_starved

    def counted_pool(examined, accepted):
        tracer.count("metrics.pool_examined", examined)
        tracer.count("metrics.pool_accepted", accepted)
        return record_pool(examined, accepted)

    def counted_repair(*args, **kwargs):
        tracer.count("metrics.repairs")
        return record_repair(*args, **kwargs)

    def counted_starved():
        tracer.count("metrics.starved")
        return record_starved()

    metrics.record_pool = counted_pool
    metrics.record_repair = counted_repair
    metrics.record_starved = counted_starved


def trace_storage(tracer: Tracer) -> None:
    """Wrap the executor and the result cache, counting cache hits."""
    from repro.exec.cache import ResultCache
    from repro.exec.executor import SweepExecutor

    tracer.patch(SweepExecutor, "run", "exec.run")
    tracer.patch(ResultCache, "store", "cache.store")
    load = ResultCache.load

    def counted_load(cache, digest):
        payload = load(cache, digest)
        if payload is not None:
            tracer.count("cache.hits")
        return payload

    tracer.replace(ResultCache, "load", tracer.wrap("cache.load", counted_load))


def trace_service(tracer: Tracer) -> None:
    """Wrap the sweep service, its cells, the executor and the cache."""
    from repro.exec import distributed
    from repro.service.server import SweepService

    tracer.patch(SweepService, "submit", "service.submit")
    tracer.patch(SweepService, "result_bytes", "service.result")
    tracer.patch(distributed, "_execute_cell", "sim.cell")
    trace_storage(tracer)


def _per(value: float, count: float) -> float:
    return value / count if count else 0.0


def engine_layers(spans, table, counts, cells: int) -> Dict[str, float]:
    """Per-cell engine metrics from the spans of ``cells`` traced runs."""

    def total(name: str) -> float:
        return table.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> int:
        return table.get(name, {}).get("calls", 0)

    run_s = total("engine_soa.run")
    examined = counts["metrics.pool_examined"]
    repairs = counts["metrics.repairs"]
    metrics = {
        "engine_soa.run_s": run_s,
        "engine_soa.check_s": total("engine_soa.check"),
        "engine_soa.check_self_s": table.get("engine_soa.check", {}).get(
            "self_s", 0.0
        ),
        "selection.select_pairs_s": total("selection.select_pairs"),
        "events.pop_s": total("events.pop_until") + total("events.pop_round_batch"),
        "events.pops": calls("events.pop_until") + calls("events.pop_round_batch"),
        "events.toggle_ids": counts["events.toggle_ids"],
        "metrics.pool_examined": examined,
        "metrics.pool_accepted": counts["metrics.pool_accepted"],
        "metrics.repairs": repairs,
        "metrics.starved": counts["metrics.starved"],
    }
    for name in ENGINE_HANDLERS.values():
        metrics[name + "_s"] = total(name)
    metrics = {name: _per(value, cells) for name, value in metrics.items()}
    metrics["metrics.accept_ratio"] = _per(counts["metrics.pool_accepted"], examined)
    metrics["metrics.useful_repair_ratio"] = _per(
        repairs, repairs + counts["metrics.starved"]
    )
    metrics["trace.coverage"] = _per(child_total(spans, "engine_soa.run"), run_s)
    return metrics


def storage_layers(table: Dict[str, Dict[str, float]], counts) -> Dict[str, float]:
    """Per-call executor, cache and service metrics from a layer table."""

    def mean(name: str) -> float:
        entry = table.get(name, {})
        return _per(entry.get("total_s", 0.0), entry.get("calls", 0))

    loads = table.get("cache.load", {}).get("calls", 0)
    return {
        "exec.run_s": mean("exec.run"),
        "cache.store_s": mean("cache.store"),
        "cache.stores": table.get("cache.store", {}).get("calls", 0),
        "cache.load_s": mean("cache.load"),
        "cache.loads": loads,
        "cache.hit_ratio": _per(counts.get("cache.hits", 0), loads),
        "service.submit_s": mean("service.submit"),
        "service.result_s": mean("service.result"),
    }
