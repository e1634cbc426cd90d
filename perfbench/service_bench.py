"""The service workload: hot requests beside cold cells, over HTTP.

One benchmark process drives a ``repro-experiments serve
--service-workers 1`` process on a fresh cache directory through
``repro.service.client.ServiceClient`` (a new connection per request)
from at most two threads:

1. set-up: the server is booted several times; set-up time is boot to
   the first answered request;
2. warm-up: the hot cells (tiny ``paper`` cells) are computed once;
3. mixed segments: ``paper`` cells, one after another, each submitted
   by the second thread when the previous one is done, while the first
   thread sends hot requests (each a ``POST /jobs`` of a computed cell
   plus ``GET /jobs/<id>/result``) at a fixed rate;
4. idle saturation, a short window after each cell: hot requests sent
   back to back by both threads, so two requests are always in flight
   and the server answers as many as it can.

Every timed part (a boot, a cold cell and the hot requests beside it,
a saturation window) is scaled to the reference machine speed by the
speed probes taken just before and after it (``envinfo.Speed``), while
the server is idle and the benchmark runs nothing else.

Every result is checked: hot bodies against the cell's cold body and its
pin, cold bodies against the digest of a serial ``SweepExecutor`` run of
the same spec.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import envinfo
import loadgen
from repro.service.client import ServiceClient, ServiceError
from report import PER_LAYER, Outcome
from workloads import (
    COLD_PAYLOAD,
    COLD_SEEDS,
    HOT_PAYLOAD,
    HOT_SEEDS,
    load_pins,
    payload_with_seed,
    seed_order,
    sha256,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: setup_s is the median of this many server boots.
SETUP_BOOTS = 5
BOOT_TIMEOUT_S = 60.0

#: Token-bucket flags: well above any rate the client can offer, so a
#: refused request is a defect, not the load.
QUOTA = 10_000.0

#: Hot requests: a failed one counts as missing this limit.
HOT_LIMIT_S = 0.025

#: Idle saturation: a window this long after each cold cell;
#: hot_max_rps is the median window's rate.  Spread over the run, the
#: windows outvote a phase of the host that slows a few of them.
SATURATION_WINDOW_S = 0.6

#: Mixed segments: the fixed hot rate (requests/s; about a tenth of
#: the server's time while a cell computes), and how often the second
#: thread polls a cold job.
MIXED_RATE = 20.0
COLD_POLL_S = 0.05
JOB_TIMEOUT_S = 120.0

#: Population x rounds of one cold cell.
COLD_PEER_ROUNDS = COLD_PAYLOAD["population"] * COLD_PAYLOAD["rounds"]

#: Hot requests per server in the traced run's overhead comparison.
OVERHEAD_REQUESTS = 100
OVERHEAD_RATE = 50.0


class Server:
    """One sweep-service process on ``cpu``, plain or traced, and a client of it."""

    def __init__(self, work_dir: Path, name: str, cpu: int, trace_out: Optional[Path] = None):
        self.cpu = cpu
        self.cache_dir = work_dir / f"cache-{name}"
        self.stdout_path = work_dir / f"{name}.out"
        self.stderr_path = work_dir / f"{name}.err"
        self.trace_out = trace_out
        self.process: Optional[subprocess.Popen] = None
        self.client: Optional[ServiceClient] = None

    def start(self) -> float:
        """Boot; return seconds from spawn to the first answered request."""
        flags = [
            "--cache-dir", str(self.cache_dir),
            "--port", "0",
            "--service-workers", "1",
            "--quota-capacity", str(QUOTA),
            "--quota-refill", str(QUOTA),
        ]
        if self.trace_out is None:
            command = [sys.executable, "-m", "repro.experiments.runner", "serve"]
        else:
            command = [
                sys.executable, str(HERE / "serve_traced.py"),
                "--trace-out", str(self.trace_out),
            ]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        started = time.perf_counter()
        with open(self.stdout_path, "w") as out, open(self.stderr_path, "w") as err:
            self.process = subprocess.Popen(
                command + flags, cwd=ROOT, env=env, stdout=out, stderr=err,
                preexec_fn=lambda: os.sched_setaffinity(0, {self.cpu}),
            )
        deadline = started + BOOT_TIMEOUT_S
        while self.client is None:
            match = re.search(r"http://[\d.:]+", self.stdout_path.read_text())
            if match:
                # No connect retry inside the client: the loop below
                # polls at a finer grain than the client's backoff.
                self.client = ServiceClient(
                    match.group(0), client_id="bench", timeout=60,
                    connect_retry_seconds=0,
                )
            elif self.process.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(
                    f"server did not start: {self.stderr_path.read_text()[-2000:]}"
                )
            else:
                time.sleep(0.002)
        while True:
            try:
                self.client.metrics()
                return time.perf_counter() - started
            except OSError:
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.002)

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="utf-8") as stream:
            for line in stream:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in the server's /proc status")

    def stop(self) -> None:
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process = None


def _warm_hot(client: ServiceClient, outcome: Outcome, pins: Dict[str, str]) -> Dict[int, Tuple[Dict, bytes]]:
    """Compute every hot cell once; return seed -> (payload, body).

    A cell that fails keeps an empty body, so every hot request for it
    fails its check too.
    """
    cells = {}
    for seed in HOT_SEEDS:
        payload = payload_with_seed(HOT_PAYLOAD, seed)
        try:
            job = client.submit_and_wait(
                payload, timeout=JOB_TIMEOUT_S, poll_interval=COLD_POLL_S
            )
            body = client.raw_result(job["job_id"])
            problem = f"hot cell seed {seed}: digest {sha256(body)}"
        except (ServiceError, OSError) as error:
            body, problem = b"", f"hot cell seed {seed}: {error}"
        outcome.operation(sha256(body) == pins.get(str(seed)), problem)
        cells[seed] = (payload, body)
    return cells


def _hot_check(value) -> bool:
    body, expected = value
    return body == expected


def run(seed: int, seconds: float, traced: bool, work_dir: Path, out_dir: Path) -> Outcome:
    """One run: the server on one CPU, this process on the other."""
    server_cpu, client_cpu = envinfo.bench_cpus()
    with envinfo.pinned({client_cpu}):
        return _run(seed, seconds, traced, work_dir, out_dir, server_cpu, client_cpu)


def _run(seed: int, seconds: float, traced: bool, work_dir: Path, out_dir: Path,
         server_cpu: int, client_cpu: int) -> Outcome:
    # The servers stop on SIGINT.  A process started as a background job
    # ignores SIGINT, and its children inherit that; a handler of this
    # process's own is reset to the default across exec, so they do not.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    pins = load_pins()
    outcome = Outcome()
    chooser = random.Random(seed)
    speed = envinfo.Speed([server_cpu, client_cpu])

    def boot(server: Server) -> float:
        seconds = server.start()
        speed.probe()
        return seconds * speed.factor([server_cpu])

    boots: List[float] = []
    plain_p50 = None
    for index in range(SETUP_BOOTS - 1):
        server = Server(work_dir, f"boot{index}", server_cpu)
        try:
            boots.append(boot(server))
            if traced and index == 0:
                cells = _warm_hot(server.client, outcome, pins["service-mixed/hot"])
                plain_p50 = _overhead_probe(server.client, cells, chooser, outcome)
        finally:
            server.stop()
        speed.probe()

    trace_out = out_dir / "spans-service-mixed" if traced else None
    server = Server(work_dir, "main", server_cpu, trace_out)
    try:
        boots.append(boot(server))
        client = server.client
        cells = _warm_hot(client, outcome, pins["service-mixed/hot"])
        traced_p50 = (
            _overhead_probe(client, cells, chooser, outcome) if traced else None
        )
        call = _hot_request_stream(client, cells, chooser)
        deadline = time.perf_counter() + seconds
        saturation = []

        def saturate():
            window = loadgen.closed_loop(
                call, _hot_check, SATURATION_WINDOW_S, senders=loadgen.SENDERS
            )
            speed.probe()
            saturation.append(loadgen.closed_loop_throughput(window) / speed.factor())
            for sample in window:
                outcome.operation(sample.ok, "hot request failed or mismatched")

        speed.probe()
        mixed, cold = _mixed_phase(
            client, call, seed_order(seed, COLD_SEEDS), deadline, speed,
            server_cpu, saturate, pins["service-mixed/cold"], outcome,
        )
        for sample, _ in mixed:
            outcome.operation(sample.ok, "hot request failed or mismatched")
        try:
            counters = client.metrics()["requests"]
            outcome.operation(True)
        except (ServiceError, OSError) as error:
            counters = {}
            outcome.operation(False, f"/metrics: {error}")
        peak_rss = server.peak_rss_mib()
    finally:
        server.stop()

    hot_latencies = [latency for _, latency in mixed]
    cold_times = [entry["seconds"] for entry in cold]
    print(
        f"[service-mixed] boots {[round(b, 3) for b in boots]} "
        f"saturation {[round(r) for r in saturation]} "
        f"mixed {len(mixed)} hot requests beside {len(cold)} cold cells "
        f"{[round(t, 2) for t in cold_times]}"
    )
    outcome.end_to_end = {
        "setup_s": statistics.median(boots),
        "peer_rounds_per_s": COLD_PEER_ROUNDS / statistics.median(cold_times),
        "peak_rss_mib": peak_rss,
        "cold_cell_s": statistics.median(cold_times),
        "hot_p50_ms": loadgen.percentile(hot_latencies, 50) * 1e3,
        "hot_p90_ms": loadgen.percentile(hot_latencies, 90) * 1e3,
        "hot_max_rps": statistics.median(saturation),
    }
    if traced:
        outcome.layers = _service_layers(
            trace_out, counters, cold, mixed, traced_p50 / plain_p50 - 1.0
        )
    return outcome


def _hot_request_stream(client: ServiceClient, cells, chooser: random.Random):
    """A call that sends one hot request for a randomly chosen hot cell.

    A non-2xx reply raises, which the load generator counts as failed.
    """
    seeds = sorted(cells)

    def call():
        payload, expected = cells[seeds[chooser.randrange(len(seeds))]]
        job = client.submit(payload)
        return client.raw_result(job["job_id"]), expected

    return call


def _overhead_probe(client: ServiceClient, cells, chooser, outcome: Outcome) -> float:
    """Median latency of a short fixed-rate hot stream."""
    samples = loadgen.open_loop(
        _hot_request_stream(client, cells, chooser),
        OVERHEAD_RATE, OVERHEAD_REQUESTS, _hot_check,
    )
    for sample in samples:
        outcome.operation(sample.ok, "hot request failed or mismatched")
    return loadgen.percentile(loadgen.latencies(samples, HOT_LIMIT_S), 50)


def _mixed_phase(client: ServiceClient, call, cold_seeds, deadline: float,
                 speed: envinfo.Speed, server_cpu: int, saturate,
                 pins: Dict[str, str], outcome: Outcome):
    """Cold cells one after another until ``deadline`` (at least one,
    at most one per seed), each with hot requests at MIXED_RATE beside
    it from the first thread, and followed by ``saturate()``.

    Returns (sample, scaled latency) of every hot request and one entry
    per cold cell with its submit-to-done time, scaled by the probes of
    the server's CPU (the hot latencies by those of both CPUs).
    """
    mixed: List[Tuple[loadgen.Sample, float]] = []
    cold: List[Dict] = []
    for cold_seed in cold_seeds:
        if cold and time.perf_counter() + SATURATION_WINDOW_S + statistics.median(
            entry["raw_seconds"] for entry in cold
        ) > deadline:
            break
        done = threading.Event()
        errors: List[str] = []
        entry = {"seed": cold_seed, "payload": payload_with_seed(COLD_PAYLOAD, cold_seed)}

        def cold_worker():
            try:
                submitted = time.perf_counter()
                job = client.submit_and_wait(
                    entry["payload"], timeout=JOB_TIMEOUT_S, poll_interval=COLD_POLL_S
                )
                entry["raw_seconds"] = time.perf_counter() - submitted
                entry["job"] = job
            except Exception as error:  # noqa: BLE001 — reported as a failure
                errors.append(f"cold worker: {type(error).__name__}: {error}")
            finally:
                done.set()

        # The probe after the previous part is this part's first one.
        worker = threading.Thread(target=cold_worker, name="cold-cell")
        worker.start()
        try:
            samples = loadgen.open_loop(
                call, MIXED_RATE, 10**9, _hot_check, stop=done.is_set, senders=1
            )
        finally:
            worker.join()
        speed.probe()
        if samples:
            scaled = loadgen.latencies(samples, HOT_LIMIT_S, speed.factor())
            mixed.extend(zip(samples, scaled))
        if errors:
            for message in errors:
                outcome.operation(False, message)
            break
        entry["seconds"] = entry["raw_seconds"] * speed.factor([server_cpu])
        cold.append(entry)
        saturate()
    for entry in cold:
        try:
            entry["body"] = client.raw_result(entry["job"]["job_id"])
        except (ServiceError, OSError) as error:
            entry["body"] = b""
            outcome.operation(False, f"cold cell seed {entry['seed']}: {error}")
        outcome.operation(
            sha256(entry["body"]) == pins.get(str(entry["seed"])),
            f"cold cell seed {entry['seed']}: digest {sha256(entry['body'])} "
            f"!= pinned {pins.get(str(entry['seed']))}",
        )
        # The same cell asked for again is served hot, byte-identical.
        try:
            job = client.submit(entry["payload"])
            same = client.raw_result(job["job_id"]) == entry["body"]
        except (ServiceError, OSError):
            same = False
        outcome.operation(same, f"cold cell seed {entry['seed']}: hot re-request differs")
    return mixed, cold


def _service_layers(trace_out: Path, counters, cold, mixed, overhead: float) -> Dict[str, float]:
    import layers

    summary = json.loads(Path(str(trace_out) + ".json").read_text())
    table, counts = summary["table"], summary["counts"]
    # The engine layers run inside the server's cells but are not
    # wrapped there; they read 0 on this workload.
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(layers.storage_layers(table, counts))
    # The first cells the server computes are the hot cells' warm-up;
    # the cold cells follow.
    cold_cells = summary["durations"].get("sim.cell", [])[len(HOT_SEEDS):]
    cold_runs = summary["durations"].get("exec.run", [])[len(HOT_SEEDS):]
    waits = []
    for entry in cold:
        job = entry["job"]
        leased = [at for state, at in job.get("history", []) if state == "leased"]
        if leased:
            waits.append(leased[0] - job["submitted_at"])
    metrics.update(
        {
            "trace.coverage": summary["coverage"],
            "trace.overhead": overhead,
            "sim.cell_s": statistics.mean(cold_cells) if cold_cells else 0.0,
            "exec.run_s": statistics.mean(cold_runs) if cold_runs else 0.0,
            "service.requests": counters.get("total", 0),
            "service.rejected": counters.get("throttled", 0),
            "service.queue_wait_s": statistics.mean(waits) if waits else 0.0,
            "client.late_s": statistics.mean(sample.late for sample, _ in mixed),
        }
    )
    return metrics
