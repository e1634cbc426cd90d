"""Open- and closed-loop request generation and latency percentiles.

An open loop sends request ``i`` when it falls due, at ``start + i /
rate``, whether or not earlier requests have finished: a pool of sender
threads takes requests in due order, so up to ``senders`` requests are
in flight and a request waits past its due time only while every sender
is busy.  Latency is timed from when a request was *due*, so a stall
also charges the wait it imposes on later requests, and the
generator's lateness (send time minus due time) is kept.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence


#: How close to a request's due time the generator stops sleeping and
#: spins instead.
SPIN_S = 0.001

#: Sender threads of an open loop: ``nproc`` on the machine the
#: benchmark was built on.
SENDERS = 2

def precise_sleep(seconds: float) -> None:
    """Sleep to within SPIN_S of the deadline, then spin.

    A timer that wakes late would otherwise show as server latency.
    """
    deadline = time.perf_counter() + seconds
    if seconds > SPIN_S:
        time.sleep(seconds - SPIN_S)
    while time.perf_counter() < deadline:
        pass


@dataclass(frozen=True)
class Sample:
    """One request: when it was due, sent and done, and whether it passed."""

    due: float
    sent: float
    done: float
    ok: bool

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


def open_loop(
    call: Callable[[], object],
    rate: float,
    count: int,
    check: Callable[[object], bool] = bool,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = precise_sleep,
    stop: Optional[Callable[[], bool]] = None,
    senders: int = SENDERS,
) -> List[Sample]:
    """Send ``count`` requests at ``rate`` per second from ``senders`` threads.

    Each sender takes the next request not yet taken, waits until it
    is due and sends it.  A request is ok when ``check`` accepts what
    ``call`` returned; the check runs after the request's done time is
    taken.  ``stop`` ends the stream early once it returns true (asked
    before each request).  A ``call`` or ``check`` that raises counts
    as a failed request.  Samples come back in due order.
    """
    interval = 1.0 / rate
    start = clock()
    samples: List[Sample] = []
    indices = itertools.count()
    lock = threading.Lock()

    def send() -> None:
        while True:
            with lock:
                index = next(indices)
            if index >= count or (stop is not None and stop()):
                return
            due = start + index * interval
            now = clock()
            if now < due:
                sleep(due - now)
            sent = clock()
            try:
                value = call()
                done = clock()
                ok = bool(check(value))
            except Exception:  # noqa: BLE001 — a failed request, not a crash
                done = clock()
                ok = False
            samples.append(Sample(due, sent, done, ok))

    others = [threading.Thread(target=send) for _ in range(senders - 1)]
    for thread in others:
        thread.start()
    try:
        send()
    finally:
        for thread in others:
            thread.join()
    samples.sort(key=lambda sample: sample.due)
    return samples


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latencies(samples: Sequence[Sample], limit: float, scale: float = 1.0) -> List[float]:
    """Latencies times ``scale``; a failed request counts as missing the
    limit, as the larger of ``limit`` and the slowest answered request."""
    observed = [sample.latency * scale for sample in samples if sample.ok]
    miss = max([limit] + observed)
    return [sample.latency * scale if sample.ok else miss for sample in samples]


def closed_loop(
    call: Callable[[], object],
    check: Callable[[object], bool],
    seconds: float,
    clock: Callable[[], float] = time.perf_counter,
    senders: int = 1,
) -> List[Sample]:
    """``senders`` callers, each sending a request when its previous one
    is done, for ``seconds``; samples come back in send order."""
    samples: List[Sample] = []
    deadline = clock() + seconds

    def send() -> None:
        while True:
            sent = clock()
            if sent >= deadline:
                return
            try:
                value = call()
                done = clock()
                ok = bool(check(value))
            except Exception:  # noqa: BLE001 — a failed request, not a crash
                done = clock()
                ok = False
            samples.append(Sample(sent, sent, done, ok))

    others = [threading.Thread(target=send) for _ in range(senders - 1)]
    for thread in others:
        thread.start()
    try:
        send()
    finally:
        for thread in others:
            thread.join()
    samples.sort(key=lambda sample: sample.sent)
    return samples


def closed_loop_throughput(samples: Sequence[Sample]) -> float:
    """Requests answered correctly per second of a closed loop, from its
    first send to its last answer."""
    if not samples:
        return 0.0
    busy = max(sample.done for sample in samples) - samples[0].sent
    return sum(1 for sample in samples if sample.ok) / busy if busy else 0.0
