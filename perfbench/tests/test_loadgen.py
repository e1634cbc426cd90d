"""Open- and closed-loop generation and latency percentiles."""

import threading
import time

import pytest

import loadgen
from loadgen import Sample


class SimulatedServer:
    """A single-threaded server answering each request in fixed time.

    Its clock is simulated, so it is driven by one sender.
    """

    def __init__(self, service_time):
        self.now = 0.0
        self.service_time = service_time

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds

    def call(self):
        self.now += self.service_time
        return True

    def stream(self, rate, count):
        return loadgen.open_loop(
            self.call, rate, count, clock=self.clock, sleep=self.sleep, senders=1
        )


def test_failed_requests_count_as_missing_the_limit():
    samples = [Sample(0, 0, 0.001, True)] * 98 + [Sample(0, 0, 0.001, False)] * 2
    values = loadgen.latencies(samples, limit=0.05)
    assert loadgen.percentile(values, 50) == pytest.approx(0.001)
    assert loadgen.percentile(values, 99) == pytest.approx(0.05)
    # A miss never reads faster than an answered request.
    slow = [Sample(0, 0, 0.08, True), Sample(0, 0, 0.001, False)]
    assert loadgen.latencies(slow, limit=0.05) == pytest.approx([0.08, 0.08])


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert loadgen.percentile(values, 50) == 50
    assert loadgen.percentile(values, 99) == 99
    assert loadgen.percentile(values, 100) == 100
    assert loadgen.percentile([3.0], 99) == 3.0


def test_closed_loop_waits_for_each_answer():
    server = SimulatedServer(service_time=0.004)
    samples = loadgen.closed_loop(server.call, bool, 1.0, clock=server.clock)
    assert len(samples) == 250
    assert all(sample.late == 0 for sample in samples)
    assert samples[1].sent == pytest.approx(samples[0].done)


def test_open_loop_times_latency_from_the_due_time():
    server = SimulatedServer(service_time=0.004)  # 250 requests/s
    below = server.stream(rate=200, count=400)
    assert all(sample.late == 0 for sample in below)
    assert below[-1].latency == pytest.approx(0.004)
    # Above capacity the requests queue, and latency, timed from when
    # each was due, climbs steadily.
    above = SimulatedServer(service_time=0.004).stream(rate=300, count=400)
    assert above[-1].latency > 10 * above[0].latency


def overlapping_call(in_flight, most, lock):
    def call():
        with lock:
            in_flight[0] += 1
            most[0] = max(most[0], in_flight[0])
        time.sleep(0.02)
        with lock:
            in_flight[0] -= 1
        return True

    return call


def test_two_open_loop_senders_overlap_requests():
    # 20 ms per request: one sender manages 50/s, two manage 100/s.
    in_flight, most = [0], [0]
    call = overlapping_call(in_flight, most, threading.Lock())
    samples = loadgen.open_loop(call, 75, 60, senders=2)
    assert most[0] == 2
    assert [sample.due for sample in samples] == sorted(s.due for s in samples)
    assert max(sample.late for sample in samples) < 0.02
    late = loadgen.open_loop(call, 75, 60, senders=1)
    assert late[-1].late > 0.1


def test_two_closed_loop_senders_double_the_throughput():
    in_flight, most = [0], [0]
    call = overlapping_call(in_flight, most, threading.Lock())
    one = loadgen.closed_loop_throughput(loadgen.closed_loop(call, bool, 0.4))
    two = loadgen.closed_loop_throughput(loadgen.closed_loop(call, bool, 0.4, senders=2))
    assert most[0] == 2
    assert 40 < one < 52 and 80 < two < 102


def test_closed_loop_throughput_counts_only_correct_answers():
    samples = [Sample(i * 0.01, i * 0.01, (i + 1) * 0.01, i % 4 != 0) for i in range(100)]
    assert loadgen.closed_loop_throughput(samples) == pytest.approx(75.0)
    assert loadgen.closed_loop_throughput([]) == 0.0


def test_latencies_scale():
    samples = [Sample(0, 0, 0.002, True), Sample(0, 0, 0.004, False)]
    assert loadgen.latencies(samples, 0.025, scale=0.5) == pytest.approx([0.001, 0.025])
    assert loadgen.latencies(samples[:1], 0.025, scale=2.0) == pytest.approx([0.004])
