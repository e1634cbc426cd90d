"""Span recording and self-time arithmetic."""

import numpy as np
import pytest

from spans import Tracer, child_total, layer_table, self_times


def test_self_time_of_nested_spans():
    # 0: root [0, 10] with children 1 [1, 3] and 2 [5, 9]; 3 nests
    # inside 1; 4 is a second root with no children.
    starts = np.array([0.0, 1.0, 5.0, 1.5, 20.0])
    ends = np.array([10.0, 3.0, 9.0, 2.0, 21.0])
    parents = np.array([-1, 0, 0, 1, -1])
    own = self_times(starts, ends, parents)
    assert own == pytest.approx([4.0, 1.5, 4.0, 0.5, 1.0])


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_tracer_records_parents_and_self_time_of_wrapped_calls():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 2.0

    traced_leaf = tracer.wrap("leaf", leaf)

    def outer():
        clock.now += 1.0
        traced_leaf()
        traced_leaf()
        clock.now += 3.0

    tracer.wrap("outer", outer)()
    spans = tracer.spans()
    table = layer_table(spans)
    assert table["outer"] == {"calls": 1, "total_s": 8.0, "self_s": 4.0}
    assert table["leaf"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}
    assert child_total(spans, "outer") == 4.0
    assert child_total(spans, "leaf") == 0.0


def test_patch_is_undone_and_counts_sum():
    class Service:
        def work(self, value):
            return value * 2

    tracer = Tracer()
    service = Service()
    tracer.patch(Service, "work", "service.work")
    tracer.count("hits", 3)
    assert service.work(4) == 8
    tracer.unpatch()
    assert "work" in vars(Service) and not hasattr(Service.work, "__wrapped__")
    assert tracer.counts()["hits"] == 3
    assert layer_table(tracer.spans())["service.work"]["calls"] == 1


def test_a_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def fail():
        clock.now += 1.0
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("fail", fail)()
    assert layer_table(tracer.spans())["fail"]["total_s"] == 1.0
