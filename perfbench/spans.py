"""In-memory span recording around calls into the simulator's layers.

The tracer never edits the program: it replaces a callable (a bound
method on one instance, or a function on a class or module) with a
wrapper that records ``(name, start, end, parent)`` for every call.
Spans live in per-thread compact arrays, so the worker and request
threads of the sweep service record without a lock, and each span's
parent is the innermost traced call open on the same thread.

A layer's *self time* is its spans' duration minus their child spans'
durations (:func:`self_times`).
"""

from __future__ import annotations

import threading
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Tuple

import numpy as np


class _Buffer:
    """One thread's spans and counters."""

    __slots__ = ("names", "starts", "ends", "parents", "stack", "counts")

    def __init__(self) -> None:
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.stack: List[int] = []
        self.counts: Counter = Counter()


class Tracer:
    """Records spans and counts at layer boundaries, per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._local = threading.local()
        self._buffers: List[_Buffer] = []
        self._lock = threading.Lock()
        self._restore: List[Tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------
    def _buffer(self) -> _Buffer:
        try:
            return self._local.buffer
        except AttributeError:
            buffer = _Buffer()
            self._local.buffer = buffer
            with self._lock:
                self._buffers.append(buffer)
            return buffer

    def _name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._ids:
                self._ids[name] = len(self._names)
                self._names.append(name)
            return self._ids[name]

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to a counter of the calling thread."""
        self._buffer().counts[name] += amount

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that every call records one span."""
        name_id = self._name_id(name)
        clock = self._clock
        buffer_for = self._buffer

        def traced(*args, **kwargs):
            start = clock()
            buffer = buffer_for()
            stack = buffer.stack
            index = len(buffer.starts)
            buffer.names.append(name_id)
            buffer.parents.append(stack[-1] if stack else -1)
            buffer.starts.append(start)
            buffer.ends.append(start)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                buffer.ends[index] = clock()

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: object, attribute: str, name: str) -> None:
        """Trace ``owner.attribute`` until :meth:`unpatch`.

        ``owner`` is an instance (the wrapper shadows the bound method
        on that object only), a class or a module.
        """
        self.replace(owner, attribute, self.wrap(name, getattr(owner, attribute)))

    def replace(self, owner: object, attribute: str, replacement: object) -> None:
        """Set ``owner.attribute`` to ``replacement`` until :meth:`unpatch`."""
        had_own = attribute in vars(owner)
        original = vars(owner).get(attribute)
        setattr(owner, attribute, replacement)
        self._restore.append((owner, attribute, original, had_own))

    def unpatch(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._restore:
            owner, attribute, original, had_own = self._restore.pop()
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    # ------------------------------------------------------------------
    def spans(self) -> Dict[str, np.ndarray]:
        """Every recorded span as columns; parents index the same columns."""
        names, starts, ends, parents = [], [], [], []
        offset = 0
        with self._lock:
            buffers = list(self._buffers)
            labels = list(self._names)
        for buffer in buffers:
            # Slicing copies, so no view pins a buffer that its thread
            # may still append to.
            size = len(buffer.starts)
            own = np.frombuffer(buffer.parents[:size], dtype=np.int64)
            names.append(np.frombuffer(buffer.names[:size], dtype=np.int32))
            starts.append(np.frombuffer(buffer.starts[:size], dtype=np.float64))
            ends.append(np.frombuffer(buffer.ends[:size], dtype=np.float64))
            parents.append(np.where(own >= 0, own + offset, -1))
            offset += size

        def joined(parts, dtype):
            return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)

        return {
            "labels": np.array(labels, dtype=object),
            "names": joined(names, np.int32),
            "starts": joined(starts, np.float64),
            "ends": joined(ends, np.float64),
            "parents": joined(parents, np.int64),
        }

    def counts(self) -> Counter:
        """Counters summed over threads."""
        total: Counter = Counter()
        with self._lock:
            buffers = list(self._buffers)
        for buffer in buffers:
            total.update(buffer.counts)
        return total


def self_times(
    starts: np.ndarray, ends: np.ndarray, parents: np.ndarray
) -> np.ndarray:
    """Each span's duration minus its children's durations.

    A span's parent is the innermost traced call still open on the same
    thread, so its children run one after another inside it.
    """
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    parents = np.asarray(parents, dtype=np.int64)
    duration = ends - starts
    result = duration.copy()
    child = np.nonzero(parents >= 0)[0]
    np.subtract.at(result, parents[child], duration[child])
    return result


def layer_table(spans: Dict[str, np.ndarray]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``total_s`` and ``self_s``."""
    names = spans["names"]
    duration = spans["ends"] - spans["starts"]
    own = self_times(spans["starts"], spans["ends"], spans["parents"])
    table = {}
    for name_id, label in enumerate(spans["labels"]):
        mask = names == name_id
        table[str(label)] = {
            "calls": int(mask.sum()),
            "total_s": float(duration[mask].sum()),
            "self_s": float(own[mask].sum()),
        }
    return table


def child_total(spans: Dict[str, np.ndarray], parent_label: str) -> float:
    """Summed duration of spans whose parent is a ``parent_label`` span."""
    labels = list(spans["labels"])
    if parent_label not in labels:
        return 0.0
    parents = spans["parents"]
    has_parent = parents >= 0
    mask = np.zeros(parents.shape, dtype=bool)
    mask[has_parent] = spans["names"][parents[has_parent]] == labels.index(
        parent_label
    )
    return float((spans["ends"][mask] - spans["starts"][mask]).sum())


def write_spans(path, spans: Dict[str, np.ndarray]) -> None:
    """Write spans as an ``.npz`` of columns (labels as strings)."""
    np.savez(
        path,
        labels=np.array([str(label) for label in spans["labels"]]),
        names=spans["names"],
        starts=spans["starts"],
        ends=spans["ends"],
        parents=spans["parents"],
    )
