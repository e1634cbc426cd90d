"""The environment fingerprint printed with every run, and the speed
probe that scales the run's times to a reference machine speed.

Two sets of runs on the same code can differ because the machine
drifted; the fingerprint, and above all the time of a fixed pure-Python
calibration loop, shows such drift beside the numbers.

The machine the benchmark was built on (a VM sharing its host) changes
speed by up to 1.5x within seconds and drifts further over minutes, for
the simulator and for a plain Python loop alike.  So a run times a
short version of that loop (the probe) between its timed parts, on the
CPU each part is pinned to, and :class:`Speed` scales each part's times
by how much slower than REFERENCE_PROBE_S the probes on either side of
it ran.  The times a
run reports are thus those of a machine on which the probe takes
REFERENCE_PROBE_S; the probe is the benchmark's own code, so a change
to the program moves them and a change of the machine's speed much
less.
"""

from __future__ import annotations

import contextlib
import os
import platform
import time
from typing import Dict

CALIBRATION_ITERATIONS = 2_000_000

#: The speed probe: the calibration loop at this many iterations (about
#: 30 ms), and the probe time that reported times are scaled to (about
#: the probe's time on the machine the benchmark was built on).
PROBE_ITERATIONS = 300_000
REFERENCE_PROBE_S = 0.025


def calibration_seconds(iterations: int = CALIBRATION_ITERATIONS) -> float:
    """Time of a fixed integer loop; the best of three runs."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        value = 0
        for index in range(iterations):
            value = (value * 31 + index) & 0xFFFF
        best = min(best, time.perf_counter() - started)
    return best


@contextlib.contextmanager
def pinned(cpus):
    """Run the calling thread (and threads it starts) on ``cpus`` only."""
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, set(cpus))
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


def probe_seconds(cpu: int) -> float:
    """The speed probe, run on ``cpu`` by the calling thread."""
    with pinned({cpu}):
        return calibration_seconds(PROBE_ITERATIONS)


def bench_cpus():
    """Two CPUs the run may use (one, twice, on a one-CPU machine)."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[0], cpus[-1]


class Speed:
    """Speed probes of ``cpus`` between the timed parts of a run.

    The two CPUs of the machine the benchmark was built on change speed
    independently of each other, so a timed part is pinned to CPUs and
    scaled by the probes of those.  Take a probe (of every CPU in
    ``cpus``) just before a timed part (the constructor takes the
    first) and one just after it; :meth:`factor` then scales a time
    measured in between to the reference speed (a rate is divided by
    it).  Probe only while nothing else of the benchmark runs.
    """

    def __init__(self, cpus, probe=probe_seconds):
        self.cpus = tuple(dict.fromkeys(cpus))
        self._probe = probe
        self.probes = []
        self.probe()

    def probe(self) -> None:
        self.probes.append({cpu: self._probe(cpu) for cpu in self.cpus})

    def factor(self, cpus=None) -> float:
        """The factor for the part between the last two probes, from the
        probes of ``cpus`` (all probed CPUs by default)."""
        cpus = tuple(dict.fromkeys(cpus)) if cpus else self.cpus
        before, after = self.probes[-2], self.probes[-1]
        mean = sum(before[cpu] + after[cpu] for cpu in cpus) / (2 * len(cpus))
        return REFERENCE_PROBE_S / mean


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as stream:
            for line in stream:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint() -> Dict[str, object]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "calibration_s": round(calibration_seconds(), 6),
    }
