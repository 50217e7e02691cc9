"""Machine-speed normalization of measured times.

The benchmark's reference machine is a 2-CPU virtual machine on a
shared host.  For seconds at a time its CPUs run up to 1.8x slower, and
a 20-second run's wall time swings by 10-40% from one run to the next.
A fixed arithmetic loop, the *probe*, slows by the same factor as the
program: timed inside the measured processes, between pieces of their
work, it says how fast the machine ran at each moment.

:class:`ProbeLog` writes those samples, one file per process (forked
workers and shards included).  :class:`Speed` turns them into a clock
that runs at the reference machine's undisturbed speed: each stretch of
wall time is scaled by :data:`REFERENCE_PROBE_S` over the probe's
running median around it.  A measured interval read on that clock is
the time it would have taken on the undisturbed machine; the raw wall
times stay in each result's details.

The probe reads the machine's speed only in busy processes.  Where
they idle between short requests, as under an open loop well below
capacity, scaling adds more run-to-run spread than it removes, so times
measured there are left raw.

A program change that slows its own code is measured in full, because
the probe's code never changes.  A change that takes CPU from the probe
itself, such as a busy background thread in a measured process, would
bias the clock; read the raw times beside the scaled ones then.
"""

from __future__ import annotations

import bisect
import math
import os
import time
from pathlib import Path
from typing import Iterable, List, Sequence, Tuple

#: Iterations of the probe loop (about 20 microseconds undisturbed).
PROBE_LOOPS = 400

#: Timings per sample; the fastest counts, which drops interrupts.
PROBE_REPEATS = 3

#: Least work time between two samples of one process, seconds.
PROBE_INTERVAL = 0.01

#: One sample's probe time on the reference machine at its undisturbed
#: speed (about the 5th percentile of busy-process samples).  A fixed
#: constant: it sets the unit of every scaled time.
REFERENCE_PROBE_S = 20.0e-6

#: Half-width, in seconds, of the running median of the probe.
SMOOTHING_S = 0.25


def probe() -> float:
    """Seconds of the fixed loop, fastest of :data:`PROBE_REPEATS`.

    The loop allocates nothing the garbage collector tracks, so the
    measured program's heap cannot start a collection inside it.
    """
    best = math.inf
    for _ in range(PROBE_REPEATS):
        started = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i % 7
        best = min(best, time.perf_counter() - started)
    return best


class ProbeLog:
    """Appends probe samples and unit intervals to ``probe-<pid>.txt``.

    Fork-safe: a forked child opens its own file on its first write.
    Files are line-buffered, so a worker that ends with ``os._exit``
    loses nothing.  Lines are ``p TIME PROBE_SECONDS`` and ``u START
    END``, times from ``time.perf_counter`` (the system-wide monotonic
    clock on Linux, so every process's times compare).
    """

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self._pid = None
        self._sink = None
        self._last = -math.inf
        #: when the unit in progress started (set by the start wrapper)
        self.unit_start = None

    def _file(self):
        if os.getpid() != self._pid:
            self._pid = os.getpid()
            self.directory.mkdir(parents=True, exist_ok=True)
            self._sink = open(self.directory / f"probe-{self._pid}.txt", "a",
                              buffering=1)
            self._last = -math.inf
        return self._sink

    def sample(self, force: bool = False) -> None:
        """Time the probe, unless this process sampled within the interval."""
        now = time.perf_counter()
        if force or os.getpid() != self._pid or now - self._last >= PROBE_INTERVAL:
            self._file().write(f"p {now:.6f} {probe():.9f}\n")
            self._last = time.perf_counter()

    def unit(self, start: float, end: float) -> None:
        self._file().write(f"u {start:.6f} {end:.6f}\n")

    def close(self) -> None:
        if self._sink is not None and self._pid == os.getpid():
            self._sink.close()
        self._sink, self._pid = None, None


def read_logs(directory: Path) -> Tuple[List[Tuple[float, float]],
                                        List[Tuple[float, float]]]:
    """(probe samples, unit intervals) from every process's file."""
    samples, units = [], []
    for path in sorted(Path(directory).glob("probe-*.txt")):
        for line in path.read_text().splitlines():
            kind, first, second = line.split()
            target = samples if kind == "p" else units
            target.append((float(first), float(second)))
    return samples, units


class Speed:
    """A clock at the reference machine's undisturbed speed.

    The scale factor is :data:`REFERENCE_PROBE_S` over the running
    median (within :data:`SMOOTHING_S`) of the probe samples.  It holds
    from halfway to the previous sample to halfway to the next, and the
    first and last samples' factors extend to either side.
    """

    def __init__(self, samples: Iterable[Tuple[float, float]]) -> None:
        ordered = sorted(samples)
        if not ordered:
            raise ValueError("no probe samples: the measured processes "
                             "never ran the probe")
        times = [t for t, _ in ordered]
        probes = [p for _, p in ordered]
        self._factors: List[float] = []
        lo = hi = 0
        for t in times:
            while times[lo] < t - SMOOTHING_S:
                lo += 1
            while hi < len(times) and times[hi] <= t + SMOOTHING_S:
                hi += 1
            window = sorted(probes[lo:hi])
            self._factors.append(REFERENCE_PROBE_S / window[len(window) // 2])
        #: boundaries between the samples' stretches, and the scaled
        #: time elapsed from the first boundary to each of them
        self._edges = [(a + b) / 2 for a, b in zip(times, times[1:])]
        self._clock = [0.0]
        for i in range(1, len(self._edges)):
            self._clock.append(self._clock[-1] + self._factors[i]
                               * (self._edges[i] - self._edges[i - 1]))

    @classmethod
    def load(cls, directory: Path) -> "Speed":
        return cls(read_logs(directory)[0])

    def factor(self, t: float) -> float:
        """Reference seconds per wall second at time ``t``."""
        return self._factors[bisect.bisect_right(self._edges, t)]

    def clock(self, t: float) -> float:
        """Scaled seconds from an arbitrary origin to wall time ``t``."""
        i = bisect.bisect_right(self._edges, t)
        if i == 0:
            return (t - self._edges[0] if self._edges else t) * self._factors[0]
        return self._clock[i - 1] + (t - self._edges[i - 1]) * self._factors[i]

    def scaled(self, start: float, end: float) -> float:
        """Seconds the interval would have taken on the undisturbed machine."""
        return self.clock(end) - self.clock(start)

    def scaled_all(self, intervals: Sequence[Tuple[float, float]]) -> List[float]:
        return [self.scaled(start, end) for start, end in intervals]

