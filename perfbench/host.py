"""Host-speed record: a fixed pure-Python reference loop, the clock that
scales measured time by it, and machine info.

On a shared host the speed of the CPU drifts by tens of percent, within a
second and between minutes, and the drift moves the reference loop and
cdiag alike.  Timings of the loop a tenth of a second apart are correlated
0.7, three seconds apart 0.2.  So the benchmark runs the loop between
commands whenever CADENCE_S of command time has passed, and scales each
stretch of command time by the loops at its two ends, to a host on which
the loop takes ``REFERENCE_S``.

How much a slow phase slows a piece of code depends on what the code does,
and which kind of code suffers most changed from one hour to the next.  So
the loop mixes three kinds that cdiag's hot paths are made of.  Measured on
the host the benchmark was defined on, over 20-second windows, the spread
of median pass times was 34% unscaled on finset-oracle and 30% on
segal-level2; scaled by the mixed loop, 8% and 7%.  Scaled by any one part
alone, one of the two workloads spread by 8% to 11%.
"""

import os
import platform
import statistics
from time import perf_counter

# Seconds the reference loop takes, median, on the host the benchmark was
# defined on (Intel Xeon, 2 vCPUs, Python 3.11.7).  Scaled times are
# seconds on a host of that speed.
REFERENCE_S = 0.025

# A stretch of command time ends at the first command boundary after this
# many seconds.
CADENCE_S = 0.3


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop of three parts: integer
    arithmetic, a walk over a dict of tuple keys, and
    the closure of two permutations of six points, four times over."""
    t0 = perf_counter()
    acc = 0
    for i in range(100_000):
        acc = (acc * 31 + i) % 1_000_003
    n = 20_000
    step = {}
    for i in range(n):
        step[i, i & 7] = (i * 7919 + 13) % n
    k = 0
    for _ in range(n):
        k = step[k, k & 7]
    gens = [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)]
    for _ in range(4):
        index = {gens[0]: 0}
        frontier = [gens[0]]
        while frontier:
            new = []
            for x in frontier:
                for g in gens:
                    y = tuple(x[v] for v in g)
                    if y not in index:
                        index[y] = len(index)
                        new.append(y)
            frontier = new
    return perf_counter() - t0


class ScaledClock:
    """Sums measured seconds in stretches that end in a reference loop and
    scales each stretch to the reference host."""

    def __init__(self):
        for _ in range(2):   # the first loops of a process run slower
            reference_loop()
        self.refs = [reference_loop()]
        self._stretch = 0.0
        self._scaled = 0.0

    def add(self, seconds: float) -> None:
        self._stretch += seconds

    def checkpoint(self) -> None:
        """End the stretch if it has run for CADENCE_S.  Call between
        measurements, never inside one."""
        if self._stretch >= CADENCE_S:
            self._close()

    def take(self) -> float:
        """Scaled seconds since the last take."""
        self._close()
        out, self._scaled = self._scaled, 0.0
        return out

    def _close(self) -> None:
        ref = reference_loop()
        self._scaled += scaled(self._stretch, self.refs[-1], ref)
        self._stretch = 0.0
        self.refs.append(ref)


def scaled(seconds: float, before: float, after: float) -> float:
    """Seconds measured between reference loops that took ``before`` and
    ``after`` seconds, as seconds on the reference host."""
    return seconds * 2 * REFERENCE_S / (before + after)


def host_info(refs) -> dict:
    import numpy
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu,
            "reference_loop_s": {"median": statistics.median(refs), "min": min(refs),
                                 "max": max(refs), "n": len(refs)}}
