"""Host-speed reference for the benchmark's wall-time metrics.

The benchmark runs on shared machines whose speed drifts: on the 2-vCPU
machine the bounds were set on, identical work took up to 1.5 times
longer from one minute to the next, and up to twice as long from one
second to the next.  So each measured operation (a query, a slice of
stream processing) runs between two timings of a fixed reference loop,
and its wall time is scaled by ``REFERENCE_S`` over the mean of those
two loop times.  The scaled time is what the operation would take on a
host on which the loop takes ``REFERENCE_S``.  The loop is benchmark
code; no change to the program touches it, so an operation the program
makes slower is slower in full after scaling.
"""

from __future__ import annotations

import random
import resource
from array import array
from time import perf_counter

#: Nominal reference-loop time: about its typical time between the
#: workloads' operations on the machine the bounds were set on.
REFERENCE_S = 0.0033

#: The loop reads ``PROBES`` random entries of a 64 MB array.  The
#: program's wall time is bound by memory as much as by the interpreter,
#: and of the loops tried (dict tables of 12 MB and 46 MB, this array)
#: this one followed the program's speed changes most closely.
ENTRIES = 8_000_000
PROBES = 10_000

#: Unmeasured work longer than this since the last loop timing (for
#: instance between the warm-up and the timed phase) makes the next
#: measurement time the loop again before it starts.
STALE_S = 0.05


class HostSpeed:
    def __init__(self) -> None:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.table = array("q", [0]) * ENTRIES
        self.order = random.Random(0).sample(range(ENTRIES), PROBES)
        #: How far the reference raised the peak resident memory.  It is
        #: made before the workload builds anything and stays resident,
        #: so the process's peak is the program's peak plus this.
        self.peak_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         - peak_kib)
        self.loop_s: list[float] = []
        #: Wall seconds spent in the loop, to take out of phase totals.
        self.spent_s = 0.0
        self._last_end = float("-inf")

    def loop(self) -> float:
        start = perf_counter()
        total = 0
        table = self.table
        for index in self.order:
            total += table[index]
        self._last_end = perf_counter()
        elapsed = self._last_end - start
        self.loop_s.append(elapsed)
        self.spent_s += elapsed
        return elapsed

    def measure(self, operation, *args):
        """Run ``operation(*args)``; return its result, its wall seconds
        and its wall seconds scaled to the nominal host speed.  An
        exception from the operation propagates."""
        if perf_counter() - self._last_end > STALE_S:
            self.loop()
        before = self.loop_s[-1]
        start = perf_counter()
        result = operation(*args)
        wall_s = perf_counter() - start
        after = self.loop()
        return result, wall_s, wall_s * REFERENCE_S / ((before + after) / 2)
