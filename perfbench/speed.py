"""Host-speed calibration for the benchmark's timings.

The benchmark runs on shared hosts whose CPUs change speed by a quarter
or more within seconds to minutes, each CPU on its own.  A fixed
arithmetic loop, timed on the CPU that does the work and interleaved with
it, tracks that drift.  On a 2-vCPU VM, six service-cold runs spread
(IQR over median) 0.26 in throughput and 0.23-0.33 in latency quantiles
as measured, but 0.04 and 0.08-0.10 once each request was scaled by the
loop time sampled around it.  Scaling a whole run by one median loop time
left 0.10-0.19, and a loop timed by a process free to run on the other
CPU did not track at all.

So the server runs pinned to one CPU, a helper pinned to the same CPU
times the loop after every request, and each time the benchmark reports
is scaled to a host on which the loop takes ``REFERENCE_S``: multiplied by
``REFERENCE_S`` over the median of the ``NEAREST`` loop samples closest in
time (:meth:`Calibration.scaled`).  Rates are computed from scaled times.

Run as a script (``python3 perfbench/speed.py CPU``) it is the helper: it
pins itself to ``CPU``, and for each line ``n`` on stdin it times the loop
``n`` times and prints the seconds on one line.  It exits when stdin
closes.
"""

from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
from time import perf_counter

#: Iterations of the calibration loop (about 3 ms on a 2020s x86 core).
LOOP_ITERATIONS = 35_000
#: Seconds the loop takes on the reference host that scaled times refer to.
REFERENCE_S = 0.003
#: Loop samples, closest in time to an operation, that scale it.
NEAREST = 7


def loop_seconds() -> float:
    """Seconds of one pass of the calibration loop on this thread's CPU."""
    started = perf_counter()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i % 7
    return perf_counter() - started


class Calibration:
    """Loop samples from a helper pinned to ``cpu``, with their times.

    Pin the work to ``cpu`` too and call :meth:`sample` between its
    operations.  :meth:`close` stops the helper; call it on every path out.
    """

    def __init__(self, cpu: int) -> None:
        self.cpu = cpu
        #: ``(perf_counter at the sample, loop seconds)``, in time order.
        self.samples: list[tuple[float, float]] = []
        self.helper = subprocess.Popen(
            [sys.executable, __file__, str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def sample(self, count: int = 1) -> None:
        self.helper.stdin.write(f"{count}\n")
        self.helper.stdin.flush()
        line = self.helper.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration helper for CPU {self.cpu} died")
        now = perf_counter()
        self.samples.extend((now, float(value)) for value in line.split())

    def scaled(self, started: float, seconds: float) -> float:
        """``seconds`` of an operation begun at ``started``, as it would
        take on the reference host."""
        at = bisect.bisect_left(self.samples, (started,))
        low = max(0, min(at - NEAREST // 2, len(self.samples) - NEAREST))
        nearest = [loop for _, loop in self.samples[low:low + NEAREST]]
        return seconds * REFERENCE_S / statistics.median(nearest)

    def summary(self) -> str:
        loops = [loop for _, loop in self.samples]
        return (f"  calibration: CPU {self.cpu}, {len(loops)} loop samples, "
                f"median {1000 * statistics.median(loops):.3f} ms "
                f"(reference {1000 * REFERENCE_S:.1f} ms)")

    def close(self) -> None:
        self.helper.stdin.close()
        try:
            self.helper.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.helper.kill()
            self.helper.wait()
        self.helper.stdout.close()


def _helper(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    for line in sys.stdin:
        print(" ".join(repr(loop_seconds()) for _ in range(int(line))),
              flush=True)


if __name__ == "__main__":
    _helper(int(sys.argv[1]))
