"""What every workload shares: the failure tally and latency quantiles."""

from __future__ import annotations

import statistics
import threading


class Tally:
    """Operations attempted and failed; the first few failures described."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._lock = threading.Lock()

    def check(self, ok: bool, what: str) -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(what)
        return ok


def quantile_ms(values: list[float], q: float) -> float:
    """The ``q`` quantile (0 < q < 1) in milliseconds, inclusive method."""
    if len(values) < 2:
        return 1000.0 * values[0]
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    return 1000.0 * cuts[round(q * 1000) - 1]
