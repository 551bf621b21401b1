"""The observed FCAT kernel's cost against the unobserved one.

    PYTHONPATH=src python scripts/observed_overhead.py

Times one FCAT session of 52,428 tags -- one zone of a 2^20-tag, 20-zone
facility, at the service's f = 30 and initial estimate N, on a perfect
channel -- at λ = 2, 3 and 4, unobserved and observed (under
``observe()``, as the inventory service runs every cold request; the
events are not read).  The two modes are interleaved, their order
flipping each round, and each keeps its best of 5.  Prints the times and
the observed/unobserved ratio per λ, and exits 1 if any ratio exceeds
``LIMIT``.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.core.fcat import Fcat
from repro.kernels import engine, native
from repro.obs.scope import observe

N_TAGS = 52_428
LAMS = (2, 3, 4)
ROUNDS = 5
LIMIT = 1.25


def _session_seconds(protocol: Fcat, observed: bool) -> float:
    rng = np.random.default_rng(0)
    if observed:
        with observe():
            start = time.perf_counter()
            engine.batch_read_all(protocol, N_TAGS, [rng])
            return time.perf_counter() - start
    start = time.perf_counter()
    engine.batch_read_all(protocol, N_TAGS, [rng])
    return time.perf_counter() - start


def main() -> int:
    walk = "native" if native.library() is not None \
        else f"Python ({native.failure})"
    print(f"FCAT session, N = {N_TAGS}, f = 30, {walk} walk, "
          f"best of {ROUNDS}")
    worst = 0.0
    for lam in LAMS:
        protocol = Fcat(lam=lam, initial_estimate=float(N_TAGS))
        _session_seconds(protocol, True)  # warm-up: build, caches
        best = {False: float("inf"), True: float("inf")}
        for round_index in range(ROUNDS):
            order = (False, True) if round_index % 2 == 0 else (True, False)
            for observed in order:
                best[observed] = min(best[observed],
                                     _session_seconds(protocol, observed))
        ratio = best[True] / best[False]
        worst = max(worst, ratio)
        print(f"λ = {lam}: unobserved {best[False] * 1e3:.2f} ms, "
              f"observed {best[True] * 1e3:.2f} ms, ratio {ratio:.3f}")
    if worst > LIMIT:
        print(f"observed/unobserved {worst:.3f} exceeds {LIMIT}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
