"""The benchmark's one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: ``service-cold`` and
``service-mixed`` (see ``perfbench/README.md``).  With
``--trace 0`` it prints every end-to-end metric of ``BENCHMARK.json``;
with ``--trace 1`` the per-layer ledger and every per-layer metric.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Scratch files live under ``.perfbench/`` and
are removed before exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("service-cold", "service-mixed")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # A terminated run still stops its server and calibration helper via
    # ``finally``.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, str(ROOT / "src"))
    import service_load
    from common import Tally

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    scratch = ROOT / ".perfbench"
    workdir = scratch / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    tally = Tally()
    try:
        metrics = service_load.run_workload(
            ROOT, workdir, args.workload, args.seed, args.seconds,
            args.trace, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still owns a directory there
    kind = "per_layer" if args.trace else "end_to_end"
    report = {}
    for metric in spec[kind]:
        value = float(metrics[metric["name"]])
        report[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:<28} {value:14.4f} {metric['unit']}")
    print(f"  {'error_rate':<28} {tally.failed / max(tally.attempted, 1):14.4f}"
          f" fraction ({tally.failed} of {tally.attempted} operations)")
    for failure in tally.failures:
        print(f"  FAILED: {failure}")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": report}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
