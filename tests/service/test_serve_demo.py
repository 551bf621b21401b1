"""``scripts/serve_demo.py``'s warm-during-cold check, against a plant.

CI's service smoke asserts the demo's ``warm_during_cold`` verdict: every
warm reply re-issued while a large cold request computes must arrive
before the cold reply.  The verdict only means something if it turns
false when warm reads do wait behind cold compute, so here the demo
drives a service whose ``serve_stored`` takes the compute lane.
"""

from __future__ import annotations

import asyncio
import importlib.util
from pathlib import Path

from repro.service.core import InventoryService, ServiceConfig

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "serve_demo.py"


def load_demo():
    spec = importlib.util.spec_from_file_location("serve_demo", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _LaneBoundService(InventoryService):
    """A warm path that waits for the compute lane."""

    def serve_stored(self, request):
        with self._lane:
            return super().serve_stored(request)


def test_warm_during_cold_is_false_when_warm_reads_wait_for_the_lane():
    demo = load_demo()
    args = demo.build_parser().parse_args([
        "--n-tags", "2000", "--zones", "8", "--requests", "2",
        "--duplicates", "2"])
    report = asyncio.run(demo.serve_and_drive(
        args, _LaneBoundService(ServiceConfig(jobs=1))))
    assert report["byte_identical"] is True
    large = report["large_request"]
    assert large["probe_s"] >= large["target_s"], large
    assert report["warm_during_cold"] is False, report
