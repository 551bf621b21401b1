"""Run manifests: what ran, on what, from which configs, for how long.

A manifest is the provenance half of observability: one JSON document per
experiment invocation recording the command, the environment (git revision,
python/numpy versions, platform, CPU count), wall time, and one record per
sweep cell -- including the cell's *config fingerprint*, the same
content-address :func:`repro.experiments.result_cache.cell_key` computes,
so a manifest entry can be matched against cache entries and ``cell_done``
events byte-for-byte.

Manifests round-trip: :func:`read_manifest` restores exactly what
:func:`write_manifest` stored, and the schema test pins the field set.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.obs.scope import Observation

__all__ = [
    "CellRun",
    "MANIFEST_SCHEMA",
    "RunManifest",
    "build_manifest",
    "environment_info",
    "git_revision",
    "read_manifest",
    "write_manifest",
]

#: Bump when the manifest layout changes.
MANIFEST_SCHEMA = "repro-manifest/1"


@dataclass(frozen=True)
class CellRun:
    """One sweep cell as the executor ran (or cache-served) it."""

    #: Content address of the cell's canonical config fingerprint
    #: (``repro.experiments.result_cache.cell_key``).
    key: str
    protocol: str
    n_tags: int
    runs: int
    seed: int
    #: Compute time attributed to the cell: the sum of its chunks' worker
    #: time (CPU-seconds, not wall-clock) -- or the lookup time when cached.
    elapsed_s: float
    cached: bool


@dataclass(frozen=True)
class RunManifest:
    """Provenance of one observed experiment invocation."""

    schema: str
    command: list[str]
    started_unix: float
    wall_time_s: float
    jobs: int
    git_sha: str | None
    repro_version: str
    python_version: str
    numpy_version: str
    platform: str
    cpu_count: int
    cells: list[CellRun] = field(default_factory=list)
    event_count: int = 0

    def to_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["cells"] = [dataclasses.asdict(cell) for cell in self.cells]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "RunManifest":
        cells = [CellRun(**cell) for cell in payload.get("cells", [])]
        fields = {f.name: payload[f.name]
                  for f in dataclasses.fields(cls) if f.name != "cells"}
        return cls(cells=cells, **fields)


def git_revision(root: Path | str | None = None) -> str | None:
    """The checkout's HEAD SHA, or ``None`` outside a git work tree."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(root) if root is not None else None,
            capture_output=True, text=True, timeout=5, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else None


def environment_info() -> dict:
    """Interpreter / library / machine identity for the manifest."""
    import numpy

    import repro

    try:
        import os
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux hosts
        import os
        cpus = os.cpu_count() or 1
    return {
        "repro_version": repro.__version__,
        "python_version": platform.python_version(),
        "numpy_version": numpy.__version__,
        "platform": platform.platform(),
        "cpu_count": cpus,
    }


def build_manifest(observation: "Observation", command: list[str],
                   started_unix: float, jobs: int,
                   wall_time_s: float) -> RunManifest:
    """Assemble the manifest for one observed run.

    ``observation.cells`` supplies the per-cell records the executor
    appended.  ``started_unix`` is a wall-clock timestamp;
    ``wall_time_s`` is the caller's duration on a monotonic clock, so a
    wall-clock step cannot skew it.
    """
    return RunManifest(
        schema=MANIFEST_SCHEMA,
        command=list(command),
        started_unix=started_unix,
        wall_time_s=wall_time_s,
        jobs=jobs,
        git_sha=git_revision(),
        cells=list(observation.cells),
        event_count=len(observation.events),
        **environment_info(),
    )


def write_manifest(path: Path | str, manifest: RunManifest) -> None:
    Path(path).write_text(json.dumps(manifest.to_dict(), indent=2) + "\n",
                          encoding="utf-8")


def read_manifest(path: Path | str) -> RunManifest:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("schema") != MANIFEST_SCHEMA:
        raise ValueError(
            f"unsupported manifest schema {payload.get('schema')!r}")
    return RunManifest.from_dict(payload)
