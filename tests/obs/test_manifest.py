"""Run manifests: round-trip, environment fields, config fingerprints."""

from __future__ import annotations

import dataclasses
import subprocess

import pytest

from repro.core.fcat import Fcat
from repro.experiments.executor import CellSpec, execute_cells
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    CellRun,
    build_manifest,
    environment_info,
    git_revision,
    read_manifest,
    write_manifest,
)
from repro.obs.scope import Observation, observe


def _manifest(cells=()):
    observation = Observation()
    for cell in cells:
        observation.emit("cell_done", **dataclasses.asdict(cell))
    return build_manifest(observation, command=["repro-experiments", "x"],
                          started_unix=1.0, jobs=2, wall_time_s=3.5)


def test_round_trip(tmp_path):
    cell = CellRun(key="f" * 64, protocol="FCAT-2", n_tags=100, runs=2,
                   seed=7, elapsed_s=0.25, cached=False)
    manifest = _manifest([cell])
    path = tmp_path / "manifest.json"
    write_manifest(path, manifest)
    assert read_manifest(path) == manifest


def test_schema_and_environment_fields():
    manifest = _manifest()
    assert manifest.schema == MANIFEST_SCHEMA
    assert manifest.jobs == 2 and manifest.wall_time_s == 3.5
    info = environment_info()
    assert manifest.python_version == info["python_version"]
    assert manifest.numpy_version == info["numpy_version"]
    assert manifest.cpu_count >= 1


def test_read_rejects_foreign_schema(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text('{"schema": "other/9"}')
    with pytest.raises(ValueError, match="unsupported manifest schema"):
        read_manifest(path)


def test_git_revision_in_this_checkout_is_a_sha():
    sha = git_revision()
    assert sha is None or (len(sha) == 40
                           and all(c in "0123456789abcdef" for c in sha))


def test_git_is_asked_once_per_process(monkeypatch):
    """Two manifests, one ``git rev-parse``: the revision is memoised."""
    calls = []
    run = subprocess.run

    def counting_run(*args, **kwargs):
        calls.append(args)
        return run(*args, **kwargs)

    git_revision.cache_clear()
    monkeypatch.setattr(subprocess, "run", counting_run)
    first, second = _manifest(), _manifest()
    assert len(calls) == 1
    assert first.git_sha == second.git_sha == git_revision()


def test_cell_fingerprint_matches_the_cache_content_address():
    """The manifest's per-cell key is exactly ``CellSpec.key()`` -- the same
    content address the result cache stores under, so manifests, cache
    entries and cell_done events all cross-reference."""
    spec = CellSpec(protocol=Fcat(lam=2), n_tags=60, runs=2, seed=11)
    with observe() as observation:
        execute_cells([spec])
    (cell,) = build_manifest(observation, command=[], started_unix=0.0,
                             jobs=1, wall_time_s=0.0).cells
    assert cell.key == spec.key()
    assert cell.protocol == "FCAT-2" and cell.cached is False
    (done,) = [e for e in observation.events.events
               if e.name == "cell_done"]
    assert done.fields["key"] == spec.key()
