"""Text summaries and validation of observability artefacts.

``render_report`` turns a metrics JSONL sink (and optionally a run
manifest) into the short human-readable summary the CLI prints; run as a
module it doubles as the CI validator::

    python -m repro.obs.report metrics.jsonl --manifest manifest.json

Validation is structural and cross-artefact: every JSONL line must parse
and match its :data:`~repro.obs.events.EVENT_SCHEMA` spec (enforced by
:func:`~repro.obs.events.read_jsonl`), and when a manifest is given, the
set of cell config fingerprints it records must equal the set of ``key``
fields carried by the stream's ``cell_done`` events -- the two artefacts
describe the same run or the tool exits non-zero.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.obs.events import Event, read_jsonl
from repro.obs.manifest import RunManifest, read_manifest

__all__ = [
    "cross_check_manifest",
    "main",
    "render_report",
    "summarize",
]


def _metrics_lines(snapshot: dict) -> list[str]:
    lines: list[str] = []
    counters = snapshot.get("counters", {})
    if counters:
        lines.append("counters:")
        for name, value in counters.items():
            rendered = f"{value:g}"
            lines.append(f"  {name:<34} {rendered}")
    gauges = snapshot.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        for name, value in gauges.items():
            lines.append(f"  {name:<34} {value:g}")
    histograms = snapshot.get("histograms", {})
    if histograms:
        lines.append("histograms (count / mean / p50 / p90 / p99):")
        for name, summary in histograms.items():
            lines.append(
                f"  {name:<34} {summary['count']} / {summary['mean']:.4g} / "
                f"{summary['p50']:.4g} / {summary['p90']:.4g} / "
                f"{summary['p99']:.4g}")
    return lines


def summarize(events: list[Event],
              manifest: RunManifest | None = None) -> str:
    """The human-readable digest of one observed run."""
    lines = [f"observability report: {len(events)} events"]
    tally: dict[str, int] = {}
    snapshot: dict | None = None
    for event in events:
        tally[event.name] = tally.get(event.name, 0) + 1
        if event.name == "metrics_snapshot":
            snapshot = event.fields["metrics"]
    lines.append("events by type:")
    for name in sorted(tally):
        lines.append(f"  {name:<34} {tally[name]}")
    cells = [event for event in events if event.name == "cell_done"]
    if cells:
        cached = sum(1 for event in cells if event.fields["cached"])
        busy = sum(event.fields["elapsed_s"] for event in cells)
        lines.append(f"cells: {len(cells)} total, {cached} cache-served, "
                     f"{busy:.2f}s compute attributed")
        for event in cells:
            fields = event.fields
            mark = "cache" if fields["cached"] else f"{fields['runs']} runs"
            lines.append(
                f"  {fields['protocol']:<10} N={fields['n_tags']:<6} "
                f"{fields['elapsed_s']:8.3f}s  ({mark})  "
                f"{fields['key'][:12]}")
    if snapshot is not None:
        lines.extend(_metrics_lines(snapshot))
    if manifest is not None:
        lines.append(
            f"manifest: {' '.join(manifest.command)!r} on "
            f"{manifest.platform} (git {manifest.git_sha or 'unknown'}), "
            f"python {manifest.python_version} / numpy "
            f"{manifest.numpy_version}, jobs={manifest.jobs}, "
            f"wall {manifest.wall_time_s:.2f}s")
    return "\n".join(lines)


def cross_check_manifest(events: list[Event],
                         manifest: RunManifest) -> list[str]:
    """Mismatches between a stream and a manifest (empty = consistent).

    The manifest's per-cell config fingerprints and the stream's
    ``cell_done`` keys must be the same set, and the manifest's event
    count the stream's length.  Both artefacts come from one event stream
    (the manifest's cells are its ``cell_done`` events), so the check
    catches a JSONL file and a manifest that belong to different runs.
    """
    event_keys = {event.fields["key"] for event in events
                  if event.name == "cell_done"}
    manifest_keys = {cell.key for cell in manifest.cells}
    problems: list[str] = []
    for key in sorted(manifest_keys - event_keys):
        problems.append(f"manifest cell {key[:16]}... has no cell_done event")
    for key in sorted(event_keys - manifest_keys):
        problems.append(f"cell_done event {key[:16]}... missing from the "
                        "manifest")
    if manifest.event_count != len(events):
        problems.append(
            f"manifest records {manifest.event_count} events but the "
            f"stream holds {len(events)}")
    return problems


def render_report(jsonl_path: Path | str,
                  manifest_path: Path | str | None = None) -> str:
    """Load, validate and summarize the artefacts of one run."""
    events = read_jsonl(jsonl_path)
    manifest = read_manifest(manifest_path) if manifest_path is not None \
        else None
    return summarize(events, manifest)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Validate and summarize a metrics JSONL sink")
    parser.add_argument("jsonl", type=Path, help="metrics JSONL file")
    parser.add_argument("--manifest", type=Path, default=None,
                        help="run manifest to cross-check against")
    args = parser.parse_args(argv)
    try:
        events = read_jsonl(args.jsonl)
    except (OSError, ValueError) as error:
        print(f"invalid event stream: {error}", file=sys.stderr)
        return 1
    manifest = None
    if args.manifest is not None:
        try:
            manifest = read_manifest(args.manifest)
        except (OSError, ValueError) as error:
            print(f"invalid manifest: {error}", file=sys.stderr)
            return 1
        problems = cross_check_manifest(events, manifest)
        if problems:
            for problem in problems:
                print(f"mismatch: {problem}", file=sys.stderr)
            return 1
    print(summarize(events, manifest))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    raise SystemExit(main())
