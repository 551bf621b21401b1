"""Content-addressed cache for sweep cell results.

Paper-scale reproduction re-derives identical (protocol, N) cells on every
invocation -- Tables I-III share rosters, service requests share zone
cells, and a ``--paper-scale --runs 100`` rerun after an unrelated doc edit
repeats hours of simulation.  Every cell is a pure function of its spec, so
its :class:`~repro.sim.result.AggregateResult` can be served by content
address instead.

The key is a SHA-256 over a *canonical fingerprint* of the spec: protocol
class + config fields, ``n_tags``, ``runs``, ``seed``, channel knobs and
timing constants, all rendered to sorted-key JSON.  The store is one JSON
file, ``.repro-results-cache.json`` (git-ignored), invalidated as a whole
by its *signature*: schema version, ``repro.__version__`` and a digest of
the simulator source tree -- so editing any protocol, channel or codec
never replays stale numbers.  Corrupt or unreadable files are treated as
empty: the cache can only ever make a run faster, never wrong.

Schema 2 adds **partial-batch entries**: per-run
:class:`~repro.sim.result.RunMetrics` vectors keyed by the run-seed range
``[start, stop)`` under a *range base key* (the cell fingerprint minus
``runs``).  The adaptive sweep planner stores each batch it simulates here,
a warm planner run resumes from the cached prefix, and a later fixed-budget
run reassembles full cells from planner batches -- bit-identically, because
run ``i``'s metrics are a pure function of the cell config and the ``i``-th
``SeedSequence`` child, whoever computed them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from repro.air.timing import TimingModel
from repro.obs import scope
from repro.sim.base import TagReadingProtocol
from repro.sim.channel import ChannelModel
from repro.sim.result import AggregateResult, RunMetrics

#: Bump when the fingerprint layout or the stored-result shape changes.
#: 2: partial-batch run-range entries (the adaptive planner's substrate).
RESULT_CACHE_SCHEMA = 2

DEFAULT_RESULT_CACHE_NAME = ".repro-results-cache.json"

#: Subpackages whose source feeds the cache signature: everything a cell
#: result can depend on.  ``devtools`` (the linter) and ``report``
#: (rendering) cannot change an ``AggregateResult``, so they are excluded
#: and editing them keeps the cache warm.
_SIGNATURE_EXCLUDED_PACKAGES = ("devtools", "report")

_source_digest_memo: str | None = None


def _iter_signature_sources() -> list[Path]:
    package_root = Path(__file__).resolve().parent.parent
    paths = []
    # C sources too: the native FCAT walk computes cell results.
    for path in sorted([*package_root.rglob("*.py"),
                        *package_root.rglob("*.c")]):
        relative = path.relative_to(package_root)
        if relative.parts and relative.parts[0] in _SIGNATURE_EXCLUDED_PACKAGES:
            continue
        if "__pycache__" in relative.parts:
            continue
        paths.append(path)
    return paths


def package_signature() -> str:
    """Digest of the simulator's version plus its source tree.

    Any edit to the packages that can influence a cell result -- protocols,
    channel, codecs, the runner's seed derivation -- changes this signature
    and therefore empties the cache.  Computed once per process.
    """
    global _source_digest_memo
    if _source_digest_memo is None:
        import repro
        digest = hashlib.sha256()
        digest.update(f"{RESULT_CACHE_SCHEMA}|{repro.__version__}|".encode())
        for path in _iter_signature_sources():
            digest.update(str(path.name).encode())
            digest.update(path.read_bytes())
        _source_digest_memo = digest.hexdigest()
    return _source_digest_memo


def canonical_fingerprint(value: object) -> object:
    """Reduce ``value`` to a JSON-able structure with a stable rendering.

    Dataclasses become ``{"<qualname>": {field: fingerprint...}}``; other
    objects (protocol instances are plain classes over a config dataclass)
    contribute their class qualname plus their instance ``__dict__``.  Floats
    round-trip through ``repr`` inside JSON, so distinct configs never
    collide and equal configs always agree.
    """
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [canonical_fingerprint(item) for item in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [canonical_fingerprint(item) for item in value]
    if isinstance(value, dict):
        return {str(key): canonical_fingerprint(item)
                for key, item in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {f.name: canonical_fingerprint(getattr(value, f.name))
                  for f in dataclasses.fields(value)}
        return {type(value).__qualname__: fields}
    state = getattr(value, "__dict__", None)
    if state is not None:
        return {type(value).__qualname__: canonical_fingerprint(dict(state))}
    return {type(value).__qualname__: repr(value)}


def cell_key(protocol: TagReadingProtocol, n_tags: int, runs: int, seed: int,
             channel: ChannelModel, timing: TimingModel,
             engine: str = "scalar", run_start: int = 0) -> str:
    """The content address of one cell: SHA-256 of its canonical spec.

    The engine is part of the address -- scalar and kernel cells follow
    the same process law but different draw orders, so their aggregates
    differ bitwise and must never serve each other.  The default scalar
    engine (and the default ``run_start`` of a whole cell) is omitted from
    the payload to keep pre-existing keys stable.
    """
    spec = {
        "protocol": canonical_fingerprint(protocol),
        "n_tags": n_tags,
        "runs": runs,
        "seed": seed,
        "channel": canonical_fingerprint(channel),
        "timing": canonical_fingerprint(timing),
    }
    if engine != "scalar":
        spec["engine"] = engine
    if run_start:
        spec["run_start"] = run_start
    payload = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def run_range_key(protocol: TagReadingProtocol, n_tags: int, seed: int,
                  channel: ChannelModel, timing: TimingModel,
                  engine: str = "scalar") -> str:
    """The base address partial-batch entries of one cell share.

    Identical to :func:`cell_key` minus ``runs``/``run_start``: every batch
    of the same (protocol, N, seed, channel, timing, engine) cell -- whatever
    range it covers -- files under this key, with the ``[start, stop)``
    range as the sub-key.  A ``kind`` marker keeps the namespace disjoint
    from full-cell addresses.
    """
    spec = {
        "kind": "run-range",
        "protocol": canonical_fingerprint(protocol),
        "n_tags": n_tags,
        "seed": seed,
        "channel": canonical_fingerprint(channel),
        "timing": canonical_fingerprint(timing),
    }
    if engine != "scalar":
        spec["engine"] = engine
    payload = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _range_to_label(span: tuple[int, int]) -> str:
    return f"{span[0]}-{span[1]}"


def _range_from_label(label: str) -> tuple[int, int]:
    start, stop = label.split("-")
    return int(start), int(stop)


def _result_to_dict(result: AggregateResult) -> dict:
    return {f.name: getattr(result, f.name)
            for f in dataclasses.fields(AggregateResult)}


def _result_from_dict(data: dict) -> AggregateResult:
    return AggregateResult(**{f.name: data[f.name]
                              for f in dataclasses.fields(AggregateResult)})


class ResultCache:
    """Keyed store of ``AggregateResult``s with hit/miss accounting.

    Besides whole-cell aggregates the cache holds **run-range entries**:
    per-run :class:`RunMetrics` vectors under ``(range base key, start,
    stop)``, written batch-by-batch by the adaptive planner and by the
    executor for every cell it computes.  ``run_prefix`` stitches stored
    ranges into the longest contiguous run prefix -- what both a resuming
    planner and a fixed-budget rerun consume.
    """

    def __init__(self, path: Path | str = DEFAULT_RESULT_CACHE_NAME,
                 signature: str | None = None) -> None:
        self.path = Path(path)
        self.signature = signature if signature is not None \
            else package_signature()
        self.hits = 0
        self.misses = 0
        self.run_hits = 0
        self.run_misses = 0
        self._entries: dict[str, AggregateResult] = {}
        #: base key -> {(start, stop) -> per-run metric vectors}.
        self._runs: dict[str, dict[tuple[int, int], list[RunMetrics]]] = {}
        self._dirty = False
        self._load()

    def _load(self) -> None:
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
        except OSError:
            return  # no cache file yet: a cold start, not an invalidation
        except ValueError:
            scope.emit("cache_invalidated", path=str(self.path),
                       reason="unparseable cache file")
            return
        if not isinstance(payload, dict) \
                or payload.get("signature") != self.signature:
            scope.emit("cache_invalidated", path=str(self.path),
                       reason="signature mismatch (source tree or schema "
                              "changed)")
            return
        try:
            self._entries = {
                key: _result_from_dict(entry)
                for key, entry in payload.get("entries", {}).items()}
            self._runs = {
                key: {_range_from_label(label):
                      [RunMetrics.from_list(row) for row in rows]
                      for label, rows in spans.items()}
                for key, spans in payload.get("runs", {}).items()}
        except (KeyError, TypeError, ValueError):
            self._entries = {}
            self._runs = {}
            scope.emit("cache_invalidated", path=str(self.path),
                       reason="entry shape mismatch")

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: str) -> AggregateResult | None:
        """Serve ``key`` if stored; every probe is counted and emitted.

        The hit path still reports telemetry: a warm run short-circuits the
        simulation, so without these events observability would go dark
        exactly when the cache is doing its job.
        """
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            scope.inc("result_cache.hits")
            scope.emit("cache_hit", key=key)
            return entry
        self.misses += 1
        scope.inc("result_cache.misses")
        scope.emit("cache_miss", key=key)
        return None

    def store(self, key: str, result: AggregateResult) -> None:
        self._entries[key] = result
        self._dirty = True

    # -- run-range (partial batch) entries ---------------------------------

    def lookup_runs(self, key: str, start: int,
                    stop: int) -> list[RunMetrics] | None:
        """Serve the run range ``[start, stop)`` of base ``key``.

        Any stored span covering the request serves it (run ``i``'s
        metrics are identical whoever computed them), so planner batches
        resume from an earlier fixed-budget write just as a fixed-budget
        run resumes from planner batches.
        """
        spans = self._runs.get(key, {})
        values = spans.get((start, stop))
        if values is None:
            for (span_start, span_stop), stored in spans.items():
                if span_start <= start and span_stop >= stop:
                    values = stored[start - span_start:stop - span_start]
                    break
        if values is not None:
            self.run_hits += 1
            scope.inc("result_cache.run_hits")
            scope.emit("cache_hit", key=f"{key}:{start}:{stop}")
            return list(values)
        self.run_misses += 1
        scope.inc("result_cache.run_misses")
        scope.emit("cache_miss", key=f"{key}:{start}:{stop}")
        return None

    def store_runs(self, key: str, start: int,
                   values: list[RunMetrics]) -> None:
        """File ``values`` as runs ``[start, start + len(values))``."""
        if not values:
            return
        self._runs.setdefault(key, {})[(start, start + len(values))] = \
            list(values)
        self._dirty = True

    def run_prefix(self, key: str, limit: int) -> list[RunMetrics]:
        """The longest contiguous run prefix stored under base ``key``.

        Stored ranges may overlap (a planner batch and a later full-cell
        write cover the same runs); any covering range serves, because run
        ``i``'s metrics are identical whoever computed them.  At most
        ``limit`` runs are returned.
        """
        spans = self._runs.get(key)
        if not spans:
            return []
        ordered = sorted(spans.items())
        prefix: list[RunMetrics] = []
        position = 0
        while position < limit:
            best_stop = position
            best: tuple[tuple[int, int], list[RunMetrics]] | None = None
            for (start, stop), values in ordered:
                if start > position:
                    break
                if stop > best_stop:
                    best_stop = stop
                    best = ((start, stop), values)
            if best is None:
                break
            (start, _), values = best
            prefix.extend(values[position - start:limit - start])
            position = min(best_stop, limit)
        return prefix

    def save(self) -> None:
        """Persist all entries; a no-op unless something was stored."""
        if not self._dirty:
            return
        payload = {
            "signature": self.signature,
            "entries": {key: _result_to_dict(entry)
                        for key, entry in sorted(self._entries.items())},
            "runs": {key: {_range_to_label(span):
                           [value.to_list() for value in values]
                           for span, values in sorted(spans.items())}
                     for key, spans in sorted(self._runs.items())},
        }
        try:
            self.path.write_text(json.dumps(payload), encoding="utf-8")
            self._dirty = False
        except OSError:
            pass  # a read-only checkout just runs cold every time

    def stats(self) -> str:
        """One-line hit/miss summary for CLI surfacing.

        Safe to call while another thread stores: the range maps are
        snapshotted in one ``list`` call before they are counted.
        """
        ranges = sum(map(len, list(self._runs.values())))
        return (f"result cache: {self.hits} hits / {self.misses} misses, "
                f"{self.run_hits}/{self.run_misses} run-range hits/misses "
                f"({len(self._entries)} cells + {ranges} ranges "
                f"in {self.path})")
