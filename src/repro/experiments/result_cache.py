"""Content-addressed cache for sweep cell results.

Paper-scale reproduction re-derives identical (protocol, N) cells on every
invocation -- Tables I-III share rosters, service requests share zone
cells, and a ``--paper-scale --runs 100`` rerun after an unrelated doc edit
repeats hours of simulation.  Every cell is a pure function of its spec, so
its :class:`~repro.sim.result.AggregateResult` can be served by content
address instead.

The key is a SHA-256 over a *canonical fingerprint* of the spec: protocol
class + config fields, ``n_tags``, ``runs``, ``seed``, channel knobs and
timing constants, all rendered to sorted-key JSON.  The store is one
append-only log file, ``.repro-results-cache.json`` (git-ignored), bound
to a *signature*: schema version, ``repro.__version__`` and a digest of
the simulator source tree -- so editing any protocol, channel or codec
never replays stale numbers.  Each line is one JSON object
``{"signature", "entries", "runs"}``; the first line's signature decides
whether the file is this tree's at all, and every ``save`` appends one
line holding only what was stored since the last save, so a save costs
O(new entries) however long the service has run.

The cache is **bounded**: it holds at most :data:`MAX_ENTRIES` cells plus
run ranges and evicts the least recently used (a lookup hit refreshes an
entry; a cell's run ranges go together).  Eviction only turns a hit into a
miss.  A load that finds evicted or overwritten entries, or more than
:data:`COMPACT_LINES` lines, rewrites the file as one line of what it
holds, and a running process rewrites it once its log would pass twice
the bound, so the file stays bounded too.  Loading merges the
lines in order and skips any line with another signature, so two source
trees sharing one path never serve each other's results.  Corrupt or
unreadable files are treated as empty and a torn line is dropped: the
cache can only ever make a run faster, never wrong.  Such a file -- and a
missing one -- is rewritten whole on the next save, through a temporary
file and ``os.replace``, so a killed process never leaves a torn file
behind.

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
import functools
import hashlib
import json
import os
from collections import OrderedDict
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path

import numpy as np

from repro.air.timing import TimingModel
from repro.obs import scope
from repro.sim.base import TagReadingProtocol
from repro.sim.channel import ChannelModel
from repro.sim.result import AggregateResult, RunMetrics

#: Bump when the fingerprint layout or the stored-result shape changes.
#: 2: partial-batch run-range entries (the adaptive planner's substrate).
#: 3: an append-only log, one ``{"signature", "entries", "runs"}`` per line.
RESULT_CACHE_SCHEMA = 3

DEFAULT_RESULT_CACHE_NAME = ".repro-results-cache.json"

#: Cells plus run ranges one cache holds.  Past it the least recently used
#: cell, or cell's run ranges, is evicted: an eviction only turns a hit
#: into a miss.  A 30 s benchmark run stores one cell and one run range
#: per cold request, under 300 entries in all.
MAX_ENTRIES = 4096

#: A loaded log with more lines than this is rewritten as one line.
COMPACT_LINES = 1024

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


#: Types :func:`canonical_fingerprint` returns unchanged, checked by exact
#: type first (subclasses take the slower ``isinstance`` tests).
_PLAIN = frozenset({bool, int, str, float, type(None)})

#: ``json.dumps`` with the address settings, without an encoder per call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


@functools.cache
def _field_names(kind: type) -> tuple[str, ...]:
    """A dataclass's field names, in declaration order (a pure memo)."""
    return tuple(field.name for field in dataclasses.fields(kind))


def canonical_fingerprint(value: object) -> object:
    """Reduce ``value`` to a JSON-able structure with a stable rendering.

    Dataclasses become ``{"<qualname>": {field: fingerprint...}}``; other
    objects (protocol instances are plain classes over a config dataclass)
    contribute their class qualname plus their instance ``__dict__``.  Floats
    round-trip through ``repr`` inside JSON, so distinct configs never
    collide and equal configs always agree.
    """
    kind = type(value)
    if kind in _PLAIN:
        return value
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
        return [item if type(item) in _PLAIN else canonical_fingerprint(item)
                for item in value]
    if isinstance(value, dict):
        # Sorted by the rendered key, stably, as JSON will see them.
        return {key: item if type(item) in _PLAIN
                else canonical_fingerprint(item)
                for key, item in sorted(zip(map(str, value), value.values()),
                                        key=itemgetter(0))}
    if hasattr(kind, "__dataclass_fields__") and not isinstance(value, type):
        fields = {}
        for name in _field_names(kind):
            item = getattr(value, name)
            fields[name] = item if type(item) in _PLAIN \
                else canonical_fingerprint(item)
        return {kind.__qualname__: fields}
    state = getattr(value, "__dict__", None)
    if state is not None:
        return {kind.__qualname__: canonical_fingerprint(dict(state))}
    return {kind.__qualname__: repr(value)}


def _rendered(model: ChannelModel | TimingModel) -> str:
    """The canonical JSON of a channel or timing model, memoised on it.

    Both are frozen dataclasses, so an object's rendering never changes.
    The memo sits on the object, never in a table keyed by value: equal
    models (``0 == 0.0``) can render differently.
    """
    text = model.__dict__.get("_canonical_json")
    if text is None:
        text = model.__dict__["_canonical_json"] = \
            _ENCODER.encode(canonical_fingerprint(model))
    return text


def cell_fields(protocol: TagReadingProtocol, n_tags: int, seed: int,
                channel: ChannelModel, timing: TimingModel,
                engine: str) -> dict[str, str]:
    """The canonical fields both of a cell's addresses are built from.

    Each field is already rendered to its canonical JSON, so
    :func:`cell_address` and :func:`range_address` derive the cell key and
    the run-range base key from one such dict and a cell's protocol,
    channel and timing are fingerprinted once for both.  The engine is
    part of the address -- scalar and kernel cells follow the same
    process law but different draw orders, so their aggregates differ
    bitwise and must never serve each other -- except that the scalar
    engine is omitted, which keeps the keys recorded before the kernel
    engine existed stable.
    """
    fields = {
        "protocol": _ENCODER.encode(canonical_fingerprint(protocol)),
        "n_tags": _scalar(n_tags),
        "seed": _scalar(seed),
        "channel": _rendered(channel),
        "timing": _rendered(timing),
    }
    if engine != "scalar":
        fields["engine"] = _scalar(engine)
    return fields


def _scalar(value: object) -> str:
    """``_ENCODER.encode(value)``, directly for a plain int or str."""
    if type(value) is int:
        return int.__repr__(value)
    if type(value) is str:
        return encode_basestring_ascii(value)
    return _ENCODER.encode(value)


def _address(fields: dict[str, str]) -> str:
    """SHA-256 of the JSON object of rendered ``fields``.

    Exactly ``_ENCODER.encode`` of the unrendered dict: sorted keys, each
    (a plain identifier) quoted, ``:`` before and ``,`` between items.
    """
    payload = "{" + ",".join([f'"{name}":{text}' for name, text
                              in sorted(fields.items())]) + "}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def cell_address(fields: dict[str, str], runs: int,
                 run_start: int = 0) -> str:
    """The content address of one cell: SHA-256 of its canonical spec.

    ``run_start`` of a whole cell (0) is omitted from the payload.
    """
    spec = {**fields, "runs": _scalar(runs)}
    if run_start:
        spec["run_start"] = _scalar(run_start)
    return _address(spec)


def range_address(fields: dict[str, str]) -> str:
    """The base address partial-batch entries of one cell share.

    The cell address minus ``runs``/``run_start``: every batch of the same
    (protocol, N, seed, channel, timing, engine) cell -- whatever range it
    covers -- files under this key, with the ``[start, stop)`` range as
    the sub-key.  A ``kind`` marker keeps the namespace disjoint from
    full-cell addresses.
    """
    return _address({**fields, "kind": '"run-range"'})


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
        #: ``(False, cell key)`` and ``(True, base key)`` items, least
        #: recently used first; a base key's ranges are evicted together.
        self._recency: OrderedDict[tuple[bool, str], None] = OrderedDict()
        #: Cells plus run ranges held, at most :data:`MAX_ENTRIES`.
        self._size = 0
        #: What was stored since the last save: the next appended line.
        self._new_entries: dict[str, AggregateResult] = {}
        self._new_runs: dict[str, dict[tuple[int, int], list[RunMetrics]]] = {}
        #: True while the file is a clean log of this signature, which a
        #: save may append to; otherwise the next save rewrites it whole.
        self._appendable = False
        #: Entries the file holds, evicted and overwritten ones included.
        self._logged = 0
        self._load()

    def _invalidate(self, reason: str) -> None:
        self._entries = {}
        self._runs = {}
        self._recency = OrderedDict()
        self._size = 0
        self._logged = 0
        scope.emit("cache_invalidated", path=str(self.path), reason=reason)

    def _load(self) -> None:
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return  # no cache file yet: a cold start, not an invalidation
        except ValueError:
            self._invalidate("unparseable cache file")
            return
        # Every complete save ends in a newline: text after the last one is
        # a save cut short, dropped unless it is the only line.
        *lines, tail = text.split("\n")
        damaged = bool(tail)
        for index, line in enumerate(lines or [tail]):
            try:
                payload = json.loads(line)
            except ValueError:
                payload = None
            signed = isinstance(payload, dict) \
                and payload.get("signature") == self.signature
            if index == 0 and not signed:
                self._invalidate(
                    "unparseable cache file" if payload is None
                    else "signature mismatch (source tree or schema changed)")
                return
            if payload is None:
                damaged = True
            elif signed:  # another tree's appended line is never served
                try:
                    self._merge(payload)
                except (AttributeError, KeyError, TypeError, ValueError):
                    self._invalidate("entry shape mismatch")
                    return
        if damaged:
            scope.emit("cache_invalidated", path=str(self.path),
                       reason="torn or unparseable line dropped")
        self._appendable = not damaged
        if self._appendable and (self._logged > self._size
                                 or len(lines) > COMPACT_LINES):
            # Evicted or overwritten entries, or many short lines: keep
            # only what is held, as one line.
            try:
                self._rewrite(self._line(*self._by_recency()))
            except OSError:
                self._appendable = False
                return
            self._logged = self._size

    def _merge(self, payload: dict) -> None:
        """Fold one line's entries into the in-memory store, in order."""
        for key, entry in payload.get("entries", {}).items():
            self._hold(key, _result_from_dict(entry))
            self._logged += 1
        for key, spans in payload.get("runs", {}).items():
            for label, rows in spans.items():
                self._hold_runs(key, _range_from_label(label),
                                [RunMetrics.from_list(row) for row in rows])
                self._logged += 1

    # -- the bound ---------------------------------------------------------

    def _touch(self, item: tuple[bool, str]) -> None:
        recency = self._recency
        if item in recency:
            recency.move_to_end(item)
        else:
            recency[item] = None

    def _hold(self, key: str, result: AggregateResult) -> None:
        if key not in self._entries:
            self._size += 1
        self._entries[key] = result
        self._touch((False, key))
        self._evict()

    def _hold_runs(self, key: str, span: tuple[int, int],
                   values: list[RunMetrics]) -> None:
        spans = self._runs.setdefault(key, {})
        if span not in spans:
            self._size += 1
        spans[span] = values
        self._touch((True, key))
        self._evict()

    def _evict(self) -> None:
        """Drop least recently used items until the bound holds."""
        while self._size > MAX_ENTRIES:
            (runs, key), _ = self._recency.popitem(last=False)
            if runs:
                self._size -= len(self._runs.pop(key))
                self._new_runs.pop(key, None)
            else:
                del self._entries[key]
                self._size -= 1
                self._new_entries.pop(key, None)

    def _by_recency(self) -> tuple[dict, dict]:
        """Everything held, least recently used first (a rewrite's order,
        which the next load restores)."""
        entries, runs = {}, {}
        for is_runs, key in self._recency:
            if is_runs:
                runs[key] = self._runs[key]
            else:
                entries[key] = self._entries[key]
        return entries, runs

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
            self._recency.move_to_end((False, key))
            self.hits += 1
            scope.inc("result_cache.hits")
            scope.emit("cache_hit", key=key)
            return entry
        self.misses += 1
        scope.inc("result_cache.misses")
        scope.emit("cache_miss", key=key)
        return None

    def store(self, key: str, result: AggregateResult) -> None:
        self._new_entries[key] = result
        self._hold(key, result)

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
            self._recency.move_to_end((True, key))
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
        span, stored = (start, start + len(values)), list(values)
        self._new_runs.setdefault(key, {})[span] = stored
        self._hold_runs(key, span, stored)

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
        self._recency.move_to_end((True, key))
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
        """Persist what was stored since the last save; a no-op if nothing.

        A clean log of this signature gets one line appended with a single
        ``write``, holding only the new entries, so a save costs O(new
        entries).  A missing, invalidated or damaged file is rewritten
        whole instead: every entry held goes to a temporary file that
        ``os.replace`` moves over the path, so a process killed mid-save
        leaves either the old file or the new one, never a torn one.  So
        is a log that would pass twice :data:`MAX_ENTRIES` entries, evicted
        ones included, which keeps the file bounded while the process
        runs: a rewrite comes once per about :data:`MAX_ENTRIES` new
        entries, so a save stays O(new entries) amortised.
        """
        if not (self._new_entries or self._new_runs):
            return
        new = len(self._new_entries) + sum(map(len, self._new_runs.values()))
        try:
            if self._appendable \
                    and self._logged + new <= 2 * MAX_ENTRIES:
                self._append(self._line(self._new_entries, self._new_runs))
                self._logged += new
            else:
                self._rewrite(self._line(*self._by_recency()))
                self._logged = self._size
        except OSError:
            # A read-only checkout just runs cold every time; an append cut
            # short leaves a torn line the next save must not follow.
            self._appendable = False
            return
        self._appendable = True
        self._new_entries = {}
        self._new_runs = {}

    def _line(self, entries: dict[str, AggregateResult],
              runs: dict[str, dict[tuple[int, int], list[RunMetrics]]]
              ) -> bytes:
        payload = {
            "signature": self.signature,
            # In the given order, which a load replays as recency.
            "entries": {key: _result_to_dict(entry)
                        for key, entry in entries.items()},
            "runs": {key: {_range_to_label(span):
                           [value.to_list() for value in values]
                           for span, values in sorted(spans.items())}
                     for key, spans in runs.items()},
        }
        return (json.dumps(payload) + "\n").encode("utf-8")

    def _append(self, line: bytes) -> None:
        # O_CREAT: a file deleted since the last save restarts as a valid
        # log whose first line is this one.
        handle = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                         0o666)
        try:
            written = os.write(handle, line)
        finally:
            os.close(handle)
        if written != len(line):
            raise OSError(f"short append to {self.path}")

    def _rewrite(self, line: bytes) -> None:
        temporary = self.path.with_name(f"{self.path.name}.{os.getpid()}.tmp")
        try:
            temporary.write_bytes(line)
            os.replace(temporary, self.path)
        except OSError:
            temporary.unlink(missing_ok=True)
            raise

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
