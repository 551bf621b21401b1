"""Content-addressed cache for sweep cell results.

Paper-scale reproduction re-derives identical (protocol, N) cells on every
invocation -- Tables I-III share rosters, service requests share zone
cells, and a ``--paper-scale --runs 100`` rerun after an unrelated doc edit
repeats hours of simulation.  Every cell is a pure function of its spec, so
it can be served by content address instead.

What the cache holds are **run ranges**: per-run
:class:`~repro.sim.result.RunMetrics` vectors keyed by the run-seed range
``[start, stop)`` under a *range base key* -- a SHA-256 over a *canonical
fingerprint* of the cell: protocol class + config fields, ``n_tags``,
``seed``, channel knobs and timing constants, all rendered to sorted-key
JSON, without ``runs``.  A cell of ``runs`` runs is the fold, by
:func:`~repro.sim.result.aggregate_metrics`, of the stored runs
``[run_start, run_start + runs)`` -- bit-identical to the cell computed
afresh, because run ``i``'s metrics are a pure function of the cell config
and the ``i``-th ``SeedSequence`` child, whoever computed them.  So the
executor's cells, the adaptive planner's batches, a warm planner resuming
from a cached prefix and a fixed-budget rerun over planner batches all
read and write the one store.

The store is one append-only log file, ``.repro-results-cache.json``
(git-ignored), bound to a *signature*: schema version,
``repro.__version__`` and a digest of the simulator source tree -- so
editing any protocol, channel or codec never replays stale numbers.  Each
line is one JSON object ``{"signature", "runs"}``; the first line's
signature decides whether the file is this tree's at all, and every
``save`` appends one line holding only what was stored since the last
save, so a save costs O(new ranges) however long the service has run.

The cache is **bounded**: it holds at most :data:`MAX_ENTRIES` run ranges
and evicts the least recently used cell's ranges together (a lookup
refreshes them).  Eviction only turns a hit into a miss.  A load that
finds evicted or overwritten ranges, or more than :data:`COMPACT_LINES`
lines, rewrites the file as one line of what it holds, and a running
process rewrites it once its log would pass twice the bound, so the file
stays bounded too.  Loading merges the lines in order and skips any line
with another signature, so two source trees sharing one path never serve
each other's results.  Corrupt or unreadable files are treated as empty
and a torn line is dropped: the cache can only ever make a run faster,
never wrong.  Such a file -- and a missing one -- is rewritten whole on
the next save, through a temporary file and ``os.replace``, so a killed
process never leaves a torn file behind.
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
from repro.sim.result import RunMetrics

#: Bump when the fingerprint layout or the stored-result shape changes.
#: 2: partial-batch run-range entries (the adaptive planner's substrate).
#: 3: an append-only log, one ``{"signature", "entries", "runs"}`` per line.
#: 4: run ranges only, one ``{"signature", "runs"}`` per line; a cell is the
#:    fold of its stored runs.
RESULT_CACHE_SCHEMA = 4

DEFAULT_RESULT_CACHE_NAME = ".repro-results-cache.json"

#: Run ranges one cache holds.  Past it the least recently used cell's run
#: ranges are evicted: an eviction only turns a hit into a miss.  A 30 s
#: benchmark run stores one run range per computed zone cell, under 300 in
#: all.
MAX_ENTRIES = 4096

#: A loaded log with more lines than this is rewritten as one line.
COMPACT_LINES = 1024

#: Subpackages whose source feeds the cache signature: everything a cell
#: result can depend on.  ``devtools`` (the linter) and ``report``
#: (rendering) cannot change a run's metrics, so they are excluded
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
    """The base address all the run ranges of one cell share.

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


class ResultCache:
    """Keyed store of per-run :class:`RunMetrics` ranges with hit/miss
    accounting.

    Ranges file under ``(range base key, start, stop)``, written
    batch-by-batch by the adaptive planner and by the executor for every
    cell it computes.  One walk stitches stored ranges into contiguous
    runs: a cell lookup (:meth:`lookup`), a batch lookup
    (:meth:`lookup_runs`) and a resume point (:meth:`run_prefix`) all
    read through it.
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
        #: base key -> {(start, stop) -> per-run metric vectors}.
        self._runs: dict[str, dict[tuple[int, int], list[RunMetrics]]] = {}
        #: Base keys, least recently used first; a base key's ranges are
        #: evicted together.
        self._recency: OrderedDict[str, None] = OrderedDict()
        #: Run ranges held, at most :data:`MAX_ENTRIES`.
        self._size = 0
        #: What was stored since the last save: the next appended line.
        self._new: dict[str, dict[tuple[int, int], list[RunMetrics]]] = {}
        #: True while the file is a clean log of this signature, which a
        #: save may append to; otherwise the next save rewrites it whole.
        self._appendable = False
        #: Ranges the file holds, evicted and overwritten ones included.
        self._logged = 0
        self._load()

    def _invalidate(self, reason: str) -> None:
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
            # Evicted or overwritten ranges, or many short lines: keep
            # only what is held, as one line.
            try:
                self._rewrite(self._line(self._by_recency()))
            except OSError:
                self._appendable = False
                return
            self._logged = self._size

    def _merge(self, payload: dict) -> None:
        """Fold one line's ranges into the in-memory store, in order."""
        for key, spans in payload.get("runs", {}).items():
            for label, rows in spans.items():
                self._hold(key, _range_from_label(label),
                           [RunMetrics.from_list(row) for row in rows])
                self._logged += 1

    # -- the bound ---------------------------------------------------------

    def _hold(self, key: str, span: tuple[int, int],
              values: list[RunMetrics]) -> None:
        spans = self._runs.setdefault(key, {})
        if span not in spans:
            self._size += 1
        spans[span] = values
        self._recency.pop(key, None)
        self._recency[key] = None
        self._evict()

    def _evict(self) -> None:
        """Drop least recently used base keys until the bound holds."""
        while self._size > MAX_ENTRIES:
            key, _ = self._recency.popitem(last=False)
            self._size -= len(self._runs.pop(key))
            self._new.pop(key, None)

    def _by_recency(self) -> dict[str, dict[tuple[int, int],
                                            list[RunMetrics]]]:
        """Everything held, least recently used first (a rewrite's order,
        which the next load restores)."""
        return {key: self._runs[key] for key in self._recency}

    def __len__(self) -> int:
        return self._size

    # -- reading: one walk over the sorted spans ---------------------------

    def _stitch(self, key: str, start: int, stop: int) -> list[RunMetrics]:
        """The stored runs from ``start`` on, contiguous, up to ``stop``.

        Stored spans may overlap or abut (planner batches, then a
        fixed-budget write over the same runs); any span serves the runs
        it covers, because run ``i``'s metrics are identical whoever
        computed them.  The walk stops at the first gap.
        """
        spans = self._runs.get(key)
        if not spans:
            return []
        self._recency.move_to_end(key)
        stitched: list[RunMetrics] = []
        position = start
        for (span_start, span_stop), values in sorted(spans.items()):
            if span_start > position:
                break
            if span_stop > position:
                stitched += values[position - span_start:stop - span_start]
                position = span_stop
                if position >= stop:
                    break
        return stitched

    def lookup(self, key: str, base: str, start: int,
               stop: int) -> list[RunMetrics] | None:
        """Serve cell ``key``: runs ``[start, stop)`` under base ``base``.

        ``None`` unless every run is stored; a cell is the
        :func:`~repro.sim.result.aggregate_metrics` fold of what this
        returns.  Every probe is counted and emitted under the cell key:
        a warm run short-circuits the simulation, so without these events
        observability would go dark exactly when the cache is doing its
        job.
        """
        values = self._stitch(base, start, stop)
        if len(values) == stop - start:
            self.hits += 1
            scope.inc("result_cache.hits")
            scope.emit("cache_hit", key=key)
            return values
        self.misses += 1
        scope.inc("result_cache.misses")
        scope.emit("cache_miss", key=key)
        return None

    def lookup_runs(self, key: str, start: int,
                    stop: int) -> list[RunMetrics] | None:
        """Serve the run range ``[start, stop)`` of base ``key``: one
        planner batch, counted as a run-range hit or miss."""
        values = self._stitch(key, start, stop)
        if len(values) == stop - start:
            self.run_hits += 1
            scope.inc("result_cache.run_hits")
            scope.emit("cache_hit", key=f"{key}:{start}:{stop}")
            return values
        self.run_misses += 1
        scope.inc("result_cache.run_misses")
        scope.emit("cache_miss", key=f"{key}:{start}:{stop}")
        return None

    def run_prefix(self, key: str, limit: int) -> list[RunMetrics]:
        """The longest contiguous run prefix stored under base ``key``, at
        most ``limit`` runs: where a resuming cell or planner starts."""
        return self._stitch(key, 0, limit)

    # -- writing -----------------------------------------------------------

    def store_runs(self, key: str, start: int,
                   values: list[RunMetrics]) -> None:
        """File ``values`` as runs ``[start, start + len(values))``."""
        if not values:
            return
        span, stored = (start, start + len(values)), list(values)
        self._new.setdefault(key, {})[span] = stored
        self._hold(key, span, stored)

    #: The one store under its old name too: ``perfbench/tracing.py``
    #: patches ``store`` by name.
    store = store_runs

    def save(self) -> None:
        """Persist what was stored since the last save; a no-op if nothing.

        A clean log of this signature gets one line appended with a single
        ``write``, holding only the new ranges, so a save costs O(new
        ranges).  A missing, invalidated or damaged file is rewritten
        whole instead: every range held goes to a temporary file that
        ``os.replace`` moves over the path, so a process killed mid-save
        leaves either the old file or the new one, never a torn one.  So
        is a log that would pass twice :data:`MAX_ENTRIES` ranges, evicted
        ones included, which keeps the file bounded while the process
        runs: a rewrite comes once per about :data:`MAX_ENTRIES` new
        ranges, so a save stays O(new ranges) amortised.
        """
        if not self._new:
            return
        new = sum(map(len, self._new.values()))
        try:
            if self._appendable \
                    and self._logged + new <= 2 * MAX_ENTRIES:
                self._append(self._line(self._new))
                self._logged += new
            else:
                self._rewrite(self._line(self._by_recency()))
                self._logged = self._size
        except OSError:
            # A read-only checkout just runs cold every time; an append cut
            # short leaves a torn line the next save must not follow.
            self._appendable = False
            return
        self._appendable = True
        self._new = {}

    def _line(self, runs: dict[str, dict[tuple[int, int], list[RunMetrics]]]
              ) -> bytes:
        payload = {
            "signature": self.signature,
            # In the given order, which a load replays as recency.
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
        """One-line hit/miss summary for CLI surfacing: cell hits and
        misses first, then the batch lookups'."""
        return (f"result cache: {self.hits} hits / {self.misses} misses, "
                f"{self.run_hits}/{self.run_misses} run-range hits/misses "
                f"({self._size} ranges in {self.path})")
