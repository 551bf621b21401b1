"""On-disk incremental cache for the lint engine.

Pass 1 (parse + suppression scan + per-module rules + module indexing) is
the bulk of a lint run and depends only on one file's bytes, so its outputs
are cached per content hash in a single JSON file (default:
``.repro-lint-cache.json`` next to ``pyproject.toml``; git-ignored).  A
warm run replays cached findings and module indexes without re-parsing
unchanged files; pass 2 (the cross-file rules) always runs live against the
assembled index.

Entries are invalidated by content hash; the whole cache is invalidated by
its *signature* -- a digest of the cache schema, the rule set and the lint
configuration -- so editing a rule or a config knob never replays stale
results.  Corrupt or unreadable cache files are treated as empty: the cache
can only ever make a run faster, never wrong.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.devtools.findings import Finding
from repro.devtools.index import ModuleIndex

#: Bump when the entry layout (or anything it captures) changes shape.
#: 3: def-use records, global access summaries and shape contracts joined
#: the per-module index.
#: 4: loop-carried dependence summaries, local effect facts, argument
#: roots and class bases joined the per-module index.
#: 5: quantity kinds, intervals, shape contracts, def-use records, loop
#: summaries, local effects and the module-global name list left the
#: per-module index again.
#: 6: cached findings no longer carry a severity.
CACHE_SCHEMA = 6

DEFAULT_CACHE_NAME = ".repro-lint-cache.json"


def content_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def rule_sources_digest(rules: Iterable[object]) -> str:
    """Digest of the source files defining the active rules.

    Cached findings were produced *by* rule code, so the whole-file cache
    signature must capture that code: editing a rule module alone (same
    rule names, same config) invalidates the cache.  Unlocatable sources
    (frozen interpreters) hash as their module name, which degrades to the
    old name-only behaviour instead of failing.
    """
    files: set[str] = set()
    for rule in rules:
        module = sys.modules.get(type(rule).__module__)
        path = getattr(module, "__file__", None)
        files.add(path or type(rule).__module__)
    digest = hashlib.sha256()
    for path in sorted(files):
        digest.update(path.encode("utf-8"))
        try:
            digest.update(Path(path).read_bytes())
        except OSError:
            pass
    return digest.hexdigest()


def cache_signature(config_repr: str, rule_names: tuple[str, ...],
                    rules_digest: str = "") -> str:
    payload = (f"{CACHE_SCHEMA}|{config_repr}|{','.join(rule_names)}"
               f"|{rules_digest}")
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class CacheEntry:
    """Everything pass 1 produced for one file at one content hash."""

    digest: str
    findings: list[Finding]
    suppressions: dict[int, set[str]]
    index: ModuleIndex

    def to_dict(self) -> dict:
        return {
            "digest": self.digest,
            "findings": [
                {"path": f.path, "line": f.line, "rule": f.rule,
                 "message": f.message}
                for f in self.findings
            ],
            "suppressions": {str(line): sorted(rules)
                             for line, rules in self.suppressions.items()},
            "index": self.index.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CacheEntry":
        return cls(
            digest=data["digest"],
            findings=[Finding(path=f["path"], line=f["line"], rule=f["rule"],
                              message=f["message"])
                      for f in data["findings"]],
            suppressions={int(line): set(rules)
                          for line, rules in data["suppressions"].items()},
            index=ModuleIndex.from_dict(data["index"]),
        )


class LintCache:
    """Content-hash keyed store of pass-1 results, with hit accounting."""

    def __init__(self, path: Path, signature: str) -> None:
        self.path = path
        self.signature = signature
        self.hits = 0
        self.misses = 0
        self._entries: dict[str, CacheEntry] = {}
        self._fresh: dict[str, CacheEntry] = {}
        self._load()

    def _load(self) -> None:
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if not isinstance(payload, dict) \
                or payload.get("signature") != self.signature:
            return
        try:
            self._entries = {
                relpath: CacheEntry.from_dict(entry)
                for relpath, entry in payload.get("entries", {}).items()}
        except (KeyError, TypeError, ValueError):
            self._entries = {}

    def lookup(self, relpath: str, digest: str) -> CacheEntry | None:
        entry = self._entries.get(relpath)
        if entry is not None and entry.digest == digest:
            self.hits += 1
            self._fresh[relpath] = entry
            return entry
        self.misses += 1
        return None

    def store(self, relpath: str, entry: CacheEntry) -> None:
        self._fresh[relpath] = entry

    def save(self) -> None:
        """Persist the entries of this run (stale files fall out)."""
        payload = {
            "signature": self.signature,
            "entries": {relpath: entry.to_dict()
                        for relpath, entry in sorted(self._fresh.items())},
        }
        try:
            self.path.write_text(json.dumps(payload), encoding="utf-8")
        except OSError:
            pass  # a read-only checkout just runs cold every time
