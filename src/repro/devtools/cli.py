"""``repro-lint``: run the simulator-invariant checks from the command line.

Examples::

    repro-lint src                    # whole tree, text output
    repro-lint --format json src      # machine-readable
    repro-lint --rules float-equality,mutable-default src/repro/core
    repro-lint --no-baseline src      # strict: baselined findings block
    repro-lint --write-baseline src   # grandfather today's findings
    repro-lint --list-rules

Exit status: 0 clean, 1 blocking findings, 2 usage error.  ``--warn-only``
always exits 0 (used for advisory sweeps over tests/ and scripts/).

The incremental cache lives at ``.repro-lint-cache.json`` next to
``pyproject.toml`` (git-ignored); ``--no-cache`` forces a cold run.  The
grandfather baseline is ``.repro-lint-baseline.json`` (checked in).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.devtools.baseline import DEFAULT_BASELINE_NAME, Baseline
from repro.devtools.cache import DEFAULT_CACHE_NAME
from repro.devtools.engine import LintEngine, find_repo_root
from repro.devtools.reporters import render_json, render_text
from repro.devtools.rules import describe_rules


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=("Whole-program static analysis of the repro simulator: "
                     "determinism, protocol conformance, numeric hygiene, "
                     "public-API consistency, RNG reachability, "
                     "experiment-registry completeness, event schema, "
                     "fork-safety and kernel-equivalence registration."))
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")
    parser.add_argument("--rules", default="",
                        help="comma-separated subset of rules to run")
    parser.add_argument("--show-suppressed", action="store_true",
                        help="also print findings silenced by "
                             "`# repro: allow-<rule>` comments")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="parallelize pass-1 indexing over N worker "
                             "processes (results merge deterministically; "
                             "default: 1, serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not write the incremental cache")
    parser.add_argument("--no-baseline", action="store_true",
                        help="strict mode: grandfathered findings block too")
    parser.add_argument("--baseline", metavar="PATH", default=None,
                        help="baseline file (default: "
                             f"{DEFAULT_BASELINE_NAME} next to "
                             "pyproject.toml)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="record current blocking findings as the new "
                             "baseline and exit 0")
    parser.add_argument("--warn-only", action="store_true",
                        help="report findings but always exit 0")
    parser.add_argument("--list-rules", action="store_true",
                        help="print every registered rule and exit")
    return parser


def _resolve_side_files(options: argparse.Namespace
                        ) -> tuple[Path | None, Path | None]:
    """Locate the cache and baseline files relative to the repository."""
    first = Path(options.paths[0]) if options.paths else Path(".")
    start = first if first.is_dir() else first.parent
    repo_root = find_repo_root(start.resolve())
    cache_path = None
    if not options.no_cache and repo_root is not None:
        cache_path = repo_root / DEFAULT_CACHE_NAME
    baseline_path = None
    if options.baseline is not None:
        baseline_path = Path(options.baseline)
    elif repo_root is not None:
        baseline_path = repo_root / DEFAULT_BASELINE_NAME
    return cache_path, baseline_path


def main(argv: Sequence[str] | None = None) -> int:
    options = build_parser().parse_args(argv)
    if options.list_rules:
        for name, description in describe_rules().items():
            print(f"{name}\n    {description}")
        return 0
    select = tuple(name.strip() for name in options.rules.split(",")
                   if name.strip())
    missing = [path for path in options.paths if not Path(path).exists()]
    if missing:
        print(f"repro-lint: no such path(s): {', '.join(missing)}",
              file=sys.stderr)
        return 2
    cache_path, baseline_path = _resolve_side_files(options)
    baseline = None
    if baseline_path is not None and not options.no_baseline \
            and not options.write_baseline:
        baseline = Baseline.load(baseline_path)
    try:
        engine = LintEngine(select=select, cache_path=cache_path,
                            baseline=baseline)
    except KeyError as error:
        print(f"repro-lint: {error.args[0]}", file=sys.stderr)
        return 2
    if options.jobs < 1:
        print("repro-lint: --jobs must be >= 1", file=sys.stderr)
        return 2
    report = engine.lint_paths(options.paths, jobs=options.jobs)
    if options.write_baseline:
        if baseline_path is None:
            print("repro-lint: cannot locate a baseline path (no "
                  "pyproject.toml above the scanned tree); pass --baseline",
                  file=sys.stderr)
            return 2
        Baseline.from_findings(report.blocking).write(baseline_path)
        print(f"wrote {len(report.blocking)} finding(s) to {baseline_path}")
        return 0
    if options.format == "json":
        print(render_json(report))
    else:
        print(render_text(report, show_suppressed=options.show_suppressed))
    if options.warn_only:
        return 0
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
