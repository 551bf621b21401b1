"""``repro-lint``: run the simulator-invariant checks from the command line.

Examples::

    repro-lint src                    # whole tree, text output
    repro-lint --format json src      # machine-readable
    repro-lint --rules float-equality,rng-order src
    repro-lint --list-rules

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.devtools.engine import LintEngine
from repro.devtools.reporters import render_json, render_text
from repro.devtools.rules import describe_rules


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=("Whole-program static analysis of the repro simulator: "
                     "determinism, numeric hygiene, RNG draw order, "
                     "fork-safety and kernel-equivalence registration."))
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")
    parser.add_argument("--rules", default="",
                        help="comma-separated subset of rules to run")
    parser.add_argument("--list-rules", action="store_true",
                        help="print every registered rule and exit")
    return parser


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
    try:
        engine = LintEngine(select=select)
    except KeyError as error:
        print(f"repro-lint: {error.args[0]}", file=sys.stderr)
        return 2
    report = engine.lint_paths(options.paths)
    if options.format == "json":
        print(render_json(report))
    else:
        print(render_text(report))
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
