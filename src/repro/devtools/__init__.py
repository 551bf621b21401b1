"""repro.devtools -- static analysis guarding the simulator's invariants.

The reproduction's claims (Tables I-IV throughput, the Table III resolved
fractions) assume two things review alone cannot keep true at scale: every
Monte-Carlo path is deterministic under its seed, and every protocol speaks
the exact same read-session contract.  This package machine-checks those
invariants with a two-pass whole-program lint engine: pass 1 indexes every
module (symbol tables, call records, function signatures, module-global
access); pass 2 runs the cross-file rule families -- RNG reachability over
the call graph, experiment-registry completeness, fork-safety of the sweep
workers, kernel-equivalence registration -- alongside the per-file hygiene
and data-flow rules.
``repro-lint src`` runs it from the command line and
``tests/test_static_analysis.py`` runs it in tier-1 CI.

Every unsuppressed finding blocks; the only way to accept one is a
``# repro: allow-<rule>`` comment on its line.  See docs/static_analysis.md
for the rule catalogue and the suppression syntax.
"""

from repro.devtools.config import DEFAULT_CONFIG, LintConfig
from repro.devtools.dataflow import TagFlow, build_cfg, global_access
from repro.devtools.engine import LintEngine, parse_suppressions
from repro.devtools.findings import Finding, LintReport
from repro.devtools.index import (
    FunctionInfo,
    ModuleIndex,
    ProjectIndex,
    build_module_index,
)
from repro.devtools.reporters import render_json, render_text
from repro.devtools.rules import (
    ModuleContext,
    ProjectContext,
    Rule,
    create_rules,
    describe_rules,
    register,
    rule_names,
)

__all__ = [
    "DEFAULT_CONFIG",
    "LintConfig",
    "TagFlow",
    "build_cfg",
    "global_access",
    "LintEngine",
    "parse_suppressions",
    "Finding",
    "LintReport",
    "FunctionInfo",
    "ModuleIndex",
    "ProjectIndex",
    "build_module_index",
    "render_json",
    "render_text",
    "ModuleContext",
    "ProjectContext",
    "Rule",
    "create_rules",
    "describe_rules",
    "register",
    "rule_names",
]
