"""repro.devtools -- static analysis guarding the simulator's invariants.

The reproduction's claims (Tables I-IV throughput, the Table III resolved
fractions) are averages over seeded Monte-Carlo runs.  This package keeps
the checks that guard that seed discipline where no tier-1 test can see a
fault: randomness drawn from hidden or constant state, draws whose order
hangs on hash order or float rounding, worker code leaning on module
globals across the fork, float-literal equality in the numeric code, and
vectorized kernels without a paired scalar reference.  It is a two-pass
whole-program lint engine: pass 1 indexes every module (symbol tables,
call records, module-global access); pass 2 runs the cross-file rules
over that index.
``repro-lint src`` runs it from the command line and
``tests/test_static_analysis.py`` runs it in tier-1 CI.

Every finding blocks: there are no suppression comments.  See
docs/static_analysis.md for the rule catalogue and the audit that decided
which rules stay.
"""

from repro.devtools.config import DEFAULT_CONFIG, LintConfig
from repro.devtools.dataflow import global_access
from repro.devtools.engine import LintEngine
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
    "global_access",
    "LintEngine",
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
