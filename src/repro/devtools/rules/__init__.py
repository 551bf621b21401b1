"""Lint rules for the repro codebase, grouped by invariant.

Importing this package populates the registry: each rule module applies the
:func:`~repro.devtools.rules.registry.register` decorator at import time.
R1 (determinism) and R3 (numeric hygiene) are per-file; R10 and R11 (rng
order-sensitivity, fork-safety) are the data-flow families built on
:mod:`repro.devtools.dataflow`; R15 (kernel equivalence) ties every
vectorized kernel to its scalar reference and equivalence test.  The rule
numbers in between belong to rules a planted-violation audit removed.
"""

from repro.devtools.rules.base import (
    ModuleContext,
    ProjectContext,
    Rule,
)
from repro.devtools.rules.registry import (
    create_rules,
    describe_rules,
    register,
    rule_names,
)

# Importing for side effect: these modules register their rules.
from repro.devtools.rules import concurrency as _concurrency
from repro.devtools.rules import determinism as _determinism
from repro.devtools.rules import kernel_equivalence as _kernel_equivalence
from repro.devtools.rules import numeric as _numeric

__all__ = [
    "ModuleContext",
    "ProjectContext",
    "Rule",
    "create_rules",
    "describe_rules",
    "register",
    "rule_names",
]
