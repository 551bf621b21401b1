"""Lint rules for the repro codebase, grouped by invariant.

Importing this package populates the registry: each rule module applies the
:func:`~repro.devtools.rules.registry.register` decorator at import time.
R1--R4 are the per-file/per-project families from the first devtools
iteration; R7 (rng reachability) and R8 (experiment registry) are the
whole-program families that run over the pass-1 index; R9 (event-schema)
pins observability emit sites to the declared schema; R10 and R11 (rng
order-sensitivity, fork-safety) are the data-flow families built on
:mod:`repro.devtools.dataflow`; R15 (kernel equivalence) ties every
vectorized kernel to its scalar reference and equivalence test.
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
from repro.devtools.rules import api as _api
from repro.devtools.rules import concurrency as _concurrency
from repro.devtools.rules import determinism as _determinism
from repro.devtools.rules import experiments as _experiments
from repro.devtools.rules import kernel_equivalence as _kernel_equivalence
from repro.devtools.rules import numeric as _numeric
from repro.devtools.rules import observability as _observability
from repro.devtools.rules import protocol as _protocol
from repro.devtools.rules import reachability as _reachability

__all__ = [
    "ModuleContext",
    "ProjectContext",
    "Rule",
    "create_rules",
    "describe_rules",
    "register",
    "rule_names",
]
