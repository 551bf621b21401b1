"""R3 -- numeric hygiene.

Collision-recovery results live and die on slot bookkeeping thresholds
(report probabilities, SNR cutoffs, estimator corrections).  Exact float
equality makes those comparisons platform- and optimisation-dependent.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.devtools.config import LintConfig, path_has_dir
from repro.devtools.findings import Finding
from repro.devtools.rules.base import ModuleContext, Rule
from repro.devtools.rules.registry import register


@register
class FloatEquality(Rule):
    """No ``==``/``!=`` against float literals in the numeric directories."""

    name = "float-equality"
    description = ("exact equality against a float literal in phy/, "
                   "analysis/ or core/ is platform-dependent; use an "
                   "inequality or math.isclose")

    def check_module(self, module: ModuleContext,
                     config: LintConfig) -> Iterable[Finding]:
        if not any(path_has_dir(module.relpath, d)
                   for d in config.float_equality_dirs):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                pair = (operands[index], operands[index + 1])
                if any(isinstance(side, ast.Constant)
                       and isinstance(side.value, float) for side in pair):
                    yield self.finding(
                        module, node.lineno,
                        f"float-literal equality `{ast.unparse(node)}`; "
                        "use >=/<= or math.isclose")
