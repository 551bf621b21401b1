"""R1 -- determinism rules.

The paper's headline numbers (Tables I-IV) are Monte-Carlo averages; they are
only reproducible if every draw flows from one seed through explicitly
threaded :class:`numpy.random.Generator` objects.  These rules ban the three
ways hidden or constant randomness sneaks in: the stdlib ``random`` module,
the legacy ``np.random.*`` global state, and ad-hoc ``default_rng()``
construction.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.devtools.config import LintConfig, path_matches
from repro.devtools.findings import Finding
from repro.devtools.rules.base import ModuleContext, Rule
from repro.devtools.rules.registry import register


def dotted_name(node: ast.expr) -> str | None:
    """``np.random.default_rng`` -> that string; None for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _numpy_random_attr(func: ast.expr) -> str | None:
    """Return ``<fn>`` when ``func`` spells ``np.random.<fn>``/``numpy.random.<fn>``."""
    name = dotted_name(func)
    if name is None:
        return None
    head, _, attr = name.rpartition(".")
    if head in ("np.random", "numpy.random"):
        return attr
    return None


@register
class NoImportRandom(Rule):
    """Ban the stdlib ``random`` module anywhere in ``src/``."""

    name = "no-import-random"
    description = ("stdlib `random` uses hidden global state; draw from an "
                   "explicitly threaded np.random.Generator instead")

    def check_module(self, module: ModuleContext,
                     config: LintConfig) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root == "random":
                        yield self.finding(
                            module, node.lineno,
                            "import of stdlib `random`; thread an explicit "
                            "`rng: np.random.Generator` instead")
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if node.level == 0 and root == "random":
                    yield self.finding(
                        module, node.lineno,
                        "import from stdlib `random`; thread an explicit "
                        "`rng: np.random.Generator` instead")


@register
class NoGlobalNumpyRandom(Rule):
    """Ban the legacy ``np.random.<draw>()`` global-state API."""

    name = "no-global-np-random"
    description = ("legacy np.random draw functions mutate process-global "
                   "state and break seeded reproducibility")

    def check_module(self, module: ModuleContext,
                     config: LintConfig) -> Iterable[Finding]:
        benign = set(config.rng_benign_attrs)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            attr = _numpy_random_attr(node.func)
            if attr is not None and attr not in benign:
                yield self.finding(
                    module, node.lineno,
                    f"call to legacy global-state `np.random.{attr}()`; use "
                    "a method on an explicitly threaded Generator")


@register
class RngConstruction(Rule):
    """Confine ``default_rng``/``SeedSequence`` to the seed entry points."""

    name = "rng-construction"
    description = ("Generators may only be minted in the designated "
                   "seed-spawning entry points; everywhere else randomness "
                   "arrives as a parameter")

    def check_module(self, module: ModuleContext,
                     config: LintConfig) -> Iterable[Finding]:
        if any(path_matches(module.relpath, entry)
               for entry in config.rng_entry_points):
            return
        factories = set(config.rng_factories)
        # Bare names count only when imported from numpy.random.
        imported: set[str] = set()
        for node in ast.walk(module.tree):
            if (isinstance(node, ast.ImportFrom)
                    and node.module in ("numpy.random", "np.random")):
                for alias in node.names:
                    if alias.name in factories:
                        imported.add(alias.asname or alias.name)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            attr = _numpy_random_attr(node.func)
            called = attr if attr in factories else None
            if (called is None and isinstance(node.func, ast.Name)
                    and node.func.id in imported):
                called = node.func.id
            if called is not None:
                entries = ", ".join(config.rng_entry_points)
                yield self.finding(
                    module, node.lineno,
                    f"`{called}(...)` outside the seed entry points "
                    f"({entries}); accept an `rng: np.random.Generator` "
                    "parameter or use repro.experiments.rng_from_seed")
