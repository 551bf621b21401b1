"""R15 -- kernel-equivalence registration.

Every vectorized kernel (name matches ``kernel_name_markers``, or the
function carries a kernel contract) must register its scalar reference
and an equivalence test::

    # repro: kernel scalar=repro.phy.anc:decode_residual test=tests/test_kernels.py
    def batched_decode_residual(...):

The scalar reference must resolve in the project index and differ from
the kernel itself; the test file must exist and mention the kernel by
name (file checks are skipped for fixture trees without a repo root,
mirroring R8).
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Iterable

from repro.devtools.config import LintConfig
from repro.devtools.findings import Finding
from repro.devtools.rules.base import ModuleContext, ProjectContext, Rule
from repro.devtools.rules.registry import register

#: Loose match first, strict parse second: a ``repro: kernel`` comment
#: that does not carry well-formed ``scalar=``/``test=`` fields is
#: malformed (the rule reports it), not an ignored comment.
KERNEL_MARKER = re.compile(r"#\s*repro:\s*kernel\b(?P<rest>.*)$")
KERNEL_CONTRACT = re.compile(
    r"^\s+scalar=(?P<scalar>[\w.]+:[\w.]+)\s+test=(?P<test>\S+)\s*$")


def iter_comments(source: str) -> list[tuple[int, str]]:
    """``(1-based line, comment text)`` for every real comment token.

    Tokenizing (instead of line-scanning) keeps contract markers inside
    string literals and docstrings from parsing as contracts.
    """
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        return [(token.start[0], token.string)
                for token in tokens if token.type == tokenize.COMMENT]
    except (tokenize.TokenizeError, IndentationError, SyntaxError):
        return []


def parse_kernel_contracts(source: str) -> tuple[
        dict[int, tuple[str, str]], list[tuple[int, str]]]:
    """``# repro: kernel`` registrations in one module's source.

    Returns ``(line -> (scalar, test), malformed)``.
    """
    contracts: dict[int, tuple[str, str]] = {}
    malformed: list[tuple[int, str]] = []
    for lineno, text in iter_comments(source):
        marker = KERNEL_MARKER.search(text)
        if marker is None:
            continue
        fields = KERNEL_CONTRACT.match(marker.group("rest"))
        if fields is None:
            malformed.append((lineno, marker.group("rest")))
        else:
            contracts[lineno] = (fields.group("scalar"),
                                 fields.group("test"))
    return contracts, malformed


@register
class KernelEquivalence(Rule):
    """Vectorized kernels must register a scalar reference and a test."""

    name = "kernel-equivalence"
    description = ("functions named like vectorized kernels (batched_* / "
                   "*_kernel) must carry a `# repro: kernel scalar=... "
                   "test=...` registration whose scalar reference resolves "
                   "in the index and whose equivalence test exists and "
                   "mentions the kernel")

    def check_project(self, project: ProjectContext,
                      config: LintConfig) -> Iterable[Finding]:
        index = project.index
        if index is None:
            return
        for module in project.modules:
            module_index = index.modules.get(module.dotted_name)
            if module_index is None:
                continue
            contracts, malformed = parse_kernel_contracts(module.source)
            for line, rest in malformed:
                yield self.finding(
                    module, line,
                    f"malformed kernel registration `# repro: kernel"
                    f"{rest.rstrip()}`; expected `# repro: kernel "
                    "scalar=<module:qualname> test=<relpath>`")
            by_line = {info.lineno: info
                       for info in module_index.functions.values()}
            claimed: set[int] = set()
            for line, (scalar, test) in sorted(contracts.items()):
                info = by_line.get(line) or by_line.get(line + 1)
                if info is None:
                    yield self.finding(
                        module, line,
                        "kernel registration is not attached to a function "
                        "definition (put it on the `def` line or the line "
                        "directly above)")
                    continue
                claimed.add(info.lineno)
                yield from self._check_registration(
                    project, module, module_index, info, line, scalar, test)
            for info in module_index.functions.values():
                if info.lineno in claimed:
                    continue
                if self._is_kernel_name(info.qualname,
                                        config.kernel_name_markers):
                    yield self.finding(
                        module, info.lineno,
                        f"`{info.qualname}` is named like a vectorized "
                        "kernel but has no scalar-reference registration; "
                        "add `# repro: kernel scalar=<module:qualname> "
                        "test=<relpath>` above its def")

    def _check_registration(self, project: ProjectContext,
                            module: ModuleContext, module_index,
                            info, line: int, scalar: str,
                            test: str) -> Iterable[Finding]:
        kernel_path = f"{module_index.dotted}:{info.qualname}"
        if scalar == kernel_path:
            yield self.finding(
                module, line,
                f"kernel `{info.qualname}` registers *itself* as the "
                "scalar reference; point `scalar=` at the un-batched "
                "implementation it must stay equivalent to")
        elif self._resolve(project.index, scalar) is None:
            yield self.finding(
                module, line,
                f"kernel `{info.qualname}` registers scalar reference "
                f"`{scalar}`, which does not resolve to an indexed "
                "function")
        if project.repo_root is None:
            return  # fixture tree: no files to check, mirroring R8
        test_path = project.repo_root / test
        if not test_path.is_file():
            yield self.finding(
                module, line,
                f"kernel `{info.qualname}` registers equivalence test "
                f"`{test}`, which does not exist")
            return
        simple = info.qualname.rpartition(".")[2]
        if simple not in test_path.read_text(encoding="utf-8"):
            yield self.finding(
                module, line,
                f"equivalence test `{test}` never mentions "
                f"`{simple}`; the registered test must actually "
                "exercise the kernel")

    @staticmethod
    def _resolve(index, scalar: str):
        dotted, _, qualname = scalar.partition(":")
        module = index.modules.get(dotted)
        if module is None:
            return None
        return module.functions.get(qualname)

    @staticmethod
    def _is_kernel_name(qualname: str, markers: tuple[str, ...]) -> bool:
        simple = qualname.rpartition(".")[2]
        for marker in markers:
            if marker.endswith("_") and not marker.startswith("_"):
                if simple.startswith(marker):
                    return True
            elif simple.endswith(marker):
                return True
        return False
