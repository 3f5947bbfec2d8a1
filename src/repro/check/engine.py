"""The per-file walker and multi-file driver behind ``repro check``.

One AST traversal per file: the engine maintains the tracked-module
alias table on a shared :class:`~repro.check.rules.FileContext` and
dispatches each node to the rules that declared interest in its class.

Everything is deterministic by construction: files are visited in
sorted order, rules in code order, and findings are sorted before
reporting — the checker obeys the iteration-order contract it
enforces.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.check.rulepack import RULES
from repro.check.rules import (
    TRACKED_MODULES,
    ContractRule,
    FileContext,
    Finding,
)

#: Code reported when a checked file does not parse as Python.
PARSE_ERROR = "RPR900"


def scope_of(path: pathlib.Path) -> Optional[str]:
    """The first ``repro`` subpackage ``path`` lives in, if any.

    ``src/repro/sim/engine.py`` → ``"sim"``; ``src/repro/cli.py`` →
    ``"cli"``; paths outside a ``repro`` package → ``None`` (which
    makes every rule apply — the fixture-corpus convention).
    """
    parts = path.parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro" and i + 1 < len(parts):
            nxt = parts[i + 1]
            return nxt[:-3] if nxt.endswith(".py") else nxt
    return None


class _Walker:
    """Single-pass dispatcher: one AST walk feeds every rule."""

    def __init__(
        self, ctx: FileContext, rules: Sequence[ContractRule]
    ) -> None:
        self.ctx = ctx
        self.findings: List[Finding] = []
        self._interest: Dict[type, List[ContractRule]] = {}
        for rule in rules:
            for node_type in rule.interests:
                self._interest.setdefault(node_type, []).append(rule)

    def _record_imports(self, node: ast.AST) -> None:
        """Track local aliases of the modules rules resolve against."""
        aliases = self.ctx.aliases
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".", 1)[0]
                if root in TRACKED_MODULES:
                    aliases[alias.asname or root] = alias.name
        elif isinstance(node, ast.ImportFrom) and not node.level:
            module = node.module or ""
            if module.split(".", 1)[0] in TRACKED_MODULES:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    aliases[alias.asname or alias.name] = (
                        f"{module}.{alias.name}"
                    )

    def walk(self, node: ast.AST) -> None:
        """Visit ``node`` and its children in document order."""
        for rule in self._interest.get(type(node), ()):
            self.findings.extend(rule.inspect(node, self.ctx))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # Rules see the import before the alias lands so RPR002
            # reports the import statement itself; calls resolved
            # later in document order see the alias.
            self._record_imports(node)
            return
        for child in ast.iter_child_nodes(node):
            self.walk(child)


def check_source(
    source: str, path: str, scope: Optional[str]
) -> List[Finding]:
    """Check one in-memory source; returns its findings.

    The unit the fixture tests drive directly; :func:`check_file`
    adds I/O and scope detection on top.
    """
    try:
        tree = ast.parse(source)
    except (SyntaxError, ValueError) as exc:
        line = getattr(exc, "lineno", 1) or 1
        return [
            Finding(
                path=path,
                line=line,
                col=1,
                code=PARSE_ERROR,
                message=f"file does not parse: {exc}",
            )
        ]
    walker = _Walker(
        FileContext(path=path, scope=scope),
        [rule for rule in RULES if rule.applies_to(scope)],
    )
    walker.walk(tree)
    return walker.findings


def check_file(path: pathlib.Path) -> List[Finding]:
    """Check one file on disk; returns its findings."""
    source = path.read_text(encoding="utf-8")
    return check_source(source, path.as_posix(), scope_of(path))


@dataclasses.dataclass(frozen=True)
class CheckReport:
    """The outcome of one ``repro check`` invocation.

    Attributes:
        findings: Every finding, sorted by (path, line, col, code).
        files_checked: Number of Python files visited.
    """

    findings: Tuple[Finding, ...]
    files_checked: int

    @property
    def clean(self) -> bool:
        """Whether the checked files carry no finding."""
        return not self.findings

    def render(self) -> str:
        """The terminal form: findings, then a one-line summary."""
        lines = [f.render() for f in self.findings]
        if self.clean:
            lines.append(f"repro check: {self.files_checked} file(s) clean")
        else:
            lines.append(
                f"repro check: {len(self.findings)} finding(s) in "
                f"{self.files_checked} file(s)"
            )
        return "\n".join(lines)


def iter_python_files(
    paths: Iterable[pathlib.Path],
) -> List[pathlib.Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Bytecode caches are skipped; a named path that does not exist
    raises ``FileNotFoundError`` (silently checking nothing would
    make a typo look clean).
    """
    out: List[pathlib.Path] = []
    for path in paths:
        if path.is_dir():
            out.extend(
                p
                for p in sorted(path.rglob("*.py"))
                if "__pycache__" not in p.parts
            )
        elif path.is_file():
            out.append(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(dict.fromkeys(out))


def check_paths(paths: Sequence[pathlib.Path]) -> CheckReport:
    """Run the rule pack over ``paths`` (files and/or directories)."""
    files = iter_python_files(paths)
    findings = [f for path in files for f in check_file(path)]
    return CheckReport(
        findings=tuple(sorted(findings)), files_checked=len(files)
    )
