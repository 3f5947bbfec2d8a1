"""The per-file walker and multi-file driver behind ``repro check``.

One AST traversal per file: the engine maintains the positional state
rules need (enclosing function/class names, tracked-module alias
table) on a shared
:class:`~repro.check.rules.FileContext` and dispatches each node to
the rules that declared interest in its class.  Findings then pass
through the suppression filter (``# repro: noqa(RPR0xx): why`` on the
finding's line).

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

from repro.check.findings import (
    INVALID_SUPPRESSION,
    PARSE_ERROR,
    Finding,
    Suppression,
    scan_suppressions,
    suppressions_by_line,
)
from repro.check.rules import (
    TRACKED_MODULES,
    FileContext,
    Rule,
    all_rules,
    known_codes,
)


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

    def __init__(self, ctx: FileContext, rules: Sequence[Rule]) -> None:
        self.ctx = ctx
        self.findings: List[Finding] = []
        self._interest: Dict[type, List[Rule]] = {}
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

    def _dispatch(self, node: ast.AST) -> None:
        for rule in self._interest.get(type(node), ()):
            self.findings.extend(rule.inspect(node, self.ctx))

    def walk(self, node: ast.AST) -> None:
        """Visit ``node`` and its children in document order."""
        ctx = self.ctx
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # Rules see the import before the alias lands so RPR002
            # reports the import statement itself; calls resolved
            # later in document order see the alias.
            self._dispatch(node)
            self._record_imports(node)
            return

        self._dispatch(node)

        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ctx.function_stack.append(node.name)
            for child in ast.iter_child_nodes(node):
                self.walk(child)
            ctx.function_stack.pop()
        elif isinstance(node, ast.Lambda):
            ctx.function_stack.append("<lambda>")
            for child in ast.iter_child_nodes(node):
                self.walk(child)
            ctx.function_stack.pop()
        elif isinstance(node, ast.ClassDef):
            ctx.class_stack.append(node.name)
            for child in ast.iter_child_nodes(node):
                self.walk(child)
            ctx.class_stack.pop()
        else:
            for child in ast.iter_child_nodes(node):
                self.walk(child)


def _apply_suppressions(
    findings: List[Finding],
    suppressions: List[Suppression],
    path: str,
) -> Tuple[List[Finding], int]:
    """Drop findings covered by valid suppressions; flag invalid ones.

    Returns the kept findings plus the number suppressed.  A
    suppression must carry a justification and name only known codes
    to take effect; otherwise it is inert and reported as RPR000.
    """
    codes = known_codes()
    by_line = suppressions_by_line(suppressions)
    kept: List[Finding] = []
    suppressed = 0
    for sup in suppressions:
        unknown = sorted(set(sup.codes) - codes)
        if not sup.valid:
            kept.append(
                Finding(
                    path=path,
                    line=sup.line,
                    col=1,
                    code=INVALID_SUPPRESSION,
                    message=(
                        "suppression has no justification text "
                        "(write `# repro: noqa(CODE): reason`); it "
                        "suppresses nothing"
                    ),
                )
            )
        elif unknown:
            kept.append(
                Finding(
                    path=path,
                    line=sup.line,
                    col=1,
                    code=INVALID_SUPPRESSION,
                    message=(
                        "suppression names unknown rule code(s) "
                        f"{', '.join(unknown)}; it suppresses nothing"
                    ),
                )
            )
    for finding in findings:
        covered = any(
            sup.valid
            and not (set(sup.codes) - codes)
            and finding.code in sup.codes
            for sup in by_line.get(finding.line, [])
        )
        if covered:
            suppressed += 1
        else:
            kept.append(finding)
    return kept, suppressed


def check_source(
    source: str,
    path: str,
    scope: Optional[str],
    rules: Optional[Sequence[Rule]] = None,
) -> Tuple[List[Finding], int]:
    """Check one in-memory source; returns (findings, suppressed).

    The unit the fixture tests drive directly; :func:`check_file`
    adds I/O and scope detection on top.
    """
    selected = [
        rule
        for rule in (all_rules() if rules is None else rules)
        if rule.applies_to(scope)
    ]
    try:
        tree = ast.parse(source)
    except (SyntaxError, ValueError) as exc:
        line = getattr(exc, "lineno", 1) or 1
        return (
            [
                Finding(
                    path=path,
                    line=line,
                    col=1,
                    code=PARSE_ERROR,
                    message=f"file does not parse: {exc}",
                )
            ],
            0,
        )
    ctx = FileContext(
        path=path, scope=scope, lines=source.splitlines()
    )
    walker = _Walker(ctx, selected)
    walker.walk(tree)
    return _apply_suppressions(
        walker.findings, scan_suppressions(source), path
    )


def check_file(
    path: pathlib.Path, rules: Optional[Sequence[Rule]] = None
) -> Tuple[List[Finding], int]:
    """Check one file on disk; returns (findings, suppressed)."""
    display = path.as_posix()
    source = path.read_text(encoding="utf-8")
    return check_source(source, display, scope_of(path), rules)


@dataclasses.dataclass(frozen=True)
class CheckReport:
    """The outcome of one ``repro check`` invocation.

    Attributes:
        findings: Surviving findings, sorted by (path, line, col,
            code).
        files_checked: Number of Python files visited.
        suppressed: Findings silenced by valid justified noqa
            comments.
    """

    findings: Tuple[Finding, ...]
    files_checked: int
    suppressed: int

    @property
    def clean(self) -> bool:
        """Whether no finding survived suppression."""
        return not self.findings

    def counts(self) -> Dict[str, int]:
        """Surviving findings per rule code."""
        out: Dict[str, int] = {}
        for finding in self.findings:
            out[finding.code] = out.get(finding.code, 0) + 1
        return out


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


def check_paths(
    paths: Sequence[pathlib.Path],
    rules: Optional[Sequence[Rule]] = None,
) -> CheckReport:
    """Run the rule pack over ``paths`` (files and/or directories)."""
    findings: List[Finding] = []
    suppressed = 0
    files = iter_python_files(paths)
    for file_path in files:
        file_findings, file_suppressed = check_file(file_path, rules)
        findings.extend(file_findings)
        suppressed += file_suppressed
    return CheckReport(
        findings=tuple(sorted(findings)),
        files_checked=len(files),
        suppressed=suppressed,
    )
