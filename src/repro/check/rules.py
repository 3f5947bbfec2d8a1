"""The finding, per-file context and rule base behind ``repro check``.

A *rule* encodes one statically-checkable repository contract (see
docs/CHECKS.md for the catalogue).  Rules subclass
:class:`ContractRule`: they carry a unique ``RPR0xx`` code, an optional
scope (the first-level ``repro`` subpackages they apply to), and a
tuple of :mod:`ast` node classes they want to see.  The engine walks
each file's AST exactly once and dispatches every node to the rules
interested in its class.

Rules never mutate the tree and never see files outside their scope;
the alias table they resolve calls against is maintained by the engine
on the shared :class:`FileContext`.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, Iterator, List, Optional, Tuple

#: Modules whose names/aliases the engine tracks on
#: :attr:`FileContext.aliases` — the vocabulary rules resolve calls
#: against.  Everything else stays out of the table.
TRACKED_MODULES = (
    "random",
    "time",
    "datetime",
    "os",
    "uuid",
    "secrets",
)


@dataclasses.dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        path: Display path of the offending file (as given to the
            checker, normalised to POSIX separators).
        line: 1-based source line.
        col: 1-based source column.
        code: The rule code (``RPR002`` … or ``RPR900``).
        message: Human-readable description of the violation.
    """

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        """The one-line ``path:line:col: CODE message`` form."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclasses.dataclass
class FileContext:
    """Per-file state the engine maintains while walking the AST.

    Attributes:
        path: Display path used in findings.
        scope: First ``repro`` subpackage the file lives in (``"sim"``,
            ``"core"`` …), or ``None`` when the file is outside a
            ``repro`` package — in which case *every* rule applies
            (this is how the test fixture corpus exercises scoped
            rules).
        aliases: Local name → dotted origin for tracked modules, e.g.
            ``{"rnd": "random", "datetime": "datetime.datetime"}``.
    """

    path: str
    scope: Optional[str]
    aliases: Dict[str, str] = dataclasses.field(default_factory=dict)

    def resolve(self, node: ast.AST) -> Optional[str]:
        """The dotted name of an expression, aliases expanded.

        ``rnd.shuffle`` resolves to ``"random.shuffle"`` when ``rnd`` is
        a tracked alias; plain names resolve to their origin or
        themselves (so builtin calls like ``set(...)`` resolve to
        ``"set"``).  Returns ``None`` for expressions that are not
        name/attribute chains (subscripts, calls, literals).
        """
        parts: List[str] = []
        cur = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            return None
        parts.append(self.aliases.get(cur.id, cur.id))
        return ".".join(reversed(parts))


class ContractRule:
    """Base of every rule: its code, scope and node interests.

    Subclasses set the class attributes and implement
    :meth:`inspect`; :meth:`finding` builds a correctly-located
    :class:`Finding` from an AST node.

    Attributes:
        code: Unique ``RPR0xx`` identifier.
        scopes: First-level ``repro`` subpackages the rule applies to,
            or ``None`` for the whole tree.
        interests: The :mod:`ast` node classes the rule inspects.
    """

    code: str = "RPR???"
    scopes: Optional[Tuple[str, ...]] = None
    interests: Tuple[type, ...] = ()

    def applies_to(self, scope: Optional[str]) -> bool:
        """Whether the rule runs on a file in ``scope``.

        Files outside any ``repro`` package (``scope is None``) get
        the full rule pack so fixtures and ad-hoc targets exercise
        every rule.
        """
        if self.scopes is None or scope is None:
            return True
        return scope in self.scopes

    def finding(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Finding:
        """A finding at ``node``'s location in ``ctx``'s file."""
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message,
        )

    def inspect(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterator[Finding]:
        """Yield findings for one dispatched node."""
        raise NotImplementedError
