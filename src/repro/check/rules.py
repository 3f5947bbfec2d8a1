"""The rule interface and registry behind ``repro check``.

A *rule* encodes one statically-checkable repository contract (see
docs/CHECKS.md for the catalogue).  Rules are objects satisfying the
:class:`Rule` protocol: they carry a unique ``RPR0xx`` code, the
contract text they enforce, the documented fix, an optional scope (the
first-level ``repro`` subpackages they apply to), and a tuple of
:mod:`ast` node classes they want to see.  The engine walks each file's
AST exactly once and dispatches every node to the rules interested in
its class — adding a rule never adds a traversal.

Rules never mutate the tree and never see files outside their scope;
everything position-dependent they need (enclosing function/class,
alias table) is maintained by the engine on the shared
:class:`FileContext`.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import (
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Set,
    Tuple,
    TypeVar,
)

from repro.check.findings import Finding

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
        lines: The file's source lines (1-based access via
            ``lines[line - 1]``).
        function_stack: Names of enclosing ``def``/``lambda`` scopes,
            outermost first.
        class_stack: Names of enclosing classes, outermost first.
        aliases: Local name → dotted origin for tracked modules, e.g.
            ``{"rnd": "random", "datetime": "datetime.datetime"}``.
    """

    path: str
    scope: Optional[str]
    lines: List[str]
    function_stack: List[str] = dataclasses.field(default_factory=list)
    class_stack: List[str] = dataclasses.field(default_factory=list)
    aliases: Dict[str, str] = dataclasses.field(default_factory=dict)

    def in_function(self, name: str) -> bool:
        """Whether any enclosing function is called ``name``."""
        return name in self.function_stack

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


class Rule(Protocol):
    """The contract every registered rule satisfies.

    Attributes:
        code: Unique ``RPR0xx`` identifier.
        name: Short kebab-ish rule name for reports.
        contract: The repository contract the rule enforces (rendered
            in ``repro check --list-rules`` and docs/CHECKS.md).
        fix: The documented way to bring violating code into
            compliance.
        scopes: First-level ``repro`` subpackages the rule applies to,
            or ``None`` for the whole tree.
        interests: The :mod:`ast` node classes the rule inspects.
    """

    code: str
    name: str
    contract: str
    fix: str
    scopes: Optional[Tuple[str, ...]]
    interests: Tuple[type, ...]

    def inspect(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterator[Finding]:
        """Yield findings for one dispatched node."""
        ...  # pragma: no cover - protocol signature


class ContractRule:
    """Convenience base carrying the static rule metadata.

    Subclasses set the class attributes and implement
    :meth:`inspect`; :meth:`finding` builds a correctly-located
    :class:`Finding` from an AST node.
    """

    code: str = "RPR???"
    name: str = ""
    contract: str = ""
    fix: str = ""
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
        """Yield findings for one dispatched node (default: none)."""
        return iter(())


_RULES: Dict[str, Rule] = {}

#: Meta codes the engine itself reports; they appear in the catalogue
#: but have no Rule object and cannot be suppressed.
META_CODES: Dict[str, str] = {
    "RPR000": "suppression comment without a justification, or naming "
    "a code no registered rule owns (the suppression is inert)",
    "RPR900": "file does not parse as Python (nothing else was checked)",
}


_R = TypeVar("_R", bound="ContractRule")


def register_rule(rule_cls: type[_R]) -> type[_R]:
    """Register an instance of ``rule_cls`` under its code.

    Used as a class decorator on :class:`ContractRule` subclasses;
    duplicate codes are an error so every finding maps to exactly one
    documented contract.
    """
    rule = rule_cls()
    if rule.code in _RULES or rule.code in META_CODES:
        raise ValueError(f"duplicate rule code {rule.code!r}")
    _RULES[rule.code] = rule
    return rule_cls


def all_rules() -> Tuple[Rule, ...]:
    """Every registered rule, code-sorted (deterministic dispatch)."""
    return tuple(_RULES[code] for code in sorted(_RULES))


def rule_codes() -> Tuple[str, ...]:
    """The sorted registered codes (meta codes excluded)."""
    return tuple(sorted(_RULES))


def known_codes() -> Set[str]:
    """Registered plus meta codes — the vocabulary suppressions may use."""
    return set(_RULES) | set(META_CODES)


def rule_catalogue() -> Dict[str, Dict[str, str]]:
    """``code → {name, contract, fix, scopes}`` for reports and docs."""
    catalogue: Dict[str, Dict[str, str]] = {}
    for code in sorted(_RULES):
        rule = _RULES[code]
        scopes = (
            "repro (all packages)"
            if rule.scopes is None
            else ", ".join(rule.scopes)
        )
        catalogue[code] = {
            "name": rule.name,
            "contract": rule.contract,
            "fix": rule.fix,
            "scopes": scopes,
        }
    for code, text in sorted(META_CODES.items()):
        catalogue[code] = {
            "name": "meta",
            "contract": text,
            "fix": "",
            "scopes": "reported by the engine itself",
        }
    return catalogue
