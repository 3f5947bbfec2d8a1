"""The rule pack: each rule catches one defect the test suite misses.

Each rule flags a violation that can change a trace, a persisted byte
or the stdlib-only import contract where tier-1 and the fuzz suite do
not look (docs/CHECKS.md names each defect and a live site for it):

* **RPR002** — a NumPy/SciPy import the import-gate test does not
  execute (function-local, on a path its sweep skips).
* **RPR003** — a wall-clock, timer or entropy read in the packages that
  produce traces and persisted bytes.
* **RPR004** — iteration over a set expression, or over a local bound
  only to one, in trace code, whose hash order the tests' small node
  ids hide.
* **RPR005** — a ``==``/``!=`` against a float in trace or search code.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.check.rules import ContractRule, FileContext, Finding


class ScientificImport(ContractRule):
    """RPR002: no NumPy/SciPy imports anywhere in the package."""

    code = "RPR002"
    interests: Tuple[type, ...] = (ast.Import, ast.ImportFrom)

    def inspect(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterator[Finding]:
        """Flag each ``numpy``/``scipy`` root an import statement names."""
        assert isinstance(node, (ast.Import, ast.ImportFrom))
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".", 1)[0] for alias in node.names]
        else:
            if node.level or node.module is None:
                return
            roots = [node.module.split(".", 1)[0]]
        for root in roots:
            if root in ("numpy", "scipy"):
                yield self.finding(
                    ctx,
                    node,
                    f"import of {root} makes the stdlib-only runtime "
                    "depend on it",
                )


#: Exact dotted call names that read a wall clock, a timer or an
#: entropy source.
_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "os.getrandom",
        "random.SystemRandom",
    }
)

#: Dotted prefixes banned wholesale: every public callable in these
#: modules exists to be unpredictable.
_ENTROPY_PREFIXES = ("uuid.", "secrets.")


class WallClockEntropy(ContractRule):
    """RPR003: no clock or entropy reads where traces and records form.

    Elapsed time is measured through :class:`repro.obs.Stopwatch` or a
    telemetry span, which live outside the rule's scope.
    """

    code = "RPR003"
    scopes: Optional[Tuple[str, ...]] = ("sim", "core", "search", "store")
    interests: Tuple[type, ...] = (ast.Call,)

    def inspect(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterator[Finding]:
        """Flag a call that reads a clock or an entropy source."""
        assert isinstance(node, ast.Call)
        resolved = ctx.resolve(node.func)
        if resolved is None:
            return
        if resolved in _CLOCK_CALLS or resolved.startswith(
            _ENTROPY_PREFIXES
        ):
            yield self.finding(
                ctx,
                node,
                f"{resolved}() reads a clock or entropy source; "
                "trace and record values must derive from the run key",
            )


#: Set-producing method names; calling one yields unordered contents
#: regardless of the receiver's own type.
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)


def _is_unordered_expr(node: ast.AST, ctx: FileContext) -> Optional[str]:
    """Describe ``node`` if it evaluates to a set, else ``None``."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Call):
        resolved = ctx.resolve(node.func)
        if resolved in ("set", "frozenset"):
            return f"{resolved}(...)"
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _SET_METHODS
        ):
            return f".{node.func.attr}(...)"
    return None


def _own_scope(
    func: Union[ast.FunctionDef, ast.AsyncFunctionDef],
) -> Iterator[ast.AST]:
    """The nodes of a function body outside nested defs and classes."""
    pending: List[ast.AST] = list(func.body)
    while pending:
        node = pending.pop()
        yield node
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            pending.extend(ast.iter_child_nodes(node))


def _set_locals(
    nodes: List[ast.AST], params: Set[str], ctx: FileContext
) -> Dict[str, str]:
    """Locals whose every binding is a set expression, described.

    Augmented assignments (``touched |= more``) keep a set a set; any
    other binding (a parameter, a plain assignment of something else,
    a loop target, ``global``) disqualifies the name.
    """
    described: Dict[str, str] = {}
    other: Set[str] = set(params)
    neutral: Set[int] = set()
    for node in nodes:
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            other.update(node.names)
        elif isinstance(node, ast.AugAssign):
            neutral.add(id(node.target))
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target
            ]
            what = (
                _is_unordered_expr(node.value, ctx)
                if node.value is not None
                else None
            )
            for target in targets:
                if isinstance(target, ast.Name) and what is not None:
                    described.setdefault(target.id, what)
                    neutral.add(id(target))
    for node in nodes:
        if (
            isinstance(node, ast.Name)
            and isinstance(node.ctx, (ast.Store, ast.Del))
            and id(node) not in neutral
        ):
            other.add(node.id)
    return {
        name: what for name, what in described.items() if name not in other
    }


class UnorderedIteration(ContractRule):
    """RPR004: iteration over a set must be sorted.

    Flags a ``for`` loop or comprehension straight over a set
    expression, and a loop, comprehension, ``list(name)`` or
    ``tuple(name)`` over a local that its function binds only to set
    expressions.
    """

    code = "RPR004"
    scopes: Optional[Tuple[str, ...]] = ("sim", "search")
    interests: Tuple[type, ...] = (
        ast.For,
        ast.AsyncFor,
        ast.comprehension,
        ast.FunctionDef,
        ast.AsyncFunctionDef,
    )

    def inspect(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterator[Finding]:
        """Flag a ``for`` or comprehension iterating a set expression,
        or, for a function, each iteration over a set-bound local."""
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from self._named_sets(node, ctx)
            return
        assert isinstance(
            node, (ast.For, ast.AsyncFor, ast.comprehension)
        )
        described = _is_unordered_expr(node.iter, ctx)
        if described is not None:
            yield self.finding(
                ctx,
                node.iter,
                f"iterating {described} directly is "
                "hash-order-dependent; wrap it in sorted(...)",
            )

    def _named_sets(
        self,
        func: Union[ast.FunctionDef, ast.AsyncFunctionDef],
        ctx: FileContext,
    ) -> Iterator[Finding]:
        params = {
            a.arg for a in ast.walk(func.args) if isinstance(a, ast.arg)
        }
        nodes = list(_own_scope(func))
        sets = _set_locals(nodes, params, ctx)
        if not sets:
            return
        for node in nodes:
            if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
                iterated = node.iter
            elif (
                isinstance(node, ast.Call)
                and ctx.resolve(node.func) in ("list", "tuple")
                and len(node.args) == 1
                and not node.keywords
            ):
                iterated = node.args[0]
            else:
                continue
            if isinstance(iterated, ast.Name) and iterated.id in sets:
                yield self.finding(
                    ctx,
                    iterated,
                    f"iterating {iterated.id!r}, bound to "
                    f"{sets[iterated.id]}, is hash-order-dependent; "
                    "wrap it in sorted(...)",
                )


def _is_float_operand(node: ast.AST) -> bool:
    """Whether ``node`` is statically a float expression."""
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.UAdd, ast.USub)
    ):
        return _is_float_operand(node.operand)
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
    )


class FloatEquality(ContractRule):
    """RPR005: no ``==``/``!=`` against float values in trace code."""

    code = "RPR005"
    scopes: Optional[Tuple[str, ...]] = ("sim", "core", "search")
    interests: Tuple[type, ...] = (ast.Compare,)

    def inspect(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterator[Finding]:
        """Flag the first ``==``/``!=`` with a float operand."""
        assert isinstance(node, ast.Compare)
        operands = [node.left, *node.comparators]
        for i, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _is_float_operand(operands[i]) or _is_float_operand(
                operands[i + 1]
            ):
                sym = "==" if isinstance(op, ast.Eq) else "!="
                yield self.finding(
                    ctx,
                    node,
                    f"float {sym} comparison in a trace-critical "
                    "module; use math.isclose or exact "
                    "integer/rational arithmetic",
                )
                return


#: The rule pack, in code order (the engine dispatches in this order).
RULES: Tuple[ContractRule, ...] = (
    ScientificImport(),
    WallClockEntropy(),
    UnorderedIteration(),
    FloatEquality(),
)
