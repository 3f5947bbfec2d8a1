"""The first-party rule pack: the repository's trace contracts as AST rules.

Each rule here turns one invariant the differential/fuzz suites can
only probe dynamically into a diff-time static check:

* **RPR001** — randomness must flow through key-derived
  ``random.Random(seed)`` streams, never the ambient module-level
  generator or a seedless ``Random()``.
* **RPR002** — the runtime package is stdlib-only; it imports neither
  NumPy nor SciPy, gated or not.
* **RPR003** — engine/search/store paths must not read wall clocks or
  OS entropy (``time.time``, ``datetime.now``, ``os.urandom``,
  ``uuid``, ``secrets`` …); elapsed-time measurement is RPR008's
  domain.
* **RPR004** — iterating a set where order can reach trace state must
  go through an explicit ``sorted(...)``.
* **RPR005** — trace-critical modules never compare floats with
  ``==``/``!=`` against float literals.
* **RPR006** — frozen-dataclass fields are only mutated via
  ``object.__setattr__`` inside ``__post_init__``.
* **RPR007** — fault-injection modules never seed their streams with
  bare constants: a literal seed makes every churn schedule identical
  across runs, silently collapsing a sweep's fault axis.
* **RPR008** — wall-clock timing (``time.perf_counter``/``monotonic``)
  is confined to ``repro.obs`` (and the out-of-package ``benchmarks/``
  tree); every other layer measures through
  :class:`repro.obs.Stopwatch` or a telemetry span.

The catalogue with the full contract text and fixes is rendered by
``repro check --list-rules`` and mirrored in docs/CHECKS.md.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from repro.check.findings import Finding
from repro.check.rules import ContractRule, FileContext, register_rule

#: ``random`` module-level functions that tap the shared ambient
#: generator (its state is process-global, so call order anywhere in
#: the process perturbs every stream that touches it).
_AMBIENT_RANDOM_FNS = frozenset(
    {
        "betavariate",
        "binomialvariate",
        "choice",
        "choices",
        "expovariate",
        "gammavariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)


@register_rule
class AmbientRandomness(ContractRule):
    """RPR001: all randomness must be key-derived ``random.Random``."""

    code = "RPR001"
    name = "ambient-randomness"
    contract = (
        "Trace-affecting randomness flows through per-entity "
        'key-derived streams (random.Random(f"{seed}:{uid}")). '
        "Module-level random.* calls share one process-global "
        "generator, and random.Random() without a seed argument taps "
        "OS entropy — both break seed-for-seed reproducibility."
    )
    fix = (
        "Build random.Random(<key-derived seed>) and call methods on "
        "the instance."
    )
    scopes: Optional[Tuple[str, ...]] = ("sim", "core", "search")
    interests: Tuple[type, ...] = (ast.Call,)

    def inspect(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        resolved = ctx.resolve(node.func)
        if resolved is None:
            return
        if resolved == "random.Random" and not node.args:
            seed_kwargs = [
                kw for kw in node.keywords if kw.arg is not None
            ]
            if not seed_kwargs:
                yield self.finding(
                    ctx,
                    node,
                    "random.Random() without a seed argument seeds "
                    "from OS entropy; derive the seed from the run "
                    "key instead",
                )
            return
        if (
            resolved.startswith("random.")
            and resolved.split(".", 1)[1] in _AMBIENT_RANDOM_FNS
        ):
            yield self.finding(
                ctx,
                node,
                f"{resolved}() uses the ambient process-global "
                "generator; use a key-derived random.Random instance",
            )


@register_rule
class ScientificImport(ContractRule):
    """RPR002: no NumPy/SciPy imports anywhere in the package."""

    code = "RPR002"
    name = "scientific-import"
    contract = (
        "The runtime package is stdlib-only: importing and running "
        "repro must succeed on a bare CPython, and no engine, store "
        "or search path may depend on NumPy or SciPy, gated or not."
    )
    fix = (
        "Express the computation with the standard library (Python "
        "ints as bitmasks, math.fsum, statistics)."
    )
    scopes = None
    interests: Tuple[type, ...] = (ast.Import, ast.ImportFrom)

    def inspect(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterator[Finding]:
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


#: Exact dotted call names that read a wall clock or entropy source.
_ENTROPY_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
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


@register_rule
class WallClockEntropy(ContractRule):
    """RPR003: no wall clocks or OS entropy in hot paths."""

    code = "RPR003"
    name = "wall-clock-entropy"
    contract = (
        "Engine, search and store paths derive every byte they "
        "persist from (spec, seed) keys. Wall-clock reads "
        "(time.time, datetime.now) and entropy sources (os.urandom, "
        "uuid, secrets, random.SystemRandom) would leak "
        "run-to-run-varying values into records. Elapsed-time "
        "measurement goes through repro.obs (Stopwatch, spans), whose "
        "perf_counter use RPR008 polices."
    )
    fix = (
        "Derive identifiers and decisions from the task key; keep "
        "timing to perf_counter-based elapsed fields."
    )
    scopes: Optional[Tuple[str, ...]] = ("sim", "search", "store")
    interests: Tuple[type, ...] = (ast.Call,)

    def inspect(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        resolved = ctx.resolve(node.func)
        if resolved is None:
            return
        if resolved in _ENTROPY_CALLS or resolved.startswith(
            _ENTROPY_PREFIXES
        ):
            yield self.finding(
                ctx,
                node,
                f"{resolved}() reads a wall clock or entropy source; "
                "hot-path values must derive from the run key",
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


@register_rule
class UnorderedIteration(ContractRule):
    """RPR004: set iteration feeding trace state must be sorted."""

    code = "RPR004"
    name = "unordered-iteration"
    contract = (
        "Iteration order over sets is hash-dependent (and "
        "PYTHONHASHSEED-dependent for strings), so a set feeding any "
        "trace-affecting loop must be materialised through "
        "sorted(...). Dicts are insertion-ordered in CPython >= 3.7 "
        "and are not flagged; the hazard is sets."
    )
    fix = "Wrap the iterable in sorted(...) (with a key if needed)."
    scopes: Optional[Tuple[str, ...]] = ("sim", "search")
    interests: Tuple[type, ...] = (
        ast.For,
        ast.AsyncFor,
        ast.comprehension,
    )

    def inspect(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterator[Finding]:
        iterable: ast.AST
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iterable = node.iter
        else:
            assert isinstance(node, ast.comprehension)
            iterable = node.iter
        described = _is_unordered_expr(iterable, ctx)
        if described is not None:
            yield self.finding(
                ctx,
                iterable,
                f"iterating {described} directly is "
                "hash-order-dependent; wrap it in sorted(...)",
            )


def _is_float_operand(node: ast.AST) -> bool:
    """Whether ``node`` is statically a float expression."""
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.UAdd, ast.USub)
    ):
        return _is_float_operand(node.operand)
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
    ):
        return True
    return False


@register_rule
class FloatEquality(ContractRule):
    """RPR005: no ``==``/``!=`` against float values in trace code."""

    code = "RPR005"
    name = "float-equality"
    contract = (
        "Trace-critical modules must stay byte-identical across "
        "engines and platforms; exact float equality silently "
        "depends on accumulation order, so comparisons against float "
        "literals (or float(...) results) are banned where they "
        "could steer a trace."
    )
    fix = (
        "Compare integers/rationals, or use math.isclose with an "
        "explicit tolerance."
    )
    scopes: Optional[Tuple[str, ...]] = ("sim", "core", "search")
    interests: Tuple[type, ...] = (ast.Compare,)

    def inspect(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterator[Finding]:
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


@register_rule
class FrozenMutation(ContractRule):
    """RPR006: ``object.__setattr__`` only inside ``__post_init__``."""

    code = "RPR006"
    name = "frozen-mutation"
    contract = (
        "Frozen dataclasses are the repository's immutability "
        "boundary (specs, genomes, topologies are shared across "
        "workers by identity). object.__setattr__ is the documented "
        "escape hatch for canonicalising fields during "
        "__post_init__ and nowhere else — a mutation after "
        "construction invalidates cached fingerprints and "
        "cross-process sharing."
    )
    fix = (
        "Canonicalise in __post_init__, or build a new instance with "
        "dataclasses.replace(...)."
    )
    scopes = None
    interests: Tuple[type, ...] = (ast.Call,)

    def inspect(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        if ctx.resolve(node.func) != "object.__setattr__":
            return
        if ctx.in_function("__post_init__"):
            return
        yield self.finding(
            ctx,
            node,
            "object.__setattr__ outside __post_init__ mutates a "
            "frozen dataclass after construction; use "
            "dataclasses.replace",
        )


def _is_constant_seed(node: ast.AST) -> bool:
    """Whether ``node`` is a bare literal (ints, strings, unary-signed
    ints) — f-strings are ``JoinedStr`` nodes, so namespaced seeds like
    ``f"churn:{seed}"`` pass."""
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.UAdd, ast.USub)
    ):
        return _is_constant_seed(node.operand)
    return False


@register_rule
class ConstantFaultSeed(ContractRule):
    """RPR007: fault streams must derive their seeds from the run."""

    code = "RPR007"
    name = "constant-fault-seed"
    contract = (
        "Fault-injection modules (repro/sim/faults.py) generate churn "
        "schedules that are a sweep axis: the stream behind a schedule "
        "must be seeded from the run's own seed, namespaced "
        '(random.Random(f"churn:{seed}")). A bare literal seed makes '
        "every run draw the identical schedule, silently collapsing "
        "the fault axis of a sweep to one sample."
    )
    fix = (
        "Thread the run seed into the generator and seed the stream "
        'with a namespaced derivation, e.g. '
        'random.Random(f"churn:{seed}").'
    )
    scopes: Optional[Tuple[str, ...]] = ("sim",)
    interests: Tuple[type, ...] = (ast.Call,)

    def inspect(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        # Within the sim scope only fault-injection modules are held
        # to this contract; scope-None files (the fixture corpus and
        # ad-hoc targets) get it like every rule.
        if ctx.scope is not None and not ctx.path.endswith("faults.py"):
            return
        if ctx.resolve(node.func) != "random.Random":
            return
        seeds = list(node.args) + [
            kw.value for kw in node.keywords if kw.arg is not None
        ]
        for seed in seeds:
            if _is_constant_seed(seed):
                yield self.finding(
                    ctx,
                    node,
                    "random.Random with a literal seed pins the fault "
                    "schedule: every run draws identical churn; "
                    "derive the seed from the run "
                    '(random.Random(f"churn:{seed}"))',
                )
                return


#: Wall-clock timer reads confined to the observability layer.
_WALL_TIMERS = frozenset(
    {
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
    }
)


@register_rule
class UncontainedTimer(ContractRule):
    """RPR008: wall-clock timing lives in repro.obs (and benchmarks)."""

    code = "RPR008"
    name = "uncontained-timer"
    contract = (
        "Elapsed-time measurement (time.perf_counter/monotonic and "
        "their _ns forms) is confined to the observability layer "
        "(repro.obs) and the benchmarks/ tree, so the determinism "
        "audit has exactly one in-package surface where clocks are "
        "read. Every other layer measures through repro.obs.Stopwatch "
        "or a telemetry span()."
    )
    fix = (
        "Replace the perf_counter pair with repro.obs.Stopwatch "
        "(watch = Stopwatch(); watch.elapsed()) or wrap the phase in "
        "a telemetry span."
    )
    scopes: Optional[Tuple[str, ...]] = None
    interests: Tuple[type, ...] = (ast.Call,)

    def applies_to(self, scope: Optional[str]) -> bool:
        """Every scope except the observability layer itself."""
        return scope != "obs"

    def inspect(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterator[Finding]:
        """Flag direct wall-clock timer calls outside ``repro.obs``."""
        assert isinstance(node, ast.Call)
        resolved = ctx.resolve(node.func)
        if resolved in _WALL_TIMERS:
            yield self.finding(
                ctx,
                node,
                f"{resolved}() outside repro.obs scatters the "
                "timing surface; measure through "
                "repro.obs.Stopwatch or a telemetry span",
            )
