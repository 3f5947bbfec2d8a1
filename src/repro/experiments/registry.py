"""Name-based factories for the pieces of a sweep grid.

Sweep tasks cross process boundaries (``multiprocessing`` workers), so an
:class:`~repro.experiments.spec.ExperimentSpec` cannot hold live graph or
adversary objects — it names them.  Workers resolve the names through the
registries below, which therefore define the vocabulary of spec files.

Graph factories take ``(n, seed, **params)`` and return a
:class:`~repro.graphs.dualgraph.DualGraph`; adversary factories take
``(seed, **params)`` and return an
:class:`~repro.adversaries.base.Adversary`; churn factories take
``(n, rounds, seed, **params)`` and return a
:class:`~repro.sim.faults.ChurnSchedule` (or ``None`` for the
failure-free ``"none"`` kind).  All registries are extensible via
:func:`register_graph` / :func:`register_adversary` /
:func:`register_churn`.
Runtime registrations reach sweep workers on platforms with the
``fork`` start method (Linux, which the runner prefers); on
spawn-only platforms (Windows) workers re-import this module, so
custom kinds must be registered at import time of a module the
workers also import — or run with ``workers=1``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.adversaries import (
    Adversary,
    FullDeliveryAdversary,
    GreedyInterferer,
    NoDeliveryAdversary,
    PivotAdversary,
    RandomDeliveryAdversary,
)
from repro.core.runner import call_factory
from repro.graphs import (
    clique_bridge,
    gnp_dual,
    gray_zone,
    grid,
    layered_pairs,
    line,
    pivot_layers_for_n,
    ring,
    with_complete_unreliable,
)
from repro.graphs.dualgraph import DualGraph
from repro.sim.faults import ChurnSchedule, generate_churn, window_churn

GraphFactory = Callable[..., DualGraph]
AdversaryFactory = Callable[..., Adversary]
ChurnFactory = Callable[..., Optional[ChurnSchedule]]

_GRAPHS: Dict[str, GraphFactory] = {
    "gnp": lambda n, seed, **kw: gnp_dual(n, seed=seed, **kw),
    "line": lambda n, seed, **kw: line(n),
    "hard-line": lambda n, seed, **kw: with_complete_unreliable(line(n)),
    "ring": lambda n, seed, **kw: ring(max(3, n)),
    "grid": lambda n, seed, **kw: grid(
        max(2, int(n**0.5)), max(2, int(n**0.5))
    ),
    "gray-zone": lambda n, seed, **kw: gray_zone(n, seed=seed, **kw)[0],
    "clique-bridge": lambda n, seed, **kw: clique_bridge(max(3, n)).graph,
    "clique-bridge-classical": lambda n, seed, **kw: clique_bridge(
        max(3, n)
    ).graph.classical_projection(),
    "layered-pairs": lambda n, seed, **kw: layered_pairs(
        n if n % 2 else n + 1
    ).graph,
    "pivot-layers": lambda n, seed, **kw: pivot_layers_for_n(n).graph,
}

#: Graph kinds whose factory output depends on the ``seed`` argument.
#: Cells over these kinds cannot share one graph across their seeds, so
#: the batched sweep path rebuilds the graph and its compiled topology
#: per seed (every other built-in kind ignores the seed and is safely
#: shared).
_SEED_DEPENDENT_GRAPHS = {"gnp", "gray-zone"}

_ADVERSARIES: Dict[str, AdversaryFactory] = {
    "none": lambda seed, **kw: NoDeliveryAdversary(),
    "full": lambda seed, **kw: FullDeliveryAdversary(),
    "random": lambda seed, p=0.5, **kw: RandomDeliveryAdversary(
        p, seed=seed
    ),
    "greedy": lambda seed, **kw: GreedyInterferer(),
    "pivot": lambda seed, n, **kw: PivotAdversary(
        pivot_layers_for_n(int(n))
    ),
}

#: One-line descriptions rendered by ``repro list`` (and any other
#: discoverability surface).  Registered custom kinds may supply their
#: own via ``register_graph`` / ``register_adversary``.
_GRAPH_DESCRIPTIONS: Dict[str, str] = {
    "gnp": "Erdős–Rényi dual graph (seed-dependent)",
    "line": "path graph, reliable edges only",
    "hard-line": "path graph with complete unreliable overlay",
    "ring": "cycle graph, reliable edges only",
    "grid": "~sqrt(n) x sqrt(n) grid, reliable edges only",
    "gray-zone": "geometric graph with unreliable gray zone (seeded)",
    "clique-bridge": "Theorem 2 network: clique + bridge + receiver",
    "clique-bridge-classical": "clique-bridge projected to G = G'",
    "layered-pairs": "Theorem 12 network: source + width-2 layers",
    "pivot-layers": "Theorem 11 stand-in: hidden-pivot layer chain",
}

_ADVERSARY_DESCRIPTIONS: Dict[str, str] = {
    "none": "never delivers on unreliable links",
    "full": "always delivers on every unreliable link",
    "random": "delivers each unreliable edge with probability p",
    "greedy": "GreedyInterferer: collides lone reliable receptions",
    "pivot": "PivotAdversary: blankets the next pivot layer (needs n)",
}

#: Churn factories take ``(n, rounds, seed, **params)``.  ``rounds`` is
#: the task's *resolved* round cap, so rate-based schedules cover the
#: whole horizon a run can reach; the seed is the task's key-derived
#: seed, making every schedule reproducible from the spec alone.
_CHURNS: Dict[str, ChurnFactory] = {
    "none": lambda n, rounds, seed, **kw: None,
    "rate": lambda n, rounds, seed, **kw: generate_churn(
        n, rounds, seed=seed, **kw
    ),
    "window": lambda n, rounds, seed, **kw: window_churn(n, **kw),
}

_CHURN_DESCRIPTIONS: Dict[str, str] = {
    "none": "failure-free run (no fault injection)",
    "rate": "per-round crash/recover coin flips (crash_rate, "
    "recover_rate, rejoin)",
    "window": "count nodes down from round start for length rounds "
    "(count, start, length, rejoin)",
}


def graph_kinds() -> List[str]:
    """The registered graph-kind names."""
    return sorted(_GRAPHS)


def adversary_kinds() -> List[str]:
    """The registered adversary-kind names."""
    return sorted(_ADVERSARIES)


def churn_kinds() -> List[str]:
    """The registered churn-kind names."""
    return sorted(_CHURNS)


def graph_descriptions() -> Dict[str, str]:
    """One-line description per registered graph kind (may be empty)."""
    return {
        kind: _GRAPH_DESCRIPTIONS.get(kind, "") for kind in graph_kinds()
    }


def adversary_descriptions() -> Dict[str, str]:
    """One-line description per registered adversary kind."""
    return {
        kind: _ADVERSARY_DESCRIPTIONS.get(kind, "")
        for kind in adversary_kinds()
    }


def churn_descriptions() -> Dict[str, str]:
    """One-line description per registered churn kind."""
    return {
        kind: _CHURN_DESCRIPTIONS.get(kind, "")
        for kind in churn_kinds()
    }


def register_graph(
    kind: str,
    factory: GraphFactory,
    seed_dependent: bool = True,
    description: str = "",
) -> None:
    """Register a graph factory ``factory(n, seed, **params)``.

    ``seed_dependent`` declares whether the factory's output varies
    with the ``seed`` argument.  It defaults to ``True`` — the safe
    choice, which makes batched sweeps rebuild the graph per seed —
    and should be passed as ``False`` only for factories that ignore
    the seed, unlocking per-cell graph/topology reuse.  ``description``
    is the one-liner ``repro list`` prints for the kind.
    """
    if kind in _GRAPHS:
        raise ValueError(f"graph kind {kind!r} already registered")
    _GRAPHS[kind] = factory
    if seed_dependent:
        _SEED_DEPENDENT_GRAPHS.add(kind)
    if description:
        _GRAPH_DESCRIPTIONS[kind] = description


def graph_seed_dependent(kind: str) -> bool:
    """Whether a graph kind's factory output depends on the task seed.

    Unknown kinds report ``True`` (the safe answer; building them
    fails loudly elsewhere).
    """
    return kind in _SEED_DEPENDENT_GRAPHS or kind not in _GRAPHS


def register_adversary(
    kind: str, factory: AdversaryFactory, description: str = ""
) -> None:
    """Register an adversary factory ``factory(seed, **params)``.

    ``description`` is the one-liner ``repro list`` prints for the
    kind.
    """
    if kind in _ADVERSARIES:
        raise ValueError(f"adversary kind {kind!r} already registered")
    _ADVERSARIES[kind] = factory
    if description:
        _ADVERSARY_DESCRIPTIONS[kind] = description


def build_graph(kind: str, n: int, seed: int = 0, **params) -> DualGraph:
    """Instantiate a registered graph kind."""
    try:
        factory = _GRAPHS[kind]
    except KeyError:
        raise ValueError(
            f"unknown graph kind {kind!r}; known: {graph_kinds()}"
        ) from None
    return call_factory(f"graph kind {kind!r}", factory, n, seed, **params)


def build_adversary(kind: str, seed: int = 0, **params) -> Adversary:
    """Instantiate a registered adversary kind."""
    try:
        factory = _ADVERSARIES[kind]
    except KeyError:
        raise ValueError(
            f"unknown adversary kind {kind!r}; known: {adversary_kinds()}"
        ) from None
    return call_factory(f"adversary kind {kind!r}", factory, seed, **params)


def register_churn(
    kind: str, factory: ChurnFactory, description: str = ""
) -> None:
    """Register a churn factory ``factory(n, rounds, seed, **params)``.

    The factory returns a :class:`~repro.sim.faults.ChurnSchedule` (or
    ``None`` for no fault injection).  ``description`` is the one-liner
    ``repro list`` prints for the kind.
    """
    if kind in _CHURNS:
        raise ValueError(f"churn kind {kind!r} already registered")
    _CHURNS[kind] = factory
    if description:
        _CHURN_DESCRIPTIONS[kind] = description


def build_churn(
    kind: str, n: int, rounds: int, seed: int = 0, **params
) -> Optional[ChurnSchedule]:
    """Instantiate a registered churn kind for one run's horizon."""
    try:
        factory = _CHURNS[kind]
    except KeyError:
        raise ValueError(
            f"unknown churn kind {kind!r}; known: {churn_kinds()}"
        ) from None
    return call_factory(
        f"churn kind {kind!r}", factory, n, rounds, seed, **params
    )
