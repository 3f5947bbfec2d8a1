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
failure-free ``"none"`` kind).  Each is one
:class:`~repro.core.runner.Registry` (``GRAPHS``, ``ADVERSARIES``,
``CHURNS``), extensible via :func:`register_graph` /
:func:`register_adversary` / :func:`register_churn`; graph kinds also
declare whether their output depends on the seed.
Runtime registrations reach sweep workers on platforms with the
``fork`` start method (Linux, which the runner prefers); on
spawn-only platforms (Windows) workers re-import this module, so
custom kinds must be registered at import time of a module the
workers also import — or run with ``workers=1``.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.adversaries import (
    Adversary,
    FullDeliveryAdversary,
    GreedyInterferer,
    NoDeliveryAdversary,
    PivotAdversary,
    RandomDeliveryAdversary,
)
from repro.core.runner import Registry
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

GRAPHS: Registry[DualGraph] = Registry(
    "graph kind",
    {
        "gnp": (
            lambda n, seed, **kw: gnp_dual(n, seed=seed, **kw),
            "Erdős–Rényi dual graph (seed-dependent)",
        ),
        "line": (
            lambda n, seed, **kw: line(n),
            "path graph, reliable edges only",
        ),
        "hard-line": (
            lambda n, seed, **kw: with_complete_unreliable(line(n)),
            "path graph with complete unreliable overlay",
        ),
        "ring": (
            lambda n, seed, **kw: ring(max(3, n)),
            "cycle graph, reliable edges only",
        ),
        "grid": (
            lambda n, seed, **kw: grid(
                max(2, int(n**0.5)), max(2, int(n**0.5))
            ),
            "~sqrt(n) x sqrt(n) grid, reliable edges only",
        ),
        "gray-zone": (
            lambda n, seed, **kw: gray_zone(n, seed=seed, **kw)[0],
            "geometric graph with unreliable gray zone (seeded)",
        ),
        "clique-bridge": (
            lambda n, seed, **kw: clique_bridge(max(3, n)).graph,
            "Theorem 2 network: clique + bridge + receiver",
        ),
        "clique-bridge-classical": (
            lambda n, seed, **kw: clique_bridge(
                max(3, n)
            ).graph.classical_projection(),
            "clique-bridge projected to G = G'",
        ),
        "layered-pairs": (
            lambda n, seed, **kw: layered_pairs(
                n if n % 2 else n + 1
            ).graph,
            "Theorem 12 network: source + width-2 layers",
        ),
        "pivot-layers": (
            lambda n, seed, **kw: pivot_layers_for_n(n).graph,
            "Theorem 11 stand-in: hidden-pivot layer chain",
        ),
    },
)

#: Graph kinds whose factory output depends on the ``seed`` argument.
#: Cells over these kinds cannot share one graph across their seeds, so
#: the batched sweep path rebuilds the graph and its compiled topology
#: per seed (every other built-in kind ignores the seed and is safely
#: shared).
_SEED_DEPENDENT_GRAPHS = {"gnp", "gray-zone"}

ADVERSARIES: Registry[Adversary] = Registry(
    "adversary kind",
    {
        "none": (
            lambda seed, **kw: NoDeliveryAdversary(),
            "never delivers on unreliable links",
        ),
        "full": (
            lambda seed, **kw: FullDeliveryAdversary(),
            "always delivers on every unreliable link",
        ),
        "random": (
            lambda seed, p=0.5, **kw: RandomDeliveryAdversary(
                p, seed=seed
            ),
            "delivers each unreliable edge with probability p",
        ),
        "greedy": (
            lambda seed, **kw: GreedyInterferer(),
            "GreedyInterferer: collides lone reliable receptions",
        ),
        "pivot": (
            lambda seed, n, **kw: PivotAdversary(
                pivot_layers_for_n(int(n))
            ),
            "PivotAdversary: blankets the next pivot layer (needs n)",
        ),
    },
)

#: Churn factories take ``(n, rounds, seed, **params)``.  ``rounds`` is
#: the task's *resolved* round cap, so rate-based schedules cover the
#: whole horizon a run can reach; the seed is the task's key-derived
#: seed, making every schedule reproducible from the spec alone.
CHURNS: Registry[Optional[ChurnSchedule]] = Registry(
    "churn kind",
    {
        "none": (
            lambda n, rounds, seed, **kw: None,
            "failure-free run (no fault injection)",
        ),
        "rate": (
            lambda n, rounds, seed, **kw: generate_churn(
                n, rounds, seed=seed, **kw
            ),
            "per-round crash/recover coin flips (crash_rate, "
            "recover_rate, rejoin)",
        ),
        "window": (
            lambda n, rounds, seed, **kw: window_churn(n, **kw),
            "count nodes down from round start for length rounds "
            "(count, start, length, rejoin)",
        ),
    },
)

# The registries' methods under their public names.
graph_kinds = GRAPHS.names
adversary_kinds = ADVERSARIES.names
churn_kinds = CHURNS.names
graph_descriptions = GRAPHS.descriptions
adversary_descriptions = ADVERSARIES.descriptions
churn_descriptions = CHURNS.descriptions
#: ``register_adversary(kind, factory(seed, **params), description="")``.
register_adversary = ADVERSARIES.register
#: ``register_churn(kind, factory(n, rounds, seed, **params),
#: description="")``; the factory returns a
#: :class:`~repro.sim.faults.ChurnSchedule`, or ``None`` for no fault
#: injection.
register_churn = CHURNS.register


def register_graph(
    kind: str,
    factory: Callable[..., DualGraph],
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
    GRAPHS.register(kind, factory, description)
    if seed_dependent:
        _SEED_DEPENDENT_GRAPHS.add(kind)


def graph_seed_dependent(kind: str) -> bool:
    """Whether a graph kind's factory output depends on the task seed.

    Unknown kinds report ``True`` (the safe answer; building them
    fails loudly elsewhere).
    """
    return kind in _SEED_DEPENDENT_GRAPHS or kind not in GRAPHS.names()


def build_graph(kind: str, n: int, seed: int = 0, **params) -> DualGraph:
    """Instantiate a registered graph kind."""
    return GRAPHS.build(kind, n, seed, **params)


def build_adversary(kind: str, seed: int = 0, **params) -> Adversary:
    """Instantiate a registered adversary kind."""
    return ADVERSARIES.build(kind, seed, **params)


def build_churn(
    kind: str, n: int, rounds: int, seed: int = 0, **params
) -> Optional[ChurnSchedule]:
    """Instantiate a registered churn kind for one run's horizon."""
    return CHURNS.build(kind, n, rounds, seed, **params)
