"""Integration sweep: algorithms on the registered topology kinds.

Broadcast must complete on every structure (within each algorithm's
proven round limit) under both benign and adversarial link behaviour —
the blanket guarantee the paper's model gives is topology-independence.
"""

import pytest

from repro import broadcast
from repro.adversaries import GreedyInterferer, RandomDeliveryAdversary
from repro.experiments.registry import build_graph

#: ``(kind, n)`` rows over registered graph kinds, built at seed 3.
TOPOLOGIES = [
    ("gnp", 16),
    ("pivot-layers", 15),
    ("grid", 16),
    ("gray-zone", 16),
    ("hard-line", 12),
    ("layered-pairs", 15),
    ("line", 12),
    ("ring", 12),
    ("clique-bridge", 10),
    ("clique-bridge-classical", 10),
]
IDS = [kind for kind, _ in TOPOLOGIES]

ALGORITHMS = ["strong_select", "harmonic", "round_robin", "uniform"]


@pytest.mark.parametrize("alg", ALGORITHMS)
@pytest.mark.parametrize("kind,n", TOPOLOGIES, ids=IDS)
def test_completes_under_greedy_interferer(alg, kind, n):
    g = build_graph(kind, n, seed=3)
    trace = broadcast(
        g,
        alg,
        adversary=GreedyInterferer(),
        seed=3,
        algorithm_params={"T": 4} if alg == "harmonic" else {},
    )
    assert trace.completed


@pytest.mark.parametrize("kind,n", TOPOLOGIES, ids=IDS)
def test_completes_under_random_links(kind, n):
    g = build_graph(kind, n, seed=3)
    trace = broadcast(
        g,
        "strong_select",
        adversary=RandomDeliveryAdversary(0.5, seed=1),
        seed=4,
    )
    assert trace.completed


@pytest.mark.parametrize("kind,n", TOPOLOGIES, ids=IDS)
def test_round_robin_bound_holds_everywhere(kind, n):
    from repro.core import round_robin_bound

    g = build_graph(kind, n, seed=3)
    bound = round_robin_bound(g.n, g.source_eccentricity)
    trace = broadcast(
        g, "round_robin", adversary=GreedyInterferer(), seed=0
    )
    assert trace.completed
    assert trace.completion_round <= bound
