"""Property-based differential fuzzing of the two execution engines.

Hypothesis generates small random dual graphs (a random parent tree
guarantees source-reachability, plus random extra reliable and
unreliable edges), algorithms, CR1–CR4, adversaries, start modes and
round caps, then asserts the determinism contract the example-based
suites pin pointwise:

* **Trace equality** — the reference and fast engines produce
  byte-identical serialized traces (``trace_to_json``) for the same
  inputs, recorded receptions included.
* **Semantics** — the recorded execution passes the independent
  Section 2.1 checker (``repro.sim.validation``), which shares no code
  with any engine.

The adversary pool includes the real CR4 resolvers (greedy, pivot,
random, search genomes), so the fast engine's CR4 consult path is
fuzzed against the reference consult loop directly.

The suite is marked ``fuzz`` and excluded from tier-1 (see
``pyproject.toml``); CI runs it in a dedicated job under the pinned,
derandomized ``ci`` profile, so failures reproduce exactly.  Example
counts are bounded — this is a breadth net behind the deterministic
suites, not a soak test.
"""

import os
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.runner import make_processes
from repro.experiments.registry import build_adversary
from repro.graphs.dualgraph import DualGraph
from repro.search import GenomeSpace
from repro.sim import (
    ChurnSchedule,
    CollisionRule,
    EngineConfig,
    StartMode,
    build_engine,
    trace_to_json,
    validate_execution,
)
from repro.sim.faults import REJOIN_POLICIES
from repro.sim.topology import compile_topology

pytestmark = pytest.mark.fuzz

# Derandomized profiles: `ci` is the scheduled-job setting (pinned,
# reproducible, broader); the default keeps local tier-2 runs quick.
settings.register_profile(
    "ci",
    max_examples=75,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "dev",
    max_examples=20,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

ALGORITHMS = (
    "round_robin",
    "harmonic",
    "uniform",
    "decay",
    "strong_select",
)
#: "pivot" and "genome" carry real, stateful CR4 resolvers; the first
#: four are the classic pool.  Every kind is rebuildable from (kind,
#: seed, graph, horizon) alone, so every engine's run gets an
#: independent but identically-behaving instance.
ADVERSARIES = ("none", "full", "random", "greedy", "pivot", "genome")


def make_fuzz_adversary(kind, seed, graph, horizon):
    """A fresh adversary of ``kind``, deterministic in its arguments."""
    if kind == "genome":
        space = GenomeSpace(compile_topology(graph),
                            horizon=max(1, horizon), cr4_genes=True)
        return space.random(random.Random(seed)).build_adversary()
    if kind == "pivot":
        return build_adversary("pivot", seed=seed, n=graph.n)
    return build_adversary(kind, seed=seed)


@st.composite
def dual_graphs(draw):
    """A small random dual graph, always source-connected.

    Node ``v >= 1`` gets a random parent in ``[0, v)`` — those tree
    edges are reliable, so every node is reachable from source 0 — and
    random extra pairs join ``G`` (reliable) or ``G' \\ G`` (unreliable).
    """
    n = draw(st.integers(min_value=2, max_value=8))
    tree = [
        (draw(st.integers(min_value=0, max_value=v - 1)), v)
        for v in range(1, n)
    ]
    pairs = [
        (u, v) for u in range(n) for v in range(u + 1, n)
    ]
    extra_reliable = draw(
        st.sets(st.sampled_from(pairs), max_size=6)
    )
    extra_unreliable = draw(
        st.sets(st.sampled_from(pairs), max_size=8)
    )
    reliable = sorted(set(tree) | extra_reliable)
    all_edges = sorted(set(reliable) | extra_unreliable)
    return DualGraph(
        n, reliable, all_edges, undirected=True, name=f"fuzz(n={n})"
    )


@st.composite
def churned_graphs(draw):
    """A fuzz graph plus a random legal churn schedule for it.

    Per non-source node one of three fates is drawn: untouched, late
    join (down from the start, maybe recovering), or an up/down episode
    (crash, maybe recover later).  Built this way the event sequence is
    legal by construction — at most one crash per node, recoveries only
    while down — so the composite never trips ``ChurnSchedule``'s own
    state-machine validation.
    """
    graph = draw(dual_graphs())
    crashes = {}
    recoveries = {}
    initial_down = []
    for v in range(graph.n):
        if v == 0:  # fuzz graphs use source 0; it must not start down
            continue
        fate = draw(st.sampled_from(("none", "none", "late", "updown")))
        if fate == "none":
            continue
        if fate == "late":
            initial_down.append(v)
            if draw(st.booleans()):
                rnd = draw(st.integers(min_value=1, max_value=12))
                recoveries.setdefault(rnd, []).append(v)
        else:
            crash = draw(st.integers(min_value=1, max_value=10))
            crashes.setdefault(crash, []).append(v)
            if draw(st.booleans()):
                back = crash + draw(st.integers(min_value=1, max_value=6))
                recoveries.setdefault(back, []).append(v)
    churn = ChurnSchedule(
        crashes={r: tuple(vs) for r, vs in crashes.items()},
        recoveries={r: tuple(vs) for r, vs in recoveries.items()},
        initial_down=tuple(initial_down),
        rejoin=draw(st.sampled_from(REJOIN_POLICIES)),
    )
    return graph, churn


def run_one(engine, graph, algorithm, adversary_kind, rule, start_mode,
            seed, max_rounds, record, churn=None):
    processes = make_processes(algorithm, graph.n)
    adversary = make_fuzz_adversary(adversary_kind, seed, graph, max_rounds)
    config = EngineConfig(
        collision_rule=rule,
        start_mode=start_mode,
        max_rounds=max_rounds,
        seed=seed,
        record_receptions=record,
        engine=engine,
        churn=churn,
    )
    return build_engine(graph, processes, adversary, config).run()


@given(
    graph=dual_graphs(),
    algorithm=st.sampled_from(ALGORITHMS),
    adversary_kind=st.sampled_from(ADVERSARIES),
    rule=st.sampled_from(list(CollisionRule)),
    start_mode=st.sampled_from(list(StartMode)),
    seed=st.integers(min_value=0, max_value=2**16),
    max_rounds=st.integers(min_value=0, max_value=40),
)
def test_engines_agree_and_pass_validation(
    graph, algorithm, adversary_kind, rule, start_mode, seed, max_rounds
):
    """reference ≡ fast, byte for byte, and validator-clean."""
    serialized = {}
    reference = None
    for engine in ("reference", "fast"):
        trace = run_one(
            engine, graph, algorithm, adversary_kind, rule,
            start_mode, seed, max_rounds, record=True,
        )
        serialized[engine] = trace_to_json(trace)
        if engine == "reference":
            reference = trace
    assert serialized["fast"] == serialized["reference"]
    # One validation suffices: the traces are byte-identical.
    assert validate_execution(reference, graph, rule, start_mode) == []


@given(
    graph_and_churn=churned_graphs(),
    algorithm=st.sampled_from(ALGORITHMS),
    adversary_kind=st.sampled_from(ADVERSARIES),
    rule=st.sampled_from(list(CollisionRule)),
    start_mode=st.sampled_from(list(StartMode)),
    seed=st.integers(min_value=0, max_value=2**16),
    max_rounds=st.integers(min_value=0, max_value=40),
)
def test_engines_agree_under_churn(
    graph_and_churn, algorithm, adversary_kind, rule, start_mode, seed,
    max_rounds,
):
    """Fault injection preserves the determinism contract: the two
    engines stay byte-identical under random crash/recovery/late-join
    schedules, and the churn-aware validator accepts the trace."""
    graph, churn = graph_and_churn
    serialized = {}
    reference = None
    for engine in ("reference", "fast"):
        trace = run_one(
            engine, graph, algorithm, adversary_kind, rule,
            start_mode, seed, max_rounds, record=True, churn=churn,
        )
        serialized[engine] = trace_to_json(trace)
        if engine == "reference":
            reference = trace
    assert serialized["fast"] == serialized["reference"]
    assert validate_execution(
        reference, graph, rule, start_mode, churn=churn
    ) == []
