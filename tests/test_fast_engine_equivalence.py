"""Differential equivalence: the fast engine vs BroadcastEngine.

The fast engine's contract (docs/ARCHITECTURE.md) is that it is a
drop-in replacement producing **bit-identical traces** for the same
(network, processes, adversary, config, seed).  This harness runs both
engines seed for seed across algorithms × the shared graph corpus ×
collision rules and asserts full trace equality — round records,
informed rounds, activation order, completion — plus the
engine-neutrality guarantee at the sweep layer (same records regardless
of the engines axis).  The property-based companion is
``tests/test_engine_fuzz.py``.
"""

import itertools

import pytest

from conftest import corpus_graph, scripted_processes
from repro.adversaries import (
    FullDeliveryAdversary,
    GreedyInterferer,
    RandomDeliveryAdversary,
)
from repro.core.runner import algorithm_names, broadcast, make_processes
from repro.experiments import ExperimentSpec, SweepRunner
from repro.experiments.registry import build_adversary
from repro.experiments.runner import execute_task
from repro.sim import (
    BroadcastEngine,
    CollisionRule,
    EngineConfig,
    FastBroadcastEngine,
    StartMode,
    build_engine,
    validate_execution,
)

ALGORITHMS = ["round_robin", "harmonic", "strong_select"]
#: Every other registered algorithm; the grid below pins them too.
OTHER_ALGORITHMS = [a for a in algorithm_names() if a not in ALGORITHMS]
GRAPHS = ["line", "gnp", "clique-bridge"]
#: The grid's (graph kind, n) cells.  At n <= 17 the engines' sets of
#: node ids iterate in ascending order, which hides an unsorted set
#: iteration; the n = 40 gnp cell shows it.
GRID_CELLS = [(kind, 17) for kind in GRAPHS] + [("gnp", 40)]
GRID_IDS = GRAPHS + ["gnp-n40"]
MASK_RULES = [CollisionRule.CR1, CollisionRule.CR2, CollisionRule.CR3]
ENGINES = ("reference", "fast")


def assert_traces_identical(ref, other):
    """Field-by-field trace equality (Message/Reception compare by value)."""
    assert ref.network_name == other.network_name
    assert ref.n == other.n
    assert ref.proc == other.proc
    assert ref.completed == other.completed
    assert ref.informed_round == other.informed_round
    assert len(ref.rounds) == len(other.rounds)
    for r, f in zip(ref.rounds, other.rounds):
        assert r == f, f"round {r.round_number} diverged"


def assert_all_identical(traces):
    """The reference trace equals every mask engine's trace."""
    for engine in ENGINES[1:]:
        assert_traces_identical(traces["reference"], traces[engine])


def run_engines(algorithm, graph_kind, n, adversary_kind, rule, seed,
                **cfg):
    """One trace per engine, same (cached) corpus graph and fresh RNGs."""
    traces = {}
    for engine in ENGINES:
        graph = corpus_graph(graph_kind, n, seed=seed)
        adversary = build_adversary(adversary_kind, seed=seed)
        traces[engine] = broadcast(
            graph,
            algorithm,
            adversary=adversary,
            seed=seed,
            engine=engine,
            collision_rule=rule,
            **cfg,
        )
    return traces


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("graph_kind, n", GRID_CELLS, ids=GRID_IDS)
@pytest.mark.parametrize("rule", MASK_RULES)
def test_differential_grid(algorithm, graph_kind, n, rule):
    """3 algorithms × the grid cells × CR1–CR3, several seeds each."""
    for seed in (0, 1, 7):
        assert_all_identical(
            run_engines(algorithm, graph_kind, n, "greedy", rule, seed)
        )


@pytest.mark.parametrize("algorithm", OTHER_ALGORITHMS)
@pytest.mark.parametrize("graph_kind", GRAPHS)
@pytest.mark.parametrize("rule", MASK_RULES)
def test_differential_grid_other_algorithms(algorithm, graph_kind, rule):
    """The rest of the algorithm registry × the graph corpus × CR1–CR3:
    the fast engine's pending mask covers senders and listeners only,
    so every registered automaton must still see the reference's
    rounds."""
    for seed in (0, 5):
        assert_all_identical(
            run_engines(algorithm, graph_kind, 17, "greedy", rule, seed)
        )


@pytest.mark.parametrize(
    "adversary_kind", ["none", "full", "random", "greedy"]
)
def test_differential_cr4(adversary_kind):
    """CR4 parity: default-silence fast path and the per-message
    fallback (custom resolvers) both reproduce the reference traces."""
    for seed in (0, 3):
        assert_all_identical(
            run_engines(
                "harmonic", "gnp", 17, adversary_kind,
                CollisionRule.CR4, seed,
            )
        )


def test_differential_cr4_stateful_resolver():
    """A resolver drawing randomness per consultation is consulted in
    the same order with the same arrival lists by every engine."""
    traces = {}
    for engine in ENGINES:
        graph = corpus_graph("hard-line", 17, seed=5)
        adversary = RandomDeliveryAdversary(0.6, seed=5, cr4_mode="random")
        traces[engine] = broadcast(
            graph,
            "harmonic",
            adversary=adversary,
            seed=5,
            engine=engine,
            collision_rule=CollisionRule.CR4,
        )
    assert_all_identical(traces)


@pytest.mark.parametrize("rule", MASK_RULES + [CollisionRule.CR4])
def test_differential_with_recorded_receptions(rule):
    """Recording mode: per-node receptions match for every node."""
    traces = run_engines(
        "harmonic", "clique-bridge", 9, "greedy", rule, 2,
        record_receptions=True,
    )
    assert_all_identical(traces)
    for engine in ENGINES[1:]:
        for r, f in zip(traces["reference"].rounds, traces[engine].rounds):
            assert r.receptions == f.receptions


def test_differential_synchronous_start():
    assert_all_identical(
        run_engines(
            "strong_select", "gnp", 17, "greedy", CollisionRule.CR2, 4,
            start_mode=StartMode.SYNCHRONOUS,
        )
    )


@pytest.mark.parametrize("engine", ENGINES)
def test_mask_trace_passes_independent_validation(engine, tiny_gnp):
    """Both engines' recorded executions satisfy the Section 2.1
    semantics checker (which shares no code with any engine)."""
    for rule in MASK_RULES:
        trace = broadcast(
            tiny_gnp,
            "harmonic",
            adversary=GreedyInterferer(),
            seed=1,
            engine=engine,
            collision_rule=rule,
            record_receptions=True,
        )
        violations = validate_execution(
            trace, tiny_gnp, rule, StartMode.ASYNCHRONOUS
        )
        assert violations == []


def test_payload_free_transmissions_match():
    """ScriptedProcess None-payload messages (the Theorem-12 trick)
    exercise the payload-identity fallback identically."""
    n = 6
    traces = {}
    for engine in ENGINES:
        network = corpus_graph("line", n)
        processes = scripted_processes(
            n, rounds=range(1, 12), send_without_message=True
        )
        config = EngineConfig(
            collision_rule=CollisionRule.CR1,
            start_mode=StartMode.SYNCHRONOUS,
            max_rounds=12,
            engine=engine,
        )
        sim = build_engine(
            network, processes, FullDeliveryAdversary(), config
        )
        traces[engine] = sim.run()
    assert_all_identical(traces)


# ----------------------------------------------------------------------
# Selector plumbing
# ----------------------------------------------------------------------
def test_build_engine_dispatch(tiny_line):
    n = tiny_line.n
    for name, cls in [
        ("reference", BroadcastEngine),
        ("fast", FastBroadcastEngine),
    ]:
        engine = build_engine(
            tiny_line,
            make_processes("round_robin", n),
            config=EngineConfig(engine=name),
        )
        assert type(engine) is cls
    with pytest.raises(ValueError, match="unknown engine"):
        build_engine(
            tiny_line,
            make_processes("round_robin", n),
            config=EngineConfig(engine="warp"),
        )
    with pytest.raises(ValueError, match="unknown engine"):
        build_engine(
            tiny_line,
            make_processes("round_robin", n),
            config=EngineConfig(engine="vector"),
        )


@pytest.mark.parametrize("name", ["vector", "Fast", ""])
def test_build_engine_rejects_names_it_does_not_run(tiny_line, name):
    """Only ``reference`` and ``fast`` build: the removed vector
    engine's name has no alias, and names are not case-folded."""
    with pytest.raises(ValueError, match="unknown engine"):
        build_engine(
            tiny_line,
            make_processes("round_robin", tiny_line.n),
            config=EngineConfig(engine=name),
        )


def test_task_key_and_seed_engine_invariants():
    spec = ExperimentSpec(
        name="kv",
        algorithms=["round_robin"],
        graphs=[("line", 8)],
        collision_rules=["CR3"],
        engines=["reference", "fast"],
        seeds=[0],
    )
    ref_task, fast_task = spec.tasks()
    assert ref_task.engine == "reference"
    assert fast_task.engine == "fast"
    # Reference keys are unchanged from pre-engine sweeps (resume
    # compatibility); fast-engine keys are namespaced.
    assert "eng-" not in ref_task.key
    assert fast_task.key == f"{ref_task.key}/eng-fast"
    # The seed is derived from the science key: engine-independent.
    assert ref_task.science_key == fast_task.science_key
    assert ref_task.derived_seed == fast_task.derived_seed


def test_sweep_records_are_engine_neutral():
    """engines=[reference, fast] yields identical science."""
    spec = ExperimentSpec(
        name="neutral",
        algorithms=["harmonic", "round_robin"],
        graphs=[("line", 9), ("clique-bridge", 9)],
        adversaries=["greedy"],
        collision_rules=["CR2", "CR4"],
        engines=["reference", "fast"],
        seeds=[0, 1],
    )
    result = SweepRunner(spec).run()
    by_key = {r.key: r for r in result.records}
    fast_records = [r for r in result.records if "eng-fast" in r.key]
    assert len(fast_records) == spec.size // 2
    for record in fast_records:
        ref_record = by_key[record.key.replace("/eng-fast", "")]
        assert ref_record.completed == record.completed
        assert ref_record.completion_round == record.completion_round
        assert ref_record.rounds == record.rounds
        assert (
            ref_record.total_transmissions == record.total_transmissions
        )


@pytest.mark.parametrize("engine", ENGINES[1:])
def test_execute_task_records_requested_engine(engine):
    """Every CR/adversary combination — CR4 with a real resolver
    included — records the requested engine; the science
    still matches the reference record (the consult paths are
    trace-equivalent)."""
    spec = ExperimentSpec(
        name="fallback",
        algorithms=["round_robin"],
        graphs=[("line", 8)],
        adversaries=["greedy"],
        collision_rules=["CR3", "CR4"],
        engines=[engine],
        seeds=[0],
    )
    cr3_task, cr4_task = spec.tasks()
    assert execute_task(cr3_task).engine == engine
    cr4_record = execute_task(cr4_task)
    assert cr4_record.engine == engine
    ref = execute_task(
        ExperimentSpec(
            name="fallback",
            algorithms=["round_robin"],
            graphs=[("line", 8)],
            adversaries=["greedy"],
            collision_rules=["CR4"],
            engines=["reference"],
            seeds=[0],
        ).tasks()[0]
    )
    assert cr4_record.completion_round == ref.completion_round
    assert cr4_record.total_transmissions == ref.total_transmissions


def test_differential_bulk_cross_product():
    """A broad shallow sweep: every (algorithm, graph, rule) cell of the
    advertised support matrix at one seed, both engines."""
    for algorithm, graph_kind, rule in itertools.product(
        ALGORITHMS, GRAPHS, MASK_RULES
    ):
        assert_all_identical(
            run_engines(algorithm, graph_kind, 9, "full", rule, 11)
        )
