"""Engine routing and engine edge cases.

Every (collision rule, adversary) combination, CR4 real resolvers
included, runs on the engine a task names: the fast engine's traces
equal the reference engine's for every (CR, start mode, adversary)
combination, and every (CR, adversary resolver, graph kind) sweep row
is pinned against the reference science, together with the retired
``"vector"`` name's stand-in.  The edge cases — single-seed cells, n=1 graphs, zero-round
caps — are the places an engine is most likely to drift from the
reference run loop, so they are pinned here for every engine.
"""

import os
import subprocess
import sys

import pytest

from conftest import corpus_graph
from repro.adversaries import (
    FullDeliveryAdversary,
    GreedyInterferer,
    NoDeliveryAdversary,
    RandomDeliveryAdversary,
)
from repro.core.runner import broadcast
from repro.experiments import ExperimentSpec
from repro.experiments.runner import execute_batch, execute_task
from repro.experiments.spec import plan_batches
from repro.sim import (
    CollisionRule,
    StartMode,
    trace_to_json,
    validate_execution,
)

ENGINES = ("reference", "fast")

#: The (collision rule, adversary) table's second axis: one factory per
#: adversary shape the engines distinguish.  ``None`` stands for the
#: engine-default adversary; the random adversary appears with both CR4
#: modes: its class defines a resolver, so both take the fast engine's
#: consult path, ``cr4_mode="silence"`` answering silence without a draw
#: and ``cr4_mode="random"`` drawing from the adversary's rng.
ADVERSARY_CASES = {
    "default": lambda: None,
    "no-delivery": NoDeliveryAdversary,
    "full-delivery": FullDeliveryAdversary,
    "greedy": GreedyInterferer,
    "random-cr4-random": lambda: RandomDeliveryAdversary(
        0.5, seed=3, cr4_mode="random"
    ),
    "random-cr4-silence": lambda: RandomDeliveryAdversary(0.5, seed=3),
}


def _one_cell_spec(engine, seeds, collision_rule="CR4",
                   adversary="none", n=8, max_rounds=None,
                   graph_kind="line", churns=("none",)):
    if adversary == "pivot":  # PivotAdversary needs its n threaded
        adversary = ("pivot", {"n": n})
    return ExperimentSpec(
        name="gates",
        algorithms=["round_robin"],
        graphs=[(graph_kind, n)],
        adversaries=[adversary],
        collision_rules=[collision_rule],
        engines=[engine],
        churns=churns,
        seeds=seeds,
        max_rounds=max_rounds,
    )


def test_repro_never_imports_numpy():
    """The runtime is stdlib-only: importing every subsystem and
    running a fast-engine sweep cell loads neither NumPy nor SciPy."""
    code = (
        "import sys\n"
        "import repro, repro.cli, repro.search, repro.store\n"
        "from repro.experiments import ExperimentSpec, run_sweep\n"
        "run_sweep(ExperimentSpec(name='np', algorithms=['decay'],\n"
        "    graphs=[('gnp', 12)], adversaries=['greedy'],\n"
        "    engines=['fast'], seeds=[0, 1]))\n"
        "assert not {'numpy', 'scipy'} & set(sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


class TestRuleAdversaryTable:
    @pytest.mark.parametrize("adversary", sorted(ADVERSARY_CASES))
    @pytest.mark.parametrize("start", list(StartMode))
    @pytest.mark.parametrize("rule", list(CollisionRule))
    def test_fast_matches_reference(self, rule, start, adversary):
        """Every (collision rule, start mode, adversary) combination
        runs on the fast engine byte-identically to the reference
        engine, and the recorded execution passes the independent
        semantics checker."""
        graph = corpus_graph("clique-bridge", 9, seed=3)
        traces = {
            engine: broadcast(
                graph,
                "harmonic",
                adversary=ADVERSARY_CASES[adversary](),
                seed=3,
                engine=engine,
                collision_rule=rule,
                start_mode=start,
                max_rounds=60,
                record_receptions=True,
            )
            for engine in ENGINES
        }
        assert trace_to_json(traces["fast"]) == trace_to_json(
            traces["reference"]
        )
        assert validate_execution(traces["fast"], graph, rule, start) == []


#: (adversary kind, graph kind) rows for the routing table below.
#: "pivot" carries a real CR4 resolver AND internal round state; "gnp"
#: and "gray-zone" are the seed-dependent graph kinds, rebuilt per seed
#: inside a batch.
ROUTING_ROWS = [
    ("none", "line"),
    ("greedy", "line"),
    ("pivot", "pivot-layers"),
    ("none", "gnp"),
    ("greedy", "gnp"),
    ("greedy", "gray-zone"),
]


class TestSweepRouting:
    @pytest.mark.parametrize("engine", ENGINES[1:])
    @pytest.mark.parametrize("adversary,graph_kind", ROUTING_ROWS)
    def test_cr4_stays_on_requested_engine(
        self, engine, adversary, graph_kind
    ):
        """Every (adversary-resolver, graph-kind) row runs on the
        requested engine and reproduces the reference science."""
        task = _one_cell_spec(
            engine, [0], adversary=adversary, graph_kind=graph_kind
        ).tasks()[0]
        record = execute_task(task)
        assert record.engine == engine
        ref = execute_task(
            _one_cell_spec(
                "reference", [0], adversary=adversary,
                graph_kind=graph_kind,
            ).tasks()[0]
        )
        assert record.completion_round == ref.completion_round
        assert record.total_transmissions == ref.total_transmissions

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("adversary,graph_kind", ROUTING_ROWS)
    def test_cr4_batch_stays_on_requested_engine(
        self, engine, adversary, graph_kind
    ):
        """A multi-seed batch records the same engine and the same
        science as batches of one — including cells that consult real
        CR4 resolvers or carry per-seed graphs."""
        spec = _one_cell_spec(
            engine, range(3), adversary=adversary, graph_kind=graph_kind
        )
        (batch,) = plan_batches(spec.tasks())
        records = execute_batch(batch)
        assert [r.engine for r in records] == [engine] * 3
        assert records == [execute_task(t) for t in batch.tasks]


#: The registered fault-injection kinds, each with parameters that
#: actually take nodes down within the gates cell's horizon.
CHURN_ROWS = [
    ("rate", {"crash_rate": 0.1, "recover_rate": 0.3}),
    ("rate", {"crash_rate": 0.1, "recover_rate": 0.3,
              "rejoin": "informed"}),
    ("window", {"count": 2, "start": 2, "length": 3}),
]


class TestChurnRouting:
    @pytest.mark.parametrize("engine", ENGINES[1:])
    @pytest.mark.parametrize("kind,params", CHURN_ROWS)
    def test_churn_cell_matches_reference(self, engine, kind, params):
        """Fault-injected cells run on the requested engine and
        reproduce the reference science, and records carry the churn
        kind as an axis value."""
        task = _one_cell_spec(
            engine, [0], collision_rule="CR2", adversary="greedy",
            churns=[(kind, params)],
        ).tasks()[0]
        record = execute_task(task)
        assert record.engine == engine
        assert record.churn_kind == kind
        ref = execute_task(
            _one_cell_spec(
                "reference", [0], collision_rule="CR2",
                adversary="greedy", churns=[(kind, params)],
            ).tasks()[0]
        )
        assert record.completion_round == ref.completion_round
        assert record.total_transmissions == ref.total_transmissions

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("kind,params", CHURN_ROWS)
    def test_churn_batch_matches_per_task(self, engine, kind, params):
        """A batch applies each seed's own churn schedule: batch
        records equal per-task records under every registered kind."""
        spec = _one_cell_spec(
            engine, range(3), collision_rule="CR2", adversary="greedy",
            churns=[(kind, params)],
        )
        (batch,) = plan_batches(spec.tasks())
        records = execute_batch(batch)
        assert [r.churn_kind for r in records] == [kind] * 3
        assert records == [execute_task(t) for t in batch.tasks]

    def test_churn_axis_distinguishes_tasks(self):
        """Two churn entries of one spec yield distinct task keys, and
        the failure-free entry keeps its pre-churn key spelling."""
        spec = _one_cell_spec(
            "fast", [0],
            churns=["none", ("window", {"count": 1, "start": 2,
                                        "length": 2})],
        )
        keys = [t.key for t in spec.tasks()]
        assert len(set(keys)) == 2
        assert not any("churn" in k for k in keys if "window" not in k)


class TestEdgeCases:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_single_seed_cell(self, engine):
        """A one-seed batch matches per-task."""
        spec = _one_cell_spec(engine, [5], collision_rule="CR3")
        (batch,) = plan_batches(spec.tasks())
        assert len(batch) == 1
        assert execute_batch(batch) == [execute_task(batch.tasks[0])]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_single_node_graph(self, engine):
        """n=1: the source is informed before round 1, and run() still
        executes exactly one round before noticing."""
        graph = corpus_graph("line", 1)
        trace = broadcast(
            graph, "round_robin", engine=engine, max_rounds=5
        )
        assert trace.completed
        assert trace.num_rounds == 1
        assert trace.informed_round == {0: 0}
        ref = broadcast(
            corpus_graph("line", 1), "round_robin",
            engine="reference", max_rounds=5,
        )
        assert trace_to_json(trace) == trace_to_json(ref)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_zero_round_cap(self, engine):
        """max_rounds=0 executes nothing; completion reflects the
        pre-round state (false for n>1, true for n=1)."""
        trace = broadcast(
            corpus_graph("line", 4), "round_robin",
            engine=engine, max_rounds=0,
        )
        assert trace.num_rounds == 0
        assert not trace.completed
        solo = broadcast(
            corpus_graph("line", 1), "round_robin",
            engine=engine, max_rounds=0,
        )
        assert solo.num_rounds == 0
        assert solo.completed

    @pytest.mark.parametrize("engine", ENGINES)
    def test_zero_round_cap_through_sweep(self, engine):
        spec = _one_cell_spec(
            engine, range(2), collision_rule="CR3", max_rounds=0
        )
        (batch,) = plan_batches(spec.tasks())
        records = execute_batch(batch)
        assert [r.rounds for r in records] == [0, 0]
        assert not any(r.completed for r in records)
        assert records == [execute_task(t) for t in batch.tasks]
