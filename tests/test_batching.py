"""Batched sweep execution: equivalence, resume granularity, healing.

The batching contract: grouping tasks into per-cell batches is *pure
scheduling*.  Sweeps must emit byte-identical JSONL records for any
worker count and batch split — batches of one (:func:`execute_task`)
included — a batch interrupted mid-cell must resume with only its
missing seeds, and torn-line healing must keep working under batch
appends.
"""

import json

import pytest

from repro.experiments import (
    CellBatch,
    ExperimentSpec,
    SweepRunner,
    execute_batch,
    execute_task,
    graph_seed_dependent,
    plan_batches,
    register_graph,
)
from repro.experiments.results import RunResult
from repro.graphs import line
from repro.sim import (
    EngineConfig,
    build_engine,
    compile_topology,
    trace_to_json,
)
from repro.store import open_store


def grid_spec(**overrides) -> ExperimentSpec:
    """A small multi-cell grid exercising engines and collision rules."""
    base = dict(
        name="batchgrid",
        algorithms=["round_robin", ("harmonic", {"T": 2})],
        graphs=[("line", 8), ("clique-bridge", 9)],
        adversaries=["greedy"],
        collision_rules=["CR2", "CR4"],
        engines=["fast"],
        seeds=range(3),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def load(path):
    """The results file's key → record map and its load-time health."""
    with open_store(str(path), RunResult.from_dict) as store:
        return store.claim_keys(), store.health


def per_task_records(spec) -> list:
    """The spec's records from batches of one, key-sorted."""
    return sorted(
        (execute_task(t) for t in spec.tasks()), key=lambda r: r.key
    )


def sorted_lines(path) -> list:
    """The results file's non-empty lines, key-sorted."""
    lines = [
        ln for ln in path.read_text(encoding="utf-8").splitlines() if ln
    ]
    return sorted(lines, key=lambda ln: json.loads(ln)["key"])


class TestPlanning:
    def test_plan_batches_groups_by_cell(self):
        spec = grid_spec()
        tasks = spec.tasks()
        batches = plan_batches(tasks)
        # 2 algorithms x 2 graphs x 2 rules = 8 cells of 3 seeds each.
        assert len(batches) == 8
        assert all(len(b) == 3 for b in batches)
        assert sorted(t.key for b in batches for t in b.tasks) == sorted(
            t.key for t in tasks
        )
        for b in batches:
            assert {t.cell_key for t in b.tasks} == {b.cell_key}
            assert [t.seed for t in b.tasks] == [0, 1, 2]
        # Batches appear in first-appearance order of their cells.
        assert [b.cell_key for b in batches] == list(
            dict.fromkeys(t.cell_key for t in tasks)
        )

    def test_given_keys_plan_the_same_batches(self):
        tasks = grid_spec().tasks()
        keyed = plan_batches(tasks, [t.key for t in tasks])
        assert keyed == plan_batches(tasks)
        # A batch built from its tasks alone derives the same cell.
        assert keyed == [CellBatch(b.tasks) for b in keyed]

    def test_cell_key_drops_only_the_seed(self):
        a, b = grid_spec(seeds=[4, 9]).tasks()[:2]
        assert a.cell_key == b.cell_key
        assert a.key != b.key
        assert "s4" in a.key and "s4" not in a.cell_key

    def test_cell_key_separates_engines_and_caps(self):
        fast = grid_spec().tasks()[0]
        ref = grid_spec(engines=["reference"]).tasks()[0]
        capped = grid_spec(max_rounds=7).tasks()[0]
        assert len({fast.cell_key, ref.cell_key, capped.cell_key}) == 3
        assert "eng-fast" in fast.cell_key
        assert "cap7" in capped.cell_key

    def test_split_preserves_tasks_and_order(self):
        spec = grid_spec(seeds=range(10))
        batch = plan_batches(spec.tasks())[0]
        subs = batch.split(4)
        assert [len(s) for s in subs] == [4, 4, 2]
        assert [t.key for s in subs for t in s.tasks] == [
            t.key for t in batch.tasks
        ]
        assert all(s.cell_key == batch.cell_key for s in subs)
        with pytest.raises(ValueError, match="max_size"):
            batch.split(0)

    def test_single_cell_sweep_spreads_across_workers(self):
        """A one-cell many-seed sweep must not serialise on a pool."""
        spec = ExperimentSpec(
            name="onecell",
            algorithms=["round_robin"],
            graphs=[("line", 6)],
            adversaries=["none"],
            seeds=range(20),
        )
        runner = SweepRunner(spec, workers=2)
        units = runner._plan_units(spec.tasks())
        # ceil(20 / (2 workers * 2)) = 5 seeds per sub-batch: 4 units.
        assert len(units) == 4
        assert [len(u) for u in units] == [5, 5, 5, 5]
        # Many small cells stay unsplit (splitting only engages when
        # cells alone cannot occupy the workers).
        grid = grid_spec()  # 8 cells x 3 seeds
        assert [
            len(u)
            for u in SweepRunner(grid, workers=2)._plan_units(
                grid.tasks()
            )
        ] == [3] * 8
        # Serial runs keep one batch per cell for maximal amortisation.
        assert len(SweepRunner(spec)._plan_units(spec.tasks())) == 1
        # And the split path still produces the canonical records.
        assert SweepRunner(spec, workers=2).run().records == (
            per_task_records(spec)
        )

    def test_mixed_cell_batch_rejected(self):
        t1, t2 = grid_spec().tasks()[0], grid_spec().tasks()[-1]
        with pytest.raises(ValueError, match="mixes science cells"):
            CellBatch((t1, t2))
        with pytest.raises(ValueError, match="at least one task"):
            CellBatch(())


class TestBatchExecution:
    def test_execute_batch_matches_execute_task(self):
        for batch in plan_batches(grid_spec().tasks()):
            assert execute_batch(batch) == [
                execute_task(t) for t in batch.tasks
            ]

    def test_batch_split_identical_jsonl(self, tmp_path):
        spec = grid_spec()
        files = {}
        for workers in (1, 2):
            path = tmp_path / f"workers-{workers}.jsonl"
            result = SweepRunner(
                spec, workers=workers, results_path=str(path)
            ).run()
            assert result.executed == spec.size
            files[workers] = sorted_lines(path)
        # Batches of one, appended through the same store backend.
        path = tmp_path / "pertask.jsonl"
        with open_store(str(path), RunResult.from_dict) as store:
            for record in per_task_records(spec):
                store.append(record)
        assert files[1] == files[2] == sorted_lines(path)

    def test_seed_dependent_graph_rebuilt_per_seed(self):
        """gnp cells must not share one graph across their seeds."""
        spec = ExperimentSpec(
            name="gnpgrid",
            algorithms=["round_robin"],
            graphs=[{"kind": "gnp", "n": 12, "params": {"p_reliable": 0.4}}],
            adversaries=["none"],
            seeds=range(4),
        )
        batched = SweepRunner(spec).run()
        assert batched.records == per_task_records(spec)
        # Different seeds genuinely produce different executions, so a
        # wrongly shared graph could not have survived the comparison.
        assert len({r.completion_round for r in batched.records}) > 1

    def test_batch_interrupted_mid_cell_resumes_missing_seeds(
        self, tmp_path
    ):
        spec = grid_spec()
        path = tmp_path / "results.jsonl"
        reference = SweepRunner(spec, results_path=str(path)).run()

        # Simulate a kill mid-cell: drop one full cell plus one seed of
        # another cell (batch flushes are per-record, so a partial cell
        # on disk is exactly what an interrupt leaves).
        batches = plan_batches(spec.tasks())
        lost = {t.key for t in batches[0].tasks}
        lost.add(batches[1].tasks[-1].key)
        kept = [
            ln
            for ln in path.read_text(encoding="utf-8").splitlines()
            if ln and json.loads(ln)["key"] not in lost
        ]
        path.write_text("\n".join(kept) + "\n", encoding="utf-8")

        resumed = SweepRunner(spec, results_path=str(path)).run()
        assert resumed.executed == len(lost)
        assert resumed.resumed == spec.size - len(lost)
        assert resumed.records == reference.records
        assert len(load(path)[0]) == spec.size

    def test_torn_line_healed_under_batch_appends(self, tmp_path):
        spec = grid_spec()
        path = tmp_path / "results.jsonl"
        reference = SweepRunner(spec, results_path=str(path)).run()

        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text(
            "\n".join(lines[:-1]) + "\n" + lines[-1][:20],
            encoding="utf-8",
        )

        resumed = SweepRunner(spec, results_path=str(path)).run()
        assert resumed.executed == 1
        # The torn line was counted.
        assert resumed.health.skipped_lines == 1
        assert resumed.records == reference.records
        healed, health = load(path)
        assert len(healed) == spec.size
        # The torn fragment stays behind as its own (unparsable) line —
        # healing only guarantees the next append starts fresh — so it
        # keeps being counted, never silently vanishes.
        assert health.skipped_lines == 1


class TestSeedDependenceRegistry:
    def test_builtin_kinds_classified(self):
        assert graph_seed_dependent("gnp")
        assert graph_seed_dependent("gray-zone")
        for kind in ("line", "ring", "grid", "clique-bridge",
                     "hard-line", "layered-pairs", "pivot-layers"):
            assert not graph_seed_dependent(kind), kind

    def test_unknown_kind_is_safe(self):
        assert graph_seed_dependent("no-such-kind")

    def test_runtime_registration_defaults_to_dependent(self):
        register_graph(
            "test-batch-dep", lambda n, seed, **kw: line(n)
        )
        assert graph_seed_dependent("test-batch-dep")
        register_graph(
            "test-batch-indep",
            lambda n, seed, **kw: line(n),
            seed_dependent=False,
        )
        assert not graph_seed_dependent("test-batch-indep")


class TestCompiledTopology:
    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_shared_topology_identical_traces(self, engine, tiny_line):
        from repro.core.runner import make_processes

        graph = tiny_line
        topology = compile_topology(graph)
        traces = []
        for topo in (None, topology, topology):  # reuse twice
            eng = build_engine(
                graph,
                make_processes("round_robin", graph.n),
                config=EngineConfig(seed=3, engine=engine),
                topology=topo,
            )
            traces.append(trace_to_json(eng.run()))
        assert traces[0] == traces[1] == traces[2]

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_engine_compiles_topology_when_none_given(
        self, engine, tiny_line
    ):
        from repro.core.runner import make_processes

        eng = build_engine(
            tiny_line,
            make_processes("round_robin", tiny_line.n),
            config=EngineConfig(engine=engine),
        )
        assert eng._topology.graph is tiny_line
        want = compile_topology(tiny_line)
        assert eng._reliable_out_seq == want.reliable_out_seq
        assert eng._unreliable_only_seq == want.unreliable_only_seq

    def test_mismatched_topology_rejected(self, tiny_line):
        from repro.core.runner import make_processes

        topology = compile_topology(tiny_line)
        other = line(tiny_line.n)  # equal structure, different object
        with pytest.raises(ValueError, match="different graph"):
            build_engine(
                other,
                make_processes("round_robin", other.n),
                topology=topology,
            )

    def test_topology_matches_engine_internals(self):
        graph = line(5)
        topology = compile_topology(graph)
        assert topology.bit == [1, 2, 4, 8, 16]
        assert topology.reach_mask[0] == 0b00011
        assert topology.reach_mask[2] == 0b01110
        assert topology.reliable_out_seq[1] == (0, 2)


class TestObserverBatching:
    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_batching_with_observer_processes(self, engine):
        """Cells whose processes observe silence batch identically."""
        spec = ExperimentSpec(
            name="dec",
            algorithms=["decay"],
            graphs=[("clique-bridge", 9)],
            adversaries=["none"],
            engines=[engine],
            seeds=range(3),
            max_rounds=64,
        )
        assert SweepRunner(spec).run().records == per_task_records(spec)
