"""Tests for the declarative parallel sweep subsystem."""

import json
from collections import Counter

import pytest

from repro.experiments import (
    AdversarySpec,
    AlgorithmSpec,
    ChurnSpec,
    ExperimentSpec,
    GraphSpec,
    RunResult,
    SweepResult,
    SweepRunner,
    build_adversary,
    build_graph,
    cell_key_of,
    curve_key_of,
    execute_task,
    load_specs,
    register_graph,
    run_sweep,
)
from repro.analysis import CampaignReport
from repro.experiments.spec import RunTask
from repro.store import open_store


def load_records(path):
    """The results file's key → record map and its load-time health."""
    with open_store(path, RunResult.from_dict) as store:
        return store.claim_keys(), store.health


def tiny_spec(**overrides) -> ExperimentSpec:
    base = dict(
        name="tiny",
        algorithms=["round_robin"],
        graphs=[("line", 6), ("line", 10)],
        adversaries=["none"],
        seeds=range(2),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSpec:
    def test_axis_shorthands_coerce(self):
        spec = ExperimentSpec(
            name="s",
            algorithms=["round_robin", ("harmonic", {"T": 2})],
            graphs=[GraphSpec("line", 8), {"kind": "gnp", "sizes": [16, 32]}],
            adversaries=["greedy", AdversarySpec("random", (("p", 0.3),))],
            seeds={"start": 3, "count": 2},
        )
        assert spec.algorithms[1] == AlgorithmSpec(
            "harmonic", (("T", 2),)
        )
        assert [g.n for g in spec.graphs] == [8, 16, 32]
        assert spec.adversaries[1].params == (("p", 0.3),)
        assert spec.seeds == (3, 4)

    @pytest.mark.parametrize(
        "axis, cls, field, noun",
        [
            ("algorithms", AlgorithmSpec, "name", "algorithm"),
            ("adversaries", AdversarySpec, "kind", "adversary"),
            ("churns", ChurnSpec, "kind", "churn"),
        ],
    )
    def test_named_entry_forms_coerce_alike(self, axis, cls, field, noun):
        expected = cls("x", (("k", 1),))
        forms = [expected, ("x", {"k": 1}), {field: "x", "params": {"k": 1}}]
        for form in forms:
            assert getattr(tiny_spec(**{axis: [form]}), axis) == (expected,)
        assert getattr(tiny_spec(**{axis: ["x"]}), axis) == (cls("x"),)
        with pytest.raises(TypeError, match=f"cannot interpret {noun} entry"):
            tiny_spec(**{axis: [3]})

    def test_grid_size_and_order_stable(self):
        spec = tiny_spec(collision_rules=["CR1", "CR4"])
        tasks = spec.tasks()
        assert len(tasks) == spec.size == 1 * 2 * 1 * 2 * 1 * 2
        assert [t.key for t in tasks] == [t.key for t in spec.tasks()]
        assert len({t.key for t in tasks}) == len(tasks)

    def test_derived_seed_stable_and_distinct(self):
        tasks = tiny_spec().tasks()
        seeds = [t.derived_seed for t in tasks]
        assert seeds == [t.derived_seed for t in tiny_spec().tasks()]
        assert len(set(seeds)) == len(seeds)

    def test_unknown_collision_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown collision rule"):
            tiny_spec(collision_rules=["CR9"])

    def test_unknown_start_mode_rejected(self):
        with pytest.raises(ValueError):
            tiny_spec(start_modes=["sometimes"])

    @pytest.mark.parametrize("engine", ["warp", "vector"])
    def test_unknown_engine_rejected(self, engine):
        """Only live engine names load; the removed vector engine's name
        is as unknown as a made-up one."""
        with pytest.raises(ValueError, match="unknown engine"):
            tiny_spec(engines=[engine])

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            tiny_spec(algorithms=[])

    def test_json_roundtrip(self):
        spec = ExperimentSpec(
            name="rt",
            algorithms=[("harmonic", {"T": 3})],
            graphs=[("clique-bridge", 9)],
            adversaries=[("random", {"p": 0.25})],
            collision_rules=["CR3"],
            start_modes=["synchronous"],
            seeds=[5, 7],
            max_rounds=123,
        )
        clone = ExperimentSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert [t.key for t in clone.tasks()] == [
            t.key for t in spec.tasks()
        ]

    def test_unknown_spec_field_rejected(self):
        doc = tiny_spec().to_dict()
        doc["max_round"] = 5  # typo'd field must not be dropped
        with pytest.raises(ValueError, match="unknown spec field"):
            ExperimentSpec.from_dict(doc)

    def test_max_rounds_is_part_of_the_key(self):
        capped = tiny_spec(max_rounds=3).tasks()[0]
        uncapped = tiny_spec().tasks()[0]
        assert capped.key != uncapped.key
        assert "cap3" in capped.key

    def test_negative_max_rounds_rejected(self):
        with pytest.raises(ValueError, match="max_rounds must be >= 0"):
            tiny_spec(max_rounds=-1)
        assert tiny_spec(max_rounds=0).tasks()[0].key.endswith("/s0/cap0")

    def test_load_specs_single_and_list(self, tmp_path):
        single = tmp_path / "one.json"
        single.write_text(json.dumps(tiny_spec().to_dict()))
        assert [s.name for s in load_specs(str(single))] == ["tiny"]

        many = tmp_path / "many.json"
        many.write_text(
            json.dumps(
                [
                    tiny_spec().to_dict(),
                    tiny_spec(name="other").to_dict(),
                ]
            )
        )
        assert [s.name for s in load_specs(str(many))] == [
            "tiny", "other",
        ]


class TestRegistry:
    def test_unknown_kinds_rejected(self):
        with pytest.raises(ValueError, match="unknown graph kind"):
            build_graph("nope", 8)
        with pytest.raises(ValueError, match="unknown adversary kind"):
            build_adversary("nope")

    def test_unfitting_factory_params_raise_value_error(self):
        from repro.core.runner import make_processes
        from repro.experiments import build_churn

        with pytest.raises(ValueError, match="churn kind 'window'"):
            build_churn("window", n=8, rounds=10)
        with pytest.raises(ValueError, match="adversary kind 'pivot'"):
            build_adversary("pivot")
        with pytest.raises(ValueError, match="graph kind 'gnp'"):
            build_graph("gnp", 8, bogus=1)
        with pytest.raises(ValueError, match="algorithm 'decay'.*bogus"):
            make_processes("decay", 8, bogus=1)

    def test_type_error_inside_a_factory_propagates(self):
        # A TypeError raised below the factory's own calls is a bug in
        # the factory, not a parameter misfit: it keeps its traceback.
        def broken(n):
            return len(n)

        register_graph(
            "test-only-broken", lambda n, seed, **kw: broken(n)
        )
        with pytest.raises(TypeError, match="has no len"):
            build_graph("test-only-broken", 5)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "overrides",
        [
            {"churns": ["window"]},
            {"algorithms": [("decay", {"bogus": 1})]},
        ],
        ids=["window-churn-without-params", "unknown-algorithm-param"],
    )
    def test_sweep_surfaces_unfitting_params_as_value_error(
        self, workers, overrides
    ):
        spec = tiny_spec(**overrides)
        with pytest.raises(ValueError, match="bad parameters"):
            run_sweep(spec, workers=workers)

    def test_register_graph_duplicate_rejected(self):
        register_graph(
            "test-only-star", lambda n, seed, **kw: build_graph("line", n)
        )
        assert build_graph("test-only-star", 5).n == 5
        with pytest.raises(ValueError, match="already registered"):
            register_graph("test-only-star", lambda n, seed, **kw: None)

    def test_interferers_exposed_through_registry(self):
        from repro.adversaries import GreedyInterferer, PivotAdversary

        assert isinstance(build_adversary("greedy"), GreedyInterferer)
        assert isinstance(
            build_adversary("pivot", n=20), PivotAdversary
        )

    def test_pivot_adversary_usable_from_a_spec(self):
        from repro.experiments import run_sweep

        spec = ExperimentSpec(
            name="pivot-spec",
            algorithms=["round_robin"],
            graphs=[("pivot-layers", 16)],
            adversaries=[("pivot", {"n": 16})],
            collision_rules=["CR1"],
            seeds=[0],
        )
        result = run_sweep(spec)
        assert len(result) == 1
        assert result.records[0].adversary_kind == "pivot"


class TestExecuteTask:
    def test_result_matches_task(self):
        task = tiny_spec().tasks()[0]
        result = execute_task(task)
        assert result.key == task.key
        assert result.completed
        assert result.algorithm == "round_robin"
        assert result.graph_n == 6
        assert result.completion_round <= result.rounds

    def test_round_cap_reported_as_failure(self):
        task = tiny_spec(max_rounds=1).tasks()[0]
        result = execute_task(task)
        assert not result.completed
        assert result.completion_round is None
        assert result.rounds == 1


class TestSweepRunner:
    def test_serial_run_covers_grid(self):
        spec = tiny_spec()
        result = run_sweep(spec)
        assert len(result) == spec.size
        assert result.executed == spec.size
        assert result.resumed == 0
        assert not result.failures

    def test_duplicate_task_keys_rejected(self):
        spec = tiny_spec()
        with pytest.raises(ValueError, match="duplicate task key"):
            SweepRunner([spec, spec]).run()

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            SweepRunner(tiny_spec(), workers=0)

    def test_determinism_across_worker_counts(self):
        """Regression: 1 worker and N workers yield identical records."""
        # 32 cells: many more dispatch units than workers, so results
        # come back in an order unrelated to the grid.
        spec = ExperimentSpec(
            name="det",
            algorithms=["round_robin", ("harmonic", {"T": 2})],
            graphs=[("line", 8), ("clique-bridge", 9), ("ring", 6),
                    ("hard-line", 7)],
            adversaries=["greedy", "random"],
            collision_rules=["CR1", "CR4"],
            seeds=range(2),
        )
        serial = SweepRunner(spec, workers=1).run()
        parallel = SweepRunner(spec, workers=2).run()
        assert serial.records == parallel.records

    def test_resume_skips_finished_tasks(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "results.jsonl"
        first = run_sweep(spec, results_path=str(path))
        assert (first.executed, first.resumed) == (spec.size, 0)

        second = run_sweep(spec, results_path=str(path))
        assert (second.executed, second.resumed) == (0, spec.size)
        assert second.records == first.records

    def test_resume_reruns_only_missing_tasks(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "results.jsonl"
        run_sweep(spec, results_path=str(path))

        # Drop the last record and tear the line before it, as an
        # interrupt mid-write would.
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n" + lines[-2][:15])

        resumed = run_sweep(spec, results_path=str(path))
        assert resumed.resumed == spec.size - 2
        assert resumed.executed == 2
        assert len(load_records(str(path))[0]) == spec.size

    def test_changed_round_cap_invalidates_old_records(self, tmp_path):
        """Raising max_rounds must re-run, not resume, capped records."""
        path = tmp_path / "results.jsonl"
        capped = run_sweep(tiny_spec(max_rounds=1), results_path=str(path))
        assert len(capped.failures) == len(capped)

        retried = run_sweep(tiny_spec(), results_path=str(path))
        assert retried.resumed == 0
        assert retried.executed == tiny_spec().size
        assert not retried.failures

    def test_load_records_missing_file(self, tmp_path):
        loaded, health = load_records(str(tmp_path / "absent.jsonl"))
        assert loaded == {}
        assert health.issues == 0

    def test_load_records_counts_torn_and_foreign_lines(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "results.jsonl"
        run_sweep(spec, results_path=str(path))

        lines = path.read_text().splitlines()
        damaged = (
            "\n".join(lines[:-1])
            + "\nnot json at all\n"
            + '{"foreign": "document"}\n'
            + lines[-1][:12]
        )
        path.write_text(damaged)

        loaded, health = load_records(str(path))
        assert len(loaded) == spec.size - 1  # the torn record is gone
        assert health.skipped_lines == 3

        resumed = run_sweep(spec, results_path=str(path))
        assert resumed.health.skipped_lines == 3
        assert resumed.executed == 1

    def test_progress_callback_sees_every_task(self):
        seen = []
        spec = tiny_spec()
        run_sweep(
            spec,
            progress=lambda rec, done, total: seen.append(
                (rec.key, done, total)
            ),
        )
        assert len(seen) == spec.size
        assert seen[-1][1:] == (spec.size, spec.size)


class TestKeyDerivationBudget:
    """A sweep derives each task's key once to plan it and once where
    it runs, so re-deriving keys fails here rather than in a benchmark."""

    @pytest.fixture
    def derivations(self, monkeypatch):
        calls = [0]
        raw = RunTask._key_parts

        def counted(task):
            calls[0] += 1
            return raw(task)

        monkeypatch.setattr(RunTask, "_key_parts", counted)
        return calls

    @staticmethod
    def spec():
        return tiny_spec(
            algorithms=["round_robin", "decay"],
            engines=["reference", "fast"],
            seeds=range(3),
        )

    @pytest.mark.parametrize("store", ["jsonl", "sharded"])
    def test_fresh_sweep_derives_each_key_twice(
        self, tmp_path, derivations, store
    ):
        spec = self.spec()
        result = run_sweep(
            spec, results_path=str(tmp_path / "camp"), store=store
        )
        assert result.executed == spec.size
        assert derivations[0] <= 2 * spec.size

    @pytest.mark.parametrize("store", ["jsonl", "sharded"])
    def test_full_resume_derives_each_key_once(
        self, tmp_path, derivations, store
    ):
        spec = self.spec()
        path = str(tmp_path / "camp")
        run_sweep(spec, results_path=path, store=store)
        derivations[0] = 0
        result = run_sweep(spec, results_path=path, store=store)
        assert result.resumed == spec.size
        assert derivations[0] <= spec.size


class TestSweepResult:
    def test_failures_surface_in_table(self):
        capped = run_sweep(tiny_spec(max_rounds=1))
        assert len(capped.failures) == len(capped)
        report = CampaignReport.from_records(capped.records)
        rows = [cell.row() for cell in report.ordered()]
        assert all(row[2] == "—" for row in rows)
        assert all(row[4] == row[1] for row in rows)  # every run capped
        assert SweepResult(capped.records).failures == capped.failures


class TestCellKey:
    def test_record_cell_key_is_its_task_cell_key(self):
        # Params on all four entry kinds, a churn kind, a round cap,
        # two engines and seeds whose segments share a prefix.
        spec = ExperimentSpec(
            name="cells",
            algorithms=[("harmonic", {"T": 2})],
            graphs=[("gnp", 10, {"p_reliable": 0.5})],
            adversaries=[("random", {"p": 0.5})],
            churns=[
                "none",
                ("window", {"count": 1, "start": 2, "length": 2}),
            ],
            engines=["reference", "fast"],
            seeds=[1, 12],
            max_rounds=200,
        )
        records = run_sweep(spec).records
        assert len(records) == spec.size == 8
        assert {r.key for r in records} == {t.key for t in spec.tasks()}
        prefix = (
            "cells/harmonic(T=2)/gnp:n10(p_reliable=0.5)/random(p=0.5)"
            "/CR4-asynchronous"
        )
        churn = "/churn-window(count=1,length=2,start=2)"
        # Each of the four cells holds both seeds.
        assert Counter(r.cell_key for r in records) == {
            prefix + "/cap200": 2,
            prefix + "/cap200/eng-fast": 2,
            prefix + churn + "/cap200": 2,
            prefix + churn + "/cap200/eng-fast": 2,
        }

    @pytest.mark.parametrize(
        "key, cell",
        [
            ("sw/rr/line:n6/none/CR1-asynchronous/s12",
             "sw/rr/line:n6/none/CR1-asynchronous"),
            ("sw/rr/line:n6/none/CR1-asynchronous/s-3/cap9/eng-fast",
             "sw/rr/line:n6/none/CR1-asynchronous/cap9/eng-fast"),
            # Fault injection: the churn segment precedes the seed.
            ("sw/rr/line:n6/none/CR4-asynchronous"
             "/churn-window(count=1,length=2,start=2)/s7/cap200",
             "sw/rr/line:n6/none/CR4-asynchronous"
             "/churn-window(count=1,length=2,start=2)/cap200"),
            # A sweep named like a seed keeps its segment.
            ("s1/rr/line:n6/none/CR1-asynchronous/s1",
             "s1/rr/line:n6/none/CR1-asynchronous"),
            ("k1", "k1"),  # no seed segment: its own cell
        ],
    )
    def test_cell_key_of(self, key, cell):
        assert cell_key_of(key) == cell

    def test_curve_key_drops_only_the_size(self):
        cell = "sw/rr/line:n16(w=2)/none/CR1-asynchronous"
        assert (
            curve_key_of(cell, "line", 16)
            == "sw/rr/line(w=2)/none/CR1-asynchronous"
        )
