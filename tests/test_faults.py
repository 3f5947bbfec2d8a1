"""Fault injection (``repro.sim.faults``) across every layer.

The churn subsystem's contract has three parts, each pinned here:

* **Schedule data** — :class:`ChurnSchedule` validates its event state
  machine at construction and round-trips through JSON; the generators
  (:func:`generate_churn`, :func:`window_churn`) are pure functions of
  their arguments.
* **Engine semantics** — crashed nodes contribute nothing (no sends,
  no receptions, no wake-ups); recovery follows the rejoin policy
  (``uninformed`` revokes payload custody, ``informed`` is stable
  storage); late joiners do not exist until their recovery round.  Both
  engines stay byte-identical, recorded traces replay strictly,
  and the independent validator accepts real traces and flags tampered
  ones.
* **Sweep axis** — ``churns`` is a spec axis with resume-stable keys
  (failure-free entries keep their pre-churn spelling), a registry of
  kinds, and per-record ``churn_kind`` that reports route into a
  separate "under churn" table.

The spec/runner duplicate-key rejections (duplicate seeds silently
collapsing resume keys) ride along here because the churn axis is what
made the silent-collapse failure mode visible.
"""

import dataclasses
import json

import pytest

from conftest import corpus_graph
from repro.adversaries.scripted import ReplayAdversary
from repro.analysis.report import CampaignReport
from repro.core.runner import broadcast, make_processes
from repro.experiments import (
    ChurnSpec,
    ExperimentSpec,
    RunResult,
    SweepRunner,
    build_churn,
    churn_kinds,
    plan_batches,
    run_sweep,
)
from repro.sim import (
    ChurnSchedule,
    CollisionRule,
    EngineConfig,
    StartMode,
    build_engine,
    generate_churn,
    trace_to_json,
    validate_execution,
    window_churn,
)

ENGINES = ("reference", "fast")


# ----------------------------------------------------------------------
# Schedule data
# ----------------------------------------------------------------------
class TestChurnSchedule:
    def test_trivial_schedule(self):
        sched = ChurnSchedule()
        assert sched.nodes_touched() == ()

    def test_events_are_sorted_and_frozen(self):
        sched = ChurnSchedule(
            crashes={3: (5, 2)}, recoveries={7: (2, 5)}
        )
        assert sched.crashes[3] == (2, 5)
        assert sched.recoveries[7] == (2, 5)
        assert sched.nodes_touched() == (2, 5)

    def test_crash_of_down_node_rejected(self):
        with pytest.raises(ValueError, match="already down"):
            ChurnSchedule(crashes={1: (4,), 2: (4,)})

    def test_recovery_of_up_node_rejected(self):
        with pytest.raises(ValueError, match="not down"):
            ChurnSchedule(recoveries={2: (3,)})

    def test_same_round_crash_and_recovery_rejected(self):
        with pytest.raises(ValueError, match="both crash and recover"):
            ChurnSchedule(
                initial_down=(3,), crashes={2: (3,)},
                recoveries={2: (3,)},
            )

    def test_nonpositive_round_rejected(self):
        with pytest.raises(ValueError, match="positive integer"):
            ChurnSchedule(crashes={0: (1,)})

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError, match="duplicate nodes"):
            ChurnSchedule(crashes={1: (2, 2)})
        with pytest.raises(ValueError, match="initial_down"):
            ChurnSchedule(initial_down=(1, 1))

    def test_unknown_rejoin_rejected(self):
        with pytest.raises(ValueError, match="rejoin"):
            ChurnSchedule(rejoin="psychic")

    def test_validate_for_checks_range_and_source(self):
        g = corpus_graph("line", 4)
        with pytest.raises(ValueError, match="outside"):
            ChurnSchedule(crashes={1: (9,)}).validate_for(g)
        with pytest.raises(ValueError, match="live source"):
            ChurnSchedule(
                initial_down=(g.source,)
            ).validate_for(g)

    def test_json_round_trip(self):
        sched = ChurnSchedule(
            crashes={2: (1, 3)}, recoveries={5: (1,)},
            initial_down=(4,), rejoin="informed",
        )
        doc = json.loads(json.dumps(sched.to_dict()))
        assert ChurnSchedule.from_dict(doc) == sched


class TestGenerators:
    def test_generate_churn_is_deterministic(self):
        kw = dict(n=10, rounds=30, crash_rate=0.1, recover_rate=0.3)
        assert generate_churn(seed=7, **kw) == generate_churn(
            seed=7, **kw
        )
        assert generate_churn(seed=7, **kw) != generate_churn(
            seed=8, **kw
        )

    def test_generate_churn_respects_protection(self):
        sched = generate_churn(
            n=6, rounds=50, crash_rate=0.5, recover_rate=0.1,
            seed=3, protect=(0, 2),
        )
        assert 0 not in sched.nodes_touched()
        assert 2 not in sched.nodes_touched()

    def test_generate_churn_rejects_bad_rates(self):
        with pytest.raises(ValueError, match="rates"):
            generate_churn(
                n=4, rounds=5, crash_rate=1.5, recover_rate=0.1, seed=0
            )

    def test_window_churn_shape(self):
        sched = window_churn(n=8, count=3, start=4, length=5)
        assert sched.crashes == {4: (5, 6, 7)}
        assert sched.recoveries == {9: (5, 6, 7)}

    def test_window_churn_rejects_bad_window(self):
        with pytest.raises(ValueError):
            window_churn(n=8, count=1, start=0, length=5)


# ----------------------------------------------------------------------
# Engine semantics
# ----------------------------------------------------------------------
def run_with_churn(churn, engine="reference", n=6, algorithm="uniform",
                   rule=CollisionRule.CR2, start=StartMode.SYNCHRONOUS,
                   max_rounds=40, seed=1, record=True,
                   graph_kind="hard-line"):
    graph = corpus_graph(graph_kind, n)
    config = EngineConfig(
        collision_rule=rule, start_mode=start, max_rounds=max_rounds,
        seed=seed, record_receptions=record, engine=engine, churn=churn,
    )
    trace = build_engine(
        graph, make_processes(algorithm, graph.n), None, config
    ).run()
    return graph, config, trace


class TestEngineSemantics:
    def test_crashed_node_never_transmits(self):
        churn = ChurnSchedule(crashes={2: (3,)})
        _, _, trace = run_with_churn(churn)
        for record in trace.rounds:
            if record.round_number >= 2:
                assert 3 not in record.senders

    def test_crash_events_land_in_the_trace(self):
        churn = ChurnSchedule(crashes={2: (3,)}, recoveries={6: (3,)})
        _, _, trace = run_with_churn(churn)
        by_round = {r.round_number: r for r in trace.rounds}
        assert by_round[2].crashed == (3,)
        assert by_round[6].recovered == (3,)

    def test_uninformed_rejoin_revokes_custody(self):
        # Crash node 1 after the line-source informs it: its
        # informed_round entry must be re-earned post-recovery.
        churn = ChurnSchedule(crashes={3: (1,)}, recoveries={5: (1,)})
        _, _, trace = run_with_churn(churn, algorithm="round_robin")
        assert trace.informed_round[1] is not None
        assert trace.informed_round[1] >= 5

    def test_informed_rejoin_keeps_custody(self):
        churn = ChurnSchedule(
            crashes={3: (1,)}, recoveries={5: (1,)}, rejoin="informed"
        )
        _, _, trace = run_with_churn(churn, algorithm="round_robin")
        assert trace.informed_round[1] is not None
        assert trace.informed_round[1] < 3

    def test_late_joiner_does_not_exist_until_recovery(self):
        churn = ChurnSchedule(initial_down=(2,), recoveries={4: (2,)})
        _, _, trace = run_with_churn(churn)
        for record in trace.rounds:
            if record.round_number < 4:
                assert 2 not in record.senders
                assert 2 not in record.newly_informed

    def test_crashed_node_cannot_be_woken_async(self):
        churn = ChurnSchedule(crashes={1: (1,)}, recoveries={8: (1,)})
        _, _, trace = run_with_churn(
            churn, start=StartMode.ASYNCHRONOUS,
            algorithm="round_robin",
        )
        for record in trace.rounds:
            if record.round_number < 8:
                assert 1 not in record.newly_active

    def test_permanent_crash_prevents_completion(self):
        churn = ChurnSchedule(crashes={1: (5,)})
        _, _, trace = run_with_churn(churn, algorithm="round_robin")
        assert not trace.completed
        assert trace.informed_round.get(5) is None

    @pytest.mark.parametrize("rejoin", ["uninformed", "informed"])
    @pytest.mark.parametrize(
        "rule", [CollisionRule.CR2, CollisionRule.CR4]
    )
    @pytest.mark.parametrize(
        "start", [StartMode.SYNCHRONOUS, StartMode.ASYNCHRONOUS]
    )
    def test_engines_stay_byte_identical(
        self, rejoin, rule, start
    ):
        churn = ChurnSchedule(
            crashes={2: (2, 4), 7: (1,)},
            recoveries={5: (2,), 9: (1, 4)},
            rejoin=rejoin,
        )
        serialized = {}
        for engine in ENGINES:
            _, _, trace = run_with_churn(
                churn, engine=engine, rule=rule, start=start,
                algorithm="harmonic",
            )
            serialized[engine] = trace_to_json(trace)
        assert serialized["fast"] == serialized["reference"]

    def test_validator_accepts_real_churn_trace(self):
        churn = ChurnSchedule(
            crashes={2: (2,)}, recoveries={5: (2,)},
            initial_down=(4,),
        )
        graph, config, trace = run_with_churn(churn)
        assert validate_execution(
            trace, graph, config.collision_rule, config.start_mode,
            churn=churn,
        ) == []

    def test_validator_flags_trace_without_schedule(self):
        churn = ChurnSchedule(crashes={2: (2,)})
        graph, config, trace = run_with_churn(churn)
        issues = validate_execution(
            trace, graph, config.collision_rule, config.start_mode
        )
        assert issues
        assert "no schedule" in issues[0]

    def test_validator_flags_post_crash_transmission(self):
        from repro.sim.messages import Message

        churn = ChurnSchedule(crashes={2: (3,)})
        graph, config, trace = run_with_churn(churn)
        tampered = next(
            r for r in trace.rounds if r.round_number == 3
        )
        forged = dataclasses.replace(
            tampered,
            senders={
                **tampered.senders,
                3: Message("broadcast-message", 3, 3),
            },
        )
        trace.rounds[trace.rounds.index(tampered)] = forged
        issues = validate_execution(
            trace, graph, config.collision_rule, config.start_mode,
            churn=churn,
        )
        assert any("crashed node 3" in issue for issue in issues)

    def test_recorded_churn_trace_replays_strictly(self):
        churn = ChurnSchedule(
            crashes={2: (2, 4)}, recoveries={5: (2,)},
        )
        graph, config, trace = run_with_churn(
            churn, algorithm="round_robin"
        )
        replay = build_engine(
            graph,
            make_processes("round_robin", graph.n),
            ReplayAdversary(trace, strict=True),
            config,
        ).run()
        assert trace_to_json(replay) == trace_to_json(trace)

    def test_broadcast_accepts_churn_kwarg(self):
        churn = window_churn(n=6, count=1, start=2, length=3)
        trace = broadcast(
            corpus_graph("line", 6), "round_robin",
            max_rounds=30, churn=churn,
        )
        assert any(r.crashed for r in trace.rounds)

    def test_failure_free_trace_json_has_no_churn_keys(self):
        # Backward compatibility: churn keys appear only when events
        # fired, so pre-churn artifacts stay byte-valid.
        trace = broadcast(
            corpus_graph("line", 4), "round_robin", max_rounds=20
        )
        doc = json.loads(trace_to_json(trace))
        for record in doc["rounds"]:
            assert "crashed" not in record
            assert "recovered" not in record
        assert "crash_events" not in trace.summary()


# ----------------------------------------------------------------------
# Sweep axis
# ----------------------------------------------------------------------
def spec_with(churns, seeds=(0, 1), **overrides):
    base = dict(
        name="faulty",
        algorithms=["round_robin"],
        graphs=[("line", 6)],
        adversaries=["none"],
        collision_rules=["CR2"],
        seeds=seeds,
    )
    if churns is not None:  # None = the spec's own default axis
        base["churns"] = churns
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSweepAxis:
    def test_registry_has_the_builtin_kinds(self):
        assert set(churn_kinds()) >= {"none", "rate", "window"}
        assert build_churn("none", n=8, rounds=10) is None
        sched = build_churn(
            "window", n=8, rounds=10, count=2, start=3, length=4
        )
        assert sched.crashes == {3: (6, 7)}

    def test_churn_axis_multiplies_size(self):
        spec = spec_with(["none", ("rate", {"crash_rate": 0.1})])
        assert spec.size == 4
        kinds = {t.churn_kind for t in spec.tasks()}
        assert kinds == {"none", "rate"}

    def test_none_entries_keep_pre_churn_keys(self):
        with_axis = spec_with(["none"])
        without_axis = spec_with(None)
        assert [t.key for t in with_axis.tasks()] == [
            t.key for t in without_axis.tasks()
        ]
        assert "churn" not in with_axis.tasks()[0].key

    def test_churn_entries_key_their_params(self):
        spec = spec_with([
            ("window", {"count": 1, "start": 2, "length": 2}),
            ("window", {"count": 2, "start": 2, "length": 2}),
        ])
        keys = [t.key for t in spec.tasks()]
        assert len(set(keys)) == len(keys)
        assert all("churn-window" in k for k in keys)

    def test_spec_round_trips_churns(self):
        spec = spec_with(["none", ("rate", {"crash_rate": 0.05})])
        clone = ExperimentSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.churns == spec.churns

    def test_spec_coercion_forms(self):
        spec = spec_with([
            "none",
            ("rate", {"crash_rate": 0.1}),
            {"kind": "window",
             "params": {"count": 1, "start": 2, "length": 3}},
            ChurnSpec("rate", (("crash_rate", 0.2),)),
        ])
        assert [c.kind for c in spec.churns] == [
            "none", "rate", "window", "rate"
        ]

    def test_sweep_is_engine_invariant_under_churn(self, tmp_path):
        kind_params = ("rate", {"crash_rate": 0.15,
                                "recover_rate": 0.4})
        by_engine = {}
        for engine in ENGINES:
            result = run_sweep(
                spec_with(["none", kind_params], engines=[engine])
            )
            by_engine[engine] = [
                (r.key.replace(f"/eng-{engine}", ""),
                 r.completion_round, r.total_transmissions,
                 r.churn_kind)
                for r in result.records
            ]
        assert by_engine["fast"] == by_engine["reference"]

    def test_churn_records_resume_by_key(self, tmp_path):
        spec = spec_with(
            [("window", {"count": 1, "start": 2, "length": 2})]
        )
        results = str(tmp_path / "r.jsonl")
        first = run_sweep(spec, results_path=results)
        second = run_sweep(spec, results_path=results)
        assert first.executed == 2
        assert second.executed == 0
        assert second.resumed == 2
        assert second.records == first.records

    def test_run_result_round_trips_churn_kind(self):
        spec = spec_with([("rate", {"crash_rate": 0.1})])
        record = run_sweep(spec).records[0]
        assert record.churn_kind == "rate"
        assert RunResult.from_dict(record.to_dict()) == record

    def test_legacy_record_docs_default_to_none(self):
        spec = spec_with(None)
        doc = run_sweep(spec).records[0].to_dict()
        doc.pop("churn_kind")
        assert RunResult.from_dict(doc).churn_kind == "none"


class TestDuplicateRejection:
    """Satellites: silent resume-key collapse is now a loud error."""

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError, match="duplicate seeds"):
            spec_with(None, seeds=(0, 1, 0))

    def test_duplicate_graphs_rejected(self):
        with pytest.raises(ValueError, match="duplicate graphs"):
            spec_with(None, graphs=[("line", 6), ("line", 6)])

    def test_duplicate_churns_rejected(self):
        entry = ("rate", {"crash_rate": 0.1})
        with pytest.raises(ValueError, match="duplicate churns"):
            spec_with([entry, entry])

    def test_error_names_the_axis_and_entries(self):
        with pytest.raises(ValueError, match=r"seeds.*\['3'\]"):
            spec_with(None, seeds=(3, 3))

    def test_from_dict_rejects_duplicates_too(self):
        doc = spec_with(None).to_dict()
        doc["seeds"] = [0, 0]
        with pytest.raises(ValueError, match="duplicate seeds"):
            ExperimentSpec.from_dict(doc)

    def test_sharded_store_never_sees_duplicate_spec(self, tmp_path):
        # The rejection fires at spec construction — before a sharded
        # campaign directory (whose manifest would have frozen the
        # collapsed fingerprint) is even created.
        camp = tmp_path / "camp"
        with pytest.raises(ValueError, match="duplicate seeds"):
            run_sweep(
                spec_with(None, seeds=(0, 0)),
                results_path=str(camp),
                store="sharded",
            )
        assert not camp.exists()

    def test_plan_batches_rejects_colliding_tasks(self):
        task = spec_with(None, seeds=(0,)).tasks()[0]
        with pytest.raises(ValueError, match="duplicate task key"):
            plan_batches([task, task])

    def test_fingerprint_rejects_colliding_tasks(self):
        spec = spec_with(None, seeds=(0,))
        runner = SweepRunner(spec)
        task = spec.tasks()[0]
        with pytest.raises(ValueError, match="non-unique task keys"):
            runner.fingerprint([task, task])

    def test_fingerprint_is_stable_for_unique_tasks(self):
        spec = spec_with(["none", ("rate", {"crash_rate": 0.1})])
        assert SweepRunner(spec).fingerprint() == SweepRunner(
            spec
        ).fingerprint()


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
class TestChurnReport:
    def result_set(self):
        spec = spec_with(
            ["none", ("window", {"count": 1, "start": 2, "length": 2})]
        )
        return run_sweep(spec)

    def test_churn_records_leave_main_cells(self):
        report = CampaignReport()
        for record in self.result_set().records:
            report.add(record)
        (clean,) = report.ordered()
        (churned,) = report.ordered(churned=True)
        assert clean.churn_kind == "none"
        assert churned.churn_kind == "window"
        assert churned.key.startswith(clean.key + "/churn-window(")
        assert churned.key not in {
            row[0] for row in report.reference_rows()
        }

    def test_render_appends_churn_table(self):
        report = CampaignReport()
        for record in self.result_set().records:
            report.add(record)
        rendered = report.render(title="t")
        assert "under churn" in rendered
        assert "paper bounds do not apply" in rendered

    def test_failure_free_report_has_no_churn_section(self):
        report = CampaignReport()
        for record in run_sweep(spec_with(None)).records:
            report.add(record)
        assert report.ordered(churned=True) == []
        assert "under churn" not in report.render(title="t")
        assert "churn_cells" not in report.to_dict()
