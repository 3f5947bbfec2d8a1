"""Tests for the explicit-interference model and the Lemma-1 reduction."""

import pytest

from repro.core import (
    make_decay_processes,
    make_harmonic_processes,
    make_round_robin_processes,
    make_strong_select_processes,
)
from repro.graphs import gnp_dual, line, with_complete_unreliable
from repro.interference import (
    InterferenceEngine,
    InterferenceNetwork,
    run_equivalence_check,
)
from repro.obs import RecordingTelemetry, use
from repro.sim import CollisionRule
from repro.sim.process import ScriptedProcess


def scripted(n):
    return [ScriptedProcess(uid=i, send_rounds=range(1, 500)) for i in range(n)]


class TestInterferenceSemantics:
    def test_transmission_edges_convey(self):
        net = InterferenceNetwork(line(3))
        eng = InterferenceEngine(net, scripted(3), max_rounds=10)
        trace = eng.run()
        assert trace.completed

    def test_interference_only_edges_never_convey(self):
        # G_T is a line 0-1-2-3; G_I additionally joins 0 and 3.  Node 3
        # must never receive directly from node 0.
        g = line(4, extra_edges=[(0, 3)])
        net = InterferenceNetwork(g)
        procs = [
            ScriptedProcess(0, range(1, 100)),
            ScriptedProcess(1, []),
            ScriptedProcess(2, []),
            ScriptedProcess(3, []),
        ]
        eng = InterferenceEngine(net, procs, max_rounds=20)
        trace = eng.run()
        # Only node 1 ever gets the message (node 0's G_T neighbour).
        assert trace.informed_round[1] is not None
        assert trace.informed_round[3] is None

    def test_lone_interference_arrival_is_silence_not_collision(self):
        # Sender 0 has a G_I-only edge to node 3; node 3's observation
        # must be ⊥ even under CR1.
        g = line(4, extra_edges=[(0, 3)])
        net = InterferenceNetwork(g)
        procs = [
            ScriptedProcess(0, [1]),
            ScriptedProcess(1, []),
            ScriptedProcess(2, []),
            ScriptedProcess(3, []),
        ]
        eng = InterferenceEngine(
            net, procs, collision_rule=CollisionRule.CR1,
            synchronous_start=True, max_rounds=2,
        )
        trace = eng.run()
        assert trace.rounds[0].receptions[3].is_silence

    def test_interference_plus_transmission_collides(self):
        # Node 2 hears G_T-neighbour 1 and G_I-only neighbour 0 → ⊤.
        from repro.graphs.dualgraph import DualGraph

        g = DualGraph(
            3, [(0, 1), (1, 2)], [(0, 1), (1, 2), (0, 2)], undirected=True
        )
        net = InterferenceNetwork(g)
        procs = [
            ScriptedProcess(0, [1]),
            ScriptedProcess(1, [1], send_without_message=True),
            ScriptedProcess(2, []),
        ]
        eng = InterferenceEngine(
            net, procs, collision_rule=CollisionRule.CR1,
            synchronous_start=True, max_rounds=2,
        )
        trace = eng.run()
        assert trace.rounds[0].receptions[2].is_collision


    def test_run_event_names_the_interference_engine(self):
        # The interference model resolves without the engine tallies:
        # a run emits its engine_run event and no engine.* counter.
        telemetry = RecordingTelemetry()
        with use(telemetry):
            trace = InterferenceEngine(
                InterferenceNetwork(line(3)), scripted(3), max_rounds=10
            ).run()
        (event,) = telemetry.events
        assert event["kind"] == "engine_run"
        assert event["engine"] == "interference"
        assert event["rounds"] == len(trace.rounds)
        assert not [c for c in telemetry.counters if c.startswith("engine.")]


ALGOS = [
    ("round_robin", make_round_robin_processes),
    ("strong_select", make_strong_select_processes),
    ("harmonic", make_harmonic_processes),
    ("decay", make_decay_processes),
]


class TestLemma1Equivalence:
    @pytest.mark.parametrize("rule", list(CollisionRule))
    @pytest.mark.parametrize("name,factory", ALGOS)
    def test_reduction_equivalent_on_random_graphs(self, rule, name, factory):
        net = InterferenceNetwork(gnp_dual(16, seed=8))
        report = run_equivalence_check(
            net, factory, collision_rule=rule, max_rounds=4000, seed=3
        )
        assert report.equivalent, report.first_divergence

    def test_cr4_deliver_first_policy_equivalent(self):
        net = InterferenceNetwork(gnp_dual(14, seed=2))
        report = run_equivalence_check(
            net,
            make_round_robin_processes,
            collision_rule=CollisionRule.CR4,
            max_rounds=2000,
            seed=1,
            cr4_choose_first=True,
        )
        assert report.equivalent

    def test_synchronous_start_equivalent(self):
        net = InterferenceNetwork(gnp_dual(14, seed=5))
        report = run_equivalence_check(
            net,
            make_round_robin_processes,
            collision_rule=CollisionRule.CR1,
            synchronous_start=True,
            max_rounds=2000,
            seed=6,
        )
        assert report.equivalent

    def test_dense_interference_equivalent(self):
        net = InterferenceNetwork(with_complete_unreliable(line(10)))
        report = run_equivalence_check(
            net,
            make_strong_select_processes,
            collision_rule=CollisionRule.CR3,
            max_rounds=10_000,
            seed=2,
        )
        assert report.equivalent

    def test_round_bounds_carry_over(self):
        # Lemma 1's headline: the dual-graph algorithm completes in the
        # interference model within its dual-graph round bound.
        net = InterferenceNetwork(gnp_dual(16, seed=8))
        report = run_equivalence_check(
            net, make_round_robin_processes, max_rounds=2000, seed=0
        )
        assert report.interference_trace.completed
        ecc = net.graph.source_eccentricity
        assert report.interference_trace.completion_round <= 16 * ecc
