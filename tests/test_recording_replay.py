"""Tests for trace serialization and replay adversaries."""

import pytest

from repro.adversaries import GreedyInterferer, RandomDeliveryAdversary
from repro.adversaries.scripted import ReplayAdversary, ScriptedDeliveries
from repro.core import make_harmonic_processes, make_round_robin_processes
from repro.graphs import gnp_dual, line, with_complete_unreliable
from repro.sim import BroadcastEngine, EngineConfig, ScriptedProcess, run_broadcast
from repro.sim.recording import trace_from_json, trace_to_json


def recorded_run(network, processes, adversary, seed=0):
    config = EngineConfig(
        seed=seed, max_rounds=20_000, record_receptions=True
    )
    return BroadcastEngine(network, processes, adversary, config).run()


class TestSerialization:
    def test_roundtrip_preserves_everything(self):
        g = gnp_dual(12, seed=1)
        trace = recorded_run(
            g,
            make_round_robin_processes(12),
            RandomDeliveryAdversary(0.5, seed=2),
        )
        loaded = trace_from_json(trace_to_json(trace))
        assert loaded.n == trace.n
        assert loaded.proc == dict(trace.proc)
        assert loaded.completed == trace.completed
        assert loaded.informed_round == trace.informed_round
        assert len(loaded.rounds) == len(trace.rounds)
        for a, b in zip(loaded.rounds, trace.rounds):
            assert a.senders == dict(b.senders)
            assert a.unreliable_deliveries == dict(b.unreliable_deliveries)
            assert a.newly_informed == b.newly_informed
            assert a.receptions == dict(b.receptions)

    def test_roundtrip_without_receptions(self):
        g = line(5)
        trace = run_broadcast(
            g,
            [ScriptedProcess(i, range(1, 40)) for i in range(5)],
            max_rounds=10,
        )
        loaded = trace_from_json(trace_to_json(trace))
        assert loaded.rounds[0].receptions is None
        assert loaded.completion_round == trace.completion_round

    def test_version_check(self):
        import json

        g = line(3)
        trace = run_broadcast(
            g,
            [ScriptedProcess(i, range(1, 40)) for i in range(3)],
            max_rounds=5,
        )
        doc = json.loads(trace_to_json(trace))
        doc["format_version"] = 999
        with pytest.raises(ValueError, match="format version"):
            trace_from_json(json.dumps(doc))


class TestReplayAdversary:
    @pytest.mark.parametrize(
        "factory,adversary_factory",
        [
            (make_round_robin_processes,
             lambda: RandomDeliveryAdversary(0.5, seed=4, cr4_mode="first")),
            (make_harmonic_processes, GreedyInterferer),
        ],
        ids=["round_robin+random", "harmonic+greedy"],
    )
    def test_replay_reproduces_execution(self, factory, adversary_factory):
        g = gnp_dual(12, seed=6)
        n = 12
        original = recorded_run(g, factory(n), adversary_factory(), seed=9)
        replayed = recorded_run(
            g, factory(n), ReplayAdversary(original), seed=9
        )
        assert replayed.completion_round == original.completion_round
        for a, b in zip(original.rounds, replayed.rounds):
            assert sorted(a.senders) == sorted(b.senders)
            assert a.unreliable_deliveries == b.unreliable_deliveries
            assert a.receptions == b.receptions

    def test_replay_after_serialization(self):
        g = gnp_dual(10, seed=2)
        original = recorded_run(
            g,
            make_round_robin_processes(10),
            RandomDeliveryAdversary(0.4, seed=1),
            seed=3,
        )
        revived = trace_from_json(trace_to_json(original))
        replayed = recorded_run(
            g,
            make_round_robin_processes(10),
            ReplayAdversary(revived),
            seed=3,
        )
        assert replayed.completion_round == original.completion_round

    def test_replay_rejects_bad_proc(self):
        g = gnp_dual(8, seed=0)
        original = recorded_run(
            g, make_round_robin_processes(8),
            RandomDeliveryAdversary(0.3, seed=1),
        )
        adversary = ReplayAdversary(original)
        with pytest.raises(ValueError):
            adversary.assign_processes(g, list(range(9)))


class TestScriptedDeliveries:
    def test_exact_round_table(self):
        g = with_complete_unreliable(line(4))
        # Round 1: deliver the source's unreliable edge to node 3.
        script = {1: {0: [2, 3]}}
        procs = [ScriptedProcess(i, range(1, 40)) for i in range(4)]
        trace = run_broadcast(
            g, procs, adversary=ScriptedDeliveries(script), max_rounds=10,
        )
        # Node 3 informed immediately through the scripted delivery.
        assert trace.informed_round[3] == 1

    def test_missing_rounds_deliver_nothing(self):
        g = with_complete_unreliable(line(4))
        procs = [ScriptedProcess(i, range(1, 40)) for i in range(4)]
        trace = run_broadcast(
            g, procs, adversary=ScriptedDeliveries({}), max_rounds=10,
        )
        assert trace.informed_round[3] == 3  # pure reliable hops

    def test_fixed_proc_mapping(self):
        g = line(3)
        script = {}
        mapping = {0: 2, 1: 1, 2: 0}
        procs = [ScriptedProcess(i, range(1, 40)) for i in range(3)]
        config = EngineConfig(max_rounds=8)
        engine = BroadcastEngine(
            g, procs, ScriptedDeliveries(script, proc_mapping=mapping),
            config,
        )
        trace = engine.run()
        assert trace.proc[0] == 2


class TestScriptedReplayEdgeCases:
    """The edge cases genome replay (repro.search) leans on."""

    def _procs(self, n):
        return [ScriptedProcess(i, range(1, 40)) for i in range(n)]

    def test_deliveries_past_final_round_are_unused(self):
        g = with_complete_unreliable(line(4))
        # Round 50 is far past completion; the entry must be inert.
        script = {50: {0: [3]}}
        trace = run_broadcast(
            g, self._procs(4),
            adversary=ScriptedDeliveries(script), max_rounds=10,
        )
        assert trace.completed
        assert trace.informed_round[3] == 3  # pure reliable hops
        assert all(
            not rec.unreliable_deliveries for rec in trace.rounds
        )

    def test_empty_round_rows_deliver_nothing(self):
        g = with_complete_unreliable(line(4))
        script = {1: {}, 2: {}}
        trace = run_broadcast(
            g, self._procs(4),
            adversary=ScriptedDeliveries(script), max_rounds=10,
        )
        assert trace.informed_round[3] == 3

    def test_script_for_non_sender_is_dropped(self):
        g = with_complete_unreliable(line(4))
        # Node 3 does not transmit in round 1 (it is not even awake in
        # the scripted sense — it never held the message yet), so its
        # scripted row is filtered out rather than crashing the engine.
        script = {1: {3: [0]}}
        trace = run_broadcast(
            g, self._procs(4),
            adversary=ScriptedDeliveries(script), max_rounds=10,
        )
        assert trace.completed

    def _tampered_cr4_trace(self):
        """A recorded CR4 execution whose round-1 reception at node 2
        is rewritten to come from a sender that never transmitted."""
        import dataclasses

        from repro.adversaries import FullDeliveryAdversary
        from repro.sim.messages import Message, received

        g = with_complete_unreliable(line(3))
        procs = [
            ScriptedProcess(0, range(1, 40)),
            ScriptedProcess(1, range(1, 40), send_without_message=True),
            ScriptedProcess(2, range(30, 40)),
        ]
        from repro.sim.engine import StartMode

        config = EngineConfig(
            max_rounds=20,
            record_receptions=True,
            start_mode=StartMode.SYNCHRONOUS,
        )  # CR4 is the config default
        trace = BroadcastEngine(
            g, procs, FullDeliveryAdversary(), config
        ).run()
        # Round 1 has two senders (0 and 1) and full deliveries, so
        # node 2 sees a genuine CR4 collision — the resolver runs.
        assert len(trace.rounds[0].senders) == 2
        forged = received(
            Message(payload="broadcast-message", sender=5, round_sent=1)
        )
        trace.rounds[0] = dataclasses.replace(
            trace.rounds[0],
            receptions={**trace.rounds[0].receptions, 2: forged},
        )
        return g, trace

    def _replay(self, g, trace, strict):
        procs = [
            ScriptedProcess(0, range(1, 40)),
            ScriptedProcess(1, range(1, 40), send_without_message=True),
            ScriptedProcess(2, range(30, 40)),
        ]
        from repro.sim.engine import StartMode

        config = EngineConfig(
            max_rounds=20, start_mode=StartMode.SYNCHRONOUS
        )
        return BroadcastEngine(
            g, procs, ReplayAdversary(trace, strict=strict), config
        ).run()

    def test_strict_replay_raises_on_non_arriving_cr4_sender(self):
        g, trace = self._tampered_cr4_trace()
        with pytest.raises(ValueError, match="replay diverged"):
            self._replay(g, trace, strict=True)

    def test_lenient_replay_silently_resolves_to_silence(self):
        g, trace = self._tampered_cr4_trace()
        # No exception: the non-arriving sender degrades to silence, so
        # node 2 never hears the forged message (and stays uninformed,
        # as in the original execution where the collision was silent).
        replayed = self._replay(g, trace, strict=False)
        assert replayed.informed_round[2] is None
