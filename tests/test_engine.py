"""Unit tests for the BroadcastEngine round semantics."""

import pytest

from conftest import scripted_processes as scripted
from repro.adversaries import (
    Adversary,
    FullDeliveryAdversary,
    NoDeliveryAdversary,
)
from repro.graphs import line, star, with_complete_unreliable
from repro.graphs.dualgraph import DualGraph
from repro.sim import (
    BroadcastEngine,
    CollisionRule,
    EngineConfig,
    ScriptedProcess,
    SilentProcess,
    StartMode,
    run_broadcast,
)


class TestBasicExecution:
    def test_source_informs_neighbour_on_line(self):
        trace = run_broadcast(line(3), scripted(3), max_rounds=10)
        assert trace.completed
        assert trace.informed_round[0] == 0
        assert trace.informed_round[1] == 1
        assert trace.informed_round[2] == 2

    def test_max_rounds_cap(self):
        procs = [SilentProcess(uid=i) for i in range(3)]
        trace = run_broadcast(line(3), procs, max_rounds=5)
        assert not trace.completed
        assert trace.num_rounds == 5

    def test_silent_network_nobody_informed(self):
        procs = [SilentProcess(uid=i) for i in range(4)]
        trace = run_broadcast(line(4), procs, max_rounds=4)
        assert trace.informed_round[0] == 0
        assert all(trace.informed_round[v] is None for v in (1, 2, 3))

    def test_process_count_validated(self):
        with pytest.raises(ValueError):
            run_broadcast(line(3), scripted(2), max_rounds=5)

    def test_duplicate_uids_rejected(self):
        procs = [ScriptedProcess(0, [1]), ScriptedProcess(0, [1]),
                 ScriptedProcess(2, [1])]
        with pytest.raises(ValueError):
            run_broadcast(line(3), procs, max_rounds=5)

    def test_none_payload_rejected(self):
        with pytest.raises(ValueError):
            BroadcastEngine(line(3), scripted(3), payload=None)


class TestStartModes:
    def test_async_only_source_starts(self):
        # Node 2's process would send in round 1 if awake; asynchronously
        # it is asleep, so only the source transmits.
        trace = run_broadcast(
            line(3),
            scripted(3),
            max_rounds=5,
            start_mode=StartMode.ASYNCHRONOUS,
            record_receptions=True,
        )
        assert set(trace.rounds[0].senders) == {0}

    def test_sync_everyone_starts(self):
        # Under synchronous start nodes 0..2 all send in round 1; nobody
        # holds the message except the source, but ScriptedProcess with
        # send_without_message=True transmits regardless.
        procs = scripted(3, send_without_message=True)
        trace = run_broadcast(
            line(3),
            procs,
            max_rounds=5,
            start_mode=StartMode.SYNCHRONOUS,
        )
        assert set(trace.rounds[0].senders) == {0, 1, 2}

    def test_async_wakeup_recorded(self):
        trace = run_broadcast(
            line(4), scripted(4), max_rounds=10,
            start_mode=StartMode.ASYNCHRONOUS,
        )
        activations = [rec.newly_active for rec in trace.rounds]
        assert activations[0] == (1,)

    def test_sleeping_node_not_woken_by_collision(self):
        # Star with two informed leaves colliding at the center... build a
        # custom graph: two senders both reliable-adjacent to node 2.
        g = DualGraph(4, [(0, 1), (0, 2), (1, 2), (2, 3)], undirected=True)
        # Processes 0 and 1 send every round; under CR1 node 2 hears ⊤
        # in round 2 (after node 1 is informed) and stays uninformed.
        procs = scripted(4)
        trace = run_broadcast(
            g,
            procs,
            max_rounds=2,
            collision_rule=CollisionRule.CR1,
            start_mode=StartMode.ASYNCHRONOUS,
        )
        # Round 1: only source sends; nodes 1 and 2 informed.
        assert set(trace.rounds[0].newly_informed) == {1, 2}
        # Round 2: 0, 1, 2 all send; node 3 gets a lone message from 2.
        assert trace.informed_round[3] == 2


class TestCollisionSemantics:
    def test_two_senders_collide_at_common_neighbour_cr3(self):
        # Path 0-1-2-3; after round 2, nodes 0..2 are informed.  In round
        # 3, nodes 0,1,2 send; node 3 hears only node 2 (one arrival) so
        # receives.  Create a real collision with a 4-cycle instead.
        g = DualGraph(
            4, [(0, 1), (0, 2), (1, 3), (2, 3)], undirected=True
        )
        procs = scripted(4)
        trace = run_broadcast(
            g, procs, max_rounds=6, collision_rule=CollisionRule.CR3,
        )
        # Round 1: source alone; informs 1 and 2.
        assert trace.informed_round[1] == 1
        assert trace.informed_round[2] == 1
        # Round 2: 0, 1, 2 send; 1's and 2's messages collide at 3 → ⊥
        # under CR3; node 3 stays uninformed forever (always collides).
        assert not trace.completed
        assert trace.informed_round[3] is None

    def test_cr4_adversary_can_deliver_through_collision(self):
        g = DualGraph(
            4, [(0, 1), (0, 2), (1, 3), (2, 3)], undirected=True
        )

        class DeliverFirst(NoDeliveryAdversary):
            def resolve_cr4(self, view, node, arrivals):
                return min(arrivals, key=lambda m: m.sender)

        # Defining a resolver withdraws the inherited silence declaration.
        assert DeliverFirst.cr4_always_silent is False

        trace = run_broadcast(
            g, scripted(4), adversary=DeliverFirst(), max_rounds=6,
            collision_rule=CollisionRule.CR4,
        )
        assert trace.completed
        assert trace.informed_round[3] == 2


class TestAdversaryInterface:
    def test_full_delivery_uses_unreliable_links(self):
        g = with_complete_unreliable(line(4))
        trace = run_broadcast(
            g, scripted(4), adversary=FullDeliveryAdversary(), max_rounds=5,
        )
        # Round 1: source alone reaches everyone through G'.
        assert trace.completion_round == 1

    def test_no_delivery_restricts_to_reliable(self):
        g = with_complete_unreliable(line(4))
        trace = run_broadcast(
            g, scripted(4), adversary=NoDeliveryAdversary(), max_rounds=10,
        )
        assert trace.completion_round == 3  # hop by hop along the line

    def test_illegal_delivery_target_rejected(self):
        class Cheater(Adversary):
            def choose_deliveries(self, view):
                # Try to deliver on a reliable edge (illegal: those are
                # not adversary-controlled).
                return {v: frozenset([v + 1]) for v in view.senders if v == 0}

        g = line(3)  # (0,1) is reliable, so targeting 1 is illegal
        with pytest.raises(ValueError, match="illegal"):
            run_broadcast(g, scripted(3), adversary=Cheater(), max_rounds=3)

    def test_delivery_for_nonsender_rejected(self):
        class Cheater(Adversary):
            def choose_deliveries(self, view):
                return {99: frozenset()}

        with pytest.raises(ValueError, match="non-sender"):
            run_broadcast(line(3), scripted(3), adversary=Cheater(),
                          max_rounds=3)

    def test_invalid_proc_mapping_rejected(self):
        class BadMapper(NoDeliveryAdversary):
            def assign_processes(self, network, uids):
                return {v: 0 for v in network.nodes}

        with pytest.raises(ValueError, match="proc mapping"):
            BroadcastEngine(line(3), scripted(3), BadMapper())

    def test_proc_mapping_repositions_processes(self):
        class Swap(NoDeliveryAdversary):
            def assign_processes(self, network, uids):
                m = {v: uids[v] for v in network.nodes}
                m[0], m[1] = m[1], m[0]
                return m

        # Process 1 now sits at the source; it is informed at round 0.
        engine = BroadcastEngine(
            line(3), scripted(3), Swap(), EngineConfig(max_rounds=5)
        )
        trace = engine.run()
        assert engine.process_at[0].uid == 1
        assert trace.proc[0] == 1


class TestDeterminism:
    def test_same_seed_same_trace(self, tiny_line):
        from repro.core import make_harmonic_processes

        g = tiny_line
        n = g.n
        t1 = run_broadcast(g, make_harmonic_processes(n), seed=3,
                           max_rounds=5000)
        t2 = run_broadcast(g, make_harmonic_processes(n), seed=3,
                           max_rounds=5000)
        assert t1.completion_round == t2.completion_round
        assert [r.senders.keys() for r in t1.rounds] == [
            r.senders.keys() for r in t2.rounds
        ]

    def test_different_seed_differs(self):
        from repro.core import make_harmonic_processes

        # T=1 drops the sending probabilities quickly, so the executions
        # consume real randomness and diverge across seeds.
        g = line(12)
        t1 = run_broadcast(g, make_harmonic_processes(12, T=1), seed=3,
                           max_rounds=9000)
        t2 = run_broadcast(g, make_harmonic_processes(12, T=1), seed=4,
                           max_rounds=9000)
        # Identical executions under different seeds are vanishingly
        # unlikely on a 12-node line.
        sends1 = [sorted(r.senders) for r in t1.rounds]
        sends2 = [sorted(r.senders) for r in t2.rounds]
        assert sends1 != sends2


class TestPayloadCustody:
    def test_payload_free_messages_do_not_inform(self):
        # Node 1 sends without holding the message; node 2 receives its
        # payload-free transmission but must not count as informed.
        g = line(3)
        procs = [
            ScriptedProcess(0, []),  # source stays silent
            ScriptedProcess(1, [1], send_without_message=True),
            ScriptedProcess(2, []),
        ]
        trace = run_broadcast(
            g, procs, max_rounds=3, start_mode=StartMode.SYNCHRONOUS,
            record_receptions=True,
        )
        assert trace.rounds[0].receptions[2].is_message
        assert trace.informed_round[2] is None
        assert not trace.completed

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_payload_free_message_transfers_no_custody(self, engine):
        """A payload-free message is inert: it never reaches
        Process.deliver, so the receiver does not take custody of it."""
        procs = [
            ScriptedProcess(0, []),
            ScriptedProcess(1, [1], send_without_message=True),
            ScriptedProcess(2, []),
        ]
        run_broadcast(
            line(3), procs, max_rounds=3,
            start_mode=StartMode.SYNCHRONOUS, engine=engine,
        )
        assert not procs[2].has_message
        assert procs[2].message is None

    @pytest.mark.parametrize("rule", list(CollisionRule))
    def test_payload_free_message_is_inert_under_every_rule(self, rule):
        """Under every collision rule both engines hear the payload-free
        message at node 2, leave node 2 without custody and agree on
        every round record."""
        traces = {}
        for engine in ("reference", "fast"):
            procs = [
                ScriptedProcess(0, []),
                ScriptedProcess(1, [1, 2], send_without_message=True),
                ScriptedProcess(2, []),
            ]
            traces[engine] = run_broadcast(
                line(3), procs, FullDeliveryAdversary(), max_rounds=3,
                start_mode=StartMode.SYNCHRONOUS, collision_rule=rule,
                record_receptions=True, engine=engine,
            )
            assert traces[engine].rounds[0].receptions[2].is_message
            assert traces[engine].informed_round[2] is None
            assert not procs[2].has_message
        assert traces["fast"].rounds == traces["reference"].rounds
