"""Edge-case tests for the explicit-interference engine semantics."""

import pytest

from repro.graphs.dualgraph import DualGraph
from repro.interference import InterferenceEngine, InterferenceNetwork
from repro.interference.model import interference_outcomes
from repro.sim import CollisionRule
from repro.sim.messages import Message
from repro.sim.process import ScriptedProcess


def net_line_with_interference():
    # G_T: 0-1-2-3; G_I additionally: 0-2, 0-3.
    g = DualGraph(
        4,
        [(0, 1), (1, 2), (2, 3)],
        [(0, 1), (1, 2), (2, 3), (0, 2), (0, 3)],
        undirected=True,
    )
    return InterferenceNetwork(g)


def scripted(rounds_by_uid, n=4, without=False):
    return [
        ScriptedProcess(i, rounds_by_uid.get(i, []),
                        send_without_message=without)
        for i in range(n)
    ]


class TestArrivalAccounting:
    def test_transmission_arrival_plus_interference_is_collision_cr1(self):
        # Round 1: 0 and 1 send (sync start, send_without_message).
        # Node 2: G_T arrival from 1, G_I-only arrival from 0 → ⊤.
        net = net_line_with_interference()
        procs = scripted({0: [1], 1: [1]}, without=True)
        eng = InterferenceEngine(
            net, procs, collision_rule=CollisionRule.CR1,
            synchronous_start=True, max_rounds=1,
        )
        trace = eng.run()
        assert trace.rounds[0].receptions[2].is_collision

    def test_interference_only_arrivals_are_silence_even_many(self):
        # Nodes 0 and 1... make 3's only arrivals interference-only:
        # only node 0 sends; node 3 hears ⊥ (G_I edge 0-3).
        net = net_line_with_interference()
        procs = scripted({0: [1]}, without=True)
        eng = InterferenceEngine(
            net, procs, collision_rule=CollisionRule.CR1,
            synchronous_start=True, max_rounds=1,
        )
        trace = eng.run()
        assert trace.rounds[0].receptions[3].is_silence

    def test_cr3_collision_is_silence(self):
        net = net_line_with_interference()
        procs = scripted({0: [1], 1: [1]}, without=True)
        eng = InterferenceEngine(
            net, procs, collision_rule=CollisionRule.CR3,
            synchronous_start=True, max_rounds=1,
        )
        trace = eng.run()
        assert trace.rounds[0].receptions[2].is_silence

    def test_cr4_choose_first_delivers_receivable_only(self):
        net = net_line_with_interference()
        procs = scripted({0: [1], 1: [1]}, without=True)
        eng = InterferenceEngine(
            net, procs, collision_rule=CollisionRule.CR4,
            synchronous_start=True, max_rounds=1, cr4_choose_first=True,
        )
        trace = eng.run()
        rec = trace.rounds[0].receptions[2]
        # The only receivable arrival at node 2 came from node 1.
        assert rec.is_message
        assert rec.message.sender == 1

    def test_cr1_sender_collision_includes_interference(self):
        # Sender 0 + sender 2: node 0 hears its own message plus 2's
        # interference (G_I edge 0-2) → ⊤ under CR1.
        net = net_line_with_interference()
        procs = scripted({0: [1], 2: [1]}, without=True)
        eng = InterferenceEngine(
            net, procs, collision_rule=CollisionRule.CR1,
            synchronous_start=True, max_rounds=1,
        )
        trace = eng.run()
        assert trace.rounds[0].receptions[0].is_collision

    def test_cr2_sender_hears_own_despite_interference(self):
        net = net_line_with_interference()
        procs = scripted({0: [1], 2: [1]}, without=True)
        eng = InterferenceEngine(
            net, procs, collision_rule=CollisionRule.CR2,
            synchronous_start=True, max_rounds=1,
        )
        trace = eng.run()
        rec = trace.rounds[0].receptions[0]
        assert rec.is_message and rec.message.sender == 0


class TestAsyncStartInInterferenceModel:
    def test_sleepers_wake_only_on_receivable_messages(self):
        # One sender per round, so nothing collides: the message must
        # travel over G_T only (0→1→2→3), one hop per round — never over
        # the interference shortcuts 0-2 / 0-3.
        net = net_line_with_interference()
        procs = scripted({0: [1], 1: [2], 2: [3]})
        eng = InterferenceEngine(
            net, procs, collision_rule=CollisionRule.CR4,
            synchronous_start=False, max_rounds=10,
        )
        trace = eng.run()
        assert trace.informed_round[1] == 1
        assert trace.informed_round[2] == 2
        assert trace.informed_round[3] == 3

    def test_persistent_senders_starve_interfered_node(self):
        # With 0 and 1 both transmitting every round, node 2 collides
        # forever (G_T arrival from 1 + interference from 0): broadcast
        # genuinely cannot complete — interference edges matter.
        net = net_line_with_interference()
        procs = scripted({0: range(1, 30), 1: range(1, 30),
                          2: range(1, 30)})
        eng = InterferenceEngine(
            net, procs, collision_rule=CollisionRule.CR4,
            synchronous_start=False, max_rounds=30,
        )
        trace = eng.run()
        assert trace.informed_round[1] == 1
        assert trace.informed_round[2] is None

    def test_process_count_validated(self):
        net = net_line_with_interference()
        with pytest.raises(ValueError):
            InterferenceEngine(net, scripted({}, n=3))


def one_round(rule, senders, choose_first=False):
    """``interference_outcomes`` on the line network for one round."""
    messages = {s: Message("m", sender=s, round_sent=1) for s in senders}
    return interference_outcomes(
        net_line_with_interference(), messages, rule, choose_first
    )


class TestOutcomeFunction:
    """``interference_outcomes`` alone, under every collision rule.

    The reference engine and the Lemma 1 simulation adversary both take
    their per-round observations from it.
    """

    @pytest.mark.parametrize("rule", list(CollisionRule))
    def test_every_node_gets_an_outcome(self, rule):
        assert sorted(one_round(rule, [1])) == [0, 1, 2, 3]

    @pytest.mark.parametrize("rule", list(CollisionRule))
    def test_lone_sender_reaches_transmission_neighbours(self, rule):
        out = one_round(rule, [1])
        for v in (0, 1, 2):
            assert out[v].is_message and out[v].message.sender == 1
        assert out[3].is_silence  # no edge 1-3 in either graph

    @pytest.mark.parametrize("rule", list(CollisionRule))
    def test_interference_only_arrival_is_silence(self, rule):
        out = one_round(rule, [0], choose_first=True)
        assert out[1].is_message and out[1].message.sender == 0
        assert out[2].is_silence
        assert out[3].is_silence

    @pytest.mark.parametrize(
        "rule,choose_first,expected",
        [
            (CollisionRule.CR1, False, "collision"),
            (CollisionRule.CR2, False, "collision"),
            (CollisionRule.CR3, False, "silence"),
            (CollisionRule.CR4, False, "silence"),
            (CollisionRule.CR4, True, 1),
        ],
    )
    def test_interference_counts_toward_collision_but_is_never_received(
        self, rule, choose_first, expected
    ):
        # Node 2: G_T arrival from 1, G_I-only arrival from 0.  Under CR4
        # the lowest-uid pick is 1, never the lower but unreceivable 0.
        out = one_round(rule, [0, 1], choose_first)[2]
        if expected == "collision":
            assert out.is_collision
        elif expected == "silence":
            assert out.is_silence
        else:
            assert out.is_message and out.message.sender == expected

    @pytest.mark.parametrize(
        "rule,choose_first,expected",
        [
            (CollisionRule.CR1, False, "collision"),
            (CollisionRule.CR2, False, "collision"),
            (CollisionRule.CR3, False, "silence"),
            (CollisionRule.CR4, False, "silence"),
            (CollisionRule.CR4, True, 1),
        ],
    )
    def test_two_receivable_arrivals(self, rule, choose_first, expected):
        # Node 2 has G_T arrivals from both 1 and 3.
        out = one_round(rule, [1, 3], choose_first)[2]
        if expected == "collision":
            assert out.is_collision
        elif expected == "silence":
            assert out.is_silence
        else:
            assert out.is_message and out.message.sender == expected

    @pytest.mark.parametrize("rule", list(CollisionRule))
    def test_sender_observation(self, rule):
        # Sender 0 also gets 2's interference over the G_I edge 0-2.
        out = one_round(rule, [0, 2])[0]
        if rule is CollisionRule.CR1:
            assert out.is_collision
        else:
            assert out.is_message and out.message.sender == 0
