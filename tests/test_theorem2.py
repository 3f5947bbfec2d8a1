"""Tests for the executable Theorem 2 lower bound."""

import pytest

from repro.core import (
    make_round_robin_processes,
    make_strong_select_processes,
)
from repro.graphs import clique_bridge
from repro.lowerbounds import (
    Theorem2Adversary,
    run_alpha_i,
    theorem2_lower_bound,
)


class TestAdversaryRules:
    def test_assignment_places_identities(self):
        layout = clique_bridge(8)
        adv = Theorem2Adversary(layout, bridge_uid=3)
        mapping = adv.assign_processes(layout.graph, list(range(8)))
        assert mapping[layout.source] == 0
        assert mapping[layout.receiver] == 7
        assert mapping[layout.bridge] == 3
        assert sorted(mapping.values()) == list(range(8))

    def test_bridge_uid_range(self):
        layout = clique_bridge(8)
        with pytest.raises(ValueError):
            Theorem2Adversary(layout, bridge_uid=0)
        with pytest.raises(ValueError):
            Theorem2Adversary(layout, bridge_uid=7)

    def test_receiver_only_informed_by_lone_bridge_send(self):
        # In every α_i, the receiver's informing round must coincide with
        # the bridge's first isolated transmission.
        layout = clique_bridge(8)
        trace = run_alpha_i(
            make_round_robin_processes, layout, bridge_uid=3, max_rounds=100
        )
        receiver_round = trace.informed_round[layout.receiver]
        bridge_isolation = next(
            rec.round_number
            for rec in trace.rounds
            if rec.is_isolation and layout.bridge in rec.senders
        )
        assert receiver_round == bridge_isolation


class TestLowerBound:
    def test_round_robin_exceeds_n_minus_3(self):
        res = theorem2_lower_bound(make_round_robin_processes, 12)
        assert res.bound_holds
        assert res.worst_rounds > 12 - 3

    def test_strong_select_exceeds_n_minus_3(self):
        res = theorem2_lower_bound(
            lambda n: make_strong_select_processes(n), 12
        )
        assert res.bound_holds

    def test_round_robin_matches_linear_upper_bound(self):
        # The paper notes round robin completes in O(n) on constant-
        # diameter networks: the worst case stays within ~2n.
        n = 16
        res = theorem2_lower_bound(make_round_robin_processes, n)
        assert res.worst_rounds <= 2 * n

    def test_worst_bridge_is_latest_isolated_uid(self):
        # For round robin the receiver is informed when the bridge's slot
        # arrives; the adversary picks the largest candidate uid.
        n = 10
        res = theorem2_lower_bound(make_round_robin_processes, n)
        assert res.worst_bridge_uid == n - 2

    def test_rounds_vary_by_bridge_identity(self):
        res = theorem2_lower_bound(make_round_robin_processes, 10)
        rounds = set(res.rounds_by_bridge_uid.values())
        assert len(rounds) > 1

    @pytest.mark.parametrize("n", [6, 9, 13])
    def test_scaling_with_n(self, n):
        res = theorem2_lower_bound(make_round_robin_processes, n)
        assert res.bound_holds
