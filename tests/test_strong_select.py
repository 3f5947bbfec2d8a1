"""Unit tests for the Strong Select algorithm (Section 5)."""

import pytest

from repro.adversaries import FullDeliveryAdversary, GreedyInterferer
from repro.core.ssf import kautz_singleton_ssf
from repro.core.strong_select import (
    StrongSelectProcess,
    build_schedule,
    default_s_max,
    make_strong_select_processes,
)
from repro.graphs import gnp_dual, line, with_complete_unreliable
from repro.sim import CollisionRule, StartMode, run_broadcast


class TestDefaultSMax:
    def test_small_n(self):
        assert default_s_max(2) == 1
        assert default_s_max(16) == 1

    def test_growth(self):
        assert default_s_max(1 << 10) >= 3
        assert default_s_max(1 << 14) > default_s_max(1 << 10)


class TestSchedule:
    def test_epoch_structure(self):
        sched = build_schedule(64, s_max=3)
        assert sched.epoch_length == 7
        # Round 1 belongs to F_1, rounds 2-3 to F_2, rounds 4-7 to F_3.
        assert sched.level_of_round(1)[0] == 1
        assert sched.level_of_round(2)[0] == 2
        assert sched.level_of_round(3)[0] == 2
        assert sched.level_of_round(4)[0] == 3
        assert sched.level_of_round(7)[0] == 3
        # Next epoch repeats the pattern.
        assert sched.level_of_round(8)[0] == 1

    def test_positions_advance_per_epoch(self):
        sched = build_schedule(64, s_max=3)
        # F_2 gets two rounds per epoch: positions 0,1 in epoch 1 and
        # 2,3 in epoch 2.
        assert sched.level_of_round(2) == (2, 0)
        assert sched.level_of_round(3) == (2, 1)
        assert sched.level_of_round(9) == (2, 2)
        assert sched.level_of_round(10) == (2, 3)

    def test_positions_before_consistency(self):
        sched = build_schedule(64, s_max=3)
        for s in range(1, 4):
            count = 0
            for r in range(1, 200):
                assert sched.positions_before(s, r - 1) == count
                lvl, pos = sched.level_of_round(r)
                if lvl == s:
                    assert pos == count
                    count += 1

    def test_top_family_is_round_robin(self):
        sched = build_schedule(64, s_max=3)
        fam = sched.family(3)
        assert fam.construction == "round-robin"
        assert len(fam) == 64

    def test_participation_window_waits_for_cycle_start(self):
        sched = build_schedule(64, s_max=3)
        size = sched.family_size(2)
        # A node informed at round 0 starts immediately.
        assert sched.participation_window(2, 0) == (0, size)
        # A node informed later must wait for position size (next cycle).
        mid_round = 20
        elapsed = sched.positions_before(2, mid_round)
        start, end = sched.participation_window(2, mid_round)
        assert start % size == 0
        assert start >= elapsed
        assert end - start == size

    def test_round_bound_is_theorem10_shape(self):
        sched = build_schedule(256)
        bound = sched.round_bound()
        assert bound == pytest.approx(
            12 * sched.f_n() * (1 << sched.s_max) * 256, rel=0.01
        )


class TestProcessBehaviour:
    def test_uninformed_process_is_silent(self):
        sched = build_schedule(16)
        p = StrongSelectProcess(3, sched)
        from repro.sim.process import ProcessContext
        import random as _r

        ctx = ProcessContext(1, _r.Random(0), 16)
        assert p.decide_send(ctx) is None

    def test_uid_range_validated(self):
        sched = build_schedule(8)
        with pytest.raises(ValueError):
            StrongSelectProcess(9, sched)

    def test_participate_once_stops_transmitting(self):
        # On a single-node-wide line the source participates once in each
        # family and then falls silent forever.
        n = 8
        procs = make_strong_select_processes(n)
        trace = run_broadcast(line(n), procs, max_rounds=2000)
        assert trace.completed
        # After completion plus a full schedule cycle, confirm the traces
        # show no sender beyond some round (nodes stop).
        last_send = max(
            (rec.round_number for rec in trace.rounds if rec.senders),
            default=0,
        )
        assert last_send <= trace.num_rounds


class TestBroadcastCorrectness:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_completes_on_random_duals_with_greedy_interferer(self, seed):
        g = gnp_dual(24, seed=seed)
        procs = make_strong_select_processes(24)
        trace = run_broadcast(
            g,
            procs,
            adversary=GreedyInterferer(),
            max_rounds=build_schedule(24).round_bound(),
            collision_rule=CollisionRule.CR4,
            start_mode=StartMode.ASYNCHRONOUS,
        )
        assert trace.completed

    def test_completes_within_theorem10_bound_on_hard_line(self):
        g = with_complete_unreliable(line(16))
        sched = build_schedule(16)
        procs = [StrongSelectProcess(i, sched) for i in range(16)]
        trace = run_broadcast(
            g, procs, adversary=GreedyInterferer(),
            max_rounds=sched.round_bound(),
        )
        assert trace.completed
        assert trace.completion_round <= sched.round_bound()

    def test_completes_under_full_delivery(self):
        g = with_complete_unreliable(line(12))
        procs = make_strong_select_processes(12)
        trace = run_broadcast(
            g, procs, adversary=FullDeliveryAdversary(),
            max_rounds=build_schedule(12).round_bound(),
        )
        assert trace.completed

    def test_kautz_singleton_variant_completes(self):
        g = gnp_dual(20, seed=9)
        procs = make_strong_select_processes(
            20, ssf_builder=kautz_singleton_ssf
        )
        trace = run_broadcast(
            g, procs, adversary=GreedyInterferer(), max_rounds=50_000
        )
        assert trace.completed

    def test_cycle_forever_ablation_completes(self):
        g = gnp_dual(20, seed=10)
        procs = make_strong_select_processes(20, participate_once=False)
        trace = run_broadcast(
            g, procs, adversary=GreedyInterferer(), max_rounds=50_000
        )
        assert trace.completed

    def test_isolation_guarantee_on_clique_like_duals(self):
        # Every informed node is eventually isolated (sends alone) before
        # the algorithm finishes — the crux of Lemma 8/Theorem 10.
        g = with_complete_unreliable(line(10))
        procs = make_strong_select_processes(10)
        trace = run_broadcast(
            g, procs, adversary=GreedyInterferer(),
            max_rounds=build_schedule(10).round_bound(),
        )
        assert trace.completed
        assert len(trace.isolation_rounds()) >= 1
