"""Unit tests for the manually driven sandbox processes."""

import random

from repro.core import make_round_robin_processes, make_strong_select_processes
from repro.lowerbounds.sandbox import SandboxProcess
from repro.sim.messages import PAYLOAD, Message, received
from repro.sim.process import ProcessContext


class TestSandboxDriving:
    def test_custody_on_payload_message(self):
        p = make_round_robin_processes(4)[1]
        sb = SandboxProcess(p, 4)
        sb.activate(0)
        assert not sb.informed
        sb.feed(3, received(Message(PAYLOAD, sender=0, round_sent=3)))
        assert sb.informed
        assert sb.process.first_message_round == 3

    def test_no_custody_on_payload_free_message(self):
        p = make_round_robin_processes(4)[1]
        sb = SandboxProcess(p, 4)
        sb.activate(0)
        sb.feed(3, received(Message(None, sender=0, round_sent=3)))
        assert not sb.informed

    def test_round_robin_schedule_through_sandbox(self):
        n = 4
        p = make_round_robin_processes(n)[2]
        sb = SandboxProcess(p, n)
        sb.activate(0)
        sb.feed(1, received(Message(PAYLOAD, 0, 1)))
        # uid 2 sends when (r-1) % 4 == 2, i.e. rounds 3, 7, ...
        assert sb.would_send(2) is None
        assert sb.would_send(3) is not None
        assert sb.would_send(4) is None
        assert sb.would_send(7) is not None

    def test_draws_the_engine_stream_at_the_default_seed(self):
        """A sandbox draws what the engine's context for the same
        process draws at the default engine seed."""
        p = make_round_robin_processes(4)[1]
        sb = SandboxProcess(p, 4)
        engine_rng = ProcessContext.seeded(0, p.uid, 4).rng
        assert [sb.ctx.rng.random() for _ in range(3)] == [
            engine_rng.random() for _ in range(3)
        ]

    def test_would_send_is_repeatable_for_deterministic_processes(self):
        p = make_strong_select_processes(8)[0]
        sb = SandboxProcess(p, 8)
        sb.activate(0)
        sb.give_broadcast_input()
        for r in range(1, 30):
            first = sb.would_send(r) is not None
            second = sb.would_send(r) is not None
            assert first == second


class TestCloning:
    def test_clone_is_independent(self):
        p = make_round_robin_processes(4)[1]
        sb = SandboxProcess(p, 4)
        sb.activate(0)
        clone = sb.clone()
        clone.feed(2, received(Message(PAYLOAD, 0, 2)))
        assert clone.informed
        assert not sb.informed

    def test_strong_select_clone_shares_schedule(self):
        procs = make_strong_select_processes(8)
        sb = SandboxProcess(procs[3], 8)
        clone = sb.clone()
        assert clone.process.schedule is sb.process.schedule

    def test_clone_copies_the_rng_stream(self):
        """A clone draws what its original would draw next, and drawing
        on the clone leaves the original's stream in place."""
        p = make_round_robin_processes(4)[1]
        sb = SandboxProcess(p, 4)
        sb.ctx.rng.random()
        clone = sb.clone()
        assert clone.ctx.rng is not sb.ctx.rng
        clone_draws = [clone.ctx.rng.random() for _ in range(5)]
        assert clone_draws == [sb.ctx.rng.random() for _ in range(5)]
        ahead = sb.clone()
        ahead.ctx.rng.random()
        expected = ProcessContext.seeded(0, p.uid, 4).rng
        for _ in range(6):
            expected.random()
        assert sb.ctx.rng.random() == expected.random()

    def test_clone_of_an_undrawn_context_stays_undrawn(self):
        p = make_round_robin_processes(4)[1]
        sb = SandboxProcess(p, 4)
        clone = sb.clone()
        assert not isinstance(clone.ctx.rng, random.Random)
        assert not isinstance(sb.ctx.rng, random.Random)
        expected = random.Random(f"0:{p.uid}")
        draws = [expected.random() for _ in range(3)]
        assert [clone.ctx.rng.random() for _ in range(3)] == draws
        assert [sb.ctx.rng.random() for _ in range(3)] == draws

    def test_clone_preserves_behaviour(self):
        procs = make_strong_select_processes(8)
        sb = SandboxProcess(procs[2], 8)
        sb.activate(0)
        sb.feed(1, received(Message(PAYLOAD, 0, 1)))
        clone = sb.clone()
        for r in range(2, 40):
            assert (sb.would_send(r) is None) == (clone.would_send(r) is None)
