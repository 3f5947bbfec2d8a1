"""Unit tests for the Process automaton base class."""

import random

import pytest

from repro.core.runner import algorithm_names, make_processes
from repro.sim.messages import COLLISION, PAYLOAD, Message, SILENCE, received
from repro.sim.process import (
    Process,
    ProcessContext,
    ScriptedProcess,
    SilentProcess,
)


def ctx(round_number=1, n=4):
    return ProcessContext(round_number, random.Random(0), n)


class TestLifecycle:
    def test_initial_state(self):
        p = SilentProcess(uid=3)
        assert p.uid == 3
        assert not p.has_message
        assert p.message is None
        assert p.activation_round is None
        assert p.first_message_round is None

    def test_broadcast_input_marks_source(self):
        p = SilentProcess(uid=0)
        p.on_broadcast_input(Message(PAYLOAD, 0, 0))
        assert p.has_message
        assert p.first_message_round == 0

    def test_activation_records_round(self):
        p = SilentProcess(uid=1)
        c = ctx(round_number=5)
        p.on_activate(c)
        assert p.activation_round == 5

    def test_deliver_records_first_message_round(self):
        p = SilentProcess(uid=1)
        p.on_activate(ctx(0))
        p.deliver(ctx(7), received(Message(PAYLOAD, 0, 7)))
        assert p.first_message_round == 7
        # A later message does not overwrite it.
        p.deliver(ctx(9), received(Message(PAYLOAD, 2, 9)))
        assert p.first_message_round == 7

    def test_silence_does_not_inform(self):
        p = SilentProcess(uid=1)
        p.deliver(ctx(3), SILENCE)
        assert not p.has_message

    @pytest.mark.parametrize(
        "reception",
        [
            COLLISION,
            received(Message(None, 0, 3)),
            received(Message("other-content", 0, 3)),
        ],
        ids=["collision", "payload-free", "foreign-payload"],
    )
    def test_deliver_takes_custody_only_of_the_payload(self, reception):
        """Process.deliver owns custody: every reception but a message
        carrying PAYLOAD leaves the process uninformed."""
        p = SilentProcess(uid=1)
        p.deliver(ctx(3), reception)
        assert not p.has_message
        assert p.message is None
        assert p.first_message_round is None

    def test_outgoing_requires_message(self):
        p = SilentProcess(uid=1)
        with pytest.raises(RuntimeError, match="no message"):
            p.outgoing(ctx())

    def test_outgoing_restamps(self):
        p = SilentProcess(uid=1)
        p.deliver(ctx(2), received(Message(PAYLOAD, 0, 2)))
        msg = p.outgoing(ctx(5), level=3)
        assert msg.sender == 1
        assert msg.round_sent == 5
        assert msg.payload == PAYLOAD
        assert msg.meta["level"] == 3


class TestSeededContext:
    def test_stream_is_the_seed_uid_string(self):
        c = ProcessContext.seeded(7, 3, 12)
        assert (c.round_number, c.n) == (0, 12)
        expected = random.Random("7:3")
        assert [c.rng.random() for _ in range(3)] == [
            expected.random() for _ in range(3)
        ]


class TestScriptedProcess:
    def test_sends_only_in_scripted_rounds_with_message(self):
        p = ScriptedProcess(uid=2, send_rounds=[3, 5])
        p.deliver(ctx(1), received(Message(PAYLOAD, 0, 1)))
        assert p.decide_send(ctx(2)) is None
        assert p.decide_send(ctx(3)) is not None
        assert p.decide_send(ctx(4)) is None
        assert p.decide_send(ctx(5)) is not None

    def test_without_message_silent_by_default(self):
        p = ScriptedProcess(uid=2, send_rounds=[1])
        assert p.decide_send(ctx(1)) is None

    def test_send_without_message_flag(self):
        p = ScriptedProcess(uid=2, send_rounds=[1],
                            send_without_message=True)
        msg = p.decide_send(ctx(1))
        assert msg is not None
        assert msg.payload is None  # carries no broadcast content


class TestAbstractness:
    def test_process_is_abstract(self):
        with pytest.raises(TypeError):
            Process(uid=0)  # type: ignore[abstract]


class TestDeliverIsFinal:
    """Receptions other than the payload are inert, so neither engine
    has to deliver them: a subclass cannot hook into delivery."""

    @pytest.mark.parametrize("hook", ["deliver", "on_reception"])
    def test_defining_a_reception_hook_fails_at_class_creation(self, hook):
        def observe(self, ctx, reception):
            pass

        with pytest.raises(TypeError, match=f"defines {hook}"):
            type("Observer", (SilentProcess,), {hook: observe})

    @pytest.mark.parametrize("hook", ["deliver", "on_reception"])
    @pytest.mark.parametrize(
        "base",
        sorted(
            {
                type(p)
                for name in algorithm_names()
                for p in make_processes(name, 4)
            }
            | {SilentProcess, ScriptedProcess},
            key=lambda cls: cls.__name__,
        ),
        ids=lambda cls: cls.__name__,
    )
    def test_subclass_of_a_concrete_process_cannot_hook_delivery(
        self, base, hook
    ):
        """The check is inherited: no shipped automaton can be extended
        into an observer of receptions either."""

        def observe(self, ctx, reception):
            pass

        assert base.deliver is Process.deliver
        with pytest.raises(TypeError, match=f"defines {hook}"):
            type(f"Observing{base.__name__}", (base,), {hook: observe})
