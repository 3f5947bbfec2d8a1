"""Unit tests for the Process automaton base class."""

import copy
import random

import pytest

from repro.core.runner import algorithm_names, broadcast, make_processes
from repro.graphs import line
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


def stream(seed, uid, count, skip=0):
    """Draws ``skip`` to ``skip + count`` of process ``uid``'s stream."""
    rng = random.Random(f"{seed}:{uid}")
    return [rng.random() for _ in range(skip + count)][skip:]


@pytest.fixture
def constructed(monkeypatch):
    """The seed of every ``random.Random`` built while the test runs."""
    seeds = []

    class Counting(random.Random):
        def __init__(self, x=None):
            seeds.append(x)
            super().__init__(x)

    monkeypatch.setattr(random, "Random", Counting)
    return seeds


class TestSeededContext:
    def test_stream_is_the_seed_uid_string(self):
        c = ProcessContext.seeded(7, 3, 12)
        assert (c.round_number, c.n) == (0, 12)
        assert [c.rng.random() for _ in range(3)] == stream(7, 3, 3)

    def test_rng_is_built_on_the_first_draw(self, constructed):
        c = ProcessContext.seeded(7, 3, 12)
        assert constructed == []
        assert not isinstance(c.rng, random.Random)
        c.rng.random()
        assert constructed == ["7:3"]
        # Installed: later draws read a plain generator.
        assert isinstance(c.rng, random.Random)
        c.rng.random()
        assert constructed == ["7:3"]

    def test_held_rng_keeps_one_stream(self):
        c = ProcessContext.seeded(7, 3, 12)
        r = c.rng
        draws = [r.random(), c.rng.random(), r.random(), c.rng.random()]
        assert draws == stream(7, 3, 4)

    def test_deepcopy_before_the_first_draw(self, constructed):
        c = ProcessContext.seeded(7, 3, 12)
        d = copy.deepcopy(c)
        assert constructed == []
        assert not isinstance(d.rng, random.Random)
        assert [d.rng.random() for _ in range(3)] == stream(7, 3, 3)
        # The original is untouched by the copy's draws.
        assert not isinstance(c.rng, random.Random)
        assert [c.rng.random() for _ in range(3)] == stream(7, 3, 3)

    def test_deepcopy_of_a_held_undrawn_rng_is_independent(self):
        c = ProcessContext.seeded(7, 3, 12)
        r = c.rng
        d = copy.deepcopy(c)
        assert r.random() == stream(7, 3, 1)[0]
        assert c.rng.random() == stream(7, 3, 1, skip=1)[0]
        assert d.rng.random() == stream(7, 3, 1)[0]

    def test_deepcopy_after_the_first_draw(self):
        c = ProcessContext.seeded(7, 3, 12)
        c.rng.random()
        c.rng.random()
        d = copy.deepcopy(c)
        assert d.rng is not c.rng
        assert [d.rng.random() for _ in range(3)] == stream(7, 3, 3, skip=2)
        assert [c.rng.random() for _ in range(3)] == stream(7, 3, 3, skip=2)


class TestRngConstruction:
    """Only a process that draws pays for its generator."""

    def test_round_robin_builds_no_generator(self, constructed):
        trace = broadcast(line(8), "round_robin", seed=5)
        assert trace.completed
        assert constructed == []

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_decay_builds_one_per_drawing_process(self, constructed, engine):
        trace = broadcast(line(8), "decay", seed=5, engine=engine)
        assert trace.completed
        # A Decay process draws once after each of its transmissions.
        senders = {
            trace.proc[node]
            for record in trace.rounds
            for node in record.senders
        }
        assert 0 < len(senders) < 8
        assert sorted(constructed) == sorted(f"5:{uid}" for uid in senders)


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
