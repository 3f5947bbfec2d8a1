"""Process automata for the synchronous-round radio network model.

The paper defines an algorithm as a collection of ``n`` processes (each a
deterministic or probabilistic automaton), each holding a unique identifier
from a totally ordered set ``I``.  An adversary assigns processes to graph
nodes via the ``proc`` bijection (Section 2.1); processes never learn which
node they occupy.

Concretely, subclasses implement one hook,
:meth:`Process.decide_send` — called at the start of each round for every
*active* process; returning a :class:`~repro.sim.messages.Message` means
"transmit this round", returning ``None`` means "listen".

The end-of-round observation reaches the process only through the final
:meth:`Process.deliver`, the owner of payload custody: every round
driver (both engines, the explicit-interference engine and the
lower-bound sandboxes) hands observations to it,
and it takes custody exactly when
:func:`~repro.sim.messages.carries_payload` holds.  Silence, collision
notifications and payload-free messages are inert: no process can
observe them, so a driver may skip delivering them.  The fast engine
relies on this, and ``Process.__init_subclass__`` enforces it.

:meth:`ProcessContext.seeded` is the one constructor of a process's
round-0 context and so of its private RNG stream.  The stream's
``random.Random`` is built on the process's first draw, from the same
seed string, so automata that never draw (Round Robin, Strong Select)
never pay for one and every drawn stream is unchanged.

Activation follows the paper's two start rules: under *synchronous start*
all processes are active from round 1; under *asynchronous start* a process
is activated by its first actual message reception (the engine invokes
:meth:`Process.on_activate` at that point, before delivering the message).
"""

from __future__ import annotations

import abc
import random
import weakref
from dataclasses import dataclass
from typing import Any, Optional, cast

from repro.sim.messages import Message, Reception, carries_payload


@dataclass
class ProcessContext:
    """Per-round information the engine exposes to a process.

    Attributes:
        round_number: The current 1-based global round number.  Using a
            global counter is without loss of generality (footnote 1 of the
            paper: the source can stamp its messages with its local counter
            and every node adopts the stamp on first reception).
        rng: A process-private deterministic PRNG.  Probabilistic automata
            must draw all randomness from this generator so executions are
            reproducible given a seed.
        n: The number of processes in the system, which the paper's
            algorithms are allowed to know (both Strong Select and Harmonic
            Broadcast are parameterized by ``n``).
    """

    round_number: int
    rng: random.Random
    n: int

    @classmethod
    def seeded(cls, seed: int, uid: int, n: int) -> "ProcessContext":
        """The round-0 context of process ``uid`` under master ``seed``.

        The RNG is seeded with the string ``f"{seed}:{uid}"``: one
        independent stream per process, the same in every driver that
        is given the same seed.  It is built on first use: until then
        ``rng`` is a stand-in whose first attribute read builds the
        generator and installs it as ``rng``.
        """
        ctx = cls(0, cast(random.Random, None), n)
        ctx.rng = cast(random.Random, _UndrawnRandom(ctx, f"{seed}:{uid}"))
        return ctx

    def __deepcopy__(self, memo: object) -> "ProcessContext":
        rng = self.rng
        copied = ProcessContext(self.round_number, rng, self.n)
        if isinstance(rng, _UndrawnRandom):
            # An undrawn stream stays undrawn, bound to the copy.
            copied.rng = cast(random.Random, _UndrawnRandom(copied, rng._seed))
        else:
            # Copy the RNG state as one tuple: the default deepcopy walks
            # the 625-word Mersenne Twister state element by element and
            # rebuilds the generator through a seedless ``Random()``,
            # which reads OS entropy first.
            copied.rng = random.Random(0)
            copied.rng.setstate(rng.getstate())
        return copied


class _UndrawnRandom:
    """The RNG of a :meth:`ProcessContext.seeded` context before its
    first draw.

    The first read of any public attribute builds
    ``random.Random(seed)`` and installs it as its context's ``rng``,
    so every later draw through the context is a plain attribute read.
    A caller that held on to the stand-in keeps drawing from that same
    generator.  The context is held weakly, so a context and its
    stand-in form no reference cycle.
    """

    __slots__ = ("_seed", "_ctx", "_rng")

    def __init__(self, ctx: ProcessContext, seed: str) -> None:
        self._seed = seed
        self._ctx = weakref.ref(ctx)
        self._rng: Optional[random.Random] = None

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_"):
            # Private and dunder probes (copy, pickle, unset slots) must
            # not build the stream.
            raise AttributeError(name)
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(self._seed)
            ctx = self._ctx()
            if ctx is not None and ctx.rng is self:
                ctx.rng = rng
        return getattr(rng, name)


class Process(abc.ABC):
    """Base class for all protocol automata.

    Subclasses must be driven only through the public hooks below; the
    engine guarantees the calling discipline::

        on_activate(ctx)                  # once, when the process wakes up
        repeat each round while active:
            decide_send(ctx) -> msg|None
            deliver(ctx, reception)       # may be skipped unless the
                                          # reception carries the payload

    The broadcast *message* is delivered to the source process before round
    1 via :meth:`on_broadcast_input` (Section 3: "the message arrives at the
    source process prior to the first round").

    :meth:`deliver` is final: a subclass defining it (or the retired
    ``on_reception`` observer hook) raises :class:`TypeError` when the
    class is created, so no process can make a silent round observable
    and thereby tell the two engines apart.
    """

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        for hook in ("deliver", "on_reception"):
            if hook in vars(cls):
                raise TypeError(
                    f"{cls.__name__} defines {hook}(): Process.deliver is "
                    "final and every reception but a message carrying the "
                    "broadcast payload is inert"
                )

    def __init__(self, uid: int) -> None:
        self._uid = uid
        self._has_message = False
        self._message: Optional[Message] = None
        self._activation_round: Optional[int] = None
        self._first_message_round: Optional[int] = None

    # ------------------------------------------------------------------
    # Identity and bookkeeping
    # ------------------------------------------------------------------
    @property
    def uid(self) -> int:
        """The process's unique identifier from the ordered id set ``I``."""
        return self._uid

    @property
    def has_message(self) -> bool:
        """Whether this process holds the broadcast message."""
        return self._has_message

    @property
    def message(self) -> Optional[Message]:
        """The broadcast message, if held."""
        return self._message

    @property
    def activation_round(self) -> Optional[int]:
        """Round in which the process became active (0 = before round 1)."""
        return self._activation_round

    @property
    def first_message_round(self) -> Optional[int]:
        """Round in which the broadcast message was first received.

        For the source this is 0, matching the paper's convention
        ``t_s = 0`` in Section 7.
        """
        return self._first_message_round

    # ------------------------------------------------------------------
    # Engine-invoked lifecycle hooks
    # ------------------------------------------------------------------
    def on_broadcast_input(self, message: Message) -> None:
        """Deliver the broadcast message from the environment (source only)."""
        self._has_message = True
        self._message = message
        self._first_message_round = 0

    def on_activate(self, ctx: ProcessContext) -> None:
        """Invoked once when the process becomes active.

        Under synchronous start this happens before round 1 for every
        process (with ``ctx.round_number == 0``); under asynchronous start
        it happens just before the first message reception is delivered.
        Subclasses overriding this must call ``super().on_activate(ctx)``.
        """
        self._activation_round = ctx.round_number

    def on_crash(self) -> None:
        """Wipe volatile broadcast state (fault injection, uninformed rejoin).

        Invoked by the engine when the node this process occupies
        crashes under a :class:`~repro.sim.faults.ChurnSchedule` with
        the ``"uninformed"`` rejoin policy: payload custody is lost, so
        the process must be informed again after recovery.  Subclasses
        with additional volatile state may extend this (calling
        ``super().on_crash()``); under the ``"informed"`` policy the
        engine never calls it.
        """
        self._has_message = False
        self._message = None
        self._first_message_round = None

    def deliver(self, ctx: ProcessContext, reception: Reception) -> None:
        """Driver entry point: take custody of a received payload.

        Only a reception that :func:`~repro.sim.messages.carries_payload`
        informs; silence, collision notifications and payload-free
        messages are no-ops.
        """
        if not self._has_message and carries_payload(reception):
            self._has_message = True
            self._message = reception.message
            self._first_message_round = ctx.round_number

    # ------------------------------------------------------------------
    # Subclass responsibilities
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def decide_send(self, ctx: ProcessContext) -> Optional[Message]:
        """Return the message to transmit this round, or ``None`` to listen."""

    # ------------------------------------------------------------------
    # Helpers for subclasses
    # ------------------------------------------------------------------
    def outgoing(self, ctx: ProcessContext, **meta: Any) -> Message:
        """Build a copy of the held broadcast message for retransmission."""
        if self._message is None:
            raise RuntimeError(
                f"process {self._uid} has no message to retransmit"
            )
        msg = self._message.restamped(self._uid, ctx.round_number)
        if meta:
            msg.meta.update(meta)
        return msg

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(uid={self._uid})"


class SilentProcess(Process):
    """A process that never transmits.  Useful in tests and lower bounds."""

    def decide_send(self, ctx: ProcessContext) -> Optional[Message]:
        return None


class ScriptedProcess(Process):
    """A process that follows a fixed transmission schedule.

    Args:
        uid: Process identifier.
        send_rounds: Collection of global round numbers in which to send
            (only takes effect once the process holds the message, since a
            process with nothing to say transmits nothing meaningful; pass
            ``send_without_message=True`` to transmit a dummy payload
            regardless, which some lower-bound constructions require).
        send_without_message: Transmit even before holding the broadcast
            message (the transmission then carries a ``None`` payload).
    """

    def __init__(
        self,
        uid: int,
        send_rounds,
        send_without_message: bool = False,
    ) -> None:
        super().__init__(uid)
        self._send_rounds = frozenset(send_rounds)
        self._send_without_message = send_without_message

    def decide_send(self, ctx: ProcessContext) -> Optional[Message]:
        if ctx.round_number not in self._send_rounds:
            return None
        if self.has_message:
            return self.outgoing(ctx)
        if self._send_without_message:
            return Message(None, self.uid, ctx.round_number)
        return None
