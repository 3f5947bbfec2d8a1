"""Message and reception primitives for the dual graph radio model.

The paper's model (Section 2.1) has three possible per-round outcomes for a
process: it hears *silence* (written ``⊥``), it receives exactly one
*message*, or it experiences a *collision* (written ``⊤``, only observable
under collision rules that provide collision detection).

This module defines:

* :class:`Message` — the unit transmitted in a round.  Broadcast algorithms
  treat the broadcast payload as a black box (Section 3), so a message simply
  carries the payload plus bookkeeping metadata (sender, round) used by the
  trace machinery, never by the algorithms themselves.
* :class:`Reception` — the tagged union of the three outcomes above.
* The broadcast contract every round driver shares: the one payload
  (:data:`PAYLOAD`), the source's round-0 input (:func:`source_input`)
  and the custody predicate (:func:`carries_payload`).  Custody itself
  is recorded by :meth:`repro.sim.process.Process.deliver`, the one
  entry point every driver calls, which applies the predicate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional


class ReceptionKind(enum.Enum):
    """The three per-round outcomes a process can observe."""

    #: No message reached the process (the paper's ``⊥``).
    SILENCE = "silence"
    #: Exactly one message was received.
    MESSAGE = "message"
    #: Collision notification (the paper's ``⊤``); only produced under
    #: collision rules CR1 and CR2.
    COLLISION = "collision"


@dataclass(frozen=True)
class Message:
    """A transmission made by one process in one round.

    Attributes:
        payload: The broadcast content.  Algorithms must treat this as a
            black box; equality of payloads is what defines "the broadcast
            message has arrived".
        sender: The process identifier (not the node) that transmitted.
        round_sent: The 1-based round number of the transmission.
        meta: Free-form metadata an algorithm may attach (e.g. the source's
            round stamp used by Strong Select's global-counter argument,
            footnote 1 in the paper).  Never interpreted by the engine.
    """

    payload: Any
    sender: int
    round_sent: int
    meta: dict = field(default_factory=dict, compare=False, hash=False)

    def restamped(self, sender: int, round_sent: int) -> "Message":
        """Return a copy of this message as re-sent by another process."""
        return Message(
            payload=self.payload,
            sender=sender,
            round_sent=round_sent,
            meta=dict(self.meta),
        )


@dataclass(frozen=True)
class Reception:
    """What a single process observed at the end of a round.

    Exactly one of the three kinds; ``message`` is populated iff
    ``kind is ReceptionKind.MESSAGE``.
    """

    kind: ReceptionKind
    message: Optional[Message] = None

    def __post_init__(self) -> None:
        if self.kind is ReceptionKind.MESSAGE and self.message is None:
            raise ValueError("MESSAGE reception requires a message")
        if self.kind is not ReceptionKind.MESSAGE and self.message is not None:
            raise ValueError(f"{self.kind} reception must not carry a message")

    @property
    def is_silence(self) -> bool:
        return self.kind is ReceptionKind.SILENCE

    @property
    def is_message(self) -> bool:
        return self.kind is ReceptionKind.MESSAGE

    @property
    def is_collision(self) -> bool:
        return self.kind is ReceptionKind.COLLISION


#: Shared singleton for the silence outcome.
SILENCE = Reception(ReceptionKind.SILENCE)

#: Shared singleton for the collision-notification outcome.
COLLISION = Reception(ReceptionKind.COLLISION)


def received(message: Message) -> Reception:
    """Build a message reception."""
    return Reception(ReceptionKind.MESSAGE, message)


#: The broadcast message's content (Section 3): one fixed value handed to
#: the source before round 1, never interpreted by an algorithm.
PAYLOAD = "broadcast-message"


def source_input(uid: int) -> Message:
    """The environment's round-0 input to the source process ``uid``."""
    return Message(payload=PAYLOAD, sender=uid, round_sent=0)


def carries_payload(reception: Reception) -> bool:
    """Whether ``reception`` hands its receiver the broadcast payload.

    Silence, collision notifications and payload-free messages (a
    process transmitting before it holds the payload sends a ``None``
    payload) do not.  ``.message is not None`` is the cheap spelling of
    :attr:`Reception.is_message`: only a MESSAGE reception carries one.
    """
    msg = reception.message
    return msg is not None and msg.payload == PAYLOAD
