"""Manually driven process copies for the Theorem 11 and 12 constructions.

The adversary arguments in Sections 4 and 6 reason about *families* of
executions that share prefixes and differ only in the ``proc`` mapping.
Simulating them efficiently requires driving process automata by hand —
querying "would you send in round r?" and feeding each copy the exact
observation the construction dictates — and cloning automata at branch
points.  Only the Theorem 11 and 12 constructions
(:mod:`repro.lowerbounds.theorem11`, :mod:`repro.lowerbounds.theorem12`)
drive them; everything else, the greedy adversary search included,
runs rounds on an engine.

This requires the processes to be **deterministic** automata whose
``decide_send`` is a pure function of their state (true for Strong
Select, round robin, and any deterministic algorithm playing by the
model's rules).  The constructions are not defined for randomized
algorithms (Theorem 4 handles those by fixing choice sequences, i.e.
seeds).
"""

from __future__ import annotations

import copy
from typing import Optional

from repro.sim.messages import Message, Reception, source_input
from repro.sim.process import Process, ProcessContext


class SandboxProcess:
    """A process copy driven round-by-round by a construction.

    Args:
        process: The automaton to drive (the sandbox takes ownership).
        n: System size passed through the context.

    The context is the engine's at the default seed
    (:meth:`~repro.sim.process.ProcessContext.seeded`), so a sandbox
    draws what an engine copy of the process run with ``seed=0`` would.
    The constructions drive deterministic automata, which never draw.
    """

    def __init__(self, process: Process, n: int) -> None:
        self.process = process
        self.ctx = ProcessContext.seeded(0, process.uid, n)

    @property
    def uid(self) -> int:
        return self.process.uid

    @property
    def informed(self) -> bool:
        """Whether the copy holds the broadcast payload."""
        return self.process.has_message

    def clone(self) -> "SandboxProcess":
        """An independent copy sharing no mutable state."""
        return copy.deepcopy(self)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def activate(self, round_number: int = 0) -> None:
        """Wake the process (synchronous start: round 0)."""
        self.ctx.round_number = round_number
        self.process.on_activate(self.ctx)

    def give_broadcast_input(self) -> None:
        """Deliver the payload from the environment (source only)."""
        self.process.on_broadcast_input(source_input(self.uid))

    def would_send(self, round_number: int) -> Optional[Message]:
        """Query the automaton's transmission decision for a round.

        Pure for deterministic automata, so constructions may re-query
        the same round when exploring branch points.
        """
        self.ctx.round_number = round_number
        return self.process.decide_send(self.ctx)

    def feed(self, round_number: int, reception: Reception) -> None:
        """Deliver one observation for the given round.

        Custody transfers exactly as in the engines: through
        :meth:`~repro.sim.process.Process.deliver`.
        """
        self.ctx.round_number = round_number
        self.process.deliver(self.ctx, reception)
