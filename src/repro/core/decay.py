"""The Decay protocol of Bar-Yehuda, Goldreich and Itai ([2]).

The classical randomized broadcast baseline for the ``G = G'`` columns of
Table 2.  Time is divided into *phases* of ``⌈log₂ n⌉ + 1`` slots.  At the
start of each phase every informed node begins transmitting; after each
slot it stops for the rest of the phase with probability 1/2.  Thus in
slot ``j`` a node is still transmitting with probability ``2^{−j}``, so
for any set of contending neighbours some slot matches the contention
level and a lone transmission gets through with constant probability per
phase.

In the classical model this yields ``O((D + log n) · log n)`` rounds
w.h.p.  (The asymptotically optimal classical algorithm of Czumaj–Rytter
[12] is substantially more intricate; Decay is the standard stand-in
baseline and reproduces the same Table-2 *shape* — polylogarithmic in
``n`` for constant diameter, versus ``Ω(n)`` in the dual graph model.
``benchmarks/bench_table2_randomized.py`` records the substitution.)

Decay has no worst-case guarantee against the dual-graph adversary — the
Theorem 4 experiment demonstrates exactly that.
"""

from __future__ import annotations

import functools
import math
from typing import List, Optional

from repro.sim.messages import Message
from repro.sim.process import Process, ProcessContext


@functools.lru_cache(maxsize=None)
def phase_length(n: int) -> int:
    """Slots per Decay phase: ``⌈log₂ n⌉ + 1`` (memoised: every
    ``decide_send`` asks)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return max(1, math.ceil(math.log2(max(n, 2)))) + 1


class DecayProcess(Process):
    """One Decay automaton.

    Args:
        uid: Process identifier.
        n: System size (fixes the phase length; defaults to the engine's
            ``ctx.n``).
    """

    def __init__(self, uid: int, n: Optional[int] = None) -> None:
        super().__init__(uid)
        self._n = n
        self._phase_id: Optional[int] = None
        self._transmitting = False

    def decide_send(self, ctx: ProcessContext) -> Optional[Message]:
        if not self.has_message:
            return None
        length = phase_length(self._n if self._n is not None else ctx.n)
        phase_id = (ctx.round_number - 1) // length
        slot = (ctx.round_number - 1) % length
        t_v = self.first_message_round
        assert t_v is not None
        if phase_id * length + 1 <= t_v:
            # A node informed mid-phase joins at the next phase boundary.
            return None
        if phase_id != self._phase_id:
            # New phase: start transmitting again.
            self._phase_id = phase_id
            self._transmitting = True
        if not self._transmitting:
            return None
        msg = self.outgoing(ctx, slot=slot)
        # Decide now whether to continue into the next slot.
        if ctx.rng.random() < 0.5:
            self._transmitting = False
        return msg

    def on_activate(self, ctx: ProcessContext) -> None:
        super().on_activate(ctx)
        self._phase_id = None
        self._transmitting = False


def make_decay_processes(n: int) -> List[DecayProcess]:
    """Build the full Decay process collection."""
    return [DecayProcess(uid, n=n) for uid in range(n)]
