"""Oblivious and stochastic adversaries.

These model benign-to-moderate unreliability: links that flap randomly
rather than maliciously.  They are the right adversaries for the
"realistic workload" examples (gray-zone networks) and for calibrating how
much of an algorithm's slowdown is due to adversarial scheduling versus
mere link noise.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Optional

from repro.adversaries.base import Adversary, AdversaryView
from repro.sim.messages import Message


class RandomDeliveryAdversary(Adversary):
    """Each unreliable link independently delivers with probability ``p``.

    Args:
        p: Per-link per-round delivery probability.
        seed: PRNG seed (the adversary's randomness is independent of the
            processes').
        cr4_mode: How CR4 collisions at non-senders resolve:
            ``"silence"`` (always ``⊥``), ``"first"`` (deliver the message
            from the lowest-uid sender), or ``"random"`` (uniformly choose
            silence or one of the arrivals).
    """

    def __init__(
        self, p: float, seed: int = 0, cr4_mode: str = "silence"
    ) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        if cr4_mode not in ("silence", "first", "random"):
            raise ValueError(f"unknown cr4_mode {cr4_mode!r}")
        self.p = p
        self._rng = random.Random(seed)
        self.cr4_mode = cr4_mode

    def choose_deliveries(
        self, view: AdversaryView
    ) -> Dict[int, FrozenSet[int]]:
        # One coin per unreliable link, senders and targets ascending.
        unreliable = view.topology.unreliable_sorted
        draw = self._rng.random
        p = self.p
        out: Dict[int, FrozenSet[int]] = {}
        for sender in sorted(view.senders):
            targets = [t for t in unreliable[sender] if draw() < p]
            if targets:
                out[sender] = frozenset(targets)
        return out

    def resolve_cr4(
        self, view: AdversaryView, node: int, arrivals: List[Message]
    ) -> Optional[Message]:
        if self.cr4_mode == "silence":
            return None
        if self.cr4_mode == "first":
            return min(arrivals, key=lambda m: m.sender)
        choice = self._rng.randrange(len(arrivals) + 1)
        if choice == len(arrivals):
            return None
        return arrivals[choice]

