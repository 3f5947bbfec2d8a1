"""The Harmonic Broadcast algorithm (Section 7 of the paper).

Randomized broadcast completing in ``O(n log² n)`` rounds with high
probability on directed (or undirected) dual graphs under CR4 and
asynchronous start.

A node ``v`` that first receives the message in round ``t_v`` transmits in
every round ``t > t_v`` with probability::

    p_v(t) = 1 / (1 + ⌊(t − t_v − 1) / T⌋)

i.e. probability 1 for the first ``T`` rounds after receipt, then 1/2 for
``T`` rounds, then 1/3, … .  With ``T = ⌈12 ln(n/ε)⌉`` all nodes receive
the message within ``2·n·T·H(n)`` rounds with probability at least
``1 − ε`` (Theorem 18); ``ε = n^{−Θ(1)}`` gives the headline
``O(n log² n)`` (Theorem 19).

The source is treated as receiving the message at time 0 (``t_s = 0``)
and starts transmitting in round 1, matching the paper's convention.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.sim.messages import Message
from repro.sim.process import Process, ProcessContext


def default_T(n: int, epsilon: float = 0.1, constant: float = 12.0) -> int:
    """The paper's probability-plateau length ``T = ⌈c · ln(n/ε)⌉``.

    Args:
        n: Number of processes.
        epsilon: Target failure probability.
        constant: The analysis uses ``c = 12``; smaller values trade the
            proof's guarantee for speed (see the ablation benchmark).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    return max(1, math.ceil(constant * math.log(n / epsilon)))


def harmonic_number(n: int) -> float:
    """``H(n) = Σ_{i=1..n} 1/i`` (the paper sets ``H(0) = 1``)."""
    if n <= 0:
        return 1.0
    return sum(1.0 / i for i in range(1, n + 1))


def completion_bound(n: int, T: int) -> int:
    """Theorem 18's w.h.p. completion bound ``2·n·T·H(n)``."""
    return math.ceil(2 * n * T * harmonic_number(n))


def busy_round_bound(n: int, T: int) -> int:
    """Lemma 15's bound on the number of busy rounds: ``n·T·H(n)``."""
    return math.ceil(n * T * harmonic_number(n))


def sending_probability(t: int, t_v: int, T: int) -> float:
    """``p_v(t)`` for a node informed at ``t_v`` (0 for ``t ≤ t_v``)."""
    if t <= t_v:
        return 0.0
    return 1.0 / (1 + (t - t_v - 1) // T)


class HarmonicProcess(Process):
    """One Harmonic Broadcast automaton.

    Args:
        uid: Process identifier.
        T: The plateau length (default: the paper's ``⌈12 ln(n/ε)⌉`` is
            computed lazily from the engine-supplied ``n`` on first use
            when ``None``).
        epsilon: Failure probability target used when ``T`` is derived.
        constant: Constant in the derived ``T``.
    """

    def __init__(
        self,
        uid: int,
        T: Optional[int] = None,
        epsilon: float = 0.1,
        constant: float = 12.0,
    ) -> None:
        super().__init__(uid)
        self._T = T
        self._epsilon = epsilon
        self._constant = constant

    def plateau_length(self, n: int) -> int:
        """The effective ``T`` once the system size is known."""
        if self._T is None:
            self._T = default_T(n, self._epsilon, self._constant)
        return self._T

    def decide_send(self, ctx: ProcessContext) -> Optional[Message]:
        # The hottest call of a Harmonic run: read the held state
        # directly, not through the properties (holding the message
        # implies a first-message round).
        if not self._has_message:
            return None
        T = self._T
        if T is None:
            T = self.plateau_length(ctx.n)
        p = sending_probability(
            ctx.round_number, self._first_message_round, T
        )
        if p > 0 and ctx.rng.random() < p:
            return self.outgoing(ctx, probability=p)
        return None


def make_harmonic_processes(
    n: int,
    T: Optional[int] = None,
    epsilon: float = 0.1,
    constant: float = 12.0,
) -> List[HarmonicProcess]:
    """Build the full Harmonic Broadcast process collection."""
    if T is None:
        T = default_T(n, epsilon, constant)
    return [
        HarmonicProcess(uid, T=T, epsilon=epsilon, constant=constant)
        for uid in range(n)
    ]
