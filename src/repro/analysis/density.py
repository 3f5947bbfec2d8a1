"""Busy/free-round accounting for the Harmonic Broadcast analysis.

Section 7 reasons about *wake-up patterns* ``W = t₁ ≤ t₂ ≤ … ≤ t_n``
(``t₁ = 0``; ``t_i`` is the round the ``i``-th node receives the
message).  The pattern determines every node's sending probability, hence
the per-round probability mass::

    P(t) = Σ_v p_v(t),   p_v(t) = 1 / (1 + ⌊(t − t_v − 1)/T⌋)

A round is *busy* when ``P(t) ≥ 1`` and *free* otherwise.  Lemma 14 says
some pattern packs all its busy rounds first; Lemma 15 bounds the number
of busy rounds of **any** pattern by ``n·T·H(n)``.  These functions make
the quantities computable so tests and benchmarks can check both lemmas
and extract busy/free structure from real traces.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.core.harmonic import harmonic_number, sending_probability
from repro.sim.trace import ExecutionTrace


def probability_mass(
    wakeup_pattern: Sequence[int], t: int, T: int
) -> float:
    """``P(t)``: the summed sending probabilities under a pattern."""
    if t < 1:
        raise ValueError("rounds are 1-based")
    return sum(sending_probability(t, t_v, T) for t_v in wakeup_pattern)


def is_busy(wakeup_pattern: Sequence[int], t: int, T: int) -> bool:
    """Whether round ``t`` is busy (``P(t) ≥ 1``)."""
    return probability_mass(wakeup_pattern, t, T) >= 1.0


def busy_rounds(
    wakeup_pattern: Sequence[int],
    T: int,
    horizon: Optional[int] = None,
) -> List[int]:
    """All busy rounds of a pattern up to ``horizon``.

    The default horizon is Lemma 15's ``⌈n·T·H(n)⌉ + 1``, beyond which no
    round of a valid pattern can be busy once all nodes are awake — the
    probability mass then only decays.  (We scan to the horizon
    explicitly rather than trusting the bound; the bench checks the two
    agree.)
    """
    n = len(wakeup_pattern)
    if horizon is None:
        horizon = math.ceil(n * T * harmonic_number(n)) + 1
    return [
        t for t in range(1, horizon + 1) if is_busy(wakeup_pattern, t, T)
    ]


def busy_round_count(wakeup_pattern: Sequence[int], T: int) -> int:
    """Number of busy rounds up to :func:`busy_rounds`' default horizon
    (compare against Lemma 15's ``n·T·H(n)``)."""
    return len(busy_rounds(wakeup_pattern, T))


def front_loaded_pattern(n: int, T: int) -> List[int]:
    """A pattern whose busy rounds form a contiguous prefix.

    Waking every node at round 0 keeps ``P(t) ≥ 1`` for a prefix and
    nowhere else — the *shape* Lemma 14 proves some busy-maximising
    pattern has.  Note it is not itself the busy-count maximiser:
    staggered wake-ups can keep ``P(t)`` hovering above 1 for longer
    (the benchmarks show this), which is why Lemma 15's ``n·T·H(n)``
    bound — not ``n·T`` — is the right ceiling.
    """
    return [0] * n


def wakeup_pattern_of(trace: ExecutionTrace) -> List[int]:
    """Extract the wake-up pattern from an execution trace."""
    rounds = sorted(
        r for r in trace.informed_round.values() if r is not None
    )
    return rounds

