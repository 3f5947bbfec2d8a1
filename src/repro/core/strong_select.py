"""The Strong Select algorithm (Section 5 of the paper).

Deterministic broadcast in ``O(n^{3/2} √log n)`` rounds on directed (or
undirected) dual graphs under the weakest assumptions: collision rule CR4
and asynchronous start.

Structure:

* Rounds are divided into *epochs* of length ``2^{s_max} − 1``.  The first
  round of each epoch belongs to the smallest SSF ``F_1``, the next two to
  ``F_2``, the next four to ``F_3``, … — in general ``2^{s−1}`` rounds of
  each epoch belong to the ``(n, 2^s)``-SSF ``F_s``, cycling through its
  sets across epochs.  ``F_{s_max}`` is the round-robin ``(n, n)``-SSF.
* When a node first receives the message it waits, for each ``s``, until
  ``F_s`` cycles back to its first set, then participates in **exactly
  one** complete iteration of ``F_s``, transmitting whenever its id is in
  the scheduled set.  Participating only once bounds the interval during
  which an already-useless node can interfere — the crux of the paper's
  amortisation argument (and our ablation knob).

The global round counter the schedule needs is available WLOG (footnote 1:
the source stamps messages with its local counter and nodes adopt it); our
engine simply exposes the global round number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.ssf import (
    SSFBuilder,
    SelectiveFamily,
    random_ssf,
    round_robin_family,
)
from repro.sim.messages import Message
from repro.sim.process import Process, ProcessContext


def default_s_max(n: int) -> int:
    """The paper's ``s_max = log₂ √(n / log n)``, generalised to all n.

    The paper assumes ``√(n/log n)`` is a power of two; we round down and
    clamp to at least 1 (for small ``n`` the algorithm then degenerates to
    pure round robin, which is correct and within the bound).
    """
    if n < 2:
        return 1
    ratio = n / max(1.0, math.log2(n))
    return max(1, int(math.floor(math.log2(math.sqrt(ratio)))))


@dataclass(frozen=True)
class StrongSelectSchedule:
    """The shared deterministic schedule: families plus round geometry.

    All processes of one algorithm instance must share one schedule (the
    algorithm is deterministic; the families are part of its code).

    Attributes:
        n: Number of processes.
        s_max: Number of SSF levels.
        families: ``families[s-1]`` is the ``(n, 2^s)``-SSF ``F_s``;
            ``families[s_max-1]`` is the round-robin ``(n, n)``-SSF.
    """

    n: int
    s_max: int
    families: Tuple[SelectiveFamily, ...]

    def __deepcopy__(self, memo: object) -> "StrongSelectSchedule":
        # Immutable: process clones (lower-bound sandboxes) share it.
        return self

    @property
    def epoch_length(self) -> int:
        """Rounds per epoch: ``2^{s_max} − 1``."""
        return (1 << self.s_max) - 1

    def family(self, s: int) -> SelectiveFamily:
        """The SSF ``F_s`` (``1 ≤ s ≤ s_max``)."""
        return self.families[s - 1]

    def family_size(self, s: int) -> int:
        """``ℓ_s``, the number of sets in ``F_s``."""
        return len(self.families[s - 1])

    # ------------------------------------------------------------------
    # Round geometry
    # ------------------------------------------------------------------
    def level_of_round(self, r: int) -> Tuple[int, int]:
        """Map a global round to its SSF level and global position.

        Args:
            r: Global 1-based round number.

        Returns:
            ``(s, p)`` where ``s`` is the SSF level the round belongs to
            and ``p`` is the 0-based count of previous ``F_s`` rounds
            (the *position* of this round in the family-``s`` subsequence;
            the scheduled set is ``F_s[p mod ℓ_s]``).
        """
        if r < 1:
            raise ValueError(f"rounds are 1-based, got {r}")
        epoch_len = self.epoch_length
        epoch = (r - 1) // epoch_len  # 0-based epoch index
        q = (r - 1) % epoch_len + 1  # 1-based round within the epoch
        s = q.bit_length()  # floor(log2(q)) + 1
        j = q - (1 << (s - 1))  # 0-based index among the epoch's F_s rounds
        p = epoch * (1 << (s - 1)) + j
        return s, p

    def positions_before(self, s: int, t: int) -> int:
        """Number of ``F_s`` rounds among global rounds ``1 .. t``."""
        if t <= 0:
            return 0
        epoch_len = self.epoch_length
        full_epochs = t // epoch_len
        rem = t % epoch_len  # rounds 1..rem of a partial epoch
        per_epoch = 1 << (s - 1)
        first_q = per_epoch  # F_s occupies q in [2^{s-1}, 2^s - 1]
        in_partial = min(max(rem - first_q + 1, 0), per_epoch)
        return full_epochs * per_epoch + in_partial

    def participation_window(self, s: int, t: int) -> Tuple[int, int]:
        """Position window ``[start, end)`` for a node informed in round ``t``.

        The node waits for ``F_s`` to cycle back to its first set: the
        window starts at the first position ``≥`` (number of ``F_s``
        rounds already elapsed by round ``t``) that is a multiple of
        ``ℓ_s``, and spans one full iteration.
        """
        size = self.family_size(s)
        elapsed = self.positions_before(s, t)
        start = ((elapsed + size - 1) // size) * size
        return start, start + size

    # ------------------------------------------------------------------
    # Analysis quantities
    # ------------------------------------------------------------------
    def f_n(self) -> float:
        """The log factor ``f(n)``: max over levels of ``ℓ_s / k_s²``.

        The analysis defines ``f(n)`` as a function with ``ℓ_s ≤ k_s²·f(n)``
        for every family used; we compute it exactly from the built
        families.
        """
        return max(
            len(self.family(s)) / float((1 << s) ** 2)
            for s in range(1, self.s_max + 1)
        )

    def density_threshold(self) -> float:
        """The paper's ``ρ = 1 / (12·f(n)·2^{s_max})``."""
        return 1.0 / (12.0 * self.f_n() * (1 << self.s_max))

    def round_bound(self) -> int:
        """The guaranteed completion bound ``X = n / ρ`` (Theorem 10)."""
        return math.ceil(self.n / self.density_threshold())


def build_schedule(
    n: int,
    s_max: Optional[int] = None,
    ssf_builder: SSFBuilder = random_ssf,
) -> StrongSelectSchedule:
    """Construct the shared Strong Select schedule for ``n`` processes.

    Args:
        n: Number of processes.
        s_max: Override the number of levels (default: the paper's value).
        ssf_builder: How to build the intermediate ``(n, 2^s)``-SSFs — the
            seeded existential construction by default; pass
            :func:`~repro.core.ssf.kautz_singleton_ssf` for the fully
            constructive variant (costs an extra ``√log n``).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if s_max is None:
        s_max = default_s_max(n)
    # Intermediate families F_s are (n, 2^s)-SSFs, which need 2^s ≤ n;
    # clamp so an explicit s_max cannot overshoot the universe.
    max_levels = max(1, int(math.floor(math.log2(n))) + 1) if n > 1 else 1
    s_max = max(1, min(s_max, max_levels))
    families: List[SelectiveFamily] = []
    for s in range(1, s_max):
        families.append(ssf_builder(n, 1 << s))
    families.append(round_robin_family(n))
    return StrongSelectSchedule(n=n, s_max=s_max, families=tuple(families))


class StrongSelectProcess(Process):
    """One Strong Select automaton.

    Args:
        uid: Process identifier in ``{0, …, n−1}``.
        schedule: The shared schedule (build once per algorithm instance
            with :func:`build_schedule`).
        participate_once: The paper's rule — each node runs exactly one
            iteration of each family, then stops (nodes eventually fall
            silent).  Setting ``False`` gives the classical
            cycle-forever behaviour for the ablation benchmark.
    """

    def __init__(
        self,
        uid: int,
        schedule: StrongSelectSchedule,
        participate_once: bool = True,
    ) -> None:
        super().__init__(uid)
        if not 0 <= uid < schedule.n:
            raise ValueError(
                f"uid {uid} outside the schedule universe [0, {schedule.n})"
            )
        self.schedule = schedule
        self.participate_once = participate_once
        self._windows: Optional[Dict[int, Tuple[int, int]]] = None

    def _ensure_windows(self) -> None:
        """Fix the per-level participation windows once informed."""
        if self._windows is not None or self.first_message_round is None:
            return
        t = self.first_message_round
        self._windows = {
            s: self.schedule.participation_window(s, t)
            for s in range(1, self.schedule.s_max + 1)
        }

    def decide_send(self, ctx: ProcessContext) -> Optional[Message]:
        if not self.has_message:
            return None
        self._ensure_windows()
        assert self._windows is not None
        s, p = self.schedule.level_of_round(ctx.round_number)
        start, end = self._windows[s]
        if p < start:
            return None  # still waiting for the family to cycle back
        if self.participate_once and p >= end:
            return None  # already did our one iteration of F_s
        fam = self.schedule.family(s)
        if self.uid in fam[p % len(fam)]:
            return self.outgoing(ctx, level=s, position=p)
        return None


def make_strong_select_processes(
    n: int,
    s_max: Optional[int] = None,
    ssf_builder: SSFBuilder = random_ssf,
    participate_once: bool = True,
) -> List[StrongSelectProcess]:
    """Build the full process collection sharing one schedule."""
    schedule = build_schedule(n, s_max=s_max, ssf_builder=ssf_builder)
    return [
        StrongSelectProcess(
            uid, schedule, participate_once=participate_once
        )
        for uid in range(n)
    ]
