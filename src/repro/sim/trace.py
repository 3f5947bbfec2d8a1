"""Execution traces: per-round records plus the queries the paper's
analysis needs (completion rounds, isolation events, interval density).

The density of an interval (Section 5, equation (1)) is::

    den(r, r') = (# nodes first informed during [r, r']) / (r' - r + 1)

and drives the amortisation argument behind Strong Select's bound.  The
trace also exposes *isolation* rounds (exactly one sender network-wide),
which both lower-bound constructions and the Harmonic analysis reason
about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.sim.messages import Message, Reception


@dataclass(frozen=True)
class RoundRecord:
    """Everything that happened in one round.

    Attributes:
        round_number: 1-based round index.
        senders: Sending nodes and their messages.
        unreliable_deliveries: For each sender, the unreliable-only
            out-neighbours the adversary chose to reach.
        newly_informed: Nodes whose process first obtained the broadcast
            payload this round.
        newly_active: Nodes whose process woke up this round (asynchronous
            start only; empty under synchronous start).
        receptions: Per-node observations; populated only when the engine
            records detailed traces.
        crashed: Nodes taken down by fault injection at the top of this
            round (empty in failure-free runs).
        recovered: Nodes brought back up by fault injection at the top
            of this round (empty in failure-free runs).
    """

    round_number: int
    senders: Mapping[int, Message]
    unreliable_deliveries: Mapping[int, FrozenSet[int]]
    newly_informed: Tuple[int, ...]
    newly_active: Tuple[int, ...]
    receptions: Optional[Mapping[int, Reception]] = None
    crashed: Tuple[int, ...] = ()
    recovered: Tuple[int, ...] = ()

    @property
    def num_senders(self) -> int:
        return len(self.senders)

    @property
    def is_isolation(self) -> bool:
        """Whether exactly one process transmitted network-wide."""
        return len(self.senders) == 1


@dataclass
class ExecutionTrace:
    """The full record of one execution.

    Attributes:
        network_name: Label of the network the execution ran on.
        n: Number of nodes.
        proc: The node → process-uid assignment used.
        rounds: One record per executed round.
        informed_round: For each node, the round its process first obtained
            the payload (0 for the source; ``None`` if never informed).
        completed: Whether every process obtained the payload.
    """

    network_name: str
    n: int
    proc: Mapping[int, int]
    rounds: List[RoundRecord] = field(default_factory=list)
    informed_round: Dict[int, Optional[int]] = field(default_factory=dict)
    completed: bool = False

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def num_rounds(self) -> int:
        """Number of rounds executed."""
        return len(self.rounds)

    @property
    def completion_round(self) -> Optional[int]:
        """The round by which every process held the payload, or ``None``."""
        if not self.completed:
            return None
        return max((r or 0) for r in self.informed_round.values())

    def isolation_rounds(self) -> List[int]:
        """Rounds in which exactly one process transmitted."""
        return [rec.round_number for rec in self.rounds if rec.is_isolation]

    def sender_counts(self) -> List[int]:
        """Per-round number of transmitting processes."""
        return [rec.num_senders for rec in self.rounds]

    # ------------------------------------------------------------------
    # Paper-specific queries
    # ------------------------------------------------------------------
    def density(self, r: int, r_prime: int) -> float:
        """The interval density ``den(r, r')`` of Section 5, equation (1).

        Args:
            r: Interval start (1-based, inclusive).
            r_prime: Interval end (inclusive, ``r_prime >= r``).
        """
        if r_prime < r or r < 1:
            raise ValueError(f"invalid interval [{r}, {r_prime}]")
        count = sum(
            1
            for v, t in self.informed_round.items()
            if t is not None and r <= t <= r_prime
        )
        return count / (r_prime - r + 1)

    # ------------------------------------------------------------------
    # Serialization (for experiment artifacts)
    # ------------------------------------------------------------------
    def summary(self) -> Dict:
        """A compact JSON-serialisable summary of the execution."""
        doc = {
            "network": self.network_name,
            "n": self.n,
            "rounds": self.num_rounds,
            "completed": self.completed,
            "completion_round": self.completion_round,
            "isolation_rounds": len(self.isolation_rounds()),
            "total_transmissions": sum(self.sender_counts()),
        }
        # Emitted only when fault injection actually fired, so
        # failure-free summaries keep their exact pre-churn form.
        crash_events = sum(len(r.crashed) for r in self.rounds)
        recovery_events = sum(len(r.recovered) for r in self.rounds)
        if crash_events or recovery_events:
            doc["crash_events"] = crash_events
            doc["recovery_events"] = recovery_events
        return doc
