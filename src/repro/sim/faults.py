"""Deterministic fault injection: crash, recovery and late join.

The paper's adversary controls unreliable *edges* of the dual graph;
real radio deployments also lose and regain *nodes*.  This module adds
that axis as data: a :class:`ChurnSchedule` is a frozen, validated
description of per-round crash and recovery events (plus nodes that
are down from the start — late joiners), applied identically by both
engines (reference and fast bitmask) at the top of each round, before
any process decides to send.

Semantics (enforced by the engines and re-checked by
:func:`repro.sim.validation.validate_execution`):

* A **crashed** node contributes nothing: it never transmits, it is
  removed from the active set, every message that reaches its position
  dissolves (the node observes nothing and is recorded as hearing
  silence when receptions are recorded), and it cannot be woken by a
  message under asynchronous start.
* A **recovery** rejoins the node under the schedule's ``rejoin``
  policy.  ``"uninformed"`` models volatile memory: the crash already
  wiped the process's payload custody (the trace's ``informed_round``
  entry reverts to ``None`` and the node must be informed again), and
  the rejoined process restarts through
  :meth:`~repro.sim.process.Process.on_activate` (under synchronous
  start immediately; under asynchronous start it sleeps until a
  message wakes it, the model's normal wake rule).  ``"informed"``
  models stable storage: the node keeps its payload and automaton
  state across the outage and, if it was active when it crashed,
  resumes exactly where it stopped.
* **Late join** is an initially-down node plus a recovery event — the
  node simply does not exist until its recovery round.

Everything is deterministic: a schedule is plain data, and the
rate-driven generator :func:`generate_churn` draws every coin from one
``random.Random`` seeded from the run's own seed (namespaced so the
churn stream never correlates with the adversary's or the processes'
streams).  ``tests/test_faults.py`` and the golden records fail when
that seed is a constant or the stream is not seeded at all.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.graphs.dualgraph import DualGraph

#: Recognised rejoin policies (see the module docstring).
REJOIN_POLICIES = ("uninformed", "informed")


def _freeze_events(
    events: Mapping[int, Iterable[int]], label: str
) -> Dict[int, Tuple[int, ...]]:
    """Sorted, duplicate-checked copy of a round → nodes event table."""
    out: Dict[int, Tuple[int, ...]] = {}
    for rnd in sorted(events):
        nodes = tuple(sorted(events[rnd]))
        if not nodes:
            continue
        if not isinstance(rnd, int) or rnd < 1:
            raise ValueError(
                f"{label} round {rnd!r} is not a positive integer "
                "(events take effect at the top of round 1, 2, …)"
            )
        if len(set(nodes)) != len(nodes):
            raise ValueError(
                f"duplicate nodes in {label} event at round {rnd}: "
                f"{list(nodes)}"
            )
        out[rnd] = nodes
    return out


@dataclass(frozen=True)
class ChurnSchedule:
    """A validated, immutable crash/recovery plan for one execution.

    Attributes:
        crashes: ``round → nodes`` crashing at the top of that round
            (before the round's send decisions).
        recoveries: ``round → nodes`` recovering at the top of that
            round; a node recovering at round ``r`` participates in
            round ``r``.  Within one round crashes apply first, but a
            single node may not crash *and* recover in the same round.
        initial_down: Nodes that are down before round 1 (late
            joiners; they come up via a recovery event, or never).
        rejoin: ``"uninformed"`` (volatile memory — the default, and
            the adversarially stronger policy) or ``"informed"``
            (stable storage).  See the module docstring.

    Construction validates the event state machine: a crash requires
    the node to be up, a recovery requires it to be down, so a
    schedule that constructs is always applicable from round 1.
    """

    crashes: Mapping[int, Tuple[int, ...]] = field(default_factory=dict)
    recoveries: Mapping[int, Tuple[int, ...]] = field(
        default_factory=dict
    )
    initial_down: Tuple[int, ...] = ()
    rejoin: str = "uninformed"

    def __post_init__(self) -> None:
        if self.rejoin not in REJOIN_POLICIES:
            raise ValueError(
                f"unknown rejoin policy {self.rejoin!r}; "
                f"known: {list(REJOIN_POLICIES)}"
            )
        crashes = _freeze_events(self.crashes, "crash")
        recoveries = _freeze_events(self.recoveries, "recovery")
        down = sorted(set(self.initial_down))
        if len(down) != len(tuple(self.initial_down)):
            raise ValueError(
                f"duplicate nodes in initial_down: "
                f"{sorted(self.initial_down)}"
            )
        object.__setattr__(self, "crashes", crashes)
        object.__setattr__(self, "recoveries", recoveries)
        object.__setattr__(self, "initial_down", tuple(down))
        # Replay the event sequence: every event must be legal from
        # the state the previous events left behind.
        state = set(down)
        for rnd in sorted(set(crashes) | set(recoveries)):
            crashed = crashes.get(rnd, ())
            recovered = recoveries.get(rnd, ())
            overlap = set(crashed) & set(recovered)
            if overlap:
                raise ValueError(
                    f"node(s) {sorted(overlap)} both crash and recover "
                    f"in round {rnd}"
                )
            for node in crashed:
                if node in state:
                    raise ValueError(
                        f"crash of node {node} in round {rnd}: "
                        "node is already down"
                    )
                state.add(node)
            for node in recovered:
                if node not in state:
                    raise ValueError(
                        f"recovery of node {node} in round {rnd}: "
                        "node is not down"
                    )
                state.discard(node)

    def nodes_touched(self) -> Tuple[int, ...]:
        """Every node any event of the schedule mentions, sorted."""
        touched = set(self.initial_down)
        for nodes in self.crashes.values():
            touched.update(nodes)
        for nodes in self.recoveries.values():
            touched.update(nodes)
        return tuple(sorted(touched))

    def validate_for(self, network: DualGraph) -> None:
        """Check the schedule is applicable to ``network``.

        Every event node must exist, and the source must not start
        down — the broadcast payload is handed to a live source before
        round 1 (the source may still crash mid-run; with the
        uninformed policy it then loses the payload until a neighbour
        re-informs it).
        """
        touched = self.nodes_touched()
        bad = [v for v in touched if not 0 <= v < network.n]
        if bad:
            raise ValueError(
                f"churn schedule names node(s) {bad} outside the "
                f"network's node range 0..{network.n - 1}"
            )
        if network.source in self.initial_down:
            raise ValueError(
                f"churn schedule starts source node {network.source} "
                "down; the broadcast input needs a live source before "
                "round 1"
            )

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable form (see :meth:`from_dict`)."""
        doc: Dict[str, object] = {"rejoin": self.rejoin}
        if self.crashes:
            doc["crashes"] = {
                str(rnd): list(nodes)
                for rnd, nodes in sorted(self.crashes.items())
            }
        if self.recoveries:
            doc["recoveries"] = {
                str(rnd): list(nodes)
                for rnd, nodes in sorted(self.recoveries.items())
            }
        if self.initial_down:
            doc["initial_down"] = list(self.initial_down)
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "ChurnSchedule":
        """Rebuild a schedule from its :meth:`to_dict` form."""
        return cls(
            crashes={
                int(rnd): tuple(nodes)
                for rnd, nodes in dict(
                    doc.get("crashes", {})  # type: ignore[arg-type]
                ).items()
            },
            recoveries={
                int(rnd): tuple(nodes)
                for rnd, nodes in dict(
                    doc.get("recoveries", {})  # type: ignore[arg-type]
                ).items()
            },
            initial_down=tuple(doc.get("initial_down", ())),  # type: ignore[arg-type]
            rejoin=str(doc.get("rejoin", "uninformed")),
        )


def generate_churn(
    n: int,
    rounds: int,
    crash_rate: float = 0.02,
    recover_rate: float = 0.2,
    seed: int = 0,
    rejoin: str = "uninformed",
    protect: Iterable[int] = (0,),
) -> ChurnSchedule:
    """A rate-driven random schedule, deterministic in its arguments.

    Each round, every currently-up unprotected node crashes with
    probability ``crash_rate`` and every currently-down node recovers
    with probability ``recover_rate``; coins are drawn in (round, node)
    order from one ``random.Random`` namespaced off ``seed``, so the
    schedule is a pure function of the arguments and never correlates
    with the adversary's or the processes' streams (which derive from
    the same run seed under different namespaces).

    Args:
        n: Node count of the target network.
        rounds: Horizon to generate events for (usually the run's
            ``max_rounds``).
        crash_rate: Per-round per-node crash probability in [0, 1]
            (default 0.02 — the ``repro run --crash-rate`` default).
        recover_rate: Per-round per-node recovery probability in [0, 1]
            (default 0.2, likewise mirroring the CLI).
        seed: The run's seed; the churn stream derives from it.
        rejoin: Rejoin policy for the schedule.
        protect: Nodes exempt from crashing (default: node 0, the
            conventional source).
    """
    if not 0.0 <= crash_rate <= 1.0 or not 0.0 <= recover_rate <= 1.0:
        raise ValueError(
            f"rates must lie in [0, 1]; got crash_rate={crash_rate}, "
            f"recover_rate={recover_rate}"
        )
    rng = random.Random(f"churn:{seed}")
    protected = frozenset(protect)
    down: set = set()
    crashes: Dict[int, List[int]] = {}
    recoveries: Dict[int, List[int]] = {}
    for rnd in range(1, rounds + 1):
        for node in range(n):
            if node in down:
                if rng.random() < recover_rate:
                    recoveries.setdefault(rnd, []).append(node)
                    down.discard(node)
            elif node not in protected:
                if rng.random() < crash_rate:
                    crashes.setdefault(rnd, []).append(node)
                    down.add(node)
    return ChurnSchedule(
        crashes={r: tuple(v) for r, v in crashes.items()},
        recoveries={r: tuple(v) for r, v in recoveries.items()},
        rejoin=rejoin,
    )


def window_churn(
    n: int,
    count: int,
    start: int,
    length: int,
    rejoin: str = "uninformed",
    protect: Iterable[int] = (0,),
) -> ChurnSchedule:
    """A fixed outage window: the ``count`` highest-numbered
    unprotected nodes crash at round ``start`` and recover together at
    round ``start + length`` — no randomness at all, the shape CI
    smoke sweeps and worst-case explorations want.
    """
    if count < 0 or start < 1 or length < 1:
        raise ValueError(
            f"need count >= 0, start >= 1, length >= 1; got "
            f"count={count}, start={start}, length={length}"
        )
    protected = frozenset(protect)
    victims = [v for v in range(n - 1, -1, -1) if v not in protected]
    victims = sorted(victims[:count])
    if not victims:
        return ChurnSchedule(rejoin=rejoin)
    return ChurnSchedule(
        crashes={start: tuple(victims)},
        recoveries={start + length: tuple(victims)},
        rejoin=rejoin,
    )
