"""Scripted and replay adversaries.

Two uses:

* **Replay** — re-run an execution's adversary choices against the same
  (or a different) algorithm: :class:`ReplayAdversary` takes the
  per-round unreliable deliveries and CR4 resolutions recorded in a
  trace and repeats them verbatim.  Replaying a trace against the same
  seeded algorithm must reproduce it exactly (tested), which makes
  recorded executions self-certifying artifacts.
* **Hand-written scripts** — lower-bound explorations often need "in
  round 7, deliver exactly these edges": :class:`ScriptedDeliveries`
  takes a round-indexed table.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence

from repro.adversaries.base import Adversary, AdversaryView
from repro.sim.messages import Message, ReceptionKind
from repro.sim.trace import ExecutionTrace


class ScriptedDeliveries(Adversary):
    """Delivers unreliable edges per a fixed round-indexed table.

    Args:
        script: ``script[round][sender] = iterable of targets``.  Rounds
            or senders missing from the table get no deliveries.  Targets
            that are not legal for the round's actual senders raise at
            run time (the engine validates), surfacing script/algorithm
            mismatches instead of silently ignoring them.
        proc_mapping: Optional fixed node → uid assignment.
    """

    def __init__(
        self,
        script: Mapping[int, Mapping[int, Sequence[int]]],
        proc_mapping: Optional[Mapping[int, int]] = None,
    ) -> None:
        self._script = {
            rnd: {s: frozenset(ts) for s, ts in row.items()}
            for rnd, row in script.items()
        }
        self._proc_mapping = (
            dict(proc_mapping) if proc_mapping is not None else None
        )

    def assign_processes(self, network, uids):
        if self._proc_mapping is None:
            return super().assign_processes(network, uids)
        return dict(self._proc_mapping)

    def choose_deliveries(
        self, view: AdversaryView
    ) -> Dict[int, FrozenSet[int]]:
        row = self._script.get(view.round_number, {})
        return {
            sender: targets
            for sender, targets in row.items()
            if sender in view.senders
        }


class ReplayAdversary(Adversary):
    """Replays the adversary choices recorded in an execution trace.

    The recorded node → uid assignment is reused.  Deliveries are
    replayed per round (senders absent in the new execution are
    dropped); CR4 resolutions are replayed by matching the
    recorded reception at each node — silence stays silence, a delivered
    message is re-delivered when the same sender transmits again.

    Args:
        trace: The recorded execution (must carry receptions if CR4
            resolutions should be replayed; deliveries alone need only
            the default records).
        strict: Treat divergence from the recorded execution as an
            error: a recorded CR4 message reception whose sender's
            message is *not* among the new execution's arrivals raises
            instead of silently resolving to silence.  The default
            (lenient) behaviour supports replaying against a different
            algorithm; strict mode is what replay *certification* wants
            — same algorithm, same seed, any mismatch is a bug
            (:func:`repro.search.evaluate.verify_replay` relies on it).
    """

    def __init__(
        self,
        trace: ExecutionTrace,
        strict: bool = False,
    ) -> None:
        self._deliveries: Dict[int, Dict[int, FrozenSet[int]]] = {
            rec.round_number: dict(rec.unreliable_deliveries)
            for rec in trace.rounds
        }
        self._receptions = {
            rec.round_number: rec.receptions for rec in trace.rounds
        }
        self._proc = dict(trace.proc)
        self._strict = strict

    def assign_processes(self, network, uids):
        if sorted(self._proc.values()) != sorted(uids):
            raise ValueError(
                "recorded proc mapping does not cover the uid set"
            )
        return dict(self._proc)

    def choose_deliveries(
        self, view: AdversaryView
    ) -> Dict[int, FrozenSet[int]]:
        row = self._deliveries.get(view.round_number, {})
        return {
            sender: targets
            for sender, targets in row.items()
            if sender in view.senders
        }

    def resolve_cr4(
        self, view: AdversaryView, node: int, arrivals: List[Message]
    ) -> Optional[Message]:
        receptions = self._receptions.get(view.round_number)
        if not receptions or node not in receptions:
            return None
        recorded = receptions[node]
        if recorded.kind is not ReceptionKind.MESSAGE:
            return None
        assert recorded.message is not None
        for msg in arrivals:
            if msg.sender == recorded.message.sender:
                return msg
        if self._strict:
            raise ValueError(
                f"replay diverged: round {view.round_number} recorded a "
                f"CR4 delivery from sender {recorded.message.sender} at "
                f"node {node}, but no such message arrived"
            )
        return None
