"""Independent validation of execution traces against the model.

The engine *produces* executions; this module *re-derives* what every
node must have observed from the recorded senders and adversary choices,
and checks the recorded receptions and bookkeeping against the Section
2.1 semantics.  It shares no code with the engine's resolution path on
purpose — it is the semantic double-entry bookkeeping used by tests (and
available to users who write their own adversaries and want the model's
guarantees checked).

Fault injection is part of the contract: pass the execution's
:class:`~repro.sim.faults.ChurnSchedule` and the validator replays the
crash/recovery state machine independently — crashed nodes must never
transmit, wake, or be informed, their recorded receptions must be
silence, the per-round crash/recovery records must match the schedule,
and (under the ``"uninformed"`` rejoin policy) payload custody must be
re-earned after every crash.  A trace that records churn events without
a schedule to check them against is rejected outright.

It reads the payload value (:data:`~repro.sim.messages.PAYLOAD`) but
spells out its own custody comparison rather than calling the drivers'
:func:`~repro.sim.messages.carries_payload`.

Requires traces recorded with ``record_receptions=True``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.graphs.dualgraph import DualGraph
from repro.sim.collision import CollisionRule
from repro.sim.engine import StartMode
from repro.sim.faults import ChurnSchedule
from repro.sim.messages import PAYLOAD
from repro.sim.trace import ExecutionTrace


def validate_execution(
    trace: ExecutionTrace,
    network: DualGraph,
    collision_rule: CollisionRule,
    start_mode: StartMode,
    churn: Optional[ChurnSchedule] = None,
) -> List[str]:
    """Check a recorded execution against the model semantics.

    Args:
        trace: The execution to validate (with recorded receptions).
        network: The dual graph the execution ran on.
        collision_rule: The collision rule in force.
        start_mode: The start rule in force.
        churn: The fault-injection schedule the execution ran under,
            if any; required whenever the trace records crash or
            recovery events.

    Returns a list of human-readable violations; an empty list means the
    execution is consistent with the dual graph model under the given
    collision rule, start mode and churn schedule.
    """
    violations: List[str] = []

    def flag(round_number: int, text: str) -> None:
        violations.append(f"round {round_number}: {text}")

    if trace.n != network.n:
        return [f"trace has n={trace.n}, network has n={network.n}"]

    informed: Set[int] = {network.source}
    #: What informed_round must show at the end of the trace; with
    #: churn, a node's entry may revert to None (uninformed crash) and
    #: be re-earned, so the check runs once at the end of the pass.
    expected_informed: Dict[int, Optional[int]] = {network.source: 0}
    if churn is None and trace.informed_round.get(network.source) != 0:
        violations.append("source not informed at round 0")
    active: Set[int] = (
        set(network.nodes)
        if start_mode is StartMode.SYNCHRONOUS
        else {network.source}
    )
    crashed: Set[int] = set()
    was_active_at_crash: Dict[int, bool] = {}
    rejoin = churn.rejoin if churn is not None else "uninformed"
    if churn is not None:
        crashed.update(churn.initial_down)
        active -= set(churn.initial_down)

    for record in trace.rounds:
        rnd = record.round_number
        if record.receptions is None:
            return [f"round {rnd}: trace lacks recorded receptions"]

        # 0. Fault injection: the recorded events must match the
        # schedule exactly, and the validator replays their effect on
        # its own active/informed bookkeeping.
        if churn is None:
            if record.crashed or record.recovered:
                return [
                    f"round {rnd}: trace records churn events but no "
                    "schedule was provided to validate them against"
                ]
        else:
            if tuple(record.crashed) != churn.crashes.get(rnd, ()):
                flag(
                    rnd,
                    f"recorded crashes {list(record.crashed)} disagree "
                    f"with the schedule "
                    f"{list(churn.crashes.get(rnd, ()))}",
                )
            if tuple(record.recovered) != churn.recoveries.get(rnd, ()):
                flag(
                    rnd,
                    f"recorded recoveries {list(record.recovered)} "
                    f"disagree with the schedule "
                    f"{list(churn.recoveries.get(rnd, ()))}",
                )
            for v in record.crashed:
                was_active_at_crash[v] = v in active
                active.discard(v)
                crashed.add(v)
                if rejoin == "uninformed" and v in informed:
                    informed.discard(v)
                    expected_informed[v] = None
            for v in record.recovered:
                crashed.discard(v)
                was = was_active_at_crash.pop(v, False)
                if (rejoin == "informed" and was) or (
                    start_mode is StartMode.SYNCHRONOUS
                ):
                    active.add(v)
                # Asynchronous uninformed rejoin: the node sleeps until
                # a message wakes it (the model's normal wake rule).

        # 1. Senders must be active (and in particular not crashed).
        for sender in record.senders:
            if sender in crashed:
                flag(rnd, f"crashed node {sender} transmitted")
            elif sender not in active:
                flag(rnd, f"sleeping node {sender} transmitted")

        # 2. Adversary deliveries must be legal.
        for sender, targets in record.unreliable_deliveries.items():
            if sender not in record.senders:
                flag(rnd, f"delivery for non-sender {sender}")
                continue
            illegal = set(targets) - set(
                network.unreliable_only_out(sender)
            )
            if illegal:
                flag(
                    rnd,
                    f"illegal unreliable targets {sorted(illegal)} "
                    f"from {sender}",
                )

        # 3. Recompute arrivals.
        arrivals = {v: [] for v in network.nodes}
        for sender, msg in record.senders.items():
            arrivals[sender].append(msg)
            for t in network.reliable_out(sender):
                arrivals[t].append(msg)
            for t in record.unreliable_deliveries.get(sender, ()):
                arrivals[t].append(msg)

        # 4. Check each node's reception.
        for v in network.nodes:
            rec = record.receptions[v]
            if v in crashed:
                # A crashed radio hears nothing, whatever arrives.
                if not rec.is_silence:
                    flag(
                        rnd,
                        f"crashed node {v} observed {rec.kind.value}",
                    )
                continue
            is_sender = v in record.senders
            n_arr = len(arrivals[v])
            if is_sender:
                if collision_rule.sender_hears_own_message:
                    if not rec.is_message or rec.message != record.senders[v]:
                        flag(rnd, f"sender {v} did not hear its own message")
                else:  # CR1
                    if n_arr >= 2 and not rec.is_collision:
                        flag(rnd, f"CR1 sender {v} missed its collision")
                    if n_arr == 1 and not (
                        rec.is_message and rec.message == record.senders[v]
                    ):
                        flag(rnd, f"lone CR1 sender {v} wrong reception")
                continue
            if v not in active:
                # Sleeping node: it may only appear via activation, which
                # requires a message reception this round.
                if v in record.newly_active:
                    if not rec.is_message:
                        flag(rnd, f"node {v} woke without a message")
                continue
            if n_arr == 0:
                if not rec.is_silence:
                    flag(rnd, f"node {v} heard {rec.kind} with no arrivals")
            elif n_arr == 1:
                if not rec.is_message or rec.message != arrivals[v][0]:
                    flag(rnd, f"node {v} missed its lone arrival")
            else:
                if collision_rule in (CollisionRule.CR1, CollisionRule.CR2):
                    if not rec.is_collision:
                        flag(rnd, f"node {v} missed collision notification")
                elif collision_rule is CollisionRule.CR3:
                    if not rec.is_silence:
                        flag(rnd, f"CR3 node {v} should hear silence")
                else:  # CR4
                    if rec.is_collision:
                        flag(rnd, f"CR4 node {v} got collision notification")
                    if rec.is_message and rec.message not in arrivals[v]:
                        flag(
                            rnd,
                            f"CR4 delivered a non-arriving message to {v}",
                        )

        # 5. Activation and custody bookkeeping.
        for v in record.newly_active:
            if v in crashed:
                flag(rnd, f"crashed node {v} woke")
                continue
            if v in active:
                flag(rnd, f"node {v} activated twice")
            active.add(v)
        for v in record.newly_informed:
            if v in crashed:
                flag(rnd, f"crashed node {v} marked informed")
                continue
            if v in informed:
                flag(rnd, f"node {v} informed twice")
            rec = record.receptions[v]
            carries = (
                rec.is_message
                and rec.message is not None
                and rec.message.payload == PAYLOAD
            )
            if not carries:
                flag(rnd, f"node {v} marked informed without the payload")
            if churn is None and trace.informed_round.get(v) != rnd:
                flag(rnd, f"informed_round[{v}] disagrees with the record")
            expected_informed[v] = rnd
            informed.add(v)

    # 6. informed_round bookkeeping under churn: entries may legally
    # revert (uninformed crashes) and be re-earned, so the final values
    # are compared once against the replayed custody history.
    if churn is not None:
        for v in network.nodes:
            expected = expected_informed.get(v)
            got = trace.informed_round.get(v)
            if got != expected:
                violations.append(
                    f"informed_round[{v}] is {got}, expected {expected} "
                    "from the replayed crash/custody history"
                )

    # 7. Completion claim.
    if trace.completed and len(informed) != network.n:
        violations.append(
            "trace claims completion but some node was never informed"
        )
    return violations
