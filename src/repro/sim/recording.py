"""Trace serialization: save executions as JSON and load them back.

Recorded executions are experiment artifacts: together with
:class:`~repro.adversaries.scripted.ReplayAdversary` a saved trace can be
re-run and re-validated later (or on another machine), making results
self-certifying.  The format is plain JSON, one document per trace.

Payloads and message contents must be JSON-representable (the default
string payload is); ``meta`` dictionaries are preserved as-is.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from repro.sim.messages import (
    COLLISION,
    Message,
    Reception,
    ReceptionKind,
    SILENCE,
    received,
)
from repro.sim.trace import ExecutionTrace, RoundRecord

FORMAT_VERSION = 1


def _message_to_json(msg: Message) -> dict:
    return {
        "payload": msg.payload,
        "sender": msg.sender,
        "round_sent": msg.round_sent,
        "meta": msg.meta,
    }


def _message_from_json(doc: dict) -> Message:
    return Message(
        payload=doc["payload"],
        sender=doc["sender"],
        round_sent=doc["round_sent"],
        meta=dict(doc.get("meta", {})),
    )


def _reception_to_json(rec: Reception) -> dict:
    out: dict = {"kind": rec.kind.value}
    if rec.message is not None:
        out["message"] = _message_to_json(rec.message)
    return out


def _reception_from_json(doc: dict) -> Reception:
    kind = ReceptionKind(doc["kind"])
    if kind is ReceptionKind.MESSAGE:
        return received(_message_from_json(doc["message"]))
    return SILENCE if kind is ReceptionKind.SILENCE else COLLISION


def trace_to_json(trace: ExecutionTrace) -> str:
    """Serialise a trace (with or without recorded receptions)."""
    rounds = []
    for rec in trace.rounds:
        doc: dict = {
            "round": rec.round_number,
            "senders": {
                str(v): _message_to_json(m) for v, m in rec.senders.items()
            },
            "deliveries": {
                str(v): sorted(ts)
                for v, ts in rec.unreliable_deliveries.items()
            },
            "newly_informed": list(rec.newly_informed),
            "newly_active": list(rec.newly_active),
        }
        if rec.receptions is not None:
            doc["receptions"] = {
                str(v): _reception_to_json(r)
                for v, r in rec.receptions.items()
            }
        # Fault-injection events are emitted only when present, so
        # failure-free traces stay byte-identical to earlier versions
        # (and FORMAT_VERSION holds).
        if rec.crashed:
            doc["crashed"] = list(rec.crashed)
        if rec.recovered:
            doc["recovered"] = list(rec.recovered)
        rounds.append(doc)
    return json.dumps(
        {
            "format_version": FORMAT_VERSION,
            "network": trace.network_name,
            "n": trace.n,
            "proc": {str(v): uid for v, uid in trace.proc.items()},
            "completed": trace.completed,
            "informed_round": {
                str(v): r for v, r in trace.informed_round.items()
            },
            "rounds": rounds,
        }
    )


def trace_from_json(text: str) -> ExecutionTrace:
    """Load a trace serialised by :func:`trace_to_json`."""
    doc = json.loads(text)
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported trace format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    trace = ExecutionTrace(
        network_name=doc["network"],
        n=doc["n"],
        proc={int(v): uid for v, uid in doc["proc"].items()},
        completed=doc["completed"],
        informed_round={
            int(v): r for v, r in doc["informed_round"].items()
        },
    )
    for rec_doc in doc["rounds"]:
        receptions: Optional[Dict[int, Reception]] = None
        if "receptions" in rec_doc:
            receptions = {
                int(v): _reception_from_json(r)
                for v, r in rec_doc["receptions"].items()
            }
        trace.rounds.append(
            RoundRecord(
                round_number=rec_doc["round"],
                senders={
                    int(v): _message_from_json(m)
                    for v, m in rec_doc["senders"].items()
                },
                unreliable_deliveries={
                    int(v): frozenset(ts)
                    for v, ts in rec_doc["deliveries"].items()
                },
                newly_informed=tuple(rec_doc["newly_informed"]),
                newly_active=tuple(rec_doc["newly_active"]),
                receptions=receptions,
                crashed=tuple(rec_doc.get("crashed", ())),
                recovered=tuple(rec_doc.get("recovered", ())),
            )
        )
    return trace

