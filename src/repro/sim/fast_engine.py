"""Bitmask fast-path engine for sweep workloads.

:class:`FastBroadcastEngine` executes the exact Section 2.1 round
semantics of :class:`~repro.sim.engine.BroadcastEngine` — it is a
drop-in subclass producing **bit-identical traces** (the differential
harness in ``tests/test_fast_engine_equivalence.py`` asserts this seed
for seed) — but resolves each round with Python-int set algebra instead
of per-node message lists:

* Node sets (active, reached, multiply-reached) are single Python ints
  with bit ``v`` standing for node ``v``; adjacency is precompiled to a
  per-node *self-plus-reliable-out* mask.
* One pass over the senders computes, with two masks, which nodes were
  reached at least once and which at least twice::

      reached_multi |= reached_once & reach(sender)
      reached_once  |= reach(sender)

  Under CR1–CR3 the reception at every node is a pure function of
  (sender?, arrival count 0/1/2+), so collisions and silence resolve by
  popcount-style mask tests without ever materialising an arrival list;
  only nodes with exactly one arrival need the actual
  :class:`~repro.sim.messages.Message`.
* Non-message receptions are inert by the
  :class:`~repro.sim.process.Process` contract (``deliver`` is final),
  so without reception recording the engine visits only the *reached*
  nodes each round instead of every active node.
* The per-message reference path is kept for the two places set algebra
  cannot express: CR4 collisions at non-senders whose adversary has a
  real resolver (it must be consulted with the full arrival list,
  reconstructed in the reference engine's exact order) and
  payload-identity custody tracking (which already operates on single
  delivered messages).  An adversary whose class keeps the base
  resolver (:attr:`~repro.adversaries.base.Adversary.cr4_always_silent`,
  inferred per class) is never consulted: its CR4 collisions at
  non-senders resolve to silence by mask test, as under CR3.  The
  reference engine still consults it.

Because the semantics are identical, the engines are interchangeable
for every collision rule and adversary:
:func:`repro.sim.engine.build_engine` dispatches on
``EngineConfig.engine`` and the experiments layer runs whichever engine
a task names.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.sim.collision import CollisionRule, resolve_reception
from repro.sim.engine import BroadcastEngine
from repro.sim.messages import COLLISION, Message, Reception, SILENCE, received
from repro.sim.process import Process, ProcessContext
from repro.sim.trace import RoundRecord


class FastBroadcastEngine(BroadcastEngine):
    """Bitmask drop-in for :class:`~repro.sim.engine.BroadcastEngine`.

    Constructor signature, public API, trace output, process-state
    evolution and adversary interaction are all identical to the
    reference engine; only the internal per-round resolution differs.
    See the module docstring for the algebra.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._bit: List[int] = self._topology.bit
        self._reach_mask: List[int] = self._topology.reach_mask
        # Maintained by the _insert_active/_deactivate overrides;
        # construction precedes _setup(), so no node is active yet.
        self._active_mask = 0
        # Crashed-node bitmask, maintained by the churn overrides.
        self._crashed_mask = 0
        # (node, process, context) for each active node, ascending node
        # order; rebuilt lazily after activations.
        self._triples: List[Tuple[int, Process, ProcessContext]] = []
        self._triples_dirty = True

    def _insert_active(self, node: int) -> None:
        self._active_mask |= self._bit[node]
        self._triples_dirty = True
        super()._insert_active(node)

    def _deactivate(self, node: int) -> None:
        self._active_mask &= ~self._bit[node]
        self._triples_dirty = True
        super()._deactivate(node)

    def _crash_node(self, node: int) -> None:
        super()._crash_node(node)
        self._crashed_mask |= self._bit[node]

    def _recover_node(self, node: int, rnd: int) -> None:
        super()._recover_node(node, rnd)
        self._crashed_mask &= ~self._bit[node]

    def _active_triples(self) -> List[Tuple[int, Process, ProcessContext]]:
        if self._triples_dirty:
            self._triples = [
                (v, self.process_at[v], self._contexts[v])
                for v in self._active_sorted
            ]
            self._triples_dirty = False
        return self._triples

    def _step(self) -> RoundRecord:
        self._round += 1
        rnd = self._round
        network = self.network
        recording = self.config.record_receptions
        rule = self.config.collision_rule
        bit = self._bit
        reach_mask = self._reach_mask
        contexts = self._contexts

        crashed_now, recovered_now = self._apply_churn(rnd)
        crashed_mask = self._crashed_mask

        # Phase 1: decisions.  Only active contexts advance here; a
        # sleeping process's context is observed solely at wake-up, so
        # its round counter is refreshed then (`wake` below).  Ascending
        # node order gives `senders` the insertion order the reference
        # engine guarantees.
        senders: Dict[int, Message] = {}
        for node, process, ctx in self._active_triples():
            ctx.round_number = rnd
            msg = process.decide_send(ctx)
            if msg is not None:
                senders[node] = msg

        # Phase 2: adversary (shared with the reference engine).
        view = self._adversary_view(rnd, senders)
        deliveries = self._validated_deliveries(view, senders)

        # Phase 3: arrival algebra.  After the pass, bit v of
        # reached_once means "some message reached v" and bit v of
        # reached_multi means "two or more messages reached v".
        reached_once = 0
        reached_multi = 0
        sender_reach: Dict[int, int] = {}
        for sender in senders:
            m = reach_mask[sender]
            targets = deliveries.get(sender)
            if targets:
                for t in targets:
                    m |= bit[t]
            sender_reach[sender] = m
            reached_multi |= reached_once & m
            reached_once |= m
        single = reached_once & ~reached_multi

        # Nodes with exactly one arrival are the only ones whose
        # reception carries a Message; one shared Reception per sender
        # serves all of that sender's unique receivers (receptions are
        # immutable value objects, so sharing is observationally
        # identical to the reference engine's fresh instances).
        unique_rec: Dict[int, Reception] = {}
        sender_rec: Dict[int, Reception] = {}
        if single:
            for sender, m in sender_reach.items():
                hits = m & single
                if not hits:
                    continue
                rec = received(senders[sender])
                sender_rec[sender] = rec
                while hits:
                    low = hits & -hits
                    unique_rec[low.bit_length() - 1] = rec
                    hits ^= low

        # Phase 4: resolution and delivery, ascending node order
        # (matching the reference engine's candidate ordering).  Without
        # recording, only reached nodes can change state: an unreached
        # node hears silence, which is inert (the Process contract).
        def cr4(node: int, msgs: List[Message]) -> Optional[Message]:
            return self.adversary.resolve_cr4(view, node, msgs)

        # Observability (reference-engine parity: one hoisted boolean
        # when off, per-visit tallies when on, nothing feeding trace
        # state).  Counters are implementation-level — the mask path
        # visits a different candidate set than the reference loop, so
        # per-engine totals are comparable only within an engine.
        telemetry = self._telemetry
        obs_on = telemetry.enabled
        obs_delivered = obs_collisions = obs_silences = 0
        obs_fallbacks = 0
        consults = [0]

        def counted_cr4(
            node: int, msgs: List[Message]
        ) -> Optional[Message]:
            consults[0] += 1
            return cr4(node, msgs)

        cr4_resolver = counted_cr4 if obs_on else cr4

        receptions: Optional[Dict[int, Reception]] = (
            {} if recording else None
        )
        newly_informed: List[int] = []
        newly_active: List[int] = []
        informed_round = self.trace.informed_round
        process_at = self.process_at
        deliver = self._deliver
        sender_msg = senders.get
        active_mask = self._active_mask
        cr1 = rule is CollisionRule.CR1
        collision_on_multi = rule.provides_collision_detection
        # CR4 silence is read off the adversary's class, where it is
        # inferred; no instance attribute can skip a real resolver.
        silence_on_multi = rule is CollisionRule.CR3 or (
            rule is CollisionRule.CR4
            and type(self.adversary).cr4_always_silent
        )

        if recording:
            # Every reception is recorded, so every node is visited.
            pending = (1 << network.n) - 1
        else:
            # Crashed radios hear nothing: their positions never need a
            # visit.
            pending = reached_once & ~crashed_mask

        while pending:
            low = pending & -pending
            node = low.bit_length() - 1
            pending ^= low
            b = low
            if crashed_mask & b:
                # Crashed radio: arrivals dissolve, recorded as silence,
                # never consulted for, never woken (reference parity).
                if receptions is not None:
                    receptions[node] = SILENCE
                continue
            if not reached_once & b:
                # Nothing reached the node (so it cannot have sent:
                # senders always reach themselves) — silence under
                # every collision rule.
                reception = SILENCE
            elif reached_multi & b:
                own = sender_msg(node)
                if own is not None:
                    if cr1:
                        reception = COLLISION
                    else:
                        reception = sender_rec.get(node)
                        if reception is None:
                            reception = received(own)
                            sender_rec[node] = reception
                elif collision_on_multi:  # CR1/CR2 non-sender
                    reception = COLLISION
                elif silence_on_multi:  # CR3, or CR4 with the base resolver
                    reception = SILENCE
                else:
                    # CR4 with a real adversary resolver: rebuild the
                    # arrival list in reference order (ascending sender
                    # node) and defer to the shared resolution path.
                    if obs_on:
                        obs_fallbacks += 1
                    arrivals = [
                        msg
                        for s, msg in senders.items()
                        if sender_reach[s] & b
                    ]
                    reception = resolve_reception(
                        rule,
                        node,
                        False,
                        None,
                        arrivals,
                        cr4_resolver=cr4_resolver,
                    )
            else:
                # Exactly one arrival: a lone sender hears itself (CR1's
                # collision needs two arrivals), a non-sender receives
                # the unique message.
                reception = unique_rec[node]

            if receptions is not None:
                receptions[node] = reception
            if obs_on:
                if reception.message is not None:
                    obs_delivered += 1
                elif reception.is_collision:
                    obs_collisions += 1
                else:
                    obs_silences += 1
            # `.message is not None` is the cheap attribute-level spelling
            # of Reception.is_message (a MESSAGE reception always carries
            # a message; the other kinds never do).
            is_message = reception.message is not None
            if not active_mask & b:
                if is_message:
                    contexts[node].round_number = rnd  # wake mid-round
                    newly_active.append(node)
                    self._activate(node)
                else:
                    continue  # sleeping processes observe nothing
            elif not is_message:
                continue  # inert delivery (the Process contract)
            process = process_at[node]
            was_informed = informed_round[node] is not None
            deliver(node, process, reception)
            if not was_informed and informed_round[node] is None:
                if process.has_message and self._carries_payload(reception):
                    self._mark_informed(node, rnd)
                    newly_informed.append(node)

        if obs_on:
            telemetry.count("engine.rounds")
            telemetry.count("engine.senders", len(senders))
            telemetry.count("engine.delivered", obs_delivered)
            telemetry.count("engine.collisions", obs_collisions)
            telemetry.count("engine.silences", obs_silences)
            telemetry.count(
                "engine.crashed_drops",
                bin(reached_once & crashed_mask).count("1"),
            )
            telemetry.count("engine.cr4_consults", consults[0])
            telemetry.count("engine.cr4_fallbacks", obs_fallbacks)

        record = RoundRecord(
            round_number=rnd,
            senders=senders,
            unreliable_deliveries=deliveries,
            newly_informed=tuple(newly_informed),
            newly_active=tuple(newly_active),
            receptions=receptions,
            crashed=crashed_now,
            recovered=recovered_now,
        )
        self.trace.rounds.append(record)
        return record
