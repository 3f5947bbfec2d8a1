"""Bitmask fast-path engine for sweep workloads.

:class:`FastBroadcastEngine` executes the exact Section 2.1 round
semantics of :class:`~repro.sim.engine.BroadcastEngine` — it is a
drop-in subclass producing **bit-identical traces** (the differential
harness in ``tests/test_fast_engine_equivalence.py`` asserts this seed
for seed).  The round skeleton (churn, the adversary, the record) is
the base class's; the subclass overrides only its two phase hooks:
``_decide_senders`` walks cached active (node, process, context)
triples, and ``_resolve`` resolves each round with Python-int set
algebra instead of per-node message lists:

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
* The per-message reference path is kept where set algebra cannot
  express the outcome: CR4 collisions at non-senders whose adversary has
  a real resolver (it must be consulted with the full arrival list,
  reconstructed in the reference engine's exact order).  Payload custody
  needs no engine code: :meth:`~repro.sim.process.Process.deliver` owns
  it for every driver.  An adversary whose class keeps the base
  resolver (:attr:`~repro.adversaries.base.Adversary.cr4_always_silent`,
  inferred per class) is never consulted: its CR4 collisions at
  non-senders resolve to silence by mask test, as under CR3.  The
  reference engine still consults it.
* Telemetry tallies come from the branches that decide them:
  collisions and deliveries are counted where they resolve, silences
  are the visited live nodes minus both, and CR4 consults are the
  fallbacks (each calls the resolver exactly once).

Because the semantics are identical, the engines are interchangeable
for every collision rule and adversary:
:func:`repro.sim.engine.build_engine` dispatches on
``EngineConfig.engine`` and the experiments layer runs whichever engine
a task names.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.adversaries.base import AdversaryView
from repro.sim.collision import CollisionRule, resolve_reception
from repro.sim.engine import BroadcastEngine
from repro.sim.messages import (
    COLLISION,
    Message,
    Reception,
    SILENCE,
    carries_payload,
    received,
)
from repro.sim.process import Process, ProcessContext


class FastBroadcastEngine(BroadcastEngine):
    """Bitmask drop-in for :class:`~repro.sim.engine.BroadcastEngine`.

    Constructor signature, public API, trace output, process-state
    evolution and adversary interaction are all identical to the
    reference engine; only the internal per-round resolution differs.
    See the module docstring for the algebra.
    """

    engine_name = "fast"
    counter_names = BroadcastEngine.counter_names + ("engine.cr4_fallbacks",)

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

    def _decide_senders(self, rnd: int) -> Dict[int, Message]:
        """Phase 1 over the active nodes only.

        A sleeping process's context is observed solely at wake-up, so
        its round counter is refreshed then (:meth:`_resolve`).
        Ascending node order gives ``senders`` the insertion order the
        reference engine guarantees.
        """
        senders: Dict[int, Message] = {}
        for node, process, ctx in self._active_triples():
            ctx.round_number = rnd
            msg = process.decide_send(ctx)
            if msg is not None:
                senders[node] = msg
        return senders

    def _resolve(
        self,
        rnd: int,
        senders: Dict[int, Message],
        deliveries: Dict[int, FrozenSet[int]],
        view: AdversaryView,
    ) -> Tuple[Optional[Dict[int, Reception]], List[int], List[int]]:
        """Phases 3 and 4 by mask algebra (see the module docstring)."""
        network = self.network
        recording = self.config.record_receptions
        rule = self.config.collision_rule
        bit = self._bit
        reach_mask = self._reach_mask
        contexts = self._contexts
        crashed_mask = self._crashed_mask

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

        receptions: Optional[Dict[int, Reception]] = (
            {} if recording else None
        )
        newly_informed: List[int] = []
        newly_active: List[int] = []
        informed_round = self.trace.informed_round
        process_at = self.process_at
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
        # Every visited live node hears silence unless it is tallied
        # as a delivery or a collision below.
        visited = pending & ~crashed_mask
        delivered = collisions = fallbacks = 0

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
                        collisions += 1
                    else:
                        reception = sender_rec.get(node)
                        if reception is None:
                            reception = received(own)
                            sender_rec[node] = reception
                elif collision_on_multi:  # CR1/CR2 non-sender
                    reception = COLLISION
                    collisions += 1
                elif silence_on_multi:  # CR3, or CR4 with the base resolver
                    reception = SILENCE
                else:
                    # CR4 with a real adversary resolver: rebuild the
                    # arrival list in reference order (ascending sender
                    # node) and defer to the shared resolution path,
                    # which consults the resolver exactly once here.
                    fallbacks += 1
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
                        cr4_resolver=cr4,
                    )
            else:
                # Exactly one arrival: a lone sender hears itself (CR1's
                # collision needs two arrivals), a non-sender receives
                # the unique message.
                reception = unique_rec[node]

            if receptions is not None:
                receptions[node] = reception
            # `.message is None` is the cheap attribute-level spelling
            # of "not Reception.is_message".  A sleeping process
            # observes nothing else, and an awake one's delivery of
            # anything else is inert (the Process contract).
            if reception.message is None:
                continue
            delivered += 1
            if not active_mask & b:
                contexts[node].round_number = rnd  # wake mid-round
                newly_active.append(node)
                self._activate(node)
            process_at[node].deliver(contexts[node], reception)
            if informed_round[node] is None and carries_payload(reception):
                self._mark_informed(node, rnd)
                newly_informed.append(node)

        if self._telemetry.enabled:
            tallies = self._tallies
            tallies["engine.rounds"] += 1
            tallies["engine.senders"] += len(senders)
            tallies["engine.delivered"] += delivered
            tallies["engine.collisions"] += collisions
            tallies["engine.silences"] += (
                visited.bit_count() - delivered - collisions
            )
            tallies["engine.crashed_drops"] += (
                reached_once & crashed_mask
            ).bit_count()
            tallies["engine.cr4_consults"] += fallbacks
            tallies["engine.cr4_fallbacks"] += fallbacks
        return receptions, newly_informed, newly_active
