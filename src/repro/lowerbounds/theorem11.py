"""Theorem 11: the ``Ω(n^{3/2})`` directed lower bound, executably.

The paper imports this bound from Clementi–Monti–Silvestri [9, 11] for
``√n``-broadcastable *directed* networks.  Our executable stand-in is the
:func:`~repro.graphs.constructions.pivot_layers` network: ``≈√n`` layers
of ``≈√n`` nodes; reliable progress edges leave each layer only through
its *pivot* node, and the adversary owns a blanket of unreliable edges
into every later layer.

Why the shape is forced: the graph is directed, all non-activation
observations of a layer node are adversary-controlled, and a sender
always hears only its own message (CR4).  Hence the behaviour of a
process is a pure function of its identity and the round its layer was
activated — independent of which node of the layer it occupies, and
independent of which layer the identity was assigned to before that
activation.  The adversary exploits this twice:

* **layer population** — when a layer activates, the adversary decides
  (with deferred commitment, justified by the behaviour-independence
  above) *which* of the still-unplaced identities occupy it.  It reserves
  the identity that would transmit latest after activation;
* **pivot placement** — within the layer, it places at the pivot node the
  identity that is isolated *last*.  Progress out of layer ``k`` happens
  exactly at::

      t_{k+1} = max over identities i assigned to layer k of
                min { r > t_k : i transmits in r and no other active
                                process transmits in r }

  because a lone pivot transmission reliably informs the next layer (the
  adversary cannot stop reliable edges), while any concurrent transmission
  lets the adversary blanket the next layer with collisions, and lone
  non-pivot transmissions are delivered to nobody.

For round robin this makes every layer cost up to a full ``n``-round
cycle (the reserved identity's slot has just passed), so ``√n`` layers
cost ``Θ(n^{3/2})`` — the scaling [9] proves unavoidable for every
deterministic algorithm.

:func:`theorem11_lower_bound` computes the progress times by lockstep
sandbox simulation; :func:`verify_with_engine` replays the resulting
worst-case ``proc`` mapping in the real engine under the runtime
:class:`~repro.adversaries.interferers.PivotAdversary`, checking the
prediction round-for-round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.adversaries.base import FixedAssignmentAdversary
from repro.adversaries.interferers import PivotAdversary
from repro.graphs.constructions import PivotLayersLayout, pivot_layers
from repro.lowerbounds.sandbox import SandboxProcess
from repro.sim.collision import CollisionRule
from repro.sim.engine import BroadcastEngine, EngineConfig, StartMode
from repro.sim.messages import SILENCE, Message, received
from repro.sim.process import Process
from repro.sim.trace import ExecutionTrace

AlgorithmFactory = Callable[[int], Sequence[Process]]


@dataclass
class Theorem11Result:
    """Outcome of the pivot-layer hardness computation.

    Attributes:
        n: Total node count.
        num_layers: Layers including the source layer.
        width: Identities per non-source layer.
        activation_rounds: ``activation_rounds[k]`` is the round layer
            ``k`` received the message (0 for the source layer).
        layer_uids: The adversary's identity assignment: ``layer_uids[k]``
            lists the identities occupying layer ``k``.
        pivot_uids: The identity at each layer's pivot node (the
            last-isolated identity of the layer); one entry per layer that
            has a successor.
        completed: Whether every layer was eventually activated within
            the cap.
    """

    n: int
    num_layers: int
    width: int
    activation_rounds: List[int] = field(default_factory=list)
    layer_uids: List[List[int]] = field(default_factory=list)
    pivot_uids: List[int] = field(default_factory=list)
    completed: bool = False

    @property
    def total_rounds(self) -> Optional[int]:
        """Rounds until the last layer was informed."""
        if not self.completed:
            return None
        return self.activation_rounds[-1]

    @property
    def normalized(self) -> Optional[float]:
        """``total_rounds / n^{3/2}`` — the Theorem-11 shape check."""
        total = self.total_rounds
        if total is None:
            return None
        return total / (self.n ** 1.5)


def _first_send_after(
    pristine: SandboxProcess,
    activation_round: int,
    activation_msg: Message,
    horizon: int,
) -> int:
    """When a pristine identity would first transmit if activated now.

    Clones the (never-activated) sandbox, activates it with the given
    message, and scans forward feeding silence.  Returns ``horizon + 1``
    when the identity stays silent throughout — the most valuable pivot
    reservation of all.
    """
    probe = pristine.clone()
    probe.activate(activation_round)
    probe.feed(activation_round, received(activation_msg))
    for r in range(activation_round + 1, activation_round + horizon + 1):
        if probe.would_send(r) is not None:
            return r
        probe.feed(r, SILENCE)
    return activation_round + horizon + 1


def pivot_layout_for(n: int) -> PivotLayersLayout:
    """The ``√n × √n`` pivot-layer layout for about ``n`` nodes."""
    width = max(1, math.isqrt(n))
    return pivot_layers(max(2, (n - 1) // width + 1), width)


def theorem11_lower_bound(
    algorithm_factory: AlgorithmFactory,
    layout: Optional[PivotLayersLayout] = None,
    n: Optional[int] = None,
    max_rounds: int = 0,
) -> Theorem11Result:
    """Compute the adversarial broadcast time on the pivot-layer network.

    Exactly one of ``layout`` or ``n`` must be given; with ``n`` a
    ``√n × √n`` layout is built.

    Args:
        algorithm_factory: Builds the deterministic processes (uids
            ``0..n−1``).
        layout: The network layout to use.
        n: Approximate node count for an auto-built layout.
        max_rounds: Safety cap (default ``64·n^{3/2} + 1024``).

    The layer-population greedy looks ``8·n + 256`` rounds ahead when
    scoring identities.
    """
    if (layout is None) == (n is None):
        raise ValueError("give exactly one of layout / n")
    if layout is None:
        assert n is not None
        layout = pivot_layout_for(n)
    total_n = layout.graph.n
    if max_rounds <= 0:
        max_rounds = int(64 * total_n**1.5) + 1024
    scoring_horizon = 8 * total_n + 256

    processes = list(algorithm_factory(total_n))
    if sorted(p.uid for p in processes) != list(range(total_n)):
        raise ValueError("factory must produce uids 0..n-1")
    sandboxes = {p.uid: SandboxProcess(p, total_n) for p in processes}

    result = Theorem11Result(
        n=total_n,
        num_layers=layout.num_layers,
        width=layout.width,
        activation_rounds=[0],
        layer_uids=[[0]],
        pivot_uids=[],  # filled per layer as its pivot is committed
    )

    # Asynchronous start: the source activates at round 0 with the payload.
    sandboxes[0].activate(0)
    sandboxes[0].give_broadcast_input()
    active: List[int] = [0]
    layer_of_uid: Dict[int, int] = {0: 0}
    pool = set(range(1, total_n))  # identities not yet placed in a layer
    #: committed pivot identity per layer (index k covers layer k; the
    #: frontier layer's pivot is committed when its last identity is
    #: isolated).
    committed_pivots: List[int] = []
    rnd = 0

    def populate_layer(k: int, t: int, activation_msg: Message) -> List[int]:
        """Adversarially choose which pool identities form layer ``k``.

        Greedy: score each remaining identity by how late it would first
        transmit if activated now; reserve the latest as the layer's
        pivot-to-be and fill the rest with the earliest (saving other
        late identities for later layers).
        """
        want = len(layout.layers[k])
        scores = {
            uid: _first_send_after(
                sandboxes[uid], t, activation_msg, scoring_horizon
            )
            for uid in pool
        }
        by_score = sorted(pool, key=lambda u: (scores[u], u))
        pivot_uid = by_score[-1]
        chosen = by_score[: want - 1]
        if pivot_uid in chosen:  # only when the pool barely covers the layer
            chosen = [u for u in by_score if u != pivot_uid][: want - 1]
        members = chosen + [pivot_uid]
        for uid in members:
            pool.discard(uid)
        return members

    for k in range(layout.num_layers - 1):
        layer_ids = result.layer_uids[k]
        # Identities of layer k still awaiting their first lone send.
        pending = set(layer_ids)
        last_lone_uid: Optional[int] = None
        last_lone_msg: Optional[Message] = None
        while pending:
            rnd += 1
            if rnd > max_rounds:
                result.completed = False
                return result
            senders = {
                uid: m
                for uid in active
                if (m := sandboxes[uid].would_send(rnd)) is not None
            }
            # Unavoidable reliable deliveries: a committed pivot of layer
            # j < k that transmits without any concurrent sender in layers
            # ≤ j (only those hold blanket edges into layer j+1) delivers
            # its message to the (already informed) layer j+1.
            delivered: Dict[int, Message] = {}
            for j, pivot_uid in enumerate(committed_pivots):
                if pivot_uid not in senders:
                    continue
                blocked = any(
                    layer_of_uid[w] <= j
                    for w in senders
                    if w != pivot_uid
                )
                if blocked:
                    continue
                for uid in result.layer_uids[j + 1]:
                    delivered[uid] = senders[pivot_uid]
            # Feed observations: a sender hears its own message (CR4);
            # reliable deliveries arrive as computed; all else is
            # adversarial silence.
            for uid in active:
                msg = senders.get(uid, delivered.get(uid))
                sandboxes[uid].feed(
                    rnd, SILENCE if msg is None else received(msg)
                )
            if len(senders) == 1:
                lone_uid = next(iter(senders))
                if lone_uid in pending:
                    pending.discard(lone_uid)
                    last_lone_uid = lone_uid
                    last_lone_msg = senders[lone_uid]
        # The adversary placed `last_lone_uid` at the pivot: progress
        # happens only now, at round `rnd`.
        assert last_lone_uid is not None and last_lone_msg is not None
        committed_pivots.append(last_lone_uid)
        result.pivot_uids.append(last_lone_uid)
        result.activation_rounds.append(rnd)
        # Adversarially populate and activate the next layer.
        members = populate_layer(k + 1, rnd, last_lone_msg)
        result.layer_uids.append(members)
        for uid in members:
            sandboxes[uid].activate(rnd)
            sandboxes[uid].feed(rnd, received(last_lone_msg))
            active.append(uid)
            layer_of_uid[uid] = k + 1

    result.completed = True
    return result


def worst_case_proc_mapping(
    layout: PivotLayersLayout, result: Theorem11Result
) -> Dict[int, int]:
    """The node → uid mapping realising the computed worst case."""
    mapping: Dict[int, int] = {0: 0}
    for k in range(1, layout.num_layers):
        layer_nodes = list(layout.layers[k])
        ids = list(result.layer_uids[k])
        if k < len(result.pivot_uids):
            pivot_uid = result.pivot_uids[k]
        else:
            # The last layer has no outgoing pivot; any placement works.
            pivot_uid = ids[-1]
        ids.remove(pivot_uid)
        mapping[layer_nodes[0]] = pivot_uid  # pivot node is first in layer
        for node, uid in zip(layer_nodes[1:], ids):
            mapping[node] = uid
    return mapping


def verify_with_engine(
    algorithm_factory: AlgorithmFactory,
    layout: PivotLayersLayout,
    result: Theorem11Result,
) -> ExecutionTrace:
    """Replay the computed worst case in the real engine.

    Runs the algorithm on the actual network under the runtime
    :class:`PivotAdversary` with the worst-case ``proc`` mapping, capped
    16 rounds past ``result.total_rounds``, and returns the trace;
    callers assert the trace's completion round equals
    ``result.total_rounds``.
    """
    if not result.completed:
        raise ValueError("cannot verify an incomplete result")
    total = result.total_rounds
    assert total is not None
    processes = list(algorithm_factory(layout.graph.n))
    adversary = FixedAssignmentAdversary(
        worst_case_proc_mapping(layout, result), PivotAdversary(layout)
    )
    config = EngineConfig(
        collision_rule=CollisionRule.CR4,
        start_mode=StartMode.ASYNCHRONOUS,
        max_rounds=total + 16,
        seed=0,
    )
    engine = BroadcastEngine(layout.graph, processes, adversary, config)
    return engine.run()
