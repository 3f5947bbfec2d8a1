"""Adaptive interfering adversaries.

These adversaries actively try to slow broadcast down:

* :class:`GreedyInterferer` — the generic worst-case heuristic: whenever an
  uninformed node is about to receive exactly one message over reliable
  links, the adversary deploys unreliable links from *other* concurrent
  senders to turn the reception into a collision; and it resolves CR4
  collisions to silence.  Against a single isolated sender it is powerless
  (reliable links always deliver), which is exactly the leverage the
  paper's algorithms are designed around.
* :class:`PivotAdversary` — the Theorem-11 companion: on a
  :func:`~repro.graphs.constructions.pivot_layers` network it withholds all
  unreliable deliveries except to blanket the next layer with collisions
  whenever the frontier pivot transmits concurrently with anyone else.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Sequence

from repro.adversaries.base import Adversary, AdversaryView
from repro.graphs.constructions import PivotLayersLayout


class GreedyInterferer(Adversary):
    """Collide every almost-successful reception it legally can.

    For each uninformed node ``u`` receiving exactly one reliable arrival,
    the adversary looks for another concurrent sender ``w`` with an
    unreliable edge ``(w, u)`` and schedules it, producing a collision at
    ``u``; among several such ``w`` it takes the lowest node.  The search
    is set algebra over the view's compiled reach and unreliable-only
    masks.  CR4 collisions resolve to silence (the inherited base
    resolver, so ``cr4_always_silent`` holds).

    This is the strongest *generic* adversary in the package: it needs no
    knowledge of the algorithm, only of the current round's senders.
    """

    def choose_deliveries(
        self, view: AdversaryView
    ) -> Dict[int, FrozenSet[int]]:
        topology = view.topology
        reach = topology.reach_mask
        unreliable = topology.unreliable_mask
        senders = sorted(view.senders)
        # Bit v of `once` means some sender reliably reaches v (a sender
        # reaches itself); bit v of `multi` means two or more do.
        once = multi = 0
        for s in senders:
            m = reach[s]
            multi |= once & m
            once |= m
        # The almost-successful receptions: exactly one reliable arrival
        # at a node that is still uninformed.
        open_ = once & ~multi
        pending = open_
        informed = view.informed
        while pending:
            low = pending & -pending
            pending ^= low
            if low.bit_length() - 1 in informed:
                open_ ^= low
        # Each open node goes to the first sender, in ascending order,
        # with an unreliable edge to it.
        hits_of = []
        for w in senders:
            if not open_:
                break
            hits = unreliable[w] & open_
            if hits:
                open_ ^= hits
                hits_of.append((hits & -hits, w, hits))
        # Key order: by each sender's smallest target.
        hits_of.sort()
        chosen: Dict[int, FrozenSet[int]] = {}
        for _, w, hits in hits_of:
            targets = []
            while hits:
                low = hits & -hits
                hits ^= low
                targets.append(low.bit_length() - 1)
            chosen[w] = frozenset(targets)
        return chosen


class PivotAdversary(Adversary):
    """The runtime adversary for the Theorem-11 pivot-layer experiment.

    Invariants maintained on a :class:`PivotLayersLayout` network whose
    per-layer pivot nodes carry adversarially chosen process identities
    (the identity choice is made by the Theorem-11 driver, which passes a
    per-layer pivot node table here):

    * Unreliable links stay silent by default, so a lone non-pivot sender
      in the frontier layer informs nobody new (its reliable out-edges are
      empty beyond its own layer's pivot-mediated structure).
    * Whenever the frontier pivot transmits concurrently with any other
      active process, the adversary delivers that other process's
      unreliable blanket edges into the next layer, colliding the pivot's
      reliable delivery there.
    * CR4 collisions resolve to silence.

    Args:
        layout: The pivot-layer network layout.
        pivots: For each layer index ``k`` (0-based), the node in layer
            ``k`` that owns the reliable edges into layer ``k+1``.  In the
            :func:`~repro.graphs.constructions.pivot_layers` construction
            this is the first node of each layer.
    """

    def __init__(
        self, layout: PivotLayersLayout, pivots: Optional[Sequence[int]] = None
    ) -> None:
        self.layout = layout
        if pivots is None:
            pivots = [layer[0] for layer in layout.layers]
        self.pivots = list(pivots)
        self._layer_of: Dict[int, int] = {}
        for k, layer in enumerate(layout.layers):
            for v in layer:
                self._layer_of[v] = k

    def choose_deliveries(
        self, view: AdversaryView
    ) -> Dict[int, FrozenSet[int]]:
        layers = self.layout.layers
        senders = set(view.senders)
        chosen: Dict[int, set] = {}
        # For every layer whose pivot transmits this round, collide its
        # reliable delivery into layer j+1 using any concurrent sender
        # that has blanket edges there (i.e. any sender in layers ≤ j).
        for j in range(len(layers) - 1):
            pivot = self.pivots[j]
            if pivot not in senders:
                continue
            next_layer = frozenset(layers[j + 1])
            for w in sorted(senders - {pivot}):
                if self._layer_of[w] > j:
                    continue  # no edges into layer j+1
                targets = view.network.unreliable_only_out(w) & next_layer
                if targets:
                    chosen.setdefault(w, set()).update(targets)
                    break  # one colliding message suffices
        return {w: frozenset(ts) for w, ts in chosen.items()}
