"""Adversary interface for the dual graph model.

Per Section 2.1, an adversary may control three things:

1. The ``proc`` mapping — the bijection assigning processes (identities) to
   graph nodes, fixed before the execution starts.
2. The per-round behaviour of unreliable links — for each sender, which of
   its ``G' \\ G`` out-neighbours the transmission additionally reaches
   (its ``G`` out-neighbours are always reached).
3. Under collision rule CR4, the resolution at each non-sending node where
   two or more messages arrive: silence, or any one of the arrivals.

An *adversary class* restricts what the adversary observes when making
these choices.  The implementations in this package range from oblivious
(random deliveries) to fully adaptive (the scripted lower-bound
adversaries, which read the entire execution state).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
)

from repro.graphs.dualgraph import DualGraph
from repro.sim.messages import Message

if TYPE_CHECKING:
    from repro.sim.topology import CompiledTopology


@dataclass
class AdversaryView:
    """What the adversary sees when making its per-round choices.

    Attributes:
        round_number: Current 1-based round.
        network: The dual graph (the adversary knows the topology).
        topology: The engine's compiled form of ``network``: per-node
            bit, reach and unreliable-only masks for adversaries that
            plan with set algebra.
        senders: Mapping from sending *node* to the message it transmits
            this round.
        informed: Nodes whose process currently holds the broadcast payload
            (before this round's deliveries).
        active: Nodes whose process is awake this round.
        proc: The node → process-uid assignment in force.
        crashed: Nodes currently down under fault injection
            (:class:`~repro.sim.faults.ChurnSchedule`); empty in
            failure-free runs.  Transmissions toward them dissolve, so
            an adaptive adversary can avoid wasting deliveries there.
    """

    round_number: int
    network: DualGraph
    topology: "CompiledTopology"
    senders: Mapping[int, Message]
    informed: FrozenSet[int]
    active: FrozenSet[int]
    proc: Mapping[int, int]
    crashed: FrozenSet[int] = frozenset()


class Adversary(abc.ABC):
    """Base class for all adversaries.

    Subclasses typically override :meth:`choose_deliveries`; the other
    hooks have reasonable defaults (identity process assignment, silence
    for CR4 collisions — the weakest resolution for the algorithm).

    ``cr4_always_silent`` is a class fact an engine may act on: the
    class's :meth:`resolve_cr4` is this base resolver, which answers
    silence for every collision, so the consult (and the arrival list it
    needs) can be skipped; the fast engine skips it.  It is inferred at
    class creation, never declared: ``False`` as soon as any class on
    the MRO other than this base defines ``resolve_cr4`` (a mixin's
    resolver counts), so a real resolver is never skipped.  The
    reference engine ignores it and consults on every CR4 collision.
    """

    cr4_always_silent: bool = True

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls.cr4_always_silent = not any(
            "resolve_cr4" in vars(klass)
            for klass in cls.__mro__
            if klass is not Adversary
        )

    def assign_processes(
        self, network: DualGraph, uids: Sequence[int]
    ) -> Dict[int, int]:
        """Choose the ``proc`` mapping: node → process uid.

        The default assigns ``uids`` to nodes in index order.  Lower-bound
        adversaries override this to place specific identities at specific
        nodes (e.g. the bridge in Theorem 2).
        """
        if len(uids) != network.n:
            raise ValueError(
                f"need exactly {network.n} process uids, got {len(uids)}"
            )
        return {node: uids[node] for node in network.nodes}

    def on_execution_start(
        self, network: DualGraph, proc: Mapping[int, int]
    ) -> None:
        """Called once before round 1.  Default: no-op."""

    @abc.abstractmethod
    def choose_deliveries(
        self, view: AdversaryView
    ) -> Dict[int, FrozenSet[int]]:
        """Choose unreliable deliveries for this round.

        Returns:
            For each sending node, the subset of its *unreliable-only*
            out-neighbours that the transmission reaches this round.
            Senders may be omitted (treated as the empty set).  The engine
            validates that every returned node is a legal target.
        """

    def resolve_cr4(
        self, view: AdversaryView, node: int, arrivals: List[Message]
    ) -> Optional[Message]:
        """Resolve a CR4 collision at a non-sending node.

        Returns ``None`` for silence or one of ``arrivals`` to deliver it.
        The default is silence — the weakest outcome for the algorithm,
        and the conventional choice when the adversary has no better plan.
        """
        return None


class NoDeliveryAdversary(Adversary):
    """Never uses unreliable links.

    The execution then proceeds exactly as in the classical model on the
    reliable graph ``G`` — the benign extreme of the adversary spectrum.
    """

    def choose_deliveries(
        self, view: AdversaryView
    ) -> Dict[int, FrozenSet[int]]:
        return {}


class FixedAssignmentAdversary(Adversary):
    """Installs a fixed ``proc`` mapping, delegating link behaviour.

    Useful for worst-case identity placements (the adversary's other
    lever besides unreliable links): wrap any link-level adversary and
    override only where each identity sits.

    Args:
        mapping: node → process uid (must be a bijection over the uids).
        inner: The adversary controlling deliveries and CR4 resolution
            (default: never delivers on unreliable links).
    """

    def __init__(
        self,
        mapping: Mapping[int, int],
        inner: Optional["Adversary"] = None,
    ) -> None:
        self._mapping = dict(mapping)
        self._inner = inner

    def assign_processes(
        self, network: DualGraph, uids: Sequence[int]
    ) -> Dict[int, int]:
        if sorted(self._mapping) != list(network.nodes) or sorted(
            self._mapping.values()
        ) != sorted(uids):
            raise ValueError("mapping is not a node→uid bijection")
        return dict(self._mapping)

    def on_execution_start(self, network, proc) -> None:
        if self._inner is not None:
            self._inner.on_execution_start(network, proc)

    def choose_deliveries(self, view: AdversaryView):
        if self._inner is None:
            return {}
        return self._inner.choose_deliveries(view)

    def resolve_cr4(self, view, node, arrivals):
        if self._inner is None:
            return None
        return self._inner.resolve_cr4(view, node, arrivals)


class FullDeliveryAdversary(Adversary):
    """Always delivers on every unreliable link.

    The execution then proceeds as in the classical model on ``G'`` —
    maximal connectivity, but also maximal collision potential.
    """

    def choose_deliveries(
        self, view: AdversaryView
    ) -> Dict[int, FrozenSet[int]]:
        return {
            v: view.network.unreliable_only_out(v) for v in view.senders
        }
