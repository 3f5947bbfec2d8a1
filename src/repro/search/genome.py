"""Strategy genomes: the searchable encoding of an adversary strategy.

Per Section 2.1 an adversary controls exactly three things — the
``proc`` assignment, the per-round unreliable deliveries, and CR4
collision resolutions.  A :class:`StrategyGenome` encodes all three as
frozen tuples of primitives, so genomes pickle across worker processes,
hash, serialise to JSON lines, and replay bit-exactly: a genome builds a
:class:`GenomeAdversary` (a :class:`~repro.adversaries.scripted.ScriptedDeliveries`
subclass), and a recorded execution of that adversary replays through
:class:`~repro.adversaries.scripted.ReplayAdversary` verbatim.

The genome is an *oblivious* strategy: its delivery table is indexed by
round and sender node, not by execution state.  Entries for rounds past
the end of the execution, or for nodes that do not transmit in their
round, are simply unused (``ScriptedDeliveries`` filters by the actual
sender set) — so every genome in the space is legal for every execution,
which is what makes blind sampling safe.

:class:`GenomeSpace` is the sampling companion: it knows the graph's
unreliable edges (the only legal delivery targets) and the search
horizon, and draws rng-driven ``random`` genomes for the ``random``
searcher in :mod:`repro.search.searchers` and the engine fuzz suite.
"""

from __future__ import annotations

import json
import random
import zlib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.adversaries.base import AdversaryView
from repro.adversaries.scripted import ScriptedDeliveries
from repro.graphs.dualgraph import DualGraph
from repro.sim.messages import Message
from repro.sim.topology import CompiledTopology

#: ``((round, ((sender, (targets...)), ...)), ...)`` — sorted, deduped.
DeliveryTable = Tuple[Tuple[int, Tuple[Tuple[int, Tuple[int, ...]], ...]], ...]

#: ``((round, node, preferred_sender_uid), ...)`` — sorted.
CR4Table = Tuple[Tuple[int, int, int], ...]


def _freeze_deliveries(table) -> DeliveryTable:
    """Canonicalise any nested mapping/iterable into the frozen table."""
    rows = {}
    for rnd, row in (table.items() if isinstance(table, dict) else table):
        senders = rows.setdefault(int(rnd), {})
        for sender, targets in (
            row.items() if isinstance(row, dict) else row
        ):
            merged = senders.setdefault(int(sender), set())
            merged.update(int(t) for t in targets)
    return tuple(
        (
            rnd,
            tuple(
                (sender, tuple(sorted(targets)))
                for sender, targets in sorted(rows[rnd].items())
                if targets
            ),
        )
        for rnd in sorted(rows)
        if any(targets for targets in rows[rnd].values())
    )


@dataclass(frozen=True)
class StrategyGenome:
    """One point of the adversary strategy space, as frozen primitives.

    Attributes:
        horizon: The number of rounds the delivery schedule was generated
            for.  Purely informational — deliveries past the execution's
            actual length are unused, and an execution may outlive the
            horizon (later rounds then get no unreliable deliveries).
        deliveries: Per-round, per-sender unreliable delivery targets.
        proc: Optional node → uid assignment as a tuple indexed by node
            (``proc[v]`` is the uid at node ``v``); ``None`` keeps the
            engine default (identity).
        cr4: CR4 resolution genes ``(round, node, preferred_uid)``: when
            a CR4 collision occurs at ``node`` in ``round``, deliver the
            arrival sent by process ``preferred_uid`` if it is among the
            arrivals, silence otherwise.  Nodes/rounds without a gene
            resolve to silence (the base-class default; gene-free
            genomes never consult a resolver at all).
    """

    horizon: int
    deliveries: DeliveryTable = ()
    proc: Optional[Tuple[int, ...]] = None
    cr4: CR4Table = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "deliveries", _freeze_deliveries(self.deliveries)
        )
        if self.proc is not None:
            object.__setattr__(
                self, "proc", tuple(int(u) for u in self.proc)
            )
        object.__setattr__(
            self,
            "cr4",
            tuple(
                sorted(
                    (int(r), int(v), int(u)) for r, v, u in self.cr4
                )
            ),
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def delivery_map(self) -> Dict[int, Dict[int, FrozenSet[int]]]:
        """The delivery table as the mapping ``ScriptedDeliveries`` takes."""
        return {
            rnd: {s: frozenset(ts) for s, ts in row}
            for rnd, row in self.deliveries
        }

    def proc_mapping(self) -> Optional[Dict[int, int]]:
        """The proc gene as a node → uid dict (``None`` = engine default)."""
        if self.proc is None:
            return None
        return {node: uid for node, uid in enumerate(self.proc)}

    def cr4_map(self) -> Dict[Tuple[int, int], int]:
        """The CR4 genes as a ``(round, node) → preferred uid`` dict."""
        return {(rnd, node): uid for rnd, node, uid in self.cr4}

    # ------------------------------------------------------------------
    # Identity and serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """The genome as one JSON-serialisable document."""
        return {
            "horizon": self.horizon,
            "deliveries": [
                [rnd, [[s, list(ts)] for s, ts in row]]
                for rnd, row in self.deliveries
            ],
            "proc": None if self.proc is None else list(self.proc),
            "cr4": [list(gene) for gene in self.cr4],
        }

    @classmethod
    def from_dict(cls, doc: Dict) -> "StrategyGenome":
        """Rebuild a genome from its JSON document."""
        return cls(
            horizon=int(doc["horizon"]),
            deliveries=tuple(
                (rnd, tuple((s, tuple(ts)) for s, ts in row))
                for rnd, row in doc["deliveries"]
            ),
            proc=(
                None if doc.get("proc") is None else tuple(doc["proc"])
            ),
            cr4=tuple(tuple(g) for g in doc.get("cr4", ())),
        )

    @property
    def fingerprint(self) -> str:
        """A short stable content hash, used to pair persisted scores
        with the genome that earned them on resume."""
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return f"{zlib.crc32(blob.encode('utf-8')):08x}"

    # ------------------------------------------------------------------
    # Adversary construction
    # ------------------------------------------------------------------
    def build_adversary(self) -> "GenomeAdversary":
        """The replayable adversary implementing this strategy.

        Genomes without CR4 genes build a :class:`GenomeAdversary`
        (which inherits the base resolver, so ``cr4_always_silent``
        holds — the fast engine resolves its CR4 collisions to silence
        without ever consulting it);
        genomes with CR4 genes build a :class:`GenomeCR4Adversary`,
        whose real resolver the fast engine serves through its CR4
        consult path.
        """
        if self.cr4:
            return GenomeCR4Adversary(self)
        return GenomeAdversary(self)


class GenomeAdversary(ScriptedDeliveries):
    """Plays a :class:`StrategyGenome` through the scripted machinery.

    Deliveries and the proc assignment are exactly
    :class:`~repro.adversaries.scripted.ScriptedDeliveries` semantics;
    CR4 collisions resolve to silence (the base resolver, so
    ``cr4_always_silent`` holds), so the fast engine never builds arrival
    lists for instances of this class.
    """

    def __init__(self, genome: StrategyGenome) -> None:
        super().__init__(
            genome.delivery_map(), proc_mapping=genome.proc_mapping()
        )
        self.genome = genome


class GenomeCR4Adversary(GenomeAdversary):
    """A genome adversary that also plays CR4 resolution genes.

    A gene ``(round, node, uid)`` delivers the arrival sent by process
    ``uid`` when it is among the arrivals and falls back to silence when
    it is not — a sampled gene can legally reference a process that ends
    up not transmitting, so tolerance (unlike
    :class:`~repro.adversaries.scripted.ReplayAdversary` strict mode) is
    what keeps blind sampling safe.
    """

    def __init__(self, genome: StrategyGenome) -> None:
        super().__init__(genome)
        self._cr4 = genome.cr4_map()

    def resolve_cr4(
        self, view: AdversaryView, node: int, arrivals: List[Message]
    ) -> Optional[Message]:
        """Deliver the gene's preferred arrival, silence otherwise."""
        preferred = self._cr4.get((view.round_number, node))
        if preferred is None:
            return None
        for msg in arrivals:
            if msg.sender == preferred:
                return msg
        return None


@dataclass
class GenomeSpace:
    """Random sampling over one graph's strategy space.

    Every sampled genome carries a shuffled proc assignment, the
    identity-placement lever behind Theorem 2.

    Args:
        topology: The compiled dual graph.  Its ``graph`` defines the
            legal delivery targets (each sender's unreliable-only
            out-neighbours); the search harness shares the compiled
            form with the evaluation context and the greedy searcher
            reads its masks.
        horizon: Rounds the delivery schedules cover (normally the
            evaluation round cap).
        cr4_genes: Whether genomes carry CR4 resolution genes.  Only
            useful under CR4 (no other rule ever consults the
            resolver); the mask engines score gene-carrying genomes
            through their CR4 consult paths, so the genes cost extra
            work only on rounds that actually collide.
    """

    #: Probability that a (round, sender) slot of a *random* genome
    #: carries any deliveries (and, with CR4 genes, that a round carries
    #: a resolution gene).
    DELIVERY_RATE = 0.2

    topology: CompiledTopology = field(repr=False, compare=False)
    horizon: int
    cr4_genes: bool = False
    #: ``topology.graph``.
    graph: DualGraph = field(init=False)

    #: Nodes with at least one unreliable-only out-neighbour, with their
    #: sorted target tuples (the only slots worth generating genes for).
    _slots: List[Tuple[int, Tuple[int, ...]]] = field(init=False)

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        self.graph = self.topology.graph
        self._slots = [
            (v, tuple(sorted(self.graph.unreliable_only_out(v))))
            for v in self.graph.nodes
            if self.graph.unreliable_only_out(v)
        ]

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _random_targets(
        self, rng: random.Random, targets: Tuple[int, ...]
    ) -> Tuple[int, ...]:
        chosen = [t for t in targets if rng.random() < 0.5]
        if not chosen:
            chosen = [targets[rng.randrange(len(targets))]]
        return tuple(chosen)

    def _random_proc(self, rng: random.Random) -> Tuple[int, ...]:
        uids = list(range(self.graph.n))
        rng.shuffle(uids)
        return tuple(uids)

    def random(self, rng: random.Random) -> StrategyGenome:
        """Sample a genome uniformly-ish from the space."""
        table: Dict[int, Dict[int, Tuple[int, ...]]] = {}
        for rnd in range(1, self.horizon + 1):
            row = {
                v: self._random_targets(rng, targets)
                for v, targets in self._slots
                if rng.random() < self.DELIVERY_RATE
            }
            if row:
                table[rnd] = row
        cr4: List[Tuple[int, int, int]] = []
        if self.cr4_genes:
            n = self.graph.n
            for rnd in range(1, self.horizon + 1):
                if rng.random() < self.DELIVERY_RATE:
                    cr4.append(
                        (rnd, rng.randrange(n), rng.randrange(n))
                    )
        return StrategyGenome(
            horizon=self.horizon,
            deliveries=_freeze_deliveries(table),
            proc=self._random_proc(rng),
            cr4=tuple(cr4),
        )
