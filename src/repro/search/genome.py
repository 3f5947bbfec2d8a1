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
which is what makes blind mutation safe.

:class:`GenomeSpace` is the mutation/sampling companion: it knows the
graph's unreliable edges (the only legal delivery targets) and the
search horizon, and provides rng-driven ``random`` and ``mutate``
operators for the searchers in :mod:`repro.search.searchers`.
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

#: ``((node, crash_round, down_for), ...)`` — sorted crash genes.
ChurnTable = Tuple[Tuple[int, int, int], ...]


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
        churn: Crash genes ``(node, crash_round, down_for)``: the node
            crashes at ``crash_round`` and recovers ``down_for`` rounds
            later, under the ``"uninformed"`` rejoin policy (the crash
            revokes payload custody — the adversary's strongest
            resolution).  :meth:`churn_schedule` compiles the genes
            into a legal :class:`~repro.sim.faults.ChurnSchedule`,
            silently dropping genes that conflict (already-down node,
            protected node, out-of-range round) so blind mutation stays
            safe, exactly like tolerant CR4 genes.
    """

    horizon: int
    deliveries: DeliveryTable = ()
    proc: Optional[Tuple[int, ...]] = None
    cr4: CR4Table = ()
    churn: ChurnTable = ()

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
        object.__setattr__(
            self,
            "churn",
            tuple(
                sorted(
                    (int(v), int(r), int(d)) for v, r, d in self.churn
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

    def churn_schedule(self, n: int, protect: Tuple[int, ...] = (0,)):
        """Compile the crash genes into a legal churn schedule.

        Returns ``None`` for gene-free genomes — the evaluation then
        runs exactly as before churn genes existed, keeping every
        pre-churn score and fingerprint valid.  Genes are applied in
        crash-round order; a gene whose node is protected (normally the
        source — crashing it forever is a degenerate worst case, not a
        strategy), out of range, or still down from an earlier gene is
        dropped rather than rejected, so any mutation of the table
        stays evaluable.
        """
        from repro.sim.faults import ChurnSchedule

        if not self.churn:
            return None
        protected = set(protect)
        crashes: Dict[int, List[int]] = {}
        recoveries: Dict[int, List[int]] = {}
        down_until: Dict[int, int] = {}
        for node, crash_round, down_for in sorted(
            self.churn, key=lambda g: (g[1], g[0])
        ):
            if node in protected or not 0 <= node < n:
                continue
            if crash_round < 1 or crash_round <= down_until.get(node, 0):
                continue
            recovery_round = crash_round + max(1, down_for)
            crashes.setdefault(crash_round, []).append(node)
            recoveries.setdefault(recovery_round, []).append(node)
            down_until[node] = recovery_round
        if not crashes:
            return None
        return ChurnSchedule(
            crashes={r: tuple(vs) for r, vs in crashes.items()},
            recoveries={r: tuple(vs) for r, vs in recoveries.items()},
            rejoin="uninformed",
        )

    # ------------------------------------------------------------------
    # Identity and serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """The genome as one JSON-serialisable document."""
        doc = {
            "horizon": self.horizon,
            "deliveries": [
                [rnd, [[s, list(ts)] for s, ts in row]]
                for rnd, row in self.deliveries
            ],
            "proc": None if self.proc is None else list(self.proc),
            "cr4": [list(gene) for gene in self.cr4],
        }
        # Omitted when empty so every pre-churn genome keeps its
        # serialised form — and therefore its fingerprint and any
        # persisted resume-by-key score — byte for byte.
        if self.churn:
            doc["churn"] = [list(gene) for gene in self.churn]
        return doc

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
            churn=tuple(tuple(g) for g in doc.get("churn", ())),
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
    it is not — a mutated gene can legally reference a process that ends
    up not transmitting, so tolerance (unlike
    :class:`~repro.adversaries.scripted.ReplayAdversary` strict mode) is
    what keeps blind mutation safe.
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
    """Sampling and mutation operators over one graph's strategy space.

    Args:
        topology: The compiled dual graph.  Its ``graph`` defines the
            legal delivery targets (each sender's unreliable-only
            out-neighbours); the search harness shares the compiled
            form with the evaluation context and the greedy searcher
            reads its masks.
        horizon: Rounds the delivery schedules cover (normally the
            evaluation round cap).
        search_proc: Whether genomes explore the proc assignment (the
            identity-placement lever behind Theorem 2).  When false, all
            genomes keep ``proc=None``.
        cr4_genes: Whether genomes carry CR4 resolution genes.  Only
            useful under CR4 (no other rule ever consults the
            resolver); the mask engines score gene-carrying genomes
            through their CR4 consult paths, so the genes cost extra
            work only on rounds that actually collide.
        churn_genes: Whether genomes carry crash genes
            ``(node, crash_round, down_for)`` — the adversary then
            co-optimises crash timing alongside edge deliveries.  The
            source node is never a crash target (see
            :meth:`StrategyGenome.churn_schedule`).
        delivery_rate: Probability that a (round, sender) slot of a
            *random* genome carries any deliveries.
    """

    topology: CompiledTopology = field(repr=False, compare=False)
    horizon: int
    search_proc: bool = True
    cr4_genes: bool = False
    churn_genes: bool = False
    delivery_rate: float = 0.2
    #: ``topology.graph``.
    graph: DualGraph = field(init=False)

    #: Nodes with at least one unreliable-only out-neighbour, with their
    #: sorted target tuples (the only slots worth generating genes for).
    _slots: List[Tuple[int, Tuple[int, ...]]] = field(init=False)

    #: Legal crash targets: every node except the source.
    _crashable: Tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        self.graph = self.topology.graph
        self._slots = [
            (v, tuple(sorted(self.graph.unreliable_only_out(v))))
            for v in self.graph.nodes
            if self.graph.unreliable_only_out(v)
        ]
        self._crashable = tuple(
            v for v in self.graph.nodes if v != self.graph.source
        )

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
                if rng.random() < self.delivery_rate
            }
            if row:
                table[rnd] = row
        cr4: List[Tuple[int, int, int]] = []
        if self.cr4_genes:
            n = self.graph.n
            for rnd in range(1, self.horizon + 1):
                if rng.random() < self.delivery_rate:
                    cr4.append(
                        (rnd, rng.randrange(n), rng.randrange(n))
                    )
        churn: List[Tuple[int, int, int]] = []
        if self.churn_genes and self._crashable:
            for _ in range(max(1, self.graph.n // 2)):
                if rng.random() < self.delivery_rate:
                    churn.append(self._random_churn_gene(rng))
        return StrategyGenome(
            horizon=self.horizon,
            deliveries=_freeze_deliveries(table),
            proc=self._random_proc(rng) if self.search_proc else None,
            cr4=tuple(cr4),
            churn=tuple(churn),
        )

    def _random_churn_gene(
        self, rng: random.Random
    ) -> Tuple[int, int, int]:
        node = self._crashable[rng.randrange(len(self._crashable))]
        crash_round = rng.randrange(1, self.horizon + 1)
        down_for = 1 + rng.randrange(max(1, self.horizon // 4))
        return (node, crash_round, down_for)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def mutate(
        self, genome: StrategyGenome, rng: random.Random
    ) -> StrategyGenome:
        """One local move: toggle a delivery, swap procs, or edit a gene."""
        ops = [self._mutate_delivery]
        if self.search_proc:
            ops.append(self._mutate_proc)
        if self.cr4_genes:
            ops.append(self._mutate_cr4)
        if self.churn_genes and self._crashable:
            ops.append(self._mutate_churn)
        return ops[rng.randrange(len(ops))](genome, rng)

    def _mutate_delivery(
        self, genome: StrategyGenome, rng: random.Random
    ) -> StrategyGenome:
        if not self._slots:
            return genome
        table = {
            rnd: {s: set(ts) for s, ts in row.items()}
            for rnd, row in genome.delivery_map().items()
        }
        rnd = rng.randrange(1, self.horizon + 1)
        sender, targets = self._slots[rng.randrange(len(self._slots))]
        target = targets[rng.randrange(len(targets))]
        row = table.setdefault(rnd, {})
        slot = row.setdefault(sender, set())
        if target in slot:
            slot.discard(target)
        else:
            slot.add(target)
        return StrategyGenome(
            horizon=genome.horizon,
            deliveries=_freeze_deliveries(table),
            proc=genome.proc,
            cr4=genome.cr4,
            churn=genome.churn,
        )

    def _mutate_proc(
        self, genome: StrategyGenome, rng: random.Random
    ) -> StrategyGenome:
        n = self.graph.n
        proc = list(
            genome.proc if genome.proc is not None else range(n)
        )
        i, j = rng.randrange(n), rng.randrange(n)
        proc[i], proc[j] = proc[j], proc[i]
        return StrategyGenome(
            horizon=genome.horizon,
            deliveries=genome.deliveries,
            proc=tuple(proc),
            cr4=genome.cr4,
            churn=genome.churn,
        )

    def _mutate_cr4(
        self, genome: StrategyGenome, rng: random.Random
    ) -> StrategyGenome:
        n = self.graph.n
        genes = list(genome.cr4)
        if genes and rng.random() < 0.5:
            genes.pop(rng.randrange(len(genes)))
        else:
            genes.append(
                (
                    rng.randrange(1, self.horizon + 1),
                    rng.randrange(n),
                    rng.randrange(n),
                )
            )
        return StrategyGenome(
            horizon=genome.horizon,
            deliveries=genome.deliveries,
            proc=genome.proc,
            cr4=tuple(genes),
            churn=genome.churn,
        )

    def _mutate_churn(
        self, genome: StrategyGenome, rng: random.Random
    ) -> StrategyGenome:
        genes = list(genome.churn)
        if genes and rng.random() < 0.5:
            genes.pop(rng.randrange(len(genes)))
        else:
            genes.append(self._random_churn_gene(rng))
        return StrategyGenome(
            horizon=genome.horizon,
            deliveries=genome.deliveries,
            proc=genome.proc,
            cr4=genome.cr4,
            churn=tuple(genes),
        )
