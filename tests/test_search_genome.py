"""Tests for the strategy-genome encoding and its adversaries."""

import random

import pytest

from repro.graphs import line
from repro.graphs.constructions import clique_bridge
from repro.search import (
    GenomeAdversary,
    GenomeCR4Adversary,
    GenomeSpace,
    StrategyGenome,
)
from repro.sim.messages import Message
from repro.sim.topology import compile_topology


def view_stub(rnd):
    """resolve_cr4 only reads round_number off the view."""

    class _View:
        round_number = rnd

    return _View()


class TestStrategyGenome:
    def test_deliveries_canonicalised(self):
        a = StrategyGenome(
            horizon=4,
            deliveries=((2, ((1, (3, 2)), (0, (2,)))), (1, ((0, (1,)),))),
        )
        b = StrategyGenome(
            horizon=4,
            deliveries={1: {0: [1]}, 2: {0: [2], 1: [2, 3]}},
        )
        assert a == b
        assert a.fingerprint == b.fingerprint

    def test_empty_rows_dropped(self):
        g = StrategyGenome(horizon=2, deliveries={1: {0: []}, 2: {}})
        assert g.deliveries == ()

    def test_roundtrip(self):
        g = StrategyGenome(
            horizon=5,
            deliveries={3: {1: [4, 2]}},
            proc=(2, 0, 1, 3, 4),
            cr4=((2, 1, 3),),
        )
        assert StrategyGenome.from_dict(g.to_dict()) == g

    def test_fingerprint_tracks_content(self):
        g = StrategyGenome(horizon=3, deliveries={1: {0: [1]}})
        h = StrategyGenome(horizon=3, deliveries={1: {0: [2]}})
        assert g.fingerprint != h.fingerprint

    def test_proc_mapping_views(self):
        g = StrategyGenome(horizon=1, proc=(1, 0))
        assert g.proc_mapping() == {0: 1, 1: 0}
        assert StrategyGenome(horizon=1).proc_mapping() is None

    def test_cr4_genes_canonicalised(self):
        a = StrategyGenome(horizon=4, cr4=((3, 1, 2), (1, 0, 4)))
        b = StrategyGenome(horizon=4, cr4=[["1", "0", "4"], [3, 1, 2]])
        assert a.cr4 == ((1, 0, 4), (3, 1, 2))
        assert a == b
        assert a.fingerprint == b.fingerprint

    def test_cr4_map_view(self):
        g = StrategyGenome(horizon=4, cr4=((3, 1, 2), (1, 0, 4)))
        assert g.cr4_map() == {(1, 0): 4, (3, 1): 2}
        assert StrategyGenome(horizon=4).cr4_map() == {}

    def test_from_dict_defaults_optional_genes(self):
        g = StrategyGenome.from_dict(
            {"horizon": 3, "deliveries": [[2, [[0, [1]]]]]}
        )
        assert g == StrategyGenome(horizon=3, deliveries={2: {0: [1]}})
        assert (g.proc, g.cr4) == (None, ())

    def test_adversary_class_tracks_cr4_genes(self):
        plain = StrategyGenome(horizon=2).build_adversary()
        genes = StrategyGenome(
            horizon=2, cr4=((1, 0, 1),)
        ).build_adversary()
        assert type(plain) is GenomeAdversary
        assert type(genes) is GenomeCR4Adversary
        # The gene-free adversary keeps the base resolver and declares
        # CR4 silence (the fast engine's shortcut); the gene-bearing one
        # overrides it, is inferred not silent and takes the consult path.
        assert plain.cr4_always_silent is True
        assert genes.cr4_always_silent is False


class TestGenomeCR4Adversary:
    def _arrivals(self):
        return [
            Message(payload="broadcast-message", sender=1, round_sent=2),
            Message(payload="broadcast-message", sender=4, round_sent=2),
        ]

    def test_prefers_scripted_sender(self):
        adv = StrategyGenome(
            horizon=3, cr4=((2, 7, 4),)
        ).build_adversary()
        choice = adv.resolve_cr4(view_stub(2), 7, self._arrivals())
        assert choice is not None and choice.sender == 4

    def test_absent_sender_falls_back_to_silence(self):
        adv = StrategyGenome(
            horizon=3, cr4=((2, 7, 9),)
        ).build_adversary()
        assert adv.resolve_cr4(view_stub(2), 7, self._arrivals()) is None

    def test_unscripted_round_and_node_are_silence(self):
        adv = StrategyGenome(
            horizon=3, cr4=((2, 7, 4),)
        ).build_adversary()
        assert adv.resolve_cr4(view_stub(1), 7, self._arrivals()) is None
        assert adv.resolve_cr4(view_stub(2), 6, self._arrivals()) is None


class TestGenomeSpace:
    def space(self, **kw):
        return GenomeSpace(
            compile_topology(clique_bridge(8).graph), horizon=6, **kw
        )

    def test_random_genomes_are_legal(self):
        space = self.space()
        rng = random.Random(0)
        for _ in range(20):
            g = space.random(rng)
            for rnd, row in g.deliveries:
                assert 1 <= rnd <= space.horizon
                for sender, targets in row:
                    legal = space.graph.unreliable_only_out(sender)
                    assert set(targets) <= legal
            assert sorted(g.proc) == list(range(space.graph.n))

    def test_random_deterministic_given_seed(self):
        space = self.space()
        a = [space.random(random.Random(7)) for _ in range(5)]
        b = [space.random(random.Random(7)) for _ in range(5)]
        assert a == b

    def test_cr4_genes_legal_and_only_when_enabled(self):
        rng = random.Random(4)
        space = self.space(cr4_genes=True)
        genomes = [space.random(rng) for _ in range(20)]
        assert any(g.cr4 for g in genomes)
        n = space.graph.n
        for g in genomes:
            for rnd, node, uid in g.cr4:
                assert 1 <= rnd <= space.horizon
                assert 0 <= node < n and 0 <= uid < n
        plain = self.space()
        assert not any(plain.random(rng).cr4 for _ in range(20))

    def test_horizon_validated(self):
        with pytest.raises(ValueError, match="horizon"):
            GenomeSpace(compile_topology(line(4)), horizon=0)
