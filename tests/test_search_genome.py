"""Tests for the strategy-genome encoding and its adversaries."""

import random

import pytest

from repro.graphs import line, with_complete_unreliable
from repro.graphs.constructions import clique_bridge
from repro.search import (
    GenomeAdversary,
    GenomeCR4Adversary,
    GenomeSpace,
    StrategyGenome,
)
from repro.sim.messages import Message


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
            clique_bridge(8).graph, horizon=6, **kw
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

    def test_mutations_stay_legal_and_move(self):
        space = self.space(cr4_genes=True)
        rng = random.Random(3)
        g = space.random(rng)
        moved = 0
        for _ in range(30):
            h = space.mutate(g, rng)
            if h != g:
                moved += 1
            for rnd, row in h.deliveries:
                for sender, targets in row:
                    assert set(targets) <= space.graph.unreliable_only_out(
                        sender
                    )
            assert sorted(h.proc) == list(range(space.graph.n))
            g = h
        assert moved > 20  # mutation is not a no-op generator

    def test_no_proc_search_keeps_default(self):
        space = GenomeSpace(
            with_complete_unreliable(line(5)),
            horizon=4,
            search_proc=False,
        )
        g = space.random(random.Random(1))
        assert g.proc is None
        assert space.mutate(g, random.Random(2)).proc is None

    def test_horizon_validated(self):
        with pytest.raises(ValueError, match="horizon"):
            GenomeSpace(line(4), horizon=0)
