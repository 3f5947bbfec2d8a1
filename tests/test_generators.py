"""Unit tests for standard topology generators."""

import pytest

from repro.graphs import (
    clique,
    grid,
    line,
    ring,
    star,
    with_complete_unreliable,
)


class TestLine:
    def test_structure(self):
        g = line(5)
        assert g.n == 5
        assert g.is_undirected
        assert g.source_eccentricity == 4
        assert g.reliable_out(2) == {1, 3}

    def test_extra_edges_become_unreliable_if_not_reliable(self):
        g = line(5, extra_edges=[(0, 4)])
        assert 4 in g.unreliable_only_out(0)
        assert 0 in g.unreliable_only_out(4)  # symmetrised


class TestRing:
    def test_structure(self):
        g = ring(6)
        assert g.n == 6
        assert all(len(g.reliable_out(v)) == 2 for v in g.nodes)
        assert g.source_eccentricity == 3

    def test_too_small(self):
        with pytest.raises(ValueError):
            ring(2)


class TestClique:
    def test_diameter_one(self):
        g = clique(7)
        assert g.source_eccentricity == 1
        assert all(len(g.reliable_out(v)) == 6 for v in g.nodes)
        assert g.is_classical


class TestStar:
    def test_center_is_source(self):
        g = star(5, center=2)
        assert g.source == 2
        assert g.source_eccentricity == 1
        assert len(g.reliable_out(2)) == 4
        assert g.reliable_out(0) == {2}


class TestGrid:
    def test_structure(self):
        g = grid(3, 4)
        assert g.n == 12
        assert g.source_eccentricity == (3 - 1) + (4 - 1)
        # Corner has 2 neighbours; interior has 4.
        assert len(g.reliable_out(0)) == 2
        assert len(g.reliable_out(5)) == 4


class TestWithCompleteUnreliable:
    def test_g_prime_complete(self):
        g = with_complete_unreliable(line(5))
        for u in g.nodes:
            assert g.all_out(u) == frozenset(set(g.nodes) - {u})
        # Reliable part unchanged.
        assert g.reliable_out(0) == {1}

    def test_not_classical(self):
        assert not with_complete_unreliable(line(4)).is_classical

