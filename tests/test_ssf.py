"""Unit tests for strongly selective families (Definition 6)."""


import pytest

from repro.core.ssf import (
    SelectiveFamily,
    find_violation,
    full_family,
    kautz_singleton_ssf,
    random_ssf,
    round_robin_family,
    verify_ssf,
)


class TestRoundRobinFamily:
    def test_is_n_n_ssf(self):
        fam = round_robin_family(8)
        assert fam.n == 8 and fam.k == 8
        assert len(fam) == 8
        assert find_violation(fam) is None

    def test_sets_are_singletons_in_order(self):
        fam = round_robin_family(4)
        assert [sorted(s) for s in fam] == [[0], [1], [2], [3]]


class TestFullFamily:
    def test_is_n_1_ssf(self):
        fam = full_family(6)
        assert fam.k == 1
        assert len(fam) == 1
        assert find_violation(fam) is None


class TestRandomSSF:
    @pytest.mark.parametrize("n,k", [(10, 2), (12, 3), (16, 2)])
    def test_selectivity_verified_exhaustively(self, n, k):
        fam = random_ssf(n, k, seed=0)
        assert find_violation(fam) is None

    def test_falls_back_to_round_robin_when_bound_exceeds_n(self):
        # For k close to n the analytic size exceeds n.
        fam = random_ssf(10, 8, seed=0)
        assert fam.construction == "round-robin"

    def test_deterministic_given_seed(self):
        # n large enough that the analytic size stays below n (no
        # round-robin fallback, so real sampling happens).
        a = random_ssf(2048, 2, seed=5)
        b = random_ssf(2048, 2, seed=5)
        assert a.sets == b.sets

    def test_seed_changes_family(self):
        a = random_ssf(2048, 2, seed=5)
        b = random_ssf(2048, 2, seed=6)
        assert a.sets != b.sets

    def test_size_scales_with_k_squared_log_n(self):
        n = 4096
        sizes = {k: len(random_ssf(n, k)) for k in (2, 4)}
        # Quadrupling k should roughly 4x the size (same log factor).
        ratio = sizes[4] / sizes[2]
        assert 3.0 <= ratio <= 5.0

    def test_k1_uses_full_family(self):
        assert random_ssf(10, 1).construction == "full"

    def test_validation(self):
        with pytest.raises(ValueError):
            random_ssf(5, 0)
        with pytest.raises(ValueError):
            random_ssf(5, 6)

    def test_size_cap_override(self):
        fam = random_ssf(20, 3, size_cap=7)
        assert len(fam) == 7


class TestKautzSingleton:
    @pytest.mark.parametrize("n,k", [(30, 2), (64, 3), (128, 2)])
    def test_selectivity(self, n, k):
        fam = kautz_singleton_ssf(n, k)
        assert verify_ssf(fam, exhaustive_limit=500_000)

    def test_exhaustive_on_small(self):
        fam = kautz_singleton_ssf(20, 2)
        assert find_violation(fam) is None

    def test_larger_than_random_construction(self):
        # The constructive family pays an extra log factor (the paper's
        # "Note on Constructive Solutions").
        n = 1 << 14
        ks_size = len(kautz_singleton_ssf(n, 4))
        rnd_size = len(random_ssf(n, 4))
        assert ks_size > 0 and rnd_size > 0
        # Both are O(k^2 polylog); the KS family should not be smaller
        # by more than a constant.
        assert ks_size >= rnd_size / 8

    def test_round_robin_fallback(self):
        fam = kautz_singleton_ssf(9, 8)
        assert fam.construction == "round-robin"

    def test_k1(self):
        assert kautz_singleton_ssf(10, 1).construction == "full"


class TestVerification:
    def test_verify_detects_bad_family(self):
        bad = SelectiveFamily(
            n=6, k=2, sets=(frozenset({0, 1}),), construction="bad"
        )
        assert not verify_ssf(bad)
        violation = find_violation(bad)
        assert violation is not None

    def test_selects_api(self):
        fam = round_robin_family(4)
        assert fam.selects(2, frozenset({1, 2, 3}))

    def test_sampled_verification_path(self):
        # Force the sampled branch with a tiny exhaustive limit.
        fam = random_ssf(40, 3, seed=1)
        assert verify_ssf(fam, exhaustive_limit=1, samples=500, seed=2)

    def test_sampled_detects_gross_violation(self):
        bad = SelectiveFamily(
            n=40, k=3, sets=(frozenset(range(40)),), construction="bad"
        )
        assert not verify_ssf(bad, exhaustive_limit=1, samples=500)


class TestDeepcopySharing:
    def test_family_deepcopy_returns_self(self):
        import copy

        fam = round_robin_family(5)
        assert copy.deepcopy(fam) is fam
