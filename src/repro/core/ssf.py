"""Strongly Selective Families (SSFs) — Definition 6 of the paper.

A family ``F`` of subsets of the id universe ``{0, …, n−1}`` is
``(n, k)``-strongly selective if for every non-empty subset ``Z`` of the
universe with ``|Z| ≤ k`` and every ``z ∈ Z`` there is a set ``F ∈ F``
with ``Z ∩ F = {z}``.  (We use 0-based ids; the paper's universe is
``[n] = {1, …, n}``.)

Three constructions are provided:

* :func:`round_robin_family` — the singletons; an ``(n, n)``-SSF of size
  ``n``.  The paper's ``F_{s_max}``.
* :func:`random_ssf` — the existential construction of Erdős, Frankl and
  Füredi (Theorem 7 in the paper): ``O(k² log n)`` random sets, each
  containing each id independently with probability ``1/k``, are
  ``(n, k)``-strongly selective with probability ``≥ 1 − δ``.  Seeded and
  deterministic given the seed.
* :func:`kautz_singleton_ssf` — the constructive Reed–Solomon
  superimposed-code family of Kautz and Singleton (1964), of size
  ``O(k² log² n)`` — the paper's "Note on Constructive Solutions"
  observes that substituting it costs only a ``√log n`` factor.

Verification is exponential in general; :func:`verify_ssf` does an exact
check for small instances and a seeded randomized check otherwise.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, FrozenSet, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class SelectiveFamily:
    """An ordered family of subsets of ``{0, …, n−1}``.

    Attributes:
        n: Universe size.
        k: The selectivity parameter the family targets.
        sets: The ordered member sets ``F[0], …, F[len−1]``.
        construction: Human-readable provenance label.
    """

    n: int
    k: int
    sets: Tuple[FrozenSet[int], ...]
    construction: str = "unspecified"

    def __len__(self) -> int:
        return len(self.sets)

    def __getitem__(self, index: int) -> FrozenSet[int]:
        return self.sets[index]

    def __iter__(self) -> Iterator[FrozenSet[int]]:
        return iter(self.sets)

    def selects(self, z: int, zs: FrozenSet[int]) -> bool:
        """Whether some member set isolates ``z`` within ``zs``."""
        return any(zs & f == {z} for f in self.sets)

    def __deepcopy__(self, memo: object) -> "SelectiveFamily":
        # Immutable: processes sharing a family may share it across clones.
        return self


#: Signature of an SSF builder: ``builder(n, k) -> SelectiveFamily``.
SSFBuilder = Callable[[int, int], SelectiveFamily]


def round_robin_family(n: int) -> SelectiveFamily:
    """The singleton family ``{0}, {1}, …, {n−1}`` — an ``(n, n)``-SSF.

    Every node is trivially isolated in its own slot; this is the family
    Strong Select uses at the top level ``s_max``.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return SelectiveFamily(
        n=n,
        k=n,
        sets=tuple(frozenset([i]) for i in range(n)),
        construction="round-robin",
    )


def full_family(n: int) -> SelectiveFamily:
    """The single set ``{0, …, n−1}`` — an ``(n, 1)``-SSF of size 1."""
    return SelectiveFamily(
        n=n,
        k=1,
        sets=(frozenset(range(n)),),
        construction="full",
    )


def random_ssf(
    n: int,
    k: int,
    seed: int = 0,
    delta: float = 1e-3,
    size_cap: Optional[int] = None,
) -> SelectiveFamily:
    """The seeded existential construction (paper Theorem 7, [14]).

    Samples ``m`` sets, each containing each id independently with
    probability ``1/k``.  The size ``m = ⌈e·k·(k·ln n + ln k + ln(1/δ))⌉``
    makes the family ``(n, k)``-strongly selective with probability at
    least ``1 − δ`` (union bound over all ``≤ k·n^k`` pairs ``(Z, z)``,
    each isolated per set with probability ``≥ 1/(e·k)``).

    When the bound exceeds ``n`` the round-robin family is returned
    instead, matching the paper's ``O(min{n, k² log n})``.

    Args:
        n: Universe size.
        k: Selectivity target (``1 ≤ k ≤ n``).
        seed: PRNG seed.
        delta: Failure probability budget for the whole family.
        size_cap: Optional explicit family size override (used by tests
            and ablations; bypasses the analytic bound).
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if k == 1:
        return full_family(n)
    if size_cap is None:
        m = math.ceil(
            math.e * k * (k * math.log(n) + math.log(k) + math.log(1 / delta))
        )
    else:
        m = size_cap
    if m >= n and size_cap is None:
        return round_robin_family(n)
    rng = random.Random(f"ssf:{seed}:{n}:{k}")
    p = 1.0 / k
    sets = tuple(
        frozenset(i for i in range(n) if rng.random() < p) for _ in range(m)
    )
    return SelectiveFamily(
        n=n, k=k, sets=sets, construction=f"random(seed={seed},delta={delta})"
    )


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


def _next_prime(q: int) -> int:
    while not _is_prime(q):
        q += 1
    return q


def kautz_singleton_ssf(n: int, k: int) -> SelectiveFamily:
    """The constructive Reed–Solomon superimposed-code SSF ([19]).

    Ids are encoded as polynomials of degree ``< d`` over ``GF(q)`` (``q``
    prime, ``q^d ≥ n``); the family has one set per (evaluation point,
    symbol) pair: ``F_{(x, y)} = { i : poly_i(x) = y }``.

    Two distinct polynomials agree on at most ``d − 1`` points, so for any
    ``Z`` with ``|Z| ≤ k`` and ``z ∈ Z`` the codeword of ``z`` is covered
    by the other ``≤ k − 1`` codewords on at most ``(k−1)(d−1)`` points;
    choosing ``q > (k−1)(d−1)`` leaves a point ``x`` where ``z`` is alone,
    and ``F_{(x, poly_z(x))}`` isolates it.  The family size is ``q² =
    O(k² log² n)``.

    Falls back to round robin whenever that is smaller, matching
    ``O(min{n, k² log² n})``.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if k == 1:
        return full_family(n)

    # Find the smallest prime q with q > (k-1)*(d-1) where d = ceil(log_q n).
    q = _next_prime(max(2, k))
    while True:
        d = max(1, math.ceil(math.log(max(n, 2), q)))
        while q**d < n:
            d += 1
        if q > (k - 1) * (d - 1):
            break
        q = _next_prime(q + 1)

    if q * q >= n:
        return round_robin_family(n)

    # Encode id i as the base-q digit polynomial; evaluate at x in GF(q).
    sets: List[set] = [set() for _ in range(q * q)]
    for i in range(n):
        digits = []
        v = i
        for _ in range(d):
            digits.append(v % q)
            v //= q
        for x in range(q):
            # Horner evaluation of the digit polynomial at x mod q.
            y = 0
            for c in reversed(digits):
                y = (y * x + c) % q
            sets[x * q + y].add(i)
    return SelectiveFamily(
        n=n,
        k=k,
        sets=tuple(frozenset(s) for s in sets),
        construction=f"kautz-singleton(q={q},d={d})",
    )


def verify_ssf(
    family: SelectiveFamily,
    exhaustive_limit: int = 2_000_000,
    samples: int = 20_000,
    seed: int = 0,
) -> bool:
    """Check ``(n, k)``-strong selectivity.

    Performs an exact check when the number of ``(Z, z)`` pairs is at most
    ``exhaustive_limit``; otherwise draws ``samples`` random pairs (seeded)
    and checks those.  Returns ``True`` when no violation is found.
    """
    n, k = family.n, family.k
    total_pairs = sum(
        math.comb(n, size) * size for size in range(1, k + 1)
    )
    if total_pairs <= exhaustive_limit:
        for size in range(1, k + 1):
            for zs in itertools.combinations(range(n), size):
                fz = frozenset(zs)
                for z in zs:
                    if not family.selects(z, fz):
                        return False
        return True
    rng = random.Random(seed)
    for _ in range(samples):
        size = rng.randint(1, k)
        zs = frozenset(rng.sample(range(n), size))
        z = rng.choice(sorted(zs))
        if not family.selects(z, zs):
            return False
    return True


def find_violation(
    family: SelectiveFamily,
) -> Optional[Tuple[FrozenSet[int], int]]:
    """Exhaustively find a ``(Z, z)`` pair the family fails to select.

    Exponential; intended for tests on small instances.  Returns ``None``
    when the family is genuinely ``(n, k)``-strongly selective.
    """
    n, k = family.n, family.k
    for size in range(1, k + 1):
        for zs in itertools.combinations(range(n), size):
            fz = frozenset(zs)
            for z in zs:
                if not family.selects(z, fz):
                    return fz, z
    return None
