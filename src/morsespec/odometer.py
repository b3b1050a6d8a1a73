"""Truncated odometer space over a growing list of distinct odd primes.

A configuration fixes primes p_0 < p_1 < ... < p_{N-1}.  The acting group
is the direct sum of the cyclic groups Z/p_n and the space it acts on is
their full product; with finitely many primes the two are one set.  So a
group element and a point are both a tuple of N residues, the n-th in
0..p_n - 1, and the group law and the action are both coordinatewise
addition (add).  An element of G_n is zero past coordinate n.

Stage n of the tower structure partitions the space by the first n
coordinates: the base consists of the points whose first n coordinates
vanish, and translating the base by h in G_n = Z/p_0 x ... x Z/p_{n-1}
sweeps out the whole space, one pairwise disjoint piece per h.

Theorem-grade configurations additionally require p_n >= 5^(2(n+1)), the
growth floor that later makes the spectral tail summable.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterator, NamedTuple, Sequence

from .errors import BudgetError, ConfigError

EXPERIMENTAL = "experimental"
THEOREM_GRADE = "theorem-grade"

# Deterministic Miller-Rabin witness set, complete for n < 3.317e24
# (Sorenson-Webster).  Beyond that the strong BPSW test decides, a
# probable-prime test: theorem stages 18 and up (from p_17) rest on it.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Primality: exact below _MR_LIMIT, a probable-prime test past it."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        # a composite this small has a prime factor <= 41, a witness
        return True
    return _bpsw(n) if n >= _MR_LIMIT else all(_strong_round(n, a) for a in _MR_WITNESSES)


def _strong_round(n: int, a: int) -> bool:
    """One Miller-Rabin round: whether odd n > 2 is a strong probable prime
    to base a, which n must not divide.  With n - 1 = d * 2^s, d odd:
    a^d = 1 or a^(d 2^r) = -1 (mod n) for some 0 <= r < s."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _bpsw(n: int) -> bool:
    """The strong Baillie-PSW probable-prime test of n >= 3 (Baillie and
    Wagstaff, Lucas pseudoprimes, Math. Comp. 1980): a Miller-Rabin round
    at base 2, then a strong Lucas test.  No composite is known to pass."""
    return _strong_round(n, 2) and _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) of odd n > 0, by quadratic reciprocity."""
    a, sign = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of odd n >= 3 with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1
    and Q = (1 - D)/4.  With n + 1 = d * 2^s, d odd: U_d = 0 or
    V_(d 2^r) = 0 (mod n) for some 0 <= r < s.  The ladder runs U_k, V_k
    and Q^k from k = 1 up through d's bits: doubling k by U_2k = U_k V_k
    and V_2k = V_k^2 - 2 Q^k, then adding 1 by 2 U_k+1 = U_k + V_k and
    2 V_k+1 = D U_k + V_k."""
    if math.isqrt(n) ** 2 == n:
        return False  # a square has no such D
    D = 5
    while _jacobi(D, n) != -1:
        D = -D - 2 if D > 0 else 2 - D
    Q, half = (1 - D) // 4, (n + 1) // 2
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    u, v, q = 1, 1, Q % n
    for bit in bin((n + 1) >> s)[3:]:
        u, v, q = u * v % n, (v * v - 2 * q) % n, q * q % n
        if bit == "1":
            u, v, q = (u + v) * half % n, (D * u + v) * half % n, q * Q % n
    for _ in range(s):
        if u == 0 or v == 0:
            return True
        v, q = (v * v - 2 * q) % n, q * q % n
    return False


def growth_floor(n: int) -> int:
    """Least admissible value of the n-th prime in theorem-grade mode."""
    return 5 ** (2 * (n + 1))


def theorem_primes(count: int) -> tuple[int, ...]:
    """The first `count` primes meeting the growth floor, greedily:
    each entry is the least prime >= 5^(2(n+1))."""
    primes = []
    for n in range(count):
        candidate = growth_floor(n)
        while not is_prime(candidate):
            candidate += 1
        primes.append(candidate)
    return tuple(primes)


class GroupConfig(NamedTuple):
    """Validated list of acting primes plus the growth-rule mode."""

    primes: tuple[int, ...]
    mode: str = EXPERIMENTAL

    @property
    def level(self) -> int:
        return len(self.primes)


def make_group_config(primes: Sequence[int], mode: str = EXPERIMENTAL) -> GroupConfig:
    """Validate and freeze a configuration.

    Rejects non-primes, the prime 2 (the quadratic character tables need
    an odd modulus), repeats or non-increasing lists, and, in
    theorem-grade mode, any prime below its growth floor.
    """
    if mode not in (EXPERIMENTAL, THEOREM_GRADE):
        raise ConfigError(f"unknown mode {mode!r}")
    primes = tuple(int(p) for p in primes)
    if not primes:
        raise ConfigError("at least one prime is required")
    for n, p in enumerate(primes):
        if not is_prime(p):
            raise ConfigError(f"{p} is not prime (position {n})")
        if p == 2:
            raise ConfigError("the prime 2 is not admissible; only odd primes carry a quadratic character table")
        if n > 0 and p <= primes[n - 1]:
            raise ConfigError(f"primes must be strictly increasing, got {primes[n - 1]} before {p}")
        if mode == THEOREM_GRADE and p < growth_floor(n):
            raise ConfigError(
                f"theorem-grade mode requires prime #{n} >= {growth_floor(n)}, got {p}"
            )
    return GroupConfig(primes=primes, mode=mode)


def element(residues: Sequence[int], cfg: GroupConfig) -> tuple[int, ...]:
    """The element with these leading residues, each reduced mod its
    prime, zero-padded to one residue per configured prime."""
    if len(residues) > cfg.level:
        raise ConfigError(f"{len(residues)} residues for a configuration of {cfg.level} primes")
    tail = (0,) * (cfg.level - len(residues))
    return tuple(int(r) % p for r, p in zip(residues, cfg.primes)) + tail


def add(a: tuple[int, ...], b: tuple[int, ...], cfg: GroupConfig) -> tuple[int, ...]:
    """The group law, and the action on points: coordinatewise addition."""
    return tuple((x + y) % p for x, y, p in zip(a, b, cfg.primes))


def level_group_order(n: int, cfg: GroupConfig) -> int:
    """|G_n| = p_0 * ... * p_{n-1}."""
    _check_stage(n, cfg)
    return math.prod(cfg.primes[:n])


# elements or points any one enumeration below may yield
_ENUMERATION_BUDGET = 10**6


def enumerate_level_group(n: int, cfg: GroupConfig) -> Iterator[tuple[int, ...]]:
    """All of G_n in lexicographic order (identity first), each element
    zero-padded to full length."""
    size = level_group_order(n, cfg)
    if size > _ENUMERATION_BUDGET:
        raise BudgetError(f"|G_{n}| = {size} exceeds enumeration budget {_ENUMERATION_BUDGET}")
    tail = (0,) * (cfg.level - n)
    return (vec + tail for vec in itertools.product(*(range(p) for p in cfg.primes[:n])))


def fiber_size(n: int, cfg: GroupConfig) -> int:
    """Number of points sharing a fixed stage-n prefix."""
    _check_stage(n, cfg)
    return math.prod(cfg.primes[n:])


def level_fiber(h: tuple[int, ...], n: int, cfg: GroupConfig) -> Iterator[tuple[int, ...]]:
    """All points of the tower piece indexed by h at stage n: first n
    coordinates equal h, remaining coordinates free."""
    _check_stage(n, cfg)
    if any(h[n:]):
        raise ConfigError(f"index element must lie in G_{n}")
    size = fiber_size(n, cfg)
    if size > _ENUMERATION_BUDGET:
        raise BudgetError(f"fiber size {size} exceeds enumeration budget {_ENUMERATION_BUDGET}")
    prefix = h[:n]
    for tail in itertools.product(*(range(p) for p in cfg.primes[n:])):
        yield prefix + tail


def enumerate_points(cfg: GroupConfig) -> Iterator[tuple[int, ...]]:
    """The whole truncated space, lexicographically."""
    return level_fiber((0,) * cfg.level, 0, cfg)


def random_element(cfg: GroupConfig, rng: random.Random, level: int | None = None) -> tuple[int, ...]:
    """Uniform element of G_level (default: the full truncated group, so
    equally a uniform point)."""
    n = cfg.level if level is None else level
    _check_stage(n, cfg)
    return tuple(rng.randrange(p) for p in cfg.primes[:n]) + (0,) * (cfg.level - n)


random_point = random_element


def _check_stage(n: int, cfg: GroupConfig) -> None:
    if not 0 <= n <= cfg.level:
        raise ConfigError(f"stage {n} outside 0..{cfg.level}")
