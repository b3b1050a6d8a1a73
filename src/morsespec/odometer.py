"""Truncated odometer space over a growing list of distinct odd primes.

A configuration fixes primes p_0 < p_1 < ... < p_{N-1}.  The acting group
is the direct sum of the cyclic groups Z/p_n, realised as finitely
supported residue vectors added coordinatewise.  The space it acts on is
the full product of the same cyclic groups, a point being a residue
vector of length N, and the action is coordinatewise translation.

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
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .errors import BudgetError, ConfigError

EXPERIMENTAL = "experimental"
THEOREM_GRADE = "theorem-grade"

# Deterministic Miller-Rabin witness set, complete for n < 3.317e24
# (Sorenson-Webster).  Beyond that we defer to sympy.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality test; exact for every input."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        import sympy

        return bool(sympy.isprime(n))
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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


@dataclass(frozen=True)
class GroupConfig:
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


@dataclass(frozen=True)
class GroupElement:
    """Finitely supported residue vector, stored sparsely.

    `coords` lists (index, residue) pairs with 0 < residue < p_index,
    sorted by index.  The identity is the empty tuple.
    """

    coords: tuple[tuple[int, int], ...] = ()

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(idx for idx, _ in self.coords)

    @property
    def is_identity(self) -> bool:
        return not self.coords

    def residue(self, n: int) -> int:
        for idx, res in self.coords:
            if idx == n:
                return res
        return 0

    def max_index(self) -> int:
        """Largest coordinate index in the support, -1 for the identity."""
        return self.coords[-1][0] if self.coords else -1

    def vector(self, level: int) -> tuple[int, ...]:
        """Dense residue vector of length `level`."""
        out = [0] * level
        for idx, res in self.coords:
            if idx >= level:
                raise ValueError(f"support index {idx} exceeds level {level}")
            out[idx] = res
        return tuple(out)


IDENTITY = GroupElement()


def element(data: Mapping[int, int] | Sequence[int], cfg: GroupConfig) -> GroupElement:
    """Build a group element from a dense residue sequence or a sparse
    index->residue mapping; residues are reduced mod the matching prime."""
    if isinstance(data, Mapping):
        items = data.items()
    else:
        items = enumerate(data)
    coords = []
    for idx, res in items:
        if not 0 <= idx < cfg.level:
            raise ConfigError(f"coordinate index {idx} outside configuration of {cfg.level} primes")
        res = int(res) % cfg.primes[idx]
        if res:
            coords.append((idx, res))
    coords.sort()
    if len({idx for idx, _ in coords}) != len(coords):
        raise ConfigError("duplicate coordinate index")
    return GroupElement(tuple(coords))


def add(a: GroupElement, b: GroupElement, cfg: GroupConfig) -> GroupElement:
    merged: dict[int, int] = dict(a.coords)
    for idx, res in b.coords:
        merged[idx] = (merged.get(idx, 0) + res) % cfg.primes[idx]
    return GroupElement(tuple(sorted((i, r) for i, r in merged.items() if r)))


def neg(a: GroupElement, cfg: GroupConfig) -> GroupElement:
    return GroupElement(tuple((i, cfg.primes[i] - r) for i, r in a.coords))


def sub(a: GroupElement, b: GroupElement, cfg: GroupConfig) -> GroupElement:
    return add(a, neg(b, cfg), cfg)


def level_group_order(n: int, cfg: GroupConfig) -> int:
    """|G_n| = p_0 * ... * p_{n-1}."""
    _check_stage(n, cfg)
    return math.prod(cfg.primes[:n])


def level_group_vectors(
    n: int, cfg: GroupConfig, budget: int = 10**6
) -> Iterator[tuple[int, ...]]:
    """The dense residue vectors of G_n, of length n, in lexicographic
    order (identity first)."""
    size = level_group_order(n, cfg)
    if size > budget:
        raise BudgetError(f"|G_{n}| = {size} exceeds enumeration budget {budget}")
    return itertools.product(*(range(p) for p in cfg.primes[:n]))


def enumerate_level_group(n: int, cfg: GroupConfig, budget: int = 10**6) -> Iterator[GroupElement]:
    """All of G_n in lexicographic order of dense vectors (identity first)."""
    for vec in level_group_vectors(n, cfg, budget):
        yield GroupElement(tuple((i, r) for i, r in enumerate(vec) if r))


def point(values: Sequence[int], cfg: GroupConfig) -> tuple[int, ...]:
    """Full residue vector of length N, reduced coordinatewise."""
    if len(values) != cfg.level:
        raise ConfigError(f"point needs {cfg.level} coordinates, got {len(values)}")
    return tuple(int(v) % p for v, p in zip(values, cfg.primes))


def zero_point(cfg: GroupConfig) -> tuple[int, ...]:
    return (0,) * cfg.level


def translate(x: tuple[int, ...], g: GroupElement, cfg: GroupConfig) -> tuple[int, ...]:
    """The action: add g to x coordinatewise."""
    out = list(x)
    for idx, res in g.coords:
        out[idx] = (out[idx] + res) % cfg.primes[idx]
    return tuple(out)


def tower_address(x: tuple[int, ...], n: int, cfg: GroupConfig) -> GroupElement:
    """The unique h in G_n whose translate of the stage-n base contains x."""
    _check_stage(n, cfg)
    return GroupElement(tuple((i, x[i]) for i in range(n) if x[i]))


def fiber_size(n: int, cfg: GroupConfig) -> int:
    """Number of points sharing a fixed stage-n prefix."""
    _check_stage(n, cfg)
    return math.prod(cfg.primes[n:])


def level_fiber(
    h: GroupElement, n: int, cfg: GroupConfig, budget: int = 10**6
) -> Iterator[tuple[int, ...]]:
    """All points of the tower piece indexed by h at stage n: first n
    coordinates equal h, remaining coordinates free."""
    _check_stage(n, cfg)
    if h.max_index() >= n:
        raise ConfigError(f"index element must lie in G_{n}")
    size = fiber_size(n, cfg)
    if size > budget:
        raise BudgetError(f"fiber size {size} exceeds enumeration budget {budget}")
    prefix = h.vector(n)
    for tail in itertools.product(*(range(p) for p in cfg.primes[n:])):
        yield prefix + tail


def enumerate_points(cfg: GroupConfig, budget: int = 10**6) -> Iterator[tuple[int, ...]]:
    """The whole truncated space, lexicographically."""
    return level_fiber(IDENTITY, 0, cfg, budget=budget)


def random_element(cfg: GroupConfig, rng: random.Random, level: int | None = None) -> GroupElement:
    """Uniform element of G_level (default: the full truncated group)."""
    n = cfg.level if level is None else level
    _check_stage(n, cfg)
    return GroupElement(
        tuple((i, r) for i in range(n) if (r := rng.randrange(cfg.primes[i])))
    )


def random_point(cfg: GroupConfig, rng: random.Random) -> tuple[int, ...]:
    return tuple(rng.randrange(p) for p in cfg.primes)


def random_fiber_point(
    h: GroupElement, n: int, cfg: GroupConfig, rng: random.Random
) -> tuple[int, ...]:
    """Uniform point of the stage-n tower piece indexed by h."""
    _check_stage(n, cfg)
    return h.vector(n) + tuple(rng.randrange(p) for p in cfg.primes[n:])


def _check_stage(n: int, cfg: GroupConfig) -> None:
    if not 0 <= n <= cfg.level:
        raise ConfigError(f"stage {n} outside 0..{cfg.level}")
