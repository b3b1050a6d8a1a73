import math
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import morsespec as ms
from morsespec import odometer
from morsespec.errors import BudgetError, ConfigError
from oracles import neg, sub


def test_is_prime_matches_sympy_small_range():
    for n in range(-3, 5000):
        assert ms.is_prime(n) == sympy.isprime(n), n


def test_is_prime_large_cases():
    assert ms.is_prime(2**61 - 1)
    assert not ms.is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
    assert not ms.is_prime(25326001)
    assert ms.is_prime(15629)
    assert not ms.is_prime(15629 * 15641)


# the strong Lucas pseudoprimes (Selfridge's parameters) below 10^5
STRONG_LUCAS_PSEUDOPRIMES = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439]


def test_bpsw_matches_sympy_below_2e5():
    # is_prime reaches the BPSW test only past _MR_LIMIT, so it is checked
    # directly here, on every n of its domain n >= 3 up to 2e5
    assert [n for n in range(3, 200_000) if odometer._bpsw(n) != sympy.isprime(n)] == []


def test_strong_lucas_pseudoprimes_fail_the_base_2_round():
    lucas = [n for n in range(3, 10**5, 2) if odometer._strong_lucas(n) and not sympy.isprime(n)]
    assert lucas == STRONG_LUCAS_PSEUDOPRIMES
    assert not any(odometer._bpsw(n) for n in lucas)


def test_strong_base_2_pseudoprimes_fail_the_lucas_half():
    base_2 = [n for n in range(3, 10**6, 2) if odometer._strong_round(n, 2) and not sympy.isprime(n)]
    assert len(base_2) == 46 and base_2[:3] == [2047, 3277, 4033]
    assert not any(odometer._strong_lucas(n) for n in base_2)


def test_is_prime_matches_sympy_past_the_mr_limit():
    limit = odometer._MR_LIMIT
    # the least strong pseudoprime to all 13 witnesses, 1287836182261 * 2575672364521
    assert all(odometer._strong_round(limit, a) for a in odometer._MR_WITNESSES)
    assert not ms.is_prime(limit)
    primes = ms.theorem_primes(25)
    assert sum(p >= limit for p in primes) == 8
    for p in primes:
        for n in (p - 2, p, p + 2):
            assert ms.is_prime(n) == sympy.isprime(n), n
    rng = random.Random(5)
    factors = [sympy.nextprime(rng.randrange(10**12, 10**40)) for _ in range(40)]
    semiprimes = [a * b for a, b in zip(factors, factors[1:] + factors[:1]) if a * b >= limit]
    assert len(semiprimes) > 30
    assert not any(map(ms.is_prime, semiprimes))
    assert not ms.is_prime(primes[17] ** 2)  # a square has no Selfridge parameter


def test_growth_floor_values():
    assert ms.growth_floor(0) == 25
    assert ms.growth_floor(1) == 625
    assert ms.growth_floor(2) == 15625


def test_theorem_primes_frozen():
    assert ms.theorem_primes(3) == (29, 631, 15629)


def test_theorem_primes_are_least_admissible():
    primes = ms.theorem_primes(12)
    for n, p in enumerate(primes):
        floor = ms.growth_floor(n)
        assert p >= floor and ms.is_prime(p)
        assert all(not ms.is_prime(q) for q in range(floor, p))
    # past p_5 the deterministic Miller-Rabin set, not a table, vouches for
    # each prime: sympy is the second route, on the primes and the gaps
    for n, p in enumerate(primes[6:], start=6):
        assert sympy.isprime(p), n
        assert not any(sympy.isprime(q) for q in range(ms.growth_floor(n), p)), n


def test_make_group_config_validations():
    with pytest.raises(ConfigError):
        ms.make_group_config([])
    with pytest.raises(ConfigError):
        ms.make_group_config([4])
    with pytest.raises(ConfigError):
        ms.make_group_config([2, 5])
    with pytest.raises(ConfigError):
        ms.make_group_config([7, 5])
    with pytest.raises(ConfigError):
        ms.make_group_config([5, 5])
    with pytest.raises(ConfigError):
        ms.make_group_config([5, 7], mode="bogus")
    with pytest.raises(ConfigError):
        ms.make_group_config([5, 7], mode=ms.THEOREM_GRADE)
    cfg = ms.make_group_config([29, 631], mode=ms.THEOREM_GRADE)
    assert cfg.level == 2 and cfg.mode == ms.THEOREM_GRADE


def test_element_reduction_and_validation(cfg57):
    assert ms.element([7, 9], cfg57) == (2, 2)
    assert ms.element([-3, 7 * 10**22 + 3], cfg57) == (2, 3)
    assert ms.element([4], cfg57) == (4, 0)
    assert ms.element([5, 7], cfg57) == ms.element([], cfg57) == (0, 0)
    with pytest.raises(ConfigError):
        ms.element([1, 2, 3], cfg57)


@st.composite
def elements_5_7_11(draw):
    cfg = ms.make_group_config([5, 7, 11])
    residues = [draw(st.integers(min_value=0, max_value=p - 1)) for p in cfg.primes]
    return ms.element(residues, cfg)


@settings(max_examples=200, deadline=None)
@given(a=elements_5_7_11(), b=elements_5_7_11(), c=elements_5_7_11())
def test_group_laws(a, b, c):
    cfg = ms.make_group_config([5, 7, 11])
    assert ms.add(ms.add(a, b, cfg), c, cfg) == ms.add(a, ms.add(b, c, cfg), cfg)
    assert ms.add(a, b, cfg) == ms.add(b, a, cfg)
    assert ms.add(a, (0, 0, 0), cfg) == a
    assert ms.add(a, neg(a, cfg), cfg) == (0, 0, 0)
    assert sub(a, b, cfg) == ms.add(a, neg(b, cfg), cfg)


def test_enumeration_is_lexicographic(cfg57):
    group = list(ms.enumerate_level_group(2, cfg57))
    assert len(group) == ms.level_group_order(2, cfg57) == 35
    assert group == sorted(group)
    assert group[0] == (0, 0)
    assert group[1] == (0, 1)
    assert len(set(group)) == 35
    # G_1 inside the level-2 configuration: zeros past coordinate 1
    assert list(ms.enumerate_level_group(1, cfg57)) == [(r, 0) for r in range(5)]


def test_enumeration_budget(cfg5711, monkeypatch):
    monkeypatch.setattr(odometer, "_ENUMERATION_BUDGET", 10)
    with pytest.raises(BudgetError, match="exceeds enumeration budget 10"):
        list(ms.enumerate_level_group(3, cfg5711))


def test_add_acts_on_points(cfg57):
    x = (4, 6)
    g = ms.element([2, 3], cfg57)
    assert ms.add(x, g, cfg57) == (1, 2)
    roundtrip = ms.add(ms.add(x, g, cfg57), neg(g, cfg57), cfg57)
    assert roundtrip == x
    assert ms.add((0, 0), g, cfg57) == g


def test_tower_partition(cfg57):
    # stage-n pieces partition the whole space
    for n in (0, 1, 2):
        seen = set()
        for h in ms.enumerate_level_group(n, cfg57):
            fiber = list(ms.level_fiber(h, n, cfg57))
            assert len(fiber) == ms.fiber_size(n, cfg57)
            for x in fiber:
                assert x[:n] == h[:n]
            seen.update(fiber)
        assert len(seen) == 35


def test_level_fiber_validation(cfg57, monkeypatch):
    too_wide = ms.element([0, 1], cfg57)
    with pytest.raises(ConfigError):
        list(ms.level_fiber(too_wide, 1, cfg57))
    monkeypatch.setattr(odometer, "_ENUMERATION_BUDGET", 3)
    with pytest.raises(BudgetError, match="exceeds enumeration budget 3"):
        list(ms.level_fiber((0, 0), 0, cfg57))


def test_enumerate_points_order(cfg57):
    pts = list(ms.enumerate_points(cfg57))
    assert len(pts) == 35
    assert pts[0] == (0, 0)
    assert pts == sorted(pts)


def test_random_helpers_are_seed_deterministic(cfg5711):
    a = [ms.random_element(cfg5711, random.Random(7)) for _ in range(5)]
    b = [ms.random_element(cfg5711, random.Random(7)) for _ in range(5)]
    assert a == b
    assert ms.random_point(cfg5711, random.Random(3)) == ms.random_point(
        cfg5711, random.Random(3)
    )
    g = ms.random_element(cfg5711, random.Random(1), level=2)
    assert len(g) == 3 and g[2] == 0


def test_fiber_size_values(cfg5711):
    assert ms.fiber_size(0, cfg5711) == 5 * 7 * 11
    assert ms.fiber_size(2, cfg5711) == 11
    assert ms.fiber_size(3, cfg5711) == 1
    assert math.prod(cfg5711.primes) == 385
