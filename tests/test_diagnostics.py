import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import morsespec as ms
from morsespec import diagnostics
from morsespec.charsums import numerator_counts
from morsespec.errors import BudgetError, ConfigError
from oracles import FunnyWord, complement, hamming, name_atlas, name_word, sub

CFG5 = ms.make_group_config([5])
CTX5 = ms.build_context(CFG5)


def test_funny_word_validation():
    dom = tuple(ms.enumerate_level_group(1, CFG5))
    FunnyWord(domain=dom, bits=(0, 1, 0, 1, 1))
    with pytest.raises(ConfigError):
        FunnyWord(domain=dom, bits=(0, 1))
    with pytest.raises(ConfigError):
        FunnyWord(domain=dom, bits=(0, 1, 2, 0, 0))
    with pytest.raises(ConfigError):
        FunnyWord(domain=(dom[0], dom[0]), bits=(0, 1))
    with pytest.raises(ConfigError):
        FunnyWord(domain=(), bits=())


def test_complement_flips_every_bit():
    dom = tuple(ms.enumerate_level_group(1, CFG5))
    word = FunnyWord(domain=dom, bits=(0, 0, 1, 1, 0))
    assert complement(word).bits == (1, 1, 0, 0, 1)
    assert complement(complement(word)) == word


def test_hamming_basic_cases():
    dom = tuple(ms.enumerate_level_group(1, CFG5))
    a = FunnyWord(domain=dom, bits=(0, 0, 1, 1, 0))
    b = FunnyWord(domain=dom, bits=(0, 1, 1, 0, 0))
    assert hamming(a, a) == 0
    assert hamming(a, b) == Fraction(2, 5)
    assert hamming(a, complement(a)) == 1


def test_hamming_rejects_mismatched_domains(ctx57):
    dom5 = tuple(ms.enumerate_level_group(1, CFG5))
    dom57 = tuple(ms.enumerate_level_group(2, ctx57.cfg))[:5]
    a = FunnyWord(domain=dom5, bits=(0,) * 5)
    b = FunnyWord(domain=dom57, bits=(0,) * 5)
    with pytest.raises(ConfigError):
        hamming(a, b)
    c = FunnyWord(domain=dom5[:3], bits=(0,) * 3)
    with pytest.raises(ConfigError):
        hamming(a, c)


@settings(max_examples=100, deadline=None)
@given(
    b1=st.tuples(*([st.integers(0, 1)] * 5)),
    b2=st.tuples(*([st.integers(0, 1)] * 5)),
    b3=st.tuples(*([st.integers(0, 1)] * 5)),
)
def test_hamming_triangle_inequality(b1, b2, b3):
    dom = tuple(ms.enumerate_level_group(1, CFG5))
    w1, w2, w3 = (FunnyWord(domain=dom, bits=b) for b in (b1, b2, b3))
    assert hamming(w1, w3) <= hamming(w1, w2) + hamming(w2, w3)


def test_name_word_frozen_base_name():
    # base class of stage 1 over p=5: bit at g is 0 iff z(g) = +1,
    # and the zero-values of the table product are (1,1,-1,-1,1)
    word = name_word((0,), 1, 1, CTX5)
    assert word.bits == (0, 0, 1, 1, 0)
    flipped = name_word((0,), -1, 1, CTX5)
    assert flipped.bits == (1, 1, 0, 0, 1)
    assert flipped == complement(word)


def test_name_word_oracle_exhaustive():
    # independent route: bit 0 exactly when z(g+h) z(h) gamma = 1
    for h in ms.enumerate_level_group(1, CFG5):
        for gamma in (1, -1):
            word = name_word(h, gamma, 1, CTX5)
            for g, bit in zip(word.domain, word.bits):
                z = ms.cocycle_at_zero(ms.add(g, h, CFG5), CTX5) * ms.cocycle_at_zero(
                    h, CTX5
                )
                assert bit == (0 if z * gamma == 1 else 1)


def test_name_word_validation():
    with pytest.raises(ConfigError):
        name_word((0,), 0, 1, CTX5)
    wide = ms.element([0, 1], ms.make_group_config([5, 7]))
    with pytest.raises(ConfigError):
        name_word(wide, 1, 1, CTX5)


def test_atlas_structure(ctx57):
    atlas = name_atlas(2, ctx57)
    assert atlas.level == 2
    assert len(atlas.words) == 70  # 2 |G_2|
    assert atlas.class_measure == Fraction(1, 70)
    assert len(set(atlas.words)) == 70
    # gamma-flip pairs are complements of each other
    for h in ms.enumerate_level_group(2, ctx57.cfg):
        assert atlas.word(h, -1) == complement(atlas.word(h, 1))


def test_atlas_budget():
    with pytest.raises(BudgetError) as err:
        name_atlas(1, CTX5, max_names=4)
    assert "10" in str(err.value)


def test_pairwise_distance_law(ctx57):
    # exact law: d(name(h, gamma), name(h', gamma')) =
    #   (1 - gamma gamma' z(h) z(h') coeff(h' - h)) / 2,
    # checked against direct hamming counts for every pair and sign
    cfg = ctx57.cfg
    n = 2
    atlas = name_atlas(n, ctx57)
    elems = list(ms.enumerate_level_group(n, cfg))
    for h, hp in itertools.product(elems, elems):
        coeff = ms.spectral_coefficient(sub(hp, h, cfg), ctx57).value
        zz = ms.cocycle_at_zero(h, ctx57) * ms.cocycle_at_zero(hp, ctx57)
        for gamma, gammap in itertools.product((1, -1), (1, -1)):
            predicted = (1 - gamma * gammap * zz * coeff) / 2
            actual = hamming(atlas.word(h, gamma), atlas.word(hp, gammap))
            assert actual == predicted


def test_distance_is_not_translation_invariant():
    # pairs with equal difference can sit at different distances: over
    # p=5 the pair (0,3) is at 1/5 while (1,4) is at 4/5
    atlas = name_atlas(1, CTX5)
    e = lambda r: ms.element([r], CFG5)
    d03 = hamming(atlas.word(e(0), 1), atlas.word(e(3), 1))
    d14 = hamming(atlas.word(e(1), 1), atlas.word(e(4), 1))
    assert d03 == Fraction(1, 5)
    assert d14 == Fraction(4, 5)
    assert d03 != d14


def test_distance_twisted_invariance():
    # what IS invariant: the distance depends on h' - h only through the
    # correction factor gamma gamma' z(h) z(h'); fixing that product
    # pins the distance
    atlas = name_atlas(1, CTX5)
    elems = list(ms.enumerate_level_group(1, CFG5))
    seen = {}
    for h, hp in itertools.product(elems, elems):
        for gamma, gammap in itertools.product((1, -1), (1, -1)):
            twist = (
                gamma
                * gammap
                * ms.cocycle_at_zero(h, CTX5)
                * ms.cocycle_at_zero(hp, CTX5)
            )
            key = (sub(hp, h, CFG5), twist)
            d = hamming(atlas.word(h, gamma), atlas.word(hp, gammap))
            assert seen.setdefault(key, d) == d


def brute_separation(n, ctx):
    """The separation report from every word of the atlas.  With the words'
    bits as the rows of W and S = 1 - 2W, words a and b differ in
    (L - S_a . S_b) / 2 of their L bits; hamming must agree on a few
    hundred pairs."""
    atlas = name_atlas(n, ctx)
    signs = 1 - 2 * np.array([word.bits for word in atlas.words], dtype=np.int64)
    count, length = signs.shape
    differ = (length - signs @ signs.T) // 2
    a, b = np.triu_indices(count, 1)
    step = max(1, len(a) // 300)
    for i, j in zip(a[::step].tolist(), b[::step].tolist()):
        assert hamming(atlas.words[i], atlas.words[j]) == Fraction(int(differ[i, j]), length)
    values, counts = np.unique(differ[a, b], return_counts=True)
    return ms.SeparationReport(
        level=n,
        name_count=count,
        pair_count=int(counts.sum()),
        delta_min=Fraction(int(values[0]), length),
        histogram=tuple(
            (Fraction(v, length), c) for v, c in zip(values.tolist(), counts.tolist())
        ),
    )


SMALL_STAGES = [
    (primes, n)
    for primes in ([5, 7], [3, 5, 7], [13, 17], [5, 7, 11], [29], [3], [11, 13])
    for n in range(len(primes) + 1)
    if math.prod(primes[:n]) <= 1000
]


@pytest.mark.parametrize(
    "primes,n",
    SMALL_STAGES,
    ids=[f"{','.join(map(str, primes))}-stage{n}" for primes, n in SMALL_STAGES],
)
def test_separation_matches_atlas(primes, n):
    ctx = ms.build_context(ms.make_group_config(primes))
    assert ms.name_separation(n, ctx) == brute_separation(n, ctx)


def test_separation_frozen_small():
    report = ms.name_separation(1, CTX5)
    assert report == brute_separation(1, CTX5)
    assert report.name_count == 10
    assert report.pair_count == 45
    assert report.delta_min == Fraction(1, 5)
    assert sum(count for _, count in report.histogram) == 45
    assert [d for d, _ in report.histogram] == sorted(d for d, _ in report.histogram)


def test_separation_frozen_two_stage(ctx57):
    report = ms.name_separation(2, ctx57)
    assert report.name_count == 70
    assert report.pair_count == 2415
    assert report.delta_min == Fraction(1, 5)
    assert report.histogram == (
        (Fraction(1, 5), 70),
        (Fraction(2, 5), 70),
        (Fraction(3, 7), 210),
        (Fraction(16, 35), 420),
        (Fraction(17, 35), 420),
        (Fraction(18, 35), 420),
        (Fraction(19, 35), 420),
        (Fraction(4, 7), 210),
        (Fraction(3, 5), 70),
        (Fraction(4, 5), 70),
        (Fraction(1), 35),
    )


def test_separation_level_zero(ctx57):
    # stage 0 has a single group element, so only the complement pair
    report = ms.name_separation(0, ctx57)
    assert report.name_count == 2
    assert report.pair_count == 1
    assert report.delta_min == 1


def test_separation_theorem_stage(theorem_ctx):
    # |G_3| = 29 * 631 * 15629; the closest pair sits at
    # (1 - max |c_p|)/2 = (1 - 3/29)/2
    report = ms.name_separation(3, theorem_ctx)
    assert report.name_count == 571_990_142
    assert report.pair_count == 163_586_360_986_595_011
    assert report.delta_min == Fraction(13, 29)
    assert len(report.histogram) == 31
    assert sum(count for _, count in report.histogram) == report.pair_count


@pytest.mark.parametrize("n", [7, 8, 9, 10])
def test_separation_past_the_int64_tables_adds_up(n):
    # stages whose primes no sign table reaches: the counts still cover
    # every pair, from per-prime value counts that sum to p with mean 1/p
    primes = ms.theorem_primes(n)
    report = ms.name_separation(n, ms.build_context(ms.make_group_config(primes, ms.THEOREM_GRADE)))
    assert sum(count for _, count in report.histogram) == report.pair_count
    assert report.pair_count == math.comb(2 * math.prod(primes), 2)
    assert report.delta_min == Fraction(13, 29)
    for p in primes:
        counts = numerator_counts(p)
        assert sum(counts.values()) == p, p
        assert sum(value * count for value, count in counts.items()) == 1, p


def test_separation_refuses_past_its_combination_budget(monkeypatch):
    # [5, 7] folds to 3 and then 3 * 2 distinct values; the theorem stages
    # admit 13 (40 960 values) and refuse 14 (81 920)
    assert 40_960 <= diagnostics._VALUE_BUDGET < 81_920
    ctx = ms.build_context(ms.make_group_config([5, 7]))
    expected = ms.name_separation(2, ctx)
    monkeypatch.setattr(diagnostics, "_VALUE_BUDGET", 6)
    assert ms.name_separation(2, ctx) == expected
    monkeypatch.setattr(diagnostics, "_VALUE_BUDGET", 5)
    with pytest.raises(BudgetError, match="stage 2 has at least 6 distinct coefficient values, budget is 5"):
        ms.name_separation(2, ctx)


def test_ball_bound_small_radius(ctx57):
    sep = ms.name_separation(2, ctx57)
    bound = ms.at_ball_bound(2, Fraction(1, 20), ctx57, separation=sep)
    assert bound == Fraction(1, 2)
    # any radius under half the separation gives the same answer
    assert ms.at_ball_bound(2, Fraction(1, 11), ctx57) == Fraction(1, 2)


def test_ball_bound_large_radius(ctx57):
    assert ms.at_ball_bound(2, Fraction(1, 10), ctx57) == 35
    assert ms.at_ball_bound(2, Fraction(1, 2), ctx57) == 35


def test_ball_bound_level_zero(ctx57):
    assert ms.at_ball_bound(0, Fraction(1, 4), ctx57) == Fraction(1, 2)


def test_ball_bound_rejects_negative_radius(ctx57):
    with pytest.raises(ConfigError, match="nonnegative"):
        ms.at_ball_bound(2, Fraction(-1, 20), ctx57)
    assert ms.at_ball_bound(2, 0, ctx57) == Fraction(1, 2)


def test_ball_bound_rejects_mismatched_report(ctx57):
    sep1 = ms.name_separation(1, ctx57)
    with pytest.raises(ConfigError):
        ms.at_ball_bound(2, Fraction(1, 20), ctx57, separation=sep1)


def test_histogram_csv(tmp_path):
    report = ms.name_separation(1, CTX5)
    path = tmp_path / "hist.csv"
    ms.write_histogram_csv(report, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "numerator,denominator,count"
    assert lines[1] == "1,5,10"
    assert sum(int(row.split(",")[2]) for row in lines[1:]) == 45
