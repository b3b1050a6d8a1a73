import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import morsespec as ms
from morsespec import diagnostics
from morsespec.errors import BudgetError, ConfigError

CFG5 = ms.make_group_config([5])
CTX5 = ms.build_context(CFG5)


def test_funny_word_validation():
    dom = tuple(ms.enumerate_level_group(1, CFG5))
    ms.FunnyWord(domain=dom, bits=(0, 1, 0, 1, 1))
    with pytest.raises(ConfigError):
        ms.FunnyWord(domain=dom, bits=(0, 1))
    with pytest.raises(ConfigError):
        ms.FunnyWord(domain=dom, bits=(0, 1, 2, 0, 0))
    with pytest.raises(ConfigError):
        ms.FunnyWord(domain=(dom[0], dom[0]), bits=(0, 1))
    with pytest.raises(ConfigError):
        ms.FunnyWord(domain=(), bits=())


def test_complement_flips_every_bit():
    dom = tuple(ms.enumerate_level_group(1, CFG5))
    word = ms.FunnyWord(domain=dom, bits=(0, 0, 1, 1, 0))
    assert ms.complement(word).bits == (1, 1, 0, 0, 1)
    assert ms.complement(ms.complement(word)) == word


def test_hamming_basic_cases():
    dom = tuple(ms.enumerate_level_group(1, CFG5))
    a = ms.FunnyWord(domain=dom, bits=(0, 0, 1, 1, 0))
    b = ms.FunnyWord(domain=dom, bits=(0, 1, 1, 0, 0))
    assert ms.hamming(a, a) == 0
    assert ms.hamming(a, b) == Fraction(2, 5)
    assert ms.hamming(a, ms.complement(a)) == 1


def test_hamming_rejects_mismatched_domains(ctx57):
    dom5 = tuple(ms.enumerate_level_group(1, CFG5))
    dom57 = tuple(ms.enumerate_level_group(2, ctx57.cfg))[:5]
    a = ms.FunnyWord(domain=dom5, bits=(0,) * 5)
    b = ms.FunnyWord(domain=dom57, bits=(0,) * 5)
    with pytest.raises(ConfigError):
        ms.hamming(a, b)
    c = ms.FunnyWord(domain=dom5[:3], bits=(0,) * 3)
    with pytest.raises(ConfigError):
        ms.hamming(a, c)


@settings(max_examples=100, deadline=None)
@given(
    b1=st.tuples(*([st.integers(0, 1)] * 5)),
    b2=st.tuples(*([st.integers(0, 1)] * 5)),
    b3=st.tuples(*([st.integers(0, 1)] * 5)),
)
def test_hamming_triangle_inequality(b1, b2, b3):
    dom = tuple(ms.enumerate_level_group(1, CFG5))
    w1, w2, w3 = (ms.FunnyWord(domain=dom, bits=b) for b in (b1, b2, b3))
    assert ms.hamming(w1, w3) <= ms.hamming(w1, w2) + ms.hamming(w2, w3)


def test_name_word_frozen_base_name():
    # base class of stage 1 over p=5: bit at g is 0 iff z(g) = +1,
    # and the zero-values of the table product are (1,1,-1,-1,1)
    word = ms.name_word(ms.IDENTITY, 1, 1, CTX5)
    assert word.bits == (0, 0, 1, 1, 0)
    flipped = ms.name_word(ms.IDENTITY, -1, 1, CTX5)
    assert flipped.bits == (1, 1, 0, 0, 1)
    assert flipped == ms.complement(word)


def test_name_word_oracle_exhaustive():
    # independent route: bit 0 exactly when z(g+h) z(h) gamma = 1
    for h in ms.enumerate_level_group(1, CFG5):
        for gamma in (1, -1):
            word = ms.name_word(h, gamma, 1, CTX5)
            for g, bit in zip(word.domain, word.bits):
                z = ms.cocycle_at_zero(ms.add(g, h, CFG5), CTX5) * ms.cocycle_at_zero(
                    h, CTX5
                )
                assert bit == (0 if z * gamma == 1 else 1)


def test_name_word_validation():
    with pytest.raises(ConfigError):
        ms.name_word(ms.IDENTITY, 0, 1, CTX5)
    wide = ms.element([0, 1], ms.make_group_config([5, 7]))
    with pytest.raises(ConfigError):
        ms.name_word(wide, 1, 1, CTX5)


def test_atlas_structure(ctx57):
    atlas = ms.name_atlas(2, ctx57)
    assert atlas.level == 2
    assert len(atlas.words) == 70  # 2 |G_2|
    assert atlas.class_measure == Fraction(1, 70)
    assert len(set(atlas.words)) == 70
    # gamma-flip pairs are complements of each other
    for h in ms.enumerate_level_group(2, ctx57.cfg):
        assert atlas.word(h, -1) == ms.complement(atlas.word(h, 1))


def test_atlas_budget():
    with pytest.raises(BudgetError) as err:
        ms.name_atlas(1, CTX5, max_names=4)
    assert "10" in str(err.value)


def test_pairwise_distance_law(ctx57):
    # exact law: d(name(h, gamma), name(h', gamma')) =
    #   (1 - gamma gamma' z(h) z(h') coeff(h' - h)) / 2,
    # checked against direct hamming counts for every pair and sign
    cfg = ctx57.cfg
    n = 2
    atlas = ms.name_atlas(n, ctx57)
    elems = list(ms.enumerate_level_group(n, cfg))
    for h, hp in itertools.product(elems, elems):
        coeff = ms.spectral_coefficient(ms.sub(hp, h, cfg), ctx57).value
        zz = ms.cocycle_at_zero(h, ctx57) * ms.cocycle_at_zero(hp, ctx57)
        for gamma, gammap in itertools.product((1, -1), (1, -1)):
            predicted = (1 - gamma * gammap * zz * coeff) / 2
            actual = ms.hamming(atlas.word(h, gamma), atlas.word(hp, gammap))
            assert actual == predicted


def test_distance_is_not_translation_invariant():
    # pairs with equal difference can sit at different distances: over
    # p=5 the pair (0,3) is at 1/5 while (1,4) is at 4/5
    atlas = ms.name_atlas(1, CTX5)
    e = lambda r: ms.element([r], CFG5)
    d03 = ms.hamming(atlas.word(e(0), 1), atlas.word(e(3), 1))
    d14 = ms.hamming(atlas.word(e(1), 1), atlas.word(e(4), 1))
    assert d03 == Fraction(1, 5)
    assert d14 == Fraction(4, 5)
    assert d03 != d14


def test_distance_twisted_invariance():
    # what IS invariant: the distance depends on h' - h only through the
    # correction factor gamma gamma' z(h) z(h'); fixing that product
    # pins the distance
    atlas = ms.name_atlas(1, CTX5)
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
            key = (ms.sub(hp, h, CFG5).coords, twist)
            d = ms.hamming(atlas.word(h, gamma), atlas.word(hp, gammap))
            assert seen.setdefault(key, d) == d


def brute_separation(n, ctx):
    """The separation report from every word of the atlas, pair by pair."""
    atlas = ms.name_atlas(n, ctx)
    dists = Counter(
        ms.hamming(a, b) for a, b in itertools.combinations(atlas.words, 2)
    )
    return ms.SeparationReport(
        level=n,
        name_count=len(atlas.words),
        pair_count=sum(dists.values()),
        delta_min=min(dists),
        histogram=tuple(sorted(dists.items())),
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
def test_separation_matches_atlas(primes, n, monkeypatch):
    ctx = ms.build_context(ms.make_group_config(primes))
    brute = brute_separation(n, ctx)
    assert ms.name_separation(n, ctx) == brute
    # numerator values counted a few at a time, and across chunk seams
    monkeypatch.setattr(diagnostics, "_COUNT_CHUNK", 3)
    assert ms.name_separation(n, ctx) == brute


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
