import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import morsespec as ms
from morsespec import charsums
from morsespec.errors import ConfigError
from oracles import ExtensionPoint, flip, skew_step, zero_extension_point

CFG = ms.make_group_config([5, 7, 11])
CTX = ms.build_context(CFG)


def _cocycle_all_coordinates(x, g, ctx):
    # full product over every coordinate; coordinates off the support
    # contribute t(x)^2 = 1, so this must agree with the support-only route
    out = 1
    for n, table in enumerate(ctx.tables):
        out *= int(table.signs[x[n]]) * int(table.signs[(x[n] + g[n]) % ctx.cfg.primes[n]])
    return out


def test_context_tables_follow_from_the_primes(cfg57):
    # a context holds one table per prime, in order, with nothing derived yet
    ctx = ms.build_context(cfg57)
    assert ctx.cfg is cfg57
    assert [(type(t), t.__dict__) for t in ctx.tables] == [
        (ms.LegendreTable, {"prime": 5}),
        (ms.LegendreTable, {"prime": 7}),
    ]


def test_build_context_reads_no_sign_at_stage_7(monkeypatch):
    # making a table builds no sign array, so a context takes p_6 and on,
    # whose squares mask would pass int64
    def no_signs(p):
        raise AssertionError(f"sign array for {p} built")

    monkeypatch.setattr(charsums, "_quadratic_signs", no_signs)
    cfg7 = ms.make_group_config(ms.theorem_primes(7), ms.THEOREM_GRADE)
    ctx = ms.build_context(cfg7)
    assert [t.prime for t in ctx.tables] == list(cfg7.primes)


def test_tables_live_as_long_as_their_context(cfg5711):
    # two contexts of one configuration share no table, and a context's
    # tables and every array they derived are freed with it
    ctx = ms.build_context(cfg5711)
    other = ms.build_context(cfg5711)
    assert not {id(t) for t in ctx.tables} & {id(t) for t in other.tables}
    refs = []
    for table in ctx.tables:
        refs += [weakref.ref(obj) for obj in (table, table.signs)]
    del table
    assert all(ref() is not None for ref in refs)
    del ctx
    assert [ref() for ref in refs] == [None] * 6
    assert all(set(t.__dict__) == {"prime"} for t in other.tables)


def test_cocycle_value_identity_element(ctx57):
    for x in ms.enumerate_points(ctx57.cfg):
        assert ms.cocycle_value(x, (0, 0), ctx57) == 1


def test_cocycle_value_matches_full_product(ctx57):
    cfg = ctx57.cfg
    for x in ms.enumerate_points(cfg):
        for g in ms.enumerate_level_group(2, cfg):
            assert ms.cocycle_value(x, g, ctx57) == _cocycle_all_coordinates(x, g, ctx57)


def test_cocycle_at_zero_is_value_at_origin(ctx57):
    zero = (0, 0)
    for g in ms.enumerate_level_group(2, ctx57.cfg):
        assert ms.cocycle_at_zero(g, ctx57) == ms.cocycle_value(zero, g, ctx57)


def test_cocycle_at_zero_frozen(ctx57):
    # table products: eps5 = (1,1,-1,-1,1), eps7 = (1,1,1,-1,1,-1,-1)
    cfg = ctx57.cfg
    assert ms.cocycle_at_zero(ms.element([2, 0], cfg), ctx57) == -1
    assert ms.cocycle_at_zero(ms.element([2, 3], cfg), ctx57) == 1
    assert ms.cocycle_at_zero(ms.element([1, 6], cfg), ctx57) == -1


@st.composite
def triple(draw):
    x = tuple(draw(st.integers(min_value=0, max_value=p - 1)) for p in CFG.primes)
    g = ms.element(
        [draw(st.integers(min_value=0, max_value=p - 1)) for p in CFG.primes], CFG
    )
    g2 = ms.element(
        [draw(st.integers(min_value=0, max_value=p - 1)) for p in CFG.primes], CFG
    )
    return x, g, g2


@settings(max_examples=300, deadline=None)
@given(t=triple())
def test_cocycle_identity_property(t):
    x, g, g2 = t
    assert ms.check_cocycle_identity(x, g, g2, CTX)


def test_cocycle_identity_statement_explicit(ctx57):
    cfg = ctx57.cfg
    x = (3, 2)
    g = ms.element([1, 4], cfg)
    g2 = ms.element([4, 6], cfg)
    lhs = ms.cocycle_value(x, ms.add(g, g2, cfg), ctx57)
    rhs = ms.cocycle_value(x, g2, ctx57) * ms.cocycle_value(
        ms.add(x, g2, cfg), g, ctx57
    )
    assert lhs == rhs


def test_level_constancy_exhaustive_small(ctx57):
    cfg = ctx57.cfg
    for g in ms.enumerate_level_group(1, cfg):
        for h in ms.enumerate_level_group(1, cfg):
            assert ms.check_level_constancy(1, g, h, ctx57)


def test_level_constancy_constant_value(ctx57):
    # the constant on the piece is the zero value of g+h times that of h
    cfg = ctx57.cfg
    g = ms.element([3, 0], cfg)
    h = ms.element([2, 0], cfg)
    expected = ms.cocycle_at_zero(ms.add(g, h, cfg), ctx57) * ms.cocycle_at_zero(
        h, ctx57
    )
    for x in ms.level_fiber(h, 1, cfg):
        assert ms.cocycle_value(x, g, ctx57) == expected


def test_level_constancy_rejects_wide_support(ctx57):
    wide = ms.element([0, 1], ctx57.cfg)
    with pytest.raises(ConfigError):
        ms.check_level_constancy(1, wide, (0, 0), ctx57)


def test_skew_step_composes_like_the_group(ctx57):
    cfg = ctx57.cfg
    rng = random.Random(11)
    for _ in range(50):
        pt = ExtensionPoint(base=ms.random_point(cfg, rng), sign=rng.choice((1, -1)))
        g = ms.random_element(cfg, rng)
        h = ms.random_element(cfg, rng)
        two_steps = skew_step(skew_step(pt, h, ctx57), g, ctx57)
        one_step = skew_step(pt, ms.add(g, h, cfg), ctx57)
        assert two_steps == one_step


def test_flip_commutes_with_skew_steps(ctx57):
    cfg = ctx57.cfg
    rng = random.Random(12)
    for _ in range(50):
        pt = ExtensionPoint(base=ms.random_point(cfg, rng), sign=rng.choice((1, -1)))
        g = ms.random_element(cfg, rng)
        assert flip(skew_step(pt, g, ctx57)) == skew_step(flip(pt), g, ctx57)


def test_extension_point_validation(ctx57):
    with pytest.raises(ConfigError):
        ExtensionPoint(base=(0, 0), sign=0)
    start = zero_extension_point(ctx57)
    assert start.sign == 1 and start.base == (0, 0)
    with pytest.raises(ConfigError):
        start._replace(sign=0)
