import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import morsespec as ms
from morsespec.errors import ConfigError

CFG = ms.make_group_config([5, 7, 11])
CTX = ms.build_context(CFG)


def _cocycle_all_coordinates(x, g, ctx):
    # full product over every coordinate; coordinates off the support
    # contribute t(x)^2 = 1, so this must agree with the sparse route
    out = 1
    for n, table in enumerate(ctx.tables):
        res = g.residue(n)
        out *= int(table.signs[x[n]]) * int(table.signs[(x[n] + res) % ctx.cfg.primes[n]])
    return out


def test_context_validation(cfg57):
    tables = tuple(ms.legendre_table(p) for p in (5, 7))
    ms.CocycleContext(cfg=cfg57, tables=tables)
    with pytest.raises(ConfigError):
        ms.CocycleContext(cfg=cfg57, tables=tables[:1])
    with pytest.raises(ConfigError):
        ms.CocycleContext(cfg=cfg57, tables=(tables[1], tables[0]))


def test_cocycle_value_identity_element(ctx57):
    for x in ms.enumerate_points(ctx57.cfg):
        assert ms.cocycle_value(x, ms.IDENTITY, ctx57) == 1


def test_cocycle_value_matches_full_product(ctx57):
    cfg = ctx57.cfg
    for x in ms.enumerate_points(cfg):
        for g in ms.enumerate_level_group(2, cfg):
            assert ms.cocycle_value(x, g, ctx57) == _cocycle_all_coordinates(x, g, ctx57)


def test_cocycle_value_on_array_built_tables(ctx57):
    cfg = ctx57.cfg
    tables = (
        ms.LegendreTable(prime=5, signs=np.array(ctx57.tables[0].signs, dtype=np.int8)),
        ms.LegendreTable(prime=7, signs=ctx57.tables[1].signs.tolist()),
    )
    ctx = ms.CocycleContext(cfg=cfg, tables=tables)
    for x in ms.enumerate_points(cfg):
        for g in ms.enumerate_level_group(2, cfg):
            assert ms.cocycle_value(x, g, ctx) == ms.cocycle_value(x, g, ctx57)
    for g in ms.enumerate_level_group(2, cfg):
        assert ms.cocycle_at_zero(g, ctx) == ms.cocycle_at_zero(g, ctx57)


def test_cocycle_at_zero_is_value_at_origin(ctx57):
    zero = ms.zero_point(ctx57.cfg)
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
    x = ms.point([3, 2], cfg)
    g = ms.element([1, 4], cfg)
    g2 = ms.element([4, 6], cfg)
    lhs = ms.cocycle_value(x, ms.add(g, g2, cfg), ctx57)
    rhs = ms.cocycle_value(x, g2, ctx57) * ms.cocycle_value(
        ms.translate(x, g2, cfg), g, ctx57
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
        ms.check_level_constancy(1, wide, ms.IDENTITY, ctx57)


def test_level_constancy_sampled_branch(theorem_ctx):
    # force the sampled path by shrinking the exhaustive budget
    cfg = theorem_ctx.cfg
    g = ms.element({0: 5}, cfg)
    h = ms.element({0: 11}, cfg)
    assert ms.check_level_constancy(1, g, h, theorem_ctx, budget=10, samples=50, seed=3)


def test_skew_step_composes_like_the_group(ctx57):
    cfg = ctx57.cfg
    rng = random.Random(11)
    for _ in range(50):
        pt = ms.ExtensionPoint(base=ms.random_point(cfg, rng), sign=rng.choice((1, -1)))
        g = ms.random_element(cfg, rng)
        h = ms.random_element(cfg, rng)
        two_steps = ms.skew_step(ms.skew_step(pt, h, ctx57), g, ctx57)
        one_step = ms.skew_step(pt, ms.add(g, h, cfg), ctx57)
        assert two_steps == one_step


def test_flip_commutes_with_skew_steps(ctx57):
    cfg = ctx57.cfg
    rng = random.Random(12)
    for _ in range(50):
        pt = ms.ExtensionPoint(base=ms.random_point(cfg, rng), sign=rng.choice((1, -1)))
        g = ms.random_element(cfg, rng)
        assert ms.flip(ms.skew_step(pt, g, ctx57)) == ms.skew_step(
            ms.flip(pt), g, ctx57
        )


def test_extension_point_validation(ctx57):
    with pytest.raises(ConfigError):
        ms.ExtensionPoint(base=(0, 0), sign=0)
    start = ms.zero_extension_point(ctx57)
    assert start.sign == 1 and start.base == (0, 0)
