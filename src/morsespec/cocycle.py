"""Product-of-signs cocycle over the odometer action, and its two-point extension.

With a sign table per coordinate (entry 0 fixed to +1), a group element g
acts on the value

    w(x, g) = prod_{n in supp(g)} t_n(x_n) * t_n(x_n + g_n  mod p_n),

a product over the support of g only, hence finite for every g.  The
cocycle identity w(x, g + g') = w(x, g') * w(x + g', g) holds exactly,
coordinate by coordinate.

On a stage-n tower piece the partial value over the first n coordinates
is constant: for g and h in G_n every point of the piece indexed by h
satisfies w(x, g) = w0(g + h) * w0(h), where w0(g) = w(0, g) is the value
at the zero point.  That constant is what the two-point extension

    (x, s) -> (x + g, w(x, g) * s),      s in {+1, -1}

sees along each tower level, and the sign flip (x, s) -> (x, -s)
commutes with every such map.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .charsums import LegendreTable, check_table_prime, legendre_table
from .errors import ConfigError
from .odometer import (
    GroupConfig,
    GroupElement,
    add,
    fiber_size,
    level_fiber,
    random_fiber_point,
    translate,
    zero_point,
)


@dataclass(frozen=True)
class CocycleContext:
    """A configuration together with one sign table per prime."""

    cfg: GroupConfig
    tables: tuple[LegendreTable, ...]

    def __post_init__(self) -> None:
        if len(self.tables) != self.cfg.level:
            raise ConfigError(
                f"need {self.cfg.level} sign tables, got {len(self.tables)}"
            )
        for p, table in zip(self.cfg.primes, self.tables):
            if table.prime != p:
                raise ConfigError(f"table for prime {table.prime} placed at prime {p}")


def build_context(cfg: GroupConfig) -> CocycleContext:
    """Assemble the per-prime sign tables; every prime is checked before
    the first table is built."""
    for p in cfg.primes:
        check_table_prime(p)
    tables = tuple(legendre_table(p) for p in cfg.primes)
    return CocycleContext(cfg=cfg, tables=tables)


def cocycle_value(x: tuple[int, ...], g: GroupElement, ctx: CocycleContext) -> int:
    """w(x, g) in {+1, -1}; the empty product for the identity."""
    out = 1
    for idx, res in g.coords:
        t = ctx.tables[idx].signs
        xi = x[idx]
        out *= int(t[xi] * t[(xi + res) % ctx.cfg.primes[idx]])
    return out


def cocycle_at_zero(g: GroupElement, ctx: CocycleContext) -> int:
    """w0(g) = w(0, g) = prod of table entries at the residues of g."""
    out = 1
    for idx, res in g.coords:
        out *= int(ctx.tables[idx].signs[res])
    return out


def check_cocycle_identity(
    x: tuple[int, ...], g: GroupElement, g2: GroupElement, ctx: CocycleContext
) -> bool:
    """w(x, g + g2) == w(x, g2) * w(x + g2, g)."""
    cfg = ctx.cfg
    lhs = cocycle_value(x, add(g, g2, cfg), ctx)
    rhs = cocycle_value(x, g2, ctx) * cocycle_value(translate(x, g2, cfg), g, ctx)
    return lhs == rhs


def check_level_constancy(
    n: int,
    g: GroupElement,
    h: GroupElement,
    ctx: CocycleContext,
    budget: int = 10**6,
    samples: int = 2000,
    seed: int = 0,
) -> bool:
    """Verify w(., g) is the constant w0(g + h) * w0(h) on the stage-n piece
    indexed by h.  Exhaustive when the piece fits the budget, otherwise a
    seeded sample of `samples` points."""
    cfg = ctx.cfg
    if g.max_index() >= n or h.max_index() >= n:
        raise ConfigError(f"both elements must lie in G_{n}")
    expected = cocycle_at_zero(add(g, h, cfg), ctx) * cocycle_at_zero(h, ctx)
    if fiber_size(n, cfg) <= budget:
        points = level_fiber(h, n, cfg, budget=budget)
    else:
        rng = random.Random(seed)
        points = (random_fiber_point(h, n, cfg, rng) for _ in range(samples))
    return all(cocycle_value(x, g, ctx) == expected for x in points)


@dataclass(frozen=True)
class ExtensionPoint:
    """Point of the two-point extension: a base point and a sign."""

    base: tuple[int, ...]
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (-1, 1):
            raise ConfigError("extension sign must be +1 or -1")


def skew_step(pt: ExtensionPoint, g: GroupElement, ctx: CocycleContext) -> ExtensionPoint:
    """Apply g to the extension: translate the base, twist the sign."""
    return ExtensionPoint(
        base=translate(pt.base, g, ctx.cfg),
        sign=cocycle_value(pt.base, g, ctx) * pt.sign,
    )


def flip(pt: ExtensionPoint) -> ExtensionPoint:
    """The sign involution; commutes with every skew_step."""
    return ExtensionPoint(base=pt.base, sign=-pt.sign)


def zero_extension_point(ctx: CocycleContext) -> ExtensionPoint:
    return ExtensionPoint(base=zero_point(ctx.cfg), sign=1)
