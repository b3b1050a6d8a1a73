"""Product-of-signs cocycle over the odometer action, and its two-point extension.

With a sign table per coordinate (entry 0 fixed to +1), the tables of a
CocycleContext, a group element g acts on the value

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

from typing import NamedTuple

from .charsums import LegendreTable
from .errors import ConfigError
from .odometer import GroupConfig, add, level_fiber


class CocycleContext(NamedTuple):
    """A configuration and the sign table of each of its primes, in order;
    the tables live as long as the context."""

    cfg: GroupConfig
    tables: tuple[LegendreTable, ...]


def build_context(cfg: GroupConfig) -> CocycleContext:
    """The context of cfg, with a fresh table per prime.  make_group_config
    has checked every prime, and a table builds its sign array, refused
    past charsums._TABLE_BUDGET, only where a command reads it."""
    return CocycleContext(cfg, tuple(map(LegendreTable, cfg.primes)))


def cocycle_value(x: tuple[int, ...], g: tuple[int, ...], ctx: CocycleContext) -> int:
    """w(x, g) in {+1, -1}; the empty product for the identity.  A
    coordinate where g is 0 contributes t(x_n)^2 = 1, so only the support
    of g reads a table."""
    out = 1
    for table, xn, res in zip(ctx.tables, x, g):
        if res:
            t = table.signs
            out *= int(t[xn] * t[(xn + res) % table.prime])
    return out


def cocycle_at_zero(g: tuple[int, ...], ctx: CocycleContext) -> int:
    """w0(g) = w(0, g) = prod of table entries at the residues of g."""
    return cocycle_value((0,) * ctx.cfg.level, g, ctx)


def check_cocycle_identity(
    x: tuple[int, ...], g: tuple[int, ...], g2: tuple[int, ...], ctx: CocycleContext
) -> bool:
    """w(x, g + g2) == w(x, g2) * w(x + g2, g)."""
    cfg = ctx.cfg
    lhs = cocycle_value(x, add(g, g2, cfg), ctx)
    rhs = cocycle_value(x, g2, ctx) * cocycle_value(add(x, g2, cfg), g, ctx)
    return lhs == rhs


def check_level_constancy(n: int, g: tuple[int, ...], h: tuple[int, ...], ctx: CocycleContext) -> bool:
    """Verify w(., g) is the constant w0(g + h) * w0(h) at every point of
    the stage-n piece indexed by h; level_fiber refuses a piece past its
    enumeration budget."""
    cfg = ctx.cfg
    if any(g[n:]) or any(h[n:]):
        raise ConfigError(f"both elements must lie in G_{n}")
    expected = cocycle_at_zero(add(g, h, cfg), ctx) * cocycle_at_zero(h, ctx)
    return all(cocycle_value(x, g, ctx) == expected for x in level_fiber(h, n, cfg))
