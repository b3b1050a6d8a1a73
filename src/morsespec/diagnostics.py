"""Finite word coding of the two-point extension and its separation numbers.

Fix a stage n and let the index set be the stage-n group, enumerated
lexicographically.  A tower piece (indexed by h) crossed with a sign
gamma determines, for every index g, which half of the extension the
points reach under g: by level-constancy the reached sign is

    w0(g + h) * w0(h) * gamma,

the same for every point of the piece.  Recording bit 0 for +1 and bit 1
for -1 yields one word per (piece, sign) class: 2|G_n| words of length
|G_n|, each class carrying measure 1/(2|G_n|).

Two words agree on a character sum over G_n that factors into the
per-prime sign autocorrelations, so their normalized Hamming distance is

    d((h, gamma), (h', gamma')) = (1 - gamma gamma' w0(h) w0(h') coeff(h' - h)) / 2.

The minimum over distinct pairs (delta_min) feeds a ball-counting
bound: when epsilon < delta_min/2, a ball of radius epsilon around ANY
word of the same length captures at most one class, so it captures at
most measure 1/(2|G_n|), and the scaled quantity |Lambda| * mass is at
most 1/2.  An averaging approximation scheme would need such a ball to
capture mass arbitrarily close to full; the bound 1/2 rules that out for
this index set at small epsilon.  This is a diagnostic: the rigorous
verdict comes from the spectral density certificate.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .charsums import numerator_counts
from .cocycle import CocycleContext
from .errors import BudgetError, ConfigError
from .odometer import level_group_order
from .reporting import write_atomic


class SeparationReport(NamedTuple):
    """Exact pairwise-distance statistics of a stage's words."""

    level: int
    name_count: int
    pair_count: int
    delta_min: Fraction
    histogram: tuple[tuple[Fraction, int], ...]  # (distance, count), ascending


# distinct coefficient values name_separation may hold after a prime's
# fold: 40 960 at theorem stage 13, 81 920 at stage 14
_VALUE_BUDGET = 5 * 10**4


def name_separation(n: int, ctx: CocycleContext) -> SeparationReport:
    """Distances of all distinct word pairs from the law above: coeff's value
    counts over G_n multiply per prime, and each unordered {h, h'} with
    coeff(h' - h) = c gives two word pairs at (1 - c)/2 and two at (1 + c)/2.
    With D = |G_n| and c = v / D, those distances are (D -/+ v) / 2D: bins
    are keyed by that integer numerator, one Fraction per bin at the end.
    The counts of v are folded in one prime at a time, equal values merged."""
    size = level_group_order(n, ctx.cfg)
    values = Counter({1: 1})
    for p in ctx.cfg.primes[:n]:
        folded: Counter = Counter()
        for num, cnt in numerator_counts(p).items():
            for v, m in values.items():
                folded[v * num] += m * cnt
        values = folded
        # p is one of p's numerators, so no later fold lowers this count
        if len(values) > _VALUE_BUDGET:
            raise BudgetError(
                f"stage {n} has at least {len(values)} distinct coefficient values, budget is {_VALUE_BUDGET}"
            )
    histogram: Counter = Counter()
    for v, m in values.items():
        m *= size  # m differences g have coeff(g) = v / D
        histogram[size - v] += m
        histogram[size + v] += m
    # g = 0 gives the |G_n| complement pairs at 1 and |G_n| self-pairs at 0
    histogram -= Counter({0: size})
    bins = tuple((Fraction(num, 2 * size), count) for num, count in sorted(histogram.items()))
    return SeparationReport(
        level=n,
        name_count=2 * size,
        pair_count=math.comb(2 * size, 2),
        delta_min=bins[0][0],
        histogram=bins,
    )


def at_ball_bound(
    n: int,
    epsilon,
    ctx: CocycleContext,
    separation: SeparationReport | None = None,
) -> Fraction:
    """Upper bound for |Lambda| times the largest mass any single
    epsilon-ball of words can capture.

    Distinct words sit at least delta_min apart, so for
    epsilon < delta_min/2 a ball holds at most one class of measure
    1/(2|G_n|); scaled by |Lambda| = |G_n| that is 1/2.  For larger
    epsilon only the trivial bound |Lambda| is returned.
    """
    eps = Fraction(epsilon)
    if eps < 0:
        raise ConfigError(f"ball radius must be nonnegative, got {eps}")
    sep = separation if separation is not None else name_separation(n, ctx)
    if sep.level != n:
        raise ConfigError(f"separation report is for stage {sep.level}, not {n}")
    if eps < sep.delta_min / 2:
        return Fraction(1, 2)
    return Fraction(level_group_order(n, ctx.cfg))


def write_histogram_csv(report: SeparationReport, path: str) -> None:
    """Histogram rows 'numerator,denominator,count', ascending by distance."""
    lines = ["numerator,denominator,count"]
    for dist, cnt in report.histogram:
        lines.append(f"{dist.numerator},{dist.denominator},{cnt}")
    write_atomic(path, "\n".join(lines) + "\n")
