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

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .charsums import autocorrelation_numerators, check_scan_budget
from .cocycle import CocycleContext, cocycle_at_zero
from .errors import BudgetError, ConfigError
from .odometer import GroupElement, add, enumerate_level_group, level_group_order
from .reporting import write_atomic

# numerator values counted this many at a time (an int64 chunk of 8 MiB)
_COUNT_CHUNK = 1 << 20


@dataclass(frozen=True)
class FunnyWord:
    """A {0,1}-word indexed by an ordered list of group elements."""

    domain: tuple[GroupElement, ...]
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.domain:
            raise ConfigError("word domain must be nonempty")
        if len(self.domain) != len(self.bits):
            raise ConfigError(f"{len(self.domain)} indices but {len(self.bits)} bits")
        if any(b not in (0, 1) for b in self.bits):
            raise ConfigError("bits must be 0 or 1")
        if len({g.coords for g in self.domain}) != len(self.domain):
            raise ConfigError("domain elements must be distinct")


def complement(word: FunnyWord) -> FunnyWord:
    return FunnyWord(domain=word.domain, bits=tuple(1 - b for b in word.bits))


def hamming(w1: FunnyWord, w2: FunnyWord) -> Fraction:
    """Fraction of positions that differ; exact."""
    if w1.domain is not w2.domain and w1.domain != w2.domain:
        raise ConfigError("words are indexed by different domains")
    differ = sum(a != b for a, b in zip(w1.bits, w2.bits))
    return Fraction(differ, len(w1.bits))


def name_word(h: GroupElement, gamma: int, n: int, ctx: CocycleContext) -> FunnyWord:
    """The common word of every point in the stage-n piece indexed by h,
    on the fiber side gamma: bit 0 at g iff w0(g+h) * w0(h) * gamma = 1."""
    if gamma not in (-1, 1):
        raise ConfigError("gamma must be +1 or -1")
    if h.max_index() >= n:
        raise ConfigError(f"index element must lie in G_{n}")
    cfg = ctx.cfg
    domain = tuple(enumerate_level_group(n, cfg))
    zh = cocycle_at_zero(h, ctx)
    bits = tuple(
        0 if cocycle_at_zero(add(g, h, cfg), ctx) * zh * gamma == 1 else 1
        for g in domain
    )
    return FunnyWord(domain=domain, bits=bits)


@dataclass(frozen=True)
class NameAtlas:
    """All 2|G_n| words at a stage, in (piece, sign) order with signs +1
    then -1 per piece; immutable once built.  class_measure is the mass
    each word class carries; the classes tile the extension."""

    level: int
    keys: tuple[tuple[GroupElement, int], ...]
    words: tuple[FunnyWord, ...]
    class_measure: Fraction

    def word(self, h: GroupElement, gamma: int) -> FunnyWord:
        return self.words[self.keys.index((h, gamma))]


def name_atlas(n: int, ctx: CocycleContext, max_names: int = 100_000) -> NameAtlas:
    """Build every word of the stage exhaustively, on one shared domain."""
    count = 2 * level_group_order(n, ctx.cfg)
    if count > max_names:
        raise BudgetError(f"stage {n} needs {count} names, budget is {max_names}")
    domain = tuple(enumerate_level_group(n, ctx.cfg))
    keys = tuple((h, gamma) for h in domain for gamma in (1, -1))
    words = tuple(FunnyWord(domain, name_word(*key, n, ctx).bits) for key in keys)
    return NameAtlas(
        level=n,
        keys=keys,
        words=words,
        class_measure=Fraction(1, count),
    )


@dataclass(frozen=True)
class SeparationReport:
    """Exact pairwise-distance statistics of a stage's words."""

    level: int
    name_count: int
    pair_count: int
    delta_min: Fraction
    histogram: tuple[tuple[Fraction, int], ...]  # (distance, count), ascending


def name_separation(n: int, ctx: CocycleContext) -> SeparationReport:
    """Distances of all distinct word pairs from the law above: coeff's value
    counts over G_n multiply per prime, and each unordered {h, h'} with
    coeff(h' - h) = c gives two word pairs at (1 - c)/2 and two at (1 + c)/2."""
    size = level_group_order(n, ctx.cfg)
    tables = ctx.tables[:n]
    check_scan_budget(tables, f"stage {n}")
    per_prime = []
    for t in tables:
        numerators = autocorrelation_numerators(t)
        counts: Counter = Counter()
        # np.unique sorts a copy of what it is given, so it gets a chunk at a time
        for start in range(0, t.prime, _COUNT_CHUNK):
            chunk = numerators[start : start + _COUNT_CHUNK]
            values, m = np.unique(chunk, return_counts=True)
            counts.update(dict(zip(values.tolist(), m.tolist())))
        per_prime.append({Fraction(v, t.prime): m for v, m in counts.items()})
    histogram: Counter = Counter()
    for combo in itertools.product(*(counts.items() for counts in per_prime)):
        c = math.prod(value for value, _ in combo)
        m = math.prod(count for _, count in combo)  # differences g with coeff(g) = c
        histogram[(1 - c) / 2] += m * size
        histogram[(1 + c) / 2] += m * size
    # g = 0 gives the |G_n| complement pairs at 1 and |G_n| self-pairs at 0
    histogram -= Counter({Fraction(0): size})
    return SeparationReport(
        level=n,
        name_count=2 * size,
        pair_count=math.comb(2 * size, 2),
        delta_min=min(histogram),
        histogram=tuple(sorted(histogram.items())),
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
