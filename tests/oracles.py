"""Brute-force routes that the tests compare the package against.

No command and no acceptance criterion calls these: each is the slow,
direct form of something the package computes in closed form or in bulk.

- gauss_sum_brute: a quadratic Gauss sum by direct summation
  (charsums.gauss_sum and gauss_sum_all are checked against it);
- autocorrelation_closed_form: c_p(j) by Euler's criterion, as an exact
  Fraction (the numerators of a Legendre table are checked against it);
- jacobi_numerators_gather: p * c_p(j) = -1 + chi(j) + chi(-j) by
  gathering the character at j and at -j, before chi(-1) collapses it
  (charsums.jacobi_numerators is checked against it);
- polynomial_fft: P at every p-th root of unity by a prime-length FFT of
  a table's signs (charsums.character_polynomial_values, which reads P
  off the Gauss sums, is checked against it);
- fft_scan_flatness: the extremes of |P| and of |P|^2 by scanning that
  FFT (charsums.flatness_report is checked against it);
- FunnyWord, complement, hamming, name_word, NameAtlas, name_atlas: the
  exhaustive word atlas of a stage and its exact Hamming distances
  (diagnostics.name_separation is checked against it);
- neg and sub: negation and subtraction in the acting group;
- ExtensionPoint (on its base _Point), skew_step, flip and
  zero_extension_point: the two-point extension the cocycle twists, whose
  flip commutes with every skew step (the certificate's last reason);
- sbh_quadratic_form: the averaged quadratic form Q of a probe, summed
  over every ordered pair of its elements in Fractions
  (spectral.sbh_adversarial_search is checked against it).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from morsespec.charsums import LegendreTable, legendre
from morsespec.cocycle import CocycleContext, cocycle_at_zero, cocycle_value
from morsespec.errors import BudgetError, ConfigError
from morsespec.odometer import GroupConfig, add, enumerate_level_group, level_group_order
from morsespec.spectral import spectral_coefficient


def gauss_sum_brute(p: int, x: int) -> complex:
    """sum_k exp(-2 pi i k^2 x / p) by direct summation; the slow
    cross-check route."""
    k = np.arange(p, dtype=np.int64)
    return complex(np.exp(-2j * np.pi * ((k * k * x) % p) / p).sum())


def autocorrelation_closed_form(p: int, j: int) -> Fraction:
    """c_p(j) = (-1 + (j|p) + (-j|p)) / p for j != 0, specific to the
    Legendre table.  Independent of the summation route; used as a
    cross-check."""
    j %= p
    if j == 0:
        return Fraction(1)
    return Fraction(-1 + legendre(j, p) + legendre(p - j, p), p)


def jacobi_numerators_gather(chars: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """p * c_p(j) for each shift j of an int array, as int64: the Jacobi sum
    -1 + chi(j) + chi(-j) with chi read at j and at -j mod p, and p at
    j = 0.  chars is a table's signs or legendre_symbols(p)."""
    p = len(chars)
    out = chars[shifts].astype(np.int64) + chars[-shifts % p] - 1
    out[shifts == 0] = p
    return out


def polynomial_fft(p: int) -> np.ndarray:
    """P(x) for every x mod p, by the prime-length FFT of a fresh table's
    signs; np.fft.fft applies exp(-2 pi i k x / p), the sign convention of P."""
    return np.fft.fft(LegendreTable(p).signs.astype(np.complex128)) / np.sqrt(p)


def fft_scan_flatness(p: int) -> tuple[float, float, float, float]:
    """min and max of |P(x)| over x != 0, and max and mean of |P(x)|^2
    over every x, from polynomial_fft."""
    vals = polynomial_fft(p)
    density = vals.real**2 + vals.imag**2
    mods = np.abs(vals)[1:]
    return float(mods.min()), float(mods.max()), float(density.max()), float(density.mean())


@dataclass(frozen=True)
class FunnyWord:
    """A {0,1}-word indexed by an ordered list of group elements."""

    domain: tuple[tuple[int, ...], ...]
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.domain:
            raise ConfigError("word domain must be nonempty")
        if len(self.domain) != len(self.bits):
            raise ConfigError(f"{len(self.domain)} indices but {len(self.bits)} bits")
        if any(b not in (0, 1) for b in self.bits):
            raise ConfigError("bits must be 0 or 1")
        if len(set(self.domain)) != len(self.domain):
            raise ConfigError("domain elements must be distinct")


def complement(word: FunnyWord) -> FunnyWord:
    return FunnyWord(domain=word.domain, bits=tuple(1 - b for b in word.bits))


def hamming(w1: FunnyWord, w2: FunnyWord) -> Fraction:
    """Fraction of positions that differ; exact."""
    if w1.domain is not w2.domain and w1.domain != w2.domain:
        raise ConfigError("words are indexed by different domains")
    differ = sum(a != b for a, b in zip(w1.bits, w2.bits))
    return Fraction(differ, len(w1.bits))


def name_word(h: tuple[int, ...], gamma: int, n: int, ctx: CocycleContext) -> FunnyWord:
    """The common word of every point in the stage-n piece indexed by h,
    on the fiber side gamma: bit 0 at g iff w0(g+h) * w0(h) * gamma = 1."""
    if gamma not in (-1, 1):
        raise ConfigError("gamma must be +1 or -1")
    if any(h[n:]):
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
    keys: tuple[tuple[tuple[int, ...], int], ...]
    words: tuple[FunnyWord, ...]
    class_measure: Fraction

    def word(self, h: tuple[int, ...], gamma: int) -> FunnyWord:
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


def neg(a: tuple[int, ...], cfg: GroupConfig) -> tuple[int, ...]:
    return tuple(-r % p for r, p in zip(a, cfg.primes))


def sub(a: tuple[int, ...], b: tuple[int, ...], cfg: GroupConfig) -> tuple[int, ...]:
    return add(a, neg(b, cfg), cfg)


class _Point(NamedTuple):
    base: tuple[int, ...]
    sign: int


class ExtensionPoint(_Point):
    """Point of the two-point extension: a base point and a sign."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace checks too

    def __new__(cls, base: tuple[int, ...], sign: int):
        if sign not in (-1, 1):
            raise ConfigError("extension sign must be +1 or -1")
        return super().__new__(cls, base, sign)


def skew_step(pt: ExtensionPoint, g: tuple[int, ...], ctx: CocycleContext) -> ExtensionPoint:
    """Apply g to the extension: translate the base, twist the sign."""
    return ExtensionPoint(
        base=add(pt.base, g, ctx.cfg),
        sign=cocycle_value(pt.base, g, ctx) * pt.sign,
    )


def flip(pt: ExtensionPoint) -> ExtensionPoint:
    """The sign involution; commutes with every skew_step."""
    return ExtensionPoint(base=pt.base, sign=-pt.sign)


def zero_extension_point(ctx: CocycleContext) -> ExtensionPoint:
    return ExtensionPoint(base=(0,) * ctx.cfg.level, sign=1)


def sbh_quadratic_form(
    theta: tuple[tuple[int, ...], ...], signs: tuple[int, ...], ctx: CocycleContext
) -> Fraction:
    """Q = (1/k) sum_{i,j} eta_i eta_j coeff(theta_i - theta_j), exact."""
    k = len(theta)
    if k < 1:
        raise ConfigError("need at least one element")
    if len(signs) != k:
        raise ConfigError(f"{k} elements but {len(signs)} signs")
    if any(s not in (-1, 1) for s in signs):
        raise ConfigError("signs must be +1 or -1")
    if len(set(theta)) != k:
        raise ConfigError("elements must be distinct")
    total = Fraction(0)
    for i in range(k):
        for j in range(k):
            diff = sub(theta[i], theta[j], ctx.cfg)
            total += signs[i] * signs[j] * spectral_coefficient(diff, ctx).value
    return total / k
