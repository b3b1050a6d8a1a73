"""Quadratic character tables and the flat trigonometric polynomials they generate.

For an odd prime p the sign table is eps(0) = 1 and eps(k) = (k|p), the
Legendre symbol, for 0 < k < p.  Packing the table into

    P(x) = p^(-1/2) * sum_{k=0}^{p-1} eps(k) * exp(-2 pi i k x / p)

gives an almost flat polynomial on the p-th roots of unity: for x != 0
the classical Gauss sum evaluation pins |P(x)| inside
[1 - 1/sqrt(p), 1 + 1/sqrt(p)], while P(0) = 1/sqrt(p).  When p = 1
(mod 4) the Gauss sum is real and |P(x)| takes only the two extreme
values; when p = 3 (mod 4) it is purely imaginary and |P(x)| is the
constant sqrt(1 + 1/p).

The autocorrelation of a sign table,

    c(j) = (1/p) * sum_{x mod p} eps(x) * eps(x + j),

is an exact rational with denominator p.  It doubles as the j-th Fourier
coefficient of the density |P|^2 on the cyclic group, which provides an
independent floating-point route to the same number.  On the whole circle
|P|^2 is a trigonometric polynomial with coefficients r(m)/p, |m| < p,
where r(m) = sum_x eps(x) eps(x + m) is the linear autocorrelation; so
r = irfft(|rfft(eps, n)|^2, n), with the table zero-padded to the
smallest n >= 2p of the form 2^a 3^b 5^c, is exact up to round-off.  On
the p-th roots the lags m and m - p alias: c(j) = (r(j) + r(j - p)) / p.
As r(m) = r(-m), the symmetry of the computed r is its round-off check.

The core routines accept any sign table (entries +/-1, entry 0 fixed to
+1); the prime-keyed wrappers specialise to the Legendre table.  Each
table is the single precomputation layer for its prime: it stores an int8
sign array and derives P, |P|^2, the density-route coefficients and the
exact numerators at most once, on first use.  It also knows whether it is
the quadratic-character table: legendre_table builds it from the squares
mask, and any other table is compared with that mask once, in O(p).  If
it is, the Gauss sum gives the extremes of |P| and the sup of |P|^2 in
closed form, and table_flatness_report reads them from there without
forming P; any other table is scanned through a prime-length FFT, which
the tests and gauss-check keep as the reference for the closed form.
Likewise the numerators of a quadratic table come from the Jacobi sum,
p * c(j) = -1 + chi(j) + chi(-j) for j != 0 with chi the table's own signs
off 0: O(1) per shift and O(p) for all of them.  Any other table sums
directly, one O(p) slice-pair dot per shift, or for every shift at once
the window route (np.correlate of the signs as float64, one BLAS dot per
shift, exact because every partial sum is an integer of magnitude at
most p < 2^53), whose sum p^2 cost is refused past _SCAN_BUDGET.
gauss-check compares the window route with the closed form, so that
comparison stays a real check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import BudgetError, ConfigError, InternalConsistencyError
from .odometer import is_prime

# FFT round-off on the table sizes used here stays far below this.
_NUMERIC_TOL = 1e-9

# The window route costs sum p^2 terms: 2.4e8 at theorem stage 3, 1.5e11 at 4.
_SCAN_BUDGET = 10**9

# squares mod p formed this many at a time (an int64 chunk of 512 KiB)
_SQUARE_CHUNK = 1 << 16


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) in {-1, 0, 1} via Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    ls = pow(a, (p - 1) // 2, p)
    return -1 if ls == p - 1 else ls


def legendre_symbols(p: int) -> np.ndarray:
    """(x|p) for every x mod p at once (entry 0 is 0): Euler's criterion as
    square-and-multiply on int64 arrays, independent of the squares mask
    that builds legendre_table."""
    if p < 3 or p * p >= 2**63:
        raise ConfigError(f"legendre_symbols needs 3 <= p and p^2 < 2^63, got {p}")
    base = np.arange(p, dtype=np.int64)
    acc = np.ones(p, dtype=np.int64)
    e = (p - 1) // 2
    while e:
        if e & 1:
            acc = acc * base % p
        base = base * base % p
        e >>= 1
    return np.where(acc == p - 1, -1, acc)


@dataclass(frozen=True, eq=False)
class LegendreTable:
    """Sign table of length p: entry 0 is +1, the rest are +/-1, kept as the
    read-only int8 array `signs` (any sequence or array is accepted).

    Tables compare by identity; legendre_table returns one per prime.
    The name reflects the standard construction; any table meeting the
    structural constraints is accepted downstream.
    """

    prime: int
    signs: np.ndarray

    def __post_init__(self) -> None:
        p = self.prime
        signs = np.asarray(self.signs)
        if signs.shape != (p,):
            raise ConfigError(f"table for {p} has shape {signs.shape}, not ({p},)")
        if signs[0] != 1:
            raise ConfigError("table entry at 0 must be +1")
        # compared before the cast, which would truncate 1.5 to 1
        if not ((signs == 1) | (signs == -1)).all():
            raise ConfigError("table entries must be +1 or -1")
        signs = signs.astype(np.int8)  # a copy: the caller's array stays writeable
        signs.flags.writeable = False
        object.__setattr__(self, "signs", signs)

    @cached_property
    def is_quadratic(self) -> bool:
        """Whether this is the quadratic-character table: p an odd prime, +1
        at 0 and on the nonzero squares mod p, -1 elsewhere (compared
        entry by entry with the squares mask; legendre_table sets it)."""
        p = self.prime
        return p > 2 and is_prime(p) and np.array_equal(self.signs, _quadratic_signs(p))

    # int64, not int8: np.dot and @ accumulate in the operands' dtype
    @cached_property
    def _signs(self) -> np.ndarray:
        return self.signs.astype(np.int64)

    @cached_property
    def _polynomial(self) -> np.ndarray:
        # np.fft.fft applies exp(-2 pi i k x / p), the sign convention above
        return np.fft.fft(self.signs.astype(np.complex128)) / math.sqrt(self.prime)

    @cached_property
    def _density(self) -> np.ndarray:
        # a fresh float array: (vals * vals.conj()).real would be a view that
        # keeps the complex product alive
        vals = self._polynomial
        return vals.real**2 + vals.imag**2

    @cached_property
    def _density_fourier(self) -> np.ndarray:
        # r(m) at index m and r(-m) at n - m; n >= 2p leaves lags +/-p at zero
        p = self.prime
        n = _fft_length(2 * p)
        spec = np.fft.rfft(self.signs, n)
        # |spec|^2 in place, kept complex with a zero imaginary part: irfft
        # then makes no complex copy of a float input; all of it is freed
        # before the fold below allocates
        re, im = spec.real, spec.imag
        re *= re
        im *= im
        re += im
        im[:] = 0
        r = np.fft.irfft(spec, n)
        del spec, re, im
        off = np.flatnonzero(np.abs(r[1:p] - r[n - 1 : n - p : -1]) > p * _NUMERIC_TOL)
        if off.size:
            m = int(off[0]) + 1
            raise InternalConsistencyError(
                f"density autocorrelation not symmetric at p={p}, m={m}: {r[m]} vs {r[n - m]}"
            )
        out = (r[:p] + r[n - p :]) / p
        out.flags.writeable = False
        return out

    @cached_property
    def _autocorrelation_numerators(self) -> np.ndarray:
        if self.is_quadratic:
            # the Jacobi sum: -1 + s[j] + s[p - j] for j != 0, and p at 0
            s, p = self.signs, self.prime
            out = np.empty(p, dtype=np.int64)
            out[1:] = s[1:]
            out[1:] += s[:0:-1]
            out -= 1
            out[0] = p
        else:
            out = window_autocorrelation_numerators(self)
        out.flags.writeable = False
        return out


def _fft_length(m: int) -> int:
    """The smallest 2^a * 3^b * 5^c >= m (m >= 1): pocketfft transforms
    such lengths with its small-radix passes, and the next power of two
    can be up to twice as long."""
    best = 1 << (m - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # the least odd * 2^a >= m
            best = min(best, odd << (-(-m // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def window_autocorrelation_numerators(table: LegendreTable) -> np.ndarray:
    """p * c(j) for every shift j by direct summation over the table, never
    the closed form: entry j is sum_x s(x + j) s(x), a float64 dot per
    shift (BLAS); every partial sum is an integer of magnitude <= p < 2^53,
    so exact.  Costs p^2 terms; a fresh int64 array."""
    s = table.signs.astype(np.float64)
    return np.correlate(np.concatenate((s, s[:-1])), s, "valid").astype(np.int64)


def check_scan_budget(tables, what: str) -> None:
    """Refuse, before any scan, tables whose all-shift numerators would take
    more than _SCAN_BUDGET window terms.  Quadratic tables read theirs off
    the closed form in O(p) and do not count."""
    cost = sum(t.prime**2 for t in tables if not t.is_quadratic)
    if cost > _SCAN_BUDGET:
        raise BudgetError(f"{what} needs {cost} scan terms, budget is {_SCAN_BUDGET}")


def check_table_prime(p: int) -> None:
    """Refuse a prime whose table would square residues past int64:
    _quadratic_signs squares every k <= (p - 1) / 2 in int64."""
    if ((p - 1) // 2) ** 2 > 2**63 - 1:
        raise ConfigError(f"the sign table for {p} would square residues past int64")


def _quadratic_signs(p: int) -> np.ndarray:
    """+1 at 0 and on the nonzero squares mod p, -1 elsewhere, as int8.
    k and p - k have the same square, so k <= (p - 1) / 2 reach them all;
    they are squared a fixed-size chunk at a time."""
    signs = np.full(p, -1, dtype=np.int8)
    signs[0] = 1
    half = (p + 1) // 2
    for start in range(1, half, _SQUARE_CHUNK):
        k = np.arange(start, min(start + _SQUARE_CHUNK, half), dtype=np.int64)
        k *= k
        k %= p
        signs[k] = 1
    return signs


@lru_cache(maxsize=None)
def legendre_table(p: int) -> LegendreTable:
    """The Legendre sign table: +1 on the nonzero squares mod p and at 0,
    -1 elsewhere (Euler's criterion, as in legendre, is the reference)."""
    check_table_prime(p)
    if not is_prime(p) or p == 2:
        raise ConfigError(f"{p} is not an odd prime")
    table = LegendreTable(prime=p, signs=_quadratic_signs(p))
    table.__dict__["is_quadratic"] = True  # built from the squares mask itself
    return table


def gauss_sum(p: int, x: int) -> complex:
    """sum_k exp(-2 pi i k^2 x / p), evaluated by the classical formula:
    sqrt(p) * (x|p) for p = 1 (mod 4), -i * sqrt(p) * (x|p) for p = 3 (mod 4)."""
    x %= p
    if x == 0:
        return complex(p)
    chi = legendre(x, p)
    root = math.sqrt(p)
    if p % 4 == 1:
        return complex(chi * root)
    return complex(0.0, -chi * root)


def gauss_sum_brute(p: int, x: int) -> complex:
    """Same sum by direct summation; the slow cross-check route."""
    k = np.arange(p, dtype=np.int64)
    return complex(np.exp(-2j * np.pi * ((k * k * x) % p) / p).sum())


def gauss_sum_all(p: int) -> np.ndarray:
    """Every quadratic Gauss sum mod p at once: entry x holds
    sum_k exp(-2 pi i k^2 x / p), via the FFT of the histogram of squares."""
    k = np.arange(p, dtype=np.int64)
    counts = np.bincount((k * k) % p, minlength=p)
    return np.fft.fft(counts.astype(np.complex128))


def table_polynomial_values(table: LegendreTable) -> np.ndarray:
    """P(x) for all x at once."""
    return table._polynomial


def table_density(table: LegendreTable) -> np.ndarray:
    """|P(x)|^2 for all x; averages to exactly 1."""
    return table._density


def autocorrelation_numerator(table: LegendreTable, j: int) -> int:
    """p * c(j) as an exact integer: sum_x eps(x) eps(x + j).  O(1) by the
    closed form for a quadratic table, one O(p) slice-pair dot otherwise."""
    p = table.prime
    j %= p
    if j == 0:
        return p
    if table.is_quadratic:
        return -1 + int(table.signs[j]) + int(table.signs[p - j])
    s = table._signs
    return int(np.dot(s[: p - j], s[j:]) + np.dot(s[p - j :], s[:j]))


def autocorrelation_numerators(table: LegendreTable) -> np.ndarray:
    """p * c(j) for every shift j at once (entry 0 is p), as exact int64:
    the closed form for a quadratic table, the window route otherwise (see
    check_scan_budget); read-only and held on the table."""
    return table._autocorrelation_numerators


def table_autocorrelation(table: LegendreTable, j: int) -> Fraction:
    """c(j) as an exact rational, computed from the sign table itself."""
    j %= table.prime
    if j == 0:
        return Fraction(1)
    return Fraction(autocorrelation_numerator(table, j), table.prime)


def table_density_fourier(table: LegendreTable, j: int) -> float:
    """j-th Fourier coefficient (1/p) sum_x |P(x)|^2 exp(+2 pi i j x / p) by
    the zero-padded route.  It must agree with table_autocorrelation(table, j)
    up to round-off; the two routes share no code past the sign array."""
    return float(table._density_fourier[j % table.prime])


def table_density_fourier_all(table: LegendreTable) -> np.ndarray:
    """Every table_density_fourier value at once; read-only, held on the table."""
    return table._density_fourier


def character_polynomial_values(p: int) -> np.ndarray:
    return table_polynomial_values(legendre_table(p))


def character_polynomial(p: int, x: int) -> complex:
    return complex(character_polynomial_values(p)[x % p])


def density_values(p: int) -> np.ndarray:
    return table_density(legendre_table(p))


def autocorrelation(p: int, j: int) -> Fraction:
    return table_autocorrelation(legendre_table(p), j)


def autocorrelation_closed_form(p: int, j: int) -> Fraction:
    """c_p(j) = (-1 + (j|p) + (-j|p)) / p for j != 0, specific to the
    Legendre table.  Independent of the summation route; used as a
    cross-check."""
    j %= p
    if j == 0:
        return Fraction(1)
    return Fraction(-1 + legendre(j, p) + legendre(p - j, p), p)


def fourier_of_density_factor(p: int, j: int) -> float:
    return table_density_fourier(legendre_table(p), j)


@dataclass(frozen=True)
class FlatnessReport:
    """Sup/inf of |P| away from 0 and the sup of |P|^2, with the route
    that gave them ('gauss-sum' for the closed form of a quadratic table,
    'fft-scan' for an exhaustive scan), plus the parity class of the Gauss
    sum: 'one' for real (p = 1 mod 4), 'imaginary-unit' for purely
    imaginary (p = 3 mod 4)."""

    prime: int
    min_modulus: float
    max_modulus: float
    delta_sign: str
    density_sup: float
    route: str


def table_flatness_report(table: LegendreTable) -> FlatnessReport:
    """The extremes of |P(x)| over x != 0 and the sup of |P|^2, checked
    against the flatness window.  For a quadratic table the Gauss sum fixes
    them: 1 -/+ 1/sqrt(p) and (1 + 1/sqrt(p))^2 when p = 1 (mod 4),
    sqrt(1 + 1/p) and 1 + 1/p when p = 3 (mod 4), and no P is formed.  Any
    other table is scanned at every x."""
    p = table.prime
    root = math.sqrt(p)
    if table.is_quadratic:
        route = "gauss-sum"
        if p % 4 == 1:
            lo, hi, sup = 1 - 1 / root, 1 + 1 / root, (1 + 1 / root) ** 2
        else:
            lo = hi = math.sqrt(1 + 1 / p)
            sup = 1 + 1 / p
    else:
        route = "fft-scan"
        mods = np.abs(table_polynomial_values(table))[1:]
        lo, hi = float(mods.min()), float(mods.max())
        sup = float(table_density(table).max())
    if lo < 1 - 1 / root - _NUMERIC_TOL or hi > 1 + 1 / root + _NUMERIC_TOL:
        raise InternalConsistencyError(
            f"flatness window violated at p={p}: [{lo}, {hi}]"
        )
    return FlatnessReport(
        prime=p,
        min_modulus=lo,
        max_modulus=hi,
        delta_sign="one" if p % 4 == 1 else "imaginary-unit",
        density_sup=sup,
        route=route,
    )


def flatness_report(p: int) -> FlatnessReport:
    return table_flatness_report(legendre_table(p))
