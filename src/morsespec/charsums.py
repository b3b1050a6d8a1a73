"""Quadratic character tables and the flat trigonometric polynomials they generate.

For an odd prime p the sign table is eps(0) = 1 and eps(k) = (k|p), the
Legendre symbol, for 0 < k < p.  Packing the table into

    P(x) = p^(-1/2) * sum_{k=0}^{p-1} eps(k) * exp(-2 pi i k x / p)

gives an almost flat polynomial on the p-th roots of unity: as k^2 takes
0 once and each nonzero square twice, sqrt(p) * P(x) = 1 + G(x) for x != 0,
G(x) = sum_k exp(-2 pi i k^2 x / p) the Gauss sum, and P(0) = 1/sqrt(p)
(Ireland & Rosen, ch. 6).  As |G(x)| = sqrt(p), |P(x)| lies in
[1 - 1/sqrt(p), 1 + 1/sqrt(p)] for x != 0.  When p = 1 (mod 4) G is real
and |P(x)| takes only the two extreme values; when p = 3 (mod 4) G is
purely imaginary and |P(x)| is the constant sqrt(1 + 1/p).

The autocorrelation of a sign table,

    c(j) = (1/p) * sum_{x mod p} eps(x) * eps(x + j),

is an exact rational with denominator p.  It doubles as the j-th Fourier
coefficient of the density |P|^2 on the cyclic group, which provides an
independent floating-point route to the same number.  On the whole circle
|P|^2 is a trigonometric polynomial with coefficients r(m)/p, |m| < p,
where r(m) = sum_x eps(x) eps(x + m) is the linear autocorrelation.  It
is assembled from short transforms: the table is split into k blocks
B_i = eps[iL : iL + L] of L = ceil(p / k) residues, the last one short
(k = 1 up to _DENSITY_BLOCK residues, then ceil(p / _DENSITY_BLOCK) blocks,
at most _DENSITY_BLOCKS), each zero-padded to the smallest n >= 2L of the
form 2^a 3^b 5^c, F_i = rfft(B_i, n).  For each block offset w the window
x_w = irfft(sum_i conj(F_i) F_(i+w), n) is x_w(t) = sum_i sum_a
B_i(a) B_(i+w)(a + t) for |t| < L, t read mod n, and every pair of
residues m apart meets in exactly one window, so r(m) = sum_w x_w(m - wL)
over |m - wL| < L is exact up to round-off.  The power window x_0 comes
from separately rounded squares re^2 + im^2, never a fused multiply-add.
On the p-th roots the lags m and m - p alias: c(j) = (r(j) + r(j - p)) / p.
density_fourier keeps r only at the lags j and p - j of the shifts it is
asked for, so past the block spectra it holds O(L + shifts) numbers.  The
symmetry x_0(t) = x_0(-t) and an integer value at every lag of every
window, before it is added in, are its round-off checks.

LegendreTable(p) is the single precomputation layer for its prime: its
int8 sign array (the squares mask), a pass over the table, is derived at
most once, on first use, and freed with the table; the density route
reads it at the shifts each call asks for and caches nothing.  No cache
keeps a table: a context (cocycle.build_context) owns one per prime.
check_table_prime is the one size guard: a prime past _TABLE_BUDGET
residues gets no squares mask, and so no density route and no Gauss
sums either, while a table of any odd prime can be made and asked what
needs only p.  flatness_report reads the extremes of |P| and the sup of
|P|^2 off p, by the Gauss sum.
For j != 0 the Jacobi sum gives p * c(j) = -1 + chi(j) + chi(-j), chi
the signs off 0, which chi(-1) = (-1)^((p-1)/2) collapses to -1 when
p = 3 (mod 4) and to 2 chi(j) - 1 when p = 1 (mod 4) (Ireland & Rosen,
ch. 8): jacobi_numerators at any shifts, which reads a table's signs
only when p = 1 (mod 4), numerator_counts its value counts.  The Gauss
sums by FFT of the histogram of squares (gauss_sum_all, and P off them),
Euler's criterion (legendre_symbols) and the direct window sum in
window_autocorrelation_numerators are the references that check_prime
compares those closed forms and the squares mask with, one PrimeCheck
per prime.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

from . import lazy_numpy
from .errors import BudgetError, ConfigError, InternalConsistencyError
from .odometer import is_prime

np = lazy_numpy()

# FFT round-off on the table sizes used here stays far below this.
_NUMERIC_TOL = 1e-9

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
    that builds a LegendreTable."""
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


# residues a sign table may hold; its density route's blocks are then at
# most 2^19 residues, each transformed at 2^20 points, and every square
# _quadratic_signs forms is below 2^46
_TABLE_BUDGET = 2**24

# the density route's blocks: one block up to _DENSITY_BLOCK residues, then
# ceil(p / _DENSITY_BLOCK) blocks, at most _DENSITY_BLOCKS of them; its
# cross spectra are summed _SPECTRUM_RUN frequencies (256 KiB) at a time
_DENSITY_BLOCK, _DENSITY_BLOCKS, _SPECTRUM_RUN = 1 << 14, 32, 1 << 14


def check_table_prime(p: int) -> None:
    """Refuse, as a BudgetError, a prime past _TABLE_BUDGET residues."""
    if p > _TABLE_BUDGET:
        raise BudgetError(f"the sign table of {p} needs {p} residues, budget is {_TABLE_BUDGET}")


def _check_odd_prime(p: int) -> None:
    """Refuse p unless it is an odd prime."""
    if not is_prime(p) or p == 2:
        raise ConfigError(f"{p} is not an odd prime")


class LegendreTable:
    """The quadratic-character sign table of an odd prime p: +1 at 0 and on
    the nonzero squares mod p, -1 elsewhere (Euler's criterion, as in
    legendre, is the reference).  The prime is checked here; the one
    cached array, the read-only int8 `signs`, is built on first read, and
    it refuses a prime past check_table_prime before anything is
    allocated, and so does density_fourier, which reads it first.

    Making a table is free; the signs live as long as the table.
    Tables compare by identity, and none is shared: a context holds its own.
    """

    def __init__(self, prime: int) -> None:
        _check_odd_prime(prime)
        self.prime = prime

    @cached_property
    def signs(self) -> np.ndarray:
        check_table_prime(self.prime)
        signs = _quadratic_signs(self.prime)
        signs.flags.writeable = False
        return signs


def _check_round_off(dev: np.ndarray, first: int, p: int, what: str) -> None:
    """Refuse the density route of p, as an InternalConsistencyError, where
    a deviation in dev (overwritten) is larger than p * _NUMERIC_TOL,
    naming the lag m = first + i of the largest."""
    i = np.abs(dev, out=dev).argmax()
    if dev[i] > p * _NUMERIC_TOL:
        raise InternalConsistencyError(f"density autocorrelation {what} at p={p}, m={first + i}: off by {dev[i]}")


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


def density_fourier(table: LegendreTable, shifts: np.ndarray) -> np.ndarray:
    """c(j), p = table.prime, for each shift j in 0..p-1 of an int array
    (np.arange(p) for every shift), as a fresh float64 array of its shape,
    by the density route off the real FFTs of the table's blocks of L
    residues, each at length _fft_length(2 L) (see the module docstring).
    r is kept only at the sorted distinct lags j and p - j, with r(p) = 0
    standing in for j = 0; every lag of every window is still checked."""
    # the signs first: a prime past the table budget is refused before any array
    p, signs, shifts = table.prime, table.signs, np.asarray(shifts)
    wanted = np.zeros(p + 1, bool)
    wanted[shifts] = wanted[p - shifts] = True
    lags = np.flatnonzero(wanted)
    del wanted  # p bytes, freed before the spectra are made
    size = -(-p // min(_DENSITY_BLOCKS, -(-p // _DENSITY_BLOCK)))
    n = _fft_length(2 * size)
    spectra = np.empty((-(-p // size), n // 2 + 1), np.complex128)
    # acc sums a window's spectrum, one product at a time in tmp; the
    # power window's keeps a zero imaginary part, so irfft makes no
    # complex copy of a float input; once irfft has read acc into x, dev
    # (over acc) takes the window's deviations and tmp the window
    acc, tmp, r = np.zeros_like(spectra[0]), np.empty_like(spectra[0]), np.zeros(lags.size)
    dev = acc.view(np.float64)
    for i, row in enumerate(spectra):
        row[:] = np.fft.rfft(signs[i * size : (i + 1) * size], n)
        # |F_i|^2 from separately rounded squares: no fused multiply-add
        np.square(row.view(np.float64), out=tmp.view(np.float64))
        acc.real += np.add(tmp.real, tmp.imag, out=tmp.real)
    for w, start in enumerate(range(0, p, size)):
        # a cross window by numpy's complex multiply, a run of
        # frequencies at a time, so that its part of tmp stays in cache
        for f in range(0, n // 2 + 1, _SPECTRUM_RUN) if w else ():
            part, spare = acc[f : f + _SPECTRUM_RUN], tmp[f : f + _SPECTRUM_RUN]
            part[:] = 0
            for a, b in zip(spectra[:, f : f + _SPECTRUM_RUN], spectra[w:, f : f + _SPECTRUM_RUN]):
                part += np.multiply(np.conjugate(a, out=spare), b, out=spare)
        x = np.fft.irfft(acc, n)
        if not w:  # x_0(t) against x_0(-t), 0 < t <= L
            _check_round_off(np.subtract(x[1 : size + 1], x[: n - size - 1 : -1], out=dev[:size]), 1, p, "not symmetric")
        # x_w(t) lands at lag m = start + t, t in (-L, L), 0 <= m < p,
        # and is added in at the wanted lags among them
        m0, m1 = max(start - size + 1, 0), min(start + size, p)
        window = np.concatenate((x[n + m0 - start :], x[: m1 - start]), out=tmp.view(np.float64)[: m1 - m0])
        off = dev[: m1 - m0]
        _check_round_off(np.subtract(window, np.rint(window, out=off), out=off), m0, p, "not integral")
        lo, hi = np.searchsorted(lags, (m0, m1))
        r[lo:hi] += window[lags[lo:hi] - m0]
    # p c(j) = r(j) + r(j - p) = r(j) + r(p - j) = p c(p - j); the lags
    # are closed under m -> p - m, so p - j sits where j does in reverse
    r += r[::-1]
    r /= p
    return r[np.searchsorted(lags, shifts)]


def window_autocorrelation_numerators(signs: np.ndarray) -> np.ndarray:
    """p * c(j) for every shift j of a +/-1 array of length p by direct
    summation, never the closed form: entry j is sum_x s(x + j) s(x), a
    float64 dot per shift (BLAS); every partial sum is an integer of
    magnitude <= p < 2^53, so exact.  Costs p^2 terms; a fresh int64 array."""
    s = signs.astype(np.float64)
    return np.correlate(np.concatenate((s, s[:-1])), s, "valid").astype(np.int64)


def jacobi_numerators(table: LegendreTable, shifts: np.ndarray) -> np.ndarray:
    """p * c(j), p = table.prime, for each shift j in 0..p-1 of an int
    array (np.arange(p) for every shift), as a fresh int64 array of its
    shape: -1 when p = 3 (mod 4), 2 chi(j) - 1 when p = 1 (mod 4), and p
    at j = 0.  Only p = 1 (mod 4) reads the table's signs."""
    p = table.prime
    shifts = np.asarray(shifts)
    if p % 4 == 3:
        out = np.full(shifts.shape, -1, dtype=np.int64)
    else:
        out = table.signs[shifts].astype(np.int64)
        out *= 2
        out -= 1
    out[shifts == 0] = p
    return out


def _quadratic_signs(p: int) -> np.ndarray:
    """+1 at 0 and on the nonzero squares mod p, -1 elsewhere, as int8.
    k and p - k have the same square, so 0 <= k <= (p - 1) / 2 reach them
    all, 0 included; they are squared a fixed-size chunk at a time."""
    signs = np.full(p, -1, dtype=np.int8)
    half = (p + 1) // 2
    for start in range(0, half, _SQUARE_CHUNK):
        k = np.arange(start, min(start + _SQUARE_CHUNK, half), dtype=np.int64)
        k *= k
        k %= p
        signs[k] = 1
    return signs


def numerator_counts(p: int) -> dict[int, int]:
    """How many shifts j give each value of p * c(j), from p alone: off
    j = 0 jacobi_numerators gives 2 chi(j) - 1, so 1 and -3 (p - 1) / 2
    times each, when p = 1 (mod 4), and -1 p - 1 times when p = 3 (mod 4);
    p occurs once, at j = 0."""
    if p % 4 == 1:
        return {1: (p - 1) // 2, -3: (p - 1) // 2, p: 1}
    return {-1: p - 1, p: 1}


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


def gauss_sum_all(p: int) -> np.ndarray:
    """Every quadratic Gauss sum mod p at once: entry x holds
    sum_k exp(-2 pi i k^2 x / p), via the FFT of the histogram of squares;
    a prime past check_table_prime is refused before any array is made."""
    check_table_prime(p)
    k = np.arange(p, dtype=np.int64)
    counts = np.bincount((k * k) % p, minlength=p)
    return np.fft.fft(counts.astype(np.complex128))


def character_polynomial_values(p: int) -> np.ndarray:
    """P(x) for every x mod p off the Gauss sums: (1 + G(x)) / sqrt(p), 1 / sqrt(p) at 0."""
    _check_odd_prime(p)
    values = gauss_sum_all(p) + 1
    values[0] = 1
    return values / math.sqrt(p)


class FlatnessReport(NamedTuple):
    """Sup/inf of |P| away from 0 and the sup of |P|^2, plus the parity
    class of the Gauss sum: 'one' for real (p = 1 mod 4), 'imaginary-unit'
    for purely imaginary (p = 3 mod 4).  window_low and window_high are
    the window 1 -/+ 1/sqrt(p) that |P| lies in off 0 at every p; at
    p = 1 (mod 4) they are the extremes themselves."""

    prime: int
    min_modulus: float
    max_modulus: float
    delta_sign: str
    density_sup: float
    window_low: float
    window_high: float


def flatness_report(p: int) -> FlatnessReport:
    """The extremes of |P(x)| over x != 0 and the sup of |P|^2.  The Gauss
    sum fixes them: 1 -/+ 1/sqrt(p) and (1 + 1/sqrt(p))^2 when p = 1
    (mod 4), sqrt(1 + 1/p) and 1 + 1/p when p = 3 (mod 4); no table and no
    P is formed.  A p past the float range is refused."""
    _check_odd_prime(p)
    try:
        inv_root = 1.0 / math.sqrt(p)
    except OverflowError:
        raise ConfigError(f"a prime of {p.bit_length()} bits is past the float range") from None
    window = (1.0 - inv_root, 1.0 + inv_root)
    if p % 4 == 1:
        return FlatnessReport(p, *window, "one", window[1] ** 2, *window)
    modulus = math.sqrt(1 + 1 / p)
    return FlatnessReport(p, modulus, modulus, "imaginary-unit", 1 + 1 / p, *window)


class PrimeCheck(NamedTuple):
    """gauss-check's comparisons at one prime: the largest error of each
    float route against its reference, and whether the squares mask and
    the Jacobi closed form hold exactly."""

    gauss_error: float
    parity_error: float
    flatness_error: float
    density_error: float
    closed_form_ok: bool


def check_prime(p: int) -> PrimeCheck:
    """Every closed form at p against its reference, over the whole table:
    the Gauss sums by FFT against gauss_sum's formula (gauss_error, and
    parity_error off the real or imaginary axis), flatness_report against
    the scan of |P| = |1 + G| / sqrt(p) off 0 (flatness_error), the squares
    mask against Euler's criterion off 0 and the window sums against
    jacobi_numerators (closed_form_ok), and the density route against the
    window sums (density_error).  The table lives for this call only."""
    brute = gauss_sum_all(p)[1:]
    chi = legendre_symbols(p)
    # the formula's parts for x != 0 as gauss_sum builds them, so that the
    # hypot equals abs(brute[x] - gauss_sum(p, x)) to the last digit
    root = math.sqrt(p)
    if p % 4 == 1:
        formula_re, formula_im, off_axis = chi[1:] * root, 0.0, brute.imag
    else:
        formula_re, formula_im, off_axis = 0.0, -chi[1:] * root, brute.real
    gauss_error = np.hypot(brute.real - formula_re, brute.imag - formula_im).max()
    parity_error = np.abs(off_axis).max()
    table = LegendreTable(p)
    # the Gauss-sum closed form against the exhaustive scan of |P| that
    # it replaces everywhere else: sqrt(p) * P = 1 + G off 0
    flatness = flatness_report(p)
    mods = np.abs(brute + 1) / root
    flatness_error = max(
        abs(float(mods.min()) - flatness.min_modulus),
        abs(float(mods.max()) - flatness.max_modulus),
    )
    # summed over the table, not read off the closed form it is checked against
    numerators = window_autocorrelation_numerators(table.signs)
    # the mask against Euler's criterion off 0, which the closed form
    # reads only at p = 1 (mod 4)
    mask_ok = np.array_equal(table.signs[1:], chi[1:])
    closed = jacobi_numerators(table, np.arange(p))
    closed_form_ok = mask_ok and np.array_equal(numerators, closed)
    density_error = np.abs(numerators / p - density_fourier(table, np.arange(p))).max()
    return PrimeCheck(gauss_error, parity_error, flatness_error, density_error, closed_form_ok)
