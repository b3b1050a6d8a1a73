import cmath
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import morsespec as ms
from morsespec import charsums
from morsespec.charsums import density_fourier, jacobi_numerators, legendre_symbols
from morsespec.errors import BudgetError, ConfigError, InternalConsistencyError
from oracles import (
    autocorrelation_closed_form,
    fft_scan_flatness,
    gauss_sum_brute,
    jacobi_numerators_gather,
    polynomial_fft,
)

ODD_PRIMES_BELOW_500 = [q for q in range(3, 500) if sympy.isprime(q)]
SMALL_ODD_PRIMES = [p for p in range(3, 100) if sympy.isprime(p)]


def _autocorrelations(p):
    # c(j) for every shift j, off one table's signs
    return [Fraction(n, p) for n in jacobi_numerators(ms.LegendreTable(p), np.arange(p)).tolist()]


def test_legendre_matches_sympy():
    for p in SMALL_ODD_PRIMES:
        for a in range(p):
            assert ms.legendre(a, p) == sympy.legendre_symbol(a, p)


@settings(max_examples=100, deadline=None)
@given(
    a=st.integers(min_value=1, max_value=10**6),
    b=st.integers(min_value=1, max_value=10**6),
    p=st.sampled_from(SMALL_ODD_PRIMES),
)
def test_legendre_is_multiplicative(a, b, p):
    assert ms.legendre(a * b, p) == ms.legendre(a, p) * ms.legendre(b, p)


def test_legendre_table_frozen():
    assert ms.LegendreTable(5).signs.tolist() == [1, 1, -1, -1, 1]
    assert ms.LegendreTable(7).signs.tolist() == [1, 1, 1, -1, 1, -1, -1]


def test_legendre_table_structure():
    for p in (5, 7, 11, 29):
        table = ms.LegendreTable(p)
        assert table.signs[0] == 1
        # entry 0 overridden to +1, the rest balanced
        assert table.signs.sum() == 1
        for k in range(1, p):
            assert table.signs[(k * k) % p] == 1
        assert table.signs.dtype == np.int8
        assert not table.signs.flags.writeable
    with pytest.raises(ConfigError):
        ms.LegendreTable(9)
    with pytest.raises(ConfigError):
        ms.LegendreTable(2)


def test_table_accepts_sequences_and_arrays():
    # a table is built from its prime alone and hands out read-only int8 signs
    table = ms.LegendreTable(5)
    assert table.signs.dtype == np.int8
    assert not table.signs.flags.writeable
    assert table.signs.tolist() == [1, 1, -1, -1, 1]
    assert jacobi_numerators(table, np.arange(table.prime)).tolist() == [5, 1, -3, -3, 1]
    with pytest.raises(ValueError):
        table.signs[1] = -1
    # identity equality and hashing: no two tables are equal
    assert table == table
    assert ms.LegendreTable(5) != ms.LegendreTable(5)
    assert len({table, table, ms.LegendreTable(5)}) == 2


def test_legendre_table_refuses_primes_past_the_table_budget(monkeypatch):
    # the table of p_6 is made, and the first read of its signs (or of its
    # density route, which reads them) is refused before a mask is allocated
    def no_mask(*args, **kwargs):
        raise AssertionError("a squares mask was allocated")

    monkeypatch.setattr(charsums.np, "full", no_mask)
    table = ms.LegendreTable(6_103_515_637)  # p_6 of the theorem sequence
    line = "the sign table of 6103515637 needs 6103515637 residues, budget is 16777216"
    for read in (lambda: table.signs, lambda: density_fourier(table, [1])):
        with pytest.raises(BudgetError) as err:
            read()
        assert str(err.value) == line
    assert charsums._TABLE_BUDGET == 2**24
    charsums.check_table_prime(2**24)
    with pytest.raises(BudgetError):
        charsums.check_table_prime(2**24 + 1)


def test_the_table_budget_is_the_density_fft_budget(monkeypatch):
    # the largest prime under the table budget runs the density route in
    # 32 blocks of 2^19 residues, each transformed at 2^20 points; the
    # first prime past it is refused at its sign read, before any array
    assert sympy.isprime(16_777_213) and sympy.nextprime(16_777_213) == 16_777_259
    assert 16_777_213 < charsums._TABLE_BUDGET < 16_777_259
    assert _route_lengths(monkeypatch, 16_777_213) == (2**19, 2**20)

    def no_array(*args, **kwargs):
        raise AssertionError("an array was allocated")

    for name in ("asarray", "zeros", "empty", "full"):
        monkeypatch.setattr(charsums.np, name, no_array)
    with pytest.raises(BudgetError, match="the sign table of 16777259 needs"):
        density_fourier(ms.LegendreTable(16_777_259), [1])


def test_gauss_sums_refuse_primes_past_the_table_budget(monkeypatch):
    # 10^9 + 7 would ask numpy for 7.45 GiB for its arange alone
    def no_array(*args, **kwargs):
        raise AssertionError("an array was allocated")

    monkeypatch.setattr(charsums.np, "arange", no_array)
    for route in (ms.gauss_sum_all, ms.character_polynomial_values):
        with pytest.raises(BudgetError, match="the sign table of 1000000007 needs"):
            route(1_000_000_007)


def test_legendre_table_matches_euler_criterion():
    # the table is built from a mask of squares; Euler's criterion is the
    # reference route
    for p in [q for q in range(3, 500) if sympy.isprime(q)] + [15629]:
        values = ms.LegendreTable(p).signs.tolist()
        assert all(values[k] == ms.legendre(k, p) for k in range(1, p)), p


def test_legendre_symbols_match_scalar_route():
    for p in ODD_PRIMES_BELOW_500:
        assert legendre_symbols(p).tolist() == [ms.legendre(x, p) for x in range(p)], p
    p = 390_647
    symbols = legendre_symbols(p)
    rng = np.random.default_rng(7)
    for x in [0, 1, 2, p - 1] + rng.integers(0, p, size=200).tolist():
        assert symbols[x] == sympy.legendre_symbol(x, p), x


def test_legendre_symbols_refuse_int64_overflow():
    # p^2 must stay below 2^63 for the int64 square-and-multiply
    with pytest.raises(ConfigError):
        legendre_symbols(3_037_000_507)


def test_autocorrelation_numerators_match_per_shift_and_closed_form():
    for p in ODD_PRIMES_BELOW_500 + [15629]:
        table = ms.LegendreTable(p)
        numerators = jacobi_numerators(table, np.arange(table.prime))
        # any shifts, in any order; Euler's criterion gathered at j and -j
        # is the oracle
        shifts = np.random.default_rng(p).permutation(p)
        assert np.array_equal(jacobi_numerators(table, shifts), numerators[shifts]), p
        euler = jacobi_numerators_gather(legendre_symbols(p), shifts)
        assert np.array_equal(euler, numerators[shifts]), p
        # a list or a tuple of shifts is read as the array it spells
        few = [0, 1, 2]
        for seq in (few, tuple(few)):
            assert jacobi_numerators(table, seq).tolist() == numerators[few].tolist(), p
        assert numerators.tolist() == [
            p * autocorrelation_closed_form(p, j) for j in range(p)
        ], p


def test_closed_form_numerators_match_slice_pair_dots_at_p3():
    # p_3 = 390 647: the O(1) closed form against the O(p) direct sum at
    # 200 seeded shifts, on the table's own signs
    p = 390_647
    table = ms.LegendreTable(p)
    s = table.signs.astype(np.int64)
    numerators = jacobi_numerators(table, np.arange(table.prime))
    shifts = [0, 1, p - 1] + np.random.default_rng(2024).integers(1, p, size=197).tolist()
    per_shift = jacobi_numerators(table, np.array(shifts))
    for j, value in zip(shifts, per_shift.tolist()):
        dot = int(np.dot(s[: p - j], s[j:]) + np.dot(s[p - j :], s[:j]))
        assert numerators[j] == value == dot, j


def test_closed_form_numerators_match_the_window_route_below_3000():
    for p in [q for q in range(3, 3000) if sympy.isprime(q)]:
        table = ms.LegendreTable(p)
        window = charsums.window_autocorrelation_numerators(table.signs)
        # the Jacobi sum on the table at every shift, and gathered off
        # Euler's criterion
        assert np.array_equal(jacobi_numerators(table, np.arange(p)), window), p
        assert np.array_equal(jacobi_numerators_gather(legendre_symbols(p), np.arange(p)), window), p


def test_jacobi_numerators_match_the_gather_form():
    # the collapsed closed form against -1 + chi(j) + chi(-j), gathered at
    # j and at -j: on permuted shifts and both forms of the character below
    # 500, at every shift on the signs of p_2 and p_3
    for p in ODD_PRIMES_BELOW_500:
        shifts = np.random.default_rng(p).permutation(p)
        table = ms.LegendreTable(p)
        closed = jacobi_numerators(table, shifts)
        for chars in (table.signs, legendre_symbols(p)):
            assert np.array_equal(closed, jacobi_numerators_gather(chars, shifts)), p
    for p in (15_629, 390_647):
        table = ms.LegendreTable(p)
        gathered = jacobi_numerators_gather(table.signs, np.arange(p))
        assert np.array_equal(jacobi_numerators(table, np.arange(p)), gathered), p


def test_table_validation(monkeypatch):
    # LegendreTable and flatness_report refuse what is no odd prime before
    # building anything; a prime past the int64 squares limit (p_6) makes a
    # table and a flatness report, as neither reads a sign
    def no_table(p):
        raise AssertionError(f"table for {p} built")

    monkeypatch.setattr(charsums, "_quadratic_signs", no_table)
    for p in (1, 2, 9, 15):
        with pytest.raises(ConfigError):
            ms.LegendreTable(p)
        with pytest.raises(ConfigError):
            ms.flatness_report(p)
    p6 = 6_103_515_637
    assert ms.LegendreTable(p6).prime == p6
    for p in (5, 7, 29, p6):
        ms.flatness_report(p)
    assert ms.flatness_report(p6).max_modulus == 1 + 1 / math.sqrt(p6)  # p6 = 1 (mod 4)


def test_flatness_report_refuses_a_prime_past_the_float_range():
    with pytest.raises(ConfigError, match="a prime of 1025 bits is past the float range"):
        ms.flatness_report(2**1024 + 643)  # the least prime past 2^1024


def test_tables_are_built_without_table_sized_temporaries():
    # the squares mask is built in chunks and kept as it is: only the int8
    # array is p bytes
    p = 9_765_629  # p_4: the chunks of squares are small beside it
    tracemalloc.start()
    try:
        ms.LegendreTable(p).signs
        _, built = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built < 1.2 * p  # the table and two int64 chunks of squares


def _gauss_direct(p, x):
    return sum(cmath.exp(-2j * cmath.pi * ((k * k * x) % p) / p) for k in range(p))


def test_gauss_sum_formula_against_direct_summation():
    for p in [q for q in range(3, 60) if sympy.isprime(q)]:
        for x in range(1, p):
            direct = _gauss_direct(p, x)
            formula = ms.gauss_sum(p, x)
            assert abs(direct - formula) < 1e-9
            assert abs(abs(direct) - math.sqrt(p)) < 1e-9
    assert ms.gauss_sum(5, 0) == complex(5)


def test_gauss_sum_parity_classes():
    # 1 mod 4: real; 3 mod 4: purely imaginary
    assert abs(ms.gauss_sum(5, 1) - math.sqrt(5)) < 1e-12
    assert abs(ms.gauss_sum(13, 2) + math.sqrt(13)) < 1e-12
    assert abs(ms.gauss_sum(7, 1) + 1j * math.sqrt(7)) < 1e-12
    assert abs(ms.gauss_sum(11, 3) + 1j * math.sqrt(11)) < 1e-12
    for p in SMALL_ODD_PRIMES:
        for x in range(1, p):
            val = ms.gauss_sum(p, x)
            if p % 4 == 1:
                assert val.imag == 0
            else:
                assert val.real == 0


def test_gauss_sum_all_matches_pointwise():
    for p in (5, 7, 29, 101):
        sums = ms.gauss_sum_all(p)
        assert abs(sums[0] - p) < 1e-9
        for x in range(1, p):
            assert abs(sums[x] - gauss_sum_brute(p, x)) < 1e-9
            assert abs(sums[x] - ms.gauss_sum(p, x)) < 1e-9


def _poly_direct(signs, x):
    p = len(signs)
    return sum(
        signs[k] * cmath.exp(-2j * cmath.pi * k * x / p) for k in range(p)
    ) / math.sqrt(p)


def test_character_polynomial_against_direct_sum():
    for p in (5, 7, 13, 29):
        values = ms.character_polynomial_values(p)
        signs = ms.LegendreTable(p).signs.tolist()
        for x in range(p):
            assert abs(values[x] - _poly_direct(signs, x)) < 1e-10


def test_character_polynomial_at_zero():
    for p in (5, 7, 29, 631):
        assert abs(ms.character_polynomial_values(p)[0] - 1 / math.sqrt(p)) < 1e-12
    # the Gauss sums exist mod any q; P only for an odd prime
    for q in (2, 9):
        with pytest.raises(ConfigError, match=f"{q} is not an odd prime"):
            ms.character_polynomial_values(q)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 29, 631, 15629])
def test_character_polynomial_off_the_gauss_sums_against_the_table_fft(p):
    # sqrt(p) * P = 1 + G off 0 from the Gauss sums' FFT, against the
    # prime-length FFT of the sign table that they replace in the package
    values = ms.character_polynomial_values(p)
    assert values[0] == 1 / math.sqrt(p)
    assert np.abs(values - polynomial_fft(p)).max() <= 1e-12


def test_flatness_two_value_structure_for_1_mod_4():
    # residues hit 1 + 1/sqrt(p), non-residues 1 - 1/sqrt(p) (or vice versa);
    # only the two extreme moduli occur
    for p in (5, 13, 29):
        mods = np.abs(ms.character_polynomial_values(p))[1:]
        lo, hi = 1 - 1 / math.sqrt(p), 1 + 1 / math.sqrt(p)
        assert all(min(abs(m - lo), abs(m - hi)) < 1e-10 for m in mods)


def test_flatness_constant_modulus_for_3_mod_4():
    for p in (7, 11, 631):
        mods = np.abs(ms.character_polynomial_values(p))[1:]
        const = math.sqrt(1 + 1 / p)
        assert np.max(np.abs(mods - const)) < 1e-10


def test_flatness_report_frozen_values():
    rep7 = ms.flatness_report(7)
    assert rep7.delta_sign == "imaginary-unit"
    assert abs(rep7.min_modulus - 1.0690449676496976) < 1e-12
    assert abs(rep7.max_modulus - 1.0690449676496976) < 1e-12

    rep29 = ms.flatness_report(29)
    assert rep29.delta_sign == "one"
    assert abs(rep29.max_modulus - (1 + 1 / math.sqrt(29))) < 1e-9
    assert abs(rep29.min_modulus - (1 - 1 / math.sqrt(29))) < 1e-9

    rep631 = ms.flatness_report(631)
    assert rep631.delta_sign == "imaginary-unit"
    assert abs(rep631.max_modulus - math.sqrt(632 / 631)) < 1e-9

    rep_big = ms.flatness_report(15629)
    assert rep_big.delta_sign == "one"
    root = math.sqrt(15629)
    assert rep_big.min_modulus >= 1 - 1 / root - 1e-9
    assert rep_big.max_modulus <= 1 + 1 / root + 1e-9


def test_flatness_window_brackets_the_moduli():
    # the window 1 -/+ 1/sqrt(p) is the pair of extremes at p = 1 (mod 4)
    # and brackets the constant modulus sqrt(1 + 1/p) at p = 3 (mod 4)
    for p in ODD_PRIMES_BELOW_500 + [15_629, 390_647, 9_765_629]:
        rep = ms.flatness_report(p)
        if p % 4 == 1:
            assert (rep.window_low, rep.window_high) == (rep.min_modulus, rep.max_modulus), p
        else:
            assert rep.window_low < math.sqrt(1 + 1 / p) < rep.window_high, p
            assert rep.min_modulus == rep.max_modulus == math.sqrt(1 + 1 / p), p


def test_numerator_counts_closed_form_against_the_numerators():
    # the value counts from p alone, before any sign is built, against
    # np.unique of the numerators summed over the table (p < 3000) or read
    # off the Jacobi sum (p_3); sum counts = p, and sum value * count =
    # (sum_x s(x))^2 = 1
    for p in [q for q in range(3, 3000) if sympy.isprime(q)] + [390_647]:
        counts = charsums.numerator_counts(p)
        table = ms.LegendreTable(p)  # uncached: freed with the next prime
        if p < 3000:
            numerators = charsums.window_autocorrelation_numerators(table.signs)
        else:
            numerators = jacobi_numerators(table, np.arange(table.prime))
        values, m = np.unique(numerators, return_counts=True)
        assert counts == dict(zip(values.tolist(), m.tolist())), p
        assert sum(counts.values()) == p
        assert sum(v * c for v, c in counts.items()) == 1


def test_quadratic_signs_match_euler_criterion(monkeypatch):
    # the squares are formed in chunks; chunks of 7 put chunk edges inside
    # every table here but the smallest
    for chunk in (charsums._SQUARE_CHUNK, 7):
        monkeypatch.setattr(charsums, "_SQUARE_CHUNK", chunk)
        for p in ODD_PRIMES_BELOW_500 + [390_647]:
            signs = charsums._quadratic_signs(p)
            assert signs.dtype == np.int8
            assert signs[0] == 1
            assert np.array_equal(signs[1:], legendre_symbols(p)[1:]), (p, chunk)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 29, 631, 15629, 390_647])
def test_flatness_closed_form_against_the_fft_scan(p):
    # the primes of acceptance criterion 02 plus p_3; the scan may differ
    # from the Gauss-sum values by float round-off and by nothing more
    rep = ms.flatness_report(p)
    lo, hi, sup, _ = fft_scan_flatness(p)
    roundoff = 1e-13
    assert abs(lo - rep.min_modulus) <= roundoff
    assert abs(hi - rep.max_modulus) <= roundoff
    assert abs(sup - rep.density_sup) <= roundoff
    root = math.sqrt(p)
    if p % 4 == 1:
        assert (rep.min_modulus, rep.max_modulus) == (1 - 1 / root, 1 + 1 / root)
        assert rep.density_sup == (1 + 1 / root) ** 2
    else:
        assert rep.min_modulus == rep.max_modulus == math.sqrt(1 + 1 / p)
        assert rep.density_sup == 1 + 1 / p


def _autocorr_brute(table, j):
    p = len(table)
    return Fraction(sum(table[x] * table[(x + j) % p] for x in range(p)), p)


def test_autocorrelation_against_brute_force():
    for p in (3, 5, 7, 11, 13, 29, 47):
        table = ms.LegendreTable(p).signs.tolist()
        assert _autocorrelations(p) == [_autocorr_brute(table, j) for j in range(p)], p


def test_autocorrelation_frozen_values():
    assert _autocorrelations(5) == [1, Fraction(1, 5), Fraction(-3, 5), Fraction(-3, 5), Fraction(1, 5)]
    # -1 is a non-residue mod 7, so every off-zero value collapses to -1/7
    assert _autocorrelations(7)[1:] == [Fraction(-1, 7)] * 6


def test_autocorrelation_closed_form_matches_everywhere():
    for p in [q for q in range(3, 500) if sympy.isprime(q)]:
        assert _autocorrelations(p) == [autocorrelation_closed_form(p, j) for j in range(p)], p


def test_autocorrelation_symmetry_and_size():
    for p in (5, 7, 11, 29, 631):
        c = _autocorrelations(p)
        for j in range(1, p):
            assert c[j] == c[p - j]
            assert abs(c[j]) <= Fraction(3, p)


def test_density_fourier_route_agrees_with_autocorrelation():
    for p in (5, 7, 11, 29, 631):
        exact = np.array(_autocorrelations(p), dtype=float)
        assert np.abs(exact - density_fourier(ms.LegendreTable(p), np.arange(p))).max() < 1e-12, p
    # large prime: spot checks
    exact = _autocorrelations(15629)
    shifts = [0, 1, 2, 7814, 15628]
    density = density_fourier(ms.LegendreTable(15629), shifts)
    for j, value in zip(shifts, density):
        assert abs(float(exact[j]) - value) < 1e-12


def test_density_route_matches_exact_numerators_at_every_shift():
    for p in ODD_PRIMES_BELOW_500:
        table = ms.LegendreTable(p)
        route = density_fourier(table, np.arange(p))
        assert np.abs(route - jacobi_numerators_gather(table.signs, np.arange(p)) / p).max() < 1e-12, p
    # p = 3 pads to n = 6, the smallest transform
    assert density_fourier(ms.LegendreTable(3), np.arange(3)).tolist() == pytest.approx(
        [1, -1 / 3, -1 / 3], abs=1e-15
    )
    for p in (15629, 390_647):
        chi = legendre_symbols(p)
        closed = (-1 + chi + chi[-np.arange(p) % p]) / p
        closed[0] = 1
        assert np.abs(density_fourier(ms.LegendreTable(p), np.arange(p)) - closed).max() < 1e-12, p


def _blocked_reference(signs, size):
    # the blocked route on fresh arrays: the power window from separately
    # rounded real squares, the cross windows by numpy's complex product,
    # each window added in at lag m = w * size + t through an index array
    p = signs.size
    n = charsums._fft_length(2 * size)
    spectra = [np.fft.rfft(signs[start : start + size], n) for start in range(0, p, size)]
    r = np.zeros(p)
    for w in range(len(spectra)):
        if w:
            x = np.fft.irfft(sum(np.conj(a) * b for a, b in zip(spectra, spectra[w:])), n)
        else:
            x = np.fft.irfft(sum(a.real**2 + a.imag**2 for a in spectra), n)
        t = np.arange(1 - size if w else 0, size)
        keep = w * size + t < p
        r[w * size + t[keep]] += x[t[keep]]  # t < 0 read from the end of x
    return np.concatenate(([r[0]], r[1:] + r[:0:-1])) / p


@pytest.mark.parametrize("p", [3, 5, 29, 997, 15629, 16411])
def test_density_fourier_is_bit_identical_to_the_reference(monkeypatch, p):
    # the route's in-place products, its reused buffers, its runs of
    # frequencies, its slice windows and its lags kept at the shifts asked
    # for must not move a bit: one block up to 2^14 residues and two at
    # 16411, then three blocks of ceil(p / 3), the last one short, with
    # cross spectra summed 7 frequencies at a time; at every shift, and
    # at a 2-D array of shifts with repeats, 0, h - 1, h and p - 1
    h = (p + 1) // 2
    shifts = np.random.default_rng(p).integers(p, size=(4, 6))
    shifts.flat[:6] = [0, h - 1, h, p - 1, 0, h]
    table = ms.LegendreTable(p)
    for size in (-(-p // -(-p // 2**14)), -(-p // 3)):
        reference = _blocked_reference(table.signs, size)
        assert np.array_equal(density_fourier(table, np.arange(p)), reference)
        assert np.array_equal(density_fourier(table, shifts), reference[shifts])
        monkeypatch.setattr(charsums, "_DENSITY_BLOCK", -(-p // 3))
        monkeypatch.setattr(charsums, "_SPECTRUM_RUN", 7)


def test_density_route_at_every_block_count():
    # every odd prime below 100 split into every count of blocks from 1 to
    # p, of ceil(p / count) residues and the last one short, against the
    # closed form: each lag is assembled right at the block edges
    for p in SMALL_ODD_PRIMES:
        chi = legendre_symbols(p)
        closed = (-1 + chi + chi[-np.arange(p) % p]) / p
        closed[0] = 1
        for count in range(1, p + 1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(charsums, "_DENSITY_BLOCK", 1)
                mp.setattr(charsums, "_DENSITY_BLOCKS", count)
                route = density_fourier(ms.LegendreTable(p), np.arange(p))
            assert np.abs(route - closed).max() < 1e-15, (p, count)


def test_density_route_matches_the_window_sums():
    # p * c(j) against the direct window sum, at every odd prime below 2000
    # (both residues mod 4) and p_2; p_3 (= 3 mod 4), whose p^2 window sum
    # takes about 20 s, at spread shifts by the same sum, and at every
    # shift against the closed form that check_prime ties to it
    for p in [q for q in range(3, 2000) if sympy.isprime(q)] + [15629]:
        table = ms.LegendreTable(p)
        numerators = charsums.window_autocorrelation_numerators(table.signs)
        density = density_fourier(table, np.arange(p))
        assert np.array_equal(np.rint(p * density), numerators), p
        assert np.abs(density - numerators / p).max() < 1e-15, p
    p = 390_647
    table = ms.LegendreTable(p)
    route = p * density_fourier(table, np.arange(p))
    assert np.array_equal(np.rint(route), jacobi_numerators(table, np.arange(p)))
    s = table.signs.astype(np.int64)
    h = (p + 1) // 2
    for j in (0, 1, 2, h - 1, h, h + 1, p - 1, *np.random.default_rng(3).integers(p, size=20)):
        assert abs(route[j] - np.dot(np.roll(s, -j), s)) < p * 1e-15, j


def _smooth(n):
    for q in (2, 3, 5):
        while n % q == 0:
            n //= q
    return n == 1


def _route_lengths(monkeypatch, p):
    # (block length, transform length) off the route's first rfft call,
    # which ends the route: p_4's block spectra are allocated, never touched
    class Stop(Exception):
        pass

    def first(a, n):
        raise Stop(len(a), n)

    monkeypatch.setattr(charsums.np.fft, "rfft", first)
    with pytest.raises(Stop) as stop:
        density_fourier(ms.LegendreTable(p), [1])
    return stop.value.args


def test_density_route_length_is_five_smooth(monkeypatch):
    # no lag of a block of length L may wrap, so n >= 2L; and never longer
    # than the next power of two; one block up to 2^14 residues
    for p in ODD_PRIMES_BELOW_500 + [15629, 16381, 16411, 390_647, 9_765_629]:
        size, n = _route_lengths(monkeypatch, p)
        assert n >= 2 * size and _smooth(n), p
        assert n <= 1 << (2 * size - 1).bit_length(), p
        assert (size == p) == (p <= 2**14), p
        if p < 500:  # and the least such length
            assert not any(_smooth(m) for m in range(2 * size, n)), p
    assert _route_lengths(monkeypatch, 16411) == (8206, 16875)  # the first prime with two blocks
    assert _route_lengths(monkeypatch, 390_647) == (16277, 32768)  # p_3 in 24 blocks
    assert _route_lengths(monkeypatch, 9_765_629) == (305_176, 614_400)  # p_4 in 32 blocks


def _skew_window(monkeypatch, window, index):
    # irfft with entry `index` of its output moved by 1e-6 in the route's
    # window `window` (0 the power window); the test clears the returned
    # call list before each run of the route
    irfft = np.fft.irfft
    calls = []

    def skewed(a, n):
        out = irfft(a, n)
        if len(calls) == window:
            out[index] += 1e-6
        calls.append(n)
        return out

    monkeypatch.setattr(charsums.np.fft, "irfft", skewed)
    return calls


def test_density_route_refuses_an_asymmetric_autocorrelation(monkeypatch):
    calls = _skew_window(monkeypatch, 0, 2)  # x_0(2) no longer equals x_0(-2)
    table = ms.LegendreTable(7)
    for _ in range(2):  # the failure is not cached
        calls.clear()
        with pytest.raises(InternalConsistencyError, match="not symmetric at p=7, m=2"):
            density_fourier(table, np.arange(7))


def test_density_route_refuses_a_skewed_cross_correlation(monkeypatch):
    # p = 7 in blocks of 2 (transforms of n = 4): window 1 holds
    # x_1(t), t = -1, 0, 1, at lags m = 2 + t; x_1(1) is entry 1 of the
    # irfft and x_1(-1) entry 3, where no symmetry reaches them
    monkeypatch.setattr(charsums, "_DENSITY_BLOCK", 2)
    for index, lag in ((1, 3), (3, 1)):
        calls = _skew_window(monkeypatch, 1, index)
        table = ms.LegendreTable(7)
        for _ in range(2):  # the failure is not cached
            calls.clear()
            with pytest.raises(InternalConsistencyError, match=f"not integral at p=7, m={lag}:"):
                density_fourier(table, np.arange(7))
        assert calls == [4, 4]


def _has_vmhwm():
    try:
        with open("/proc/self/status") as fh:
            return any(line.startswith("VmHWM:") for line in fh)
    except OSError:
        return False


# the child prints its peak-RSS growth over the route alone, in MB
DENSITY_PEAK_CHILD = """
import numpy as np
from morsespec import charsums

def hwm_mb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024

np.fft.irfft(np.fft.rfft(np.ones(8)))
table = charsums.LegendreTable(390647)
table.signs
shifts = np.random.default_rng(1).integers(390647, size=150)
before = hwm_mb()
charsums.density_fourier(table, shifts)
print(hwm_mb() - before)
"""


@pytest.mark.skipif(not _has_vmhwm(), reason="needs VmHWM in /proc/self/status")
def test_density_route_peak_memory_at_p_3():
    # 24 blocks, read at 150 shifts: the peak grows by about 7.3 MB at
    # p_3, mostly the block spectra (16p bytes); with r at every lag (8p)
    # it grew by 10.1 MB, with two half-length transforms by 14 MB, and
    # with one zero-padded transform of length >= 2p by 23.4 MB
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(Path(ms.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", DENSITY_PEAK_CHILD], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 8.5


def test_density_mean_is_one():
    for p in (5, 7, 29, 631, 15629):
        assert abs(fft_scan_flatness(p)[3] - 1.0) < 1e-12


def test_cached_density_owns_its_data():
    # a view into the route's buffers would keep them alive; the table
    # caches its signs only
    for p in (5, 29, 15629):
        table = ms.LegendreTable(p)
        dens = density_fourier(table, np.arange(p))
        assert dens.dtype == np.float64
        assert dens.base is None and dens.flags.owndata, p
        assert set(table.__dict__) == {"prime", "signs"}, p


def test_all_shift_numerators_match_an_int64_window_sum():
    # the closed form and the float64 correlate route against an exact int64
    # window sum, on Legendre tables; the correlate route also on arbitrary
    # +/-1 arrays, which no closed form covers
    rng = np.random.default_rng(5)
    arrays = []
    for table in [ms.LegendreTable(p) for p in (3, 5, 97, 997)]:
        numerators = jacobi_numerators(table, np.arange(table.prime))
        assert numerators.dtype == np.int64
        arrays.append((table.signs, numerators))
    for p in (3, 8, 101, 1000):
        arrays.append((rng.choice([-1, 1], size=p).astype(np.int8), None))
    for signs, numerators in arrays:
        s = signs.astype(np.int64)
        window = np.array([np.dot(np.roll(s, -j), s) for j in range(len(s))])
        if numerators is not None:
            assert np.array_equal(numerators, window), len(s)
        assert np.array_equal(charsums.window_autocorrelation_numerators(signs), window), len(s)
