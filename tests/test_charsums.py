import cmath
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import morsespec as ms
from morsespec import charsums
from morsespec.charsums import autocorrelation_numerator, legendre_symbols
from morsespec.errors import ConfigError, InternalConsistencyError
from oracles import autocorrelation_closed_form, gauss_sum_brute

ODD_PRIMES_BELOW_500 = [q for q in range(3, 500) if sympy.isprime(q)]
SMALL_ODD_PRIMES = [p for p in range(3, 100) if sympy.isprime(p)]


def _autocorrelation(p, j):
    return Fraction(autocorrelation_numerator(ms.legendre_table(p), j), p)


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
    assert ms.legendre_table(5).signs.tolist() == [1, 1, -1, -1, 1]
    assert ms.legendre_table(7).signs.tolist() == [1, 1, 1, -1, 1, -1, -1]


def test_legendre_table_structure():
    for p in (5, 7, 11, 29):
        table = ms.legendre_table(p)
        assert table.signs[0] == 1
        # entry 0 overridden to +1, the rest balanced
        assert table.signs.sum() == 1
        for k in range(1, p):
            assert table.signs[(k * k) % p] == 1
        assert table.signs.dtype == np.int8
        assert not table.signs.flags.writeable
    with pytest.raises(ConfigError):
        ms.legendre_table(9)
    with pytest.raises(ConfigError):
        ms.legendre_table(2)


def test_legendre_table_refuses_primes_squared_past_int64(monkeypatch):
    def no_table(p):
        raise AssertionError(f"table for {p} built")

    monkeypatch.setattr(charsums, "_quadratic_signs", no_table)
    with pytest.raises(ConfigError, match="int64"):
        ms.legendre_table(6_103_515_637)  # p_6 of the theorem sequence
    # ((p - 1) // 2)^2 <= 2^63 - 1 exactly up to p = 6 074 001 000
    charsums.check_table_prime(6_074_001_000)
    with pytest.raises(ConfigError):
        charsums.check_table_prime(6_074_001_001)


def test_legendre_table_matches_euler_criterion():
    # the table is built from a mask of squares; Euler's criterion is the
    # reference route
    for p in [q for q in range(3, 500) if sympy.isprime(q)] + [15629]:
        values = ms.legendre_table(p).signs.tolist()
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
        table = ms.legendre_table(p)
        numerators = table.numerators
        assert numerators is table.numerators  # held on the table
        assert not numerators.flags.writeable
        assert numerators.tolist() == [autocorrelation_numerator(table, j) for j in range(p)], p
        assert numerators.tolist() == [
            p * autocorrelation_closed_form(p, j) for j in range(p)
        ], p


def test_closed_form_numerators_match_slice_pair_dots_at_p3():
    # p_3 = 390 647: the O(1) closed form against the O(p) direct sum at
    # 200 seeded shifts, on the table's own signs
    p = 390_647
    table = ms.legendre_table(p)
    s = table.signs.astype(np.int64)
    numerators = table.numerators
    shifts = [0, 1, p - 1] + np.random.default_rng(2024).integers(1, p, size=197).tolist()
    for j in shifts:
        dot = int(np.dot(s[: p - j], s[j:]) + np.dot(s[p - j :], s[:j]))
        assert numerators[j] == autocorrelation_numerator(table, j) == dot, j


def test_closed_form_numerators_match_the_window_route_below_3000():
    for p in [q for q in range(3, 3000) if sympy.isprime(q)]:
        table = ms.legendre_table(p)
        window = charsums.window_autocorrelation_numerators(table)
        assert np.array_equal(table.numerators, window), p


def test_autocorrelation_numerators_accept_custom_tables():
    rng = np.random.default_rng(11)
    for p in (3, 17, 101, 631):
        values = (1,) + tuple(rng.choice([-1, 1], size=p - 1).tolist())
        table = ms.LegendreTable(prime=p, signs=values)
        numerators = table.numerators
        assert numerators.tolist() == [autocorrelation_numerator(table, j) for j in range(p)], p
        assert np.abs(table.density_fourier - numerators / p).max() < 1e-12, p


def test_table_validation():
    with pytest.raises(ConfigError):
        ms.LegendreTable(prime=5, signs=(1, 1, -1, -1))
    with pytest.raises(ConfigError):
        ms.LegendreTable(prime=3, signs=(-1, 1, 1))
    with pytest.raises(ConfigError):
        ms.LegendreTable(prime=3, signs=(1, 0, 1))
    with pytest.raises(ConfigError):
        ms.LegendreTable(prime=3, signs=(1, 1.5, -1))
    with pytest.raises(ConfigError):
        ms.LegendreTable(prime=3, signs=np.array([1.0, 1.5, -1.0]))
    with pytest.raises(ConfigError):
        ms.LegendreTable(prime=3, signs=np.array([[1, 1, -1]], dtype=np.int8))
    with pytest.raises(ConfigError):
        ms.LegendreTable(prime=3, signs=np.array([1, 2, -1], dtype=np.int8))
    with pytest.raises(ConfigError, match="entry at 0"):
        ms.LegendreTable(prime=0, signs=())


def test_table_check_reaches_every_chunk():
    p = 3 * charsums._SIGN_CHUNK + 5
    for bad in (charsums._SIGN_CHUNK - 1, 2 * charsums._SIGN_CHUNK, p - 1):
        signs = np.ones(p)
        signs[bad] = 0.5
        with pytest.raises(ConfigError, match=r"\+1 or -1"):
            ms.LegendreTable(prime=p, signs=signs)


def test_tables_are_built_without_table_sized_temporaries():
    # legendre_table adopts its squares mask as it is, and the entry check
    # of any other table runs in chunks: only the kept int8 array is p bytes
    p = 9_765_629  # p_4: the chunks of squares are small beside it
    tracemalloc.start()
    try:
        table = charsums.legendre_table.__wrapped__(p)
        _, built = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        ms.LegendreTable(prime=p, signs=table.signs)
        _, checked = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built < 1.2 * p  # the table and two int64 chunks of squares
    assert checked < 2.2 * p  # the table and its copy


def test_table_accepts_sequences_and_arrays():
    expected = (1, 1, -1, -1, 1)
    caller = np.array(expected, dtype=np.int8)
    for signs in (expected, list(expected), caller, caller.astype(np.int64)):
        table = ms.LegendreTable(prime=5, signs=signs)
        assert table.signs.dtype == np.int8
        assert not table.signs.flags.writeable
        assert tuple(table.signs.tolist()) == expected
        assert table.numerators.tolist() == [5, 1, -3, -3, 1]
    assert caller.flags.writeable  # the table keeps a copy
    # identity equality and hashing: one table per prime from legendre_table
    assert ms.legendre_table(5) == ms.legendre_table(5)
    assert ms.LegendreTable(prime=5, signs=expected) != ms.LegendreTable(prime=5, signs=expected)
    assert len({table, table, ms.legendre_table(5)}) == 2


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


def _poly_direct(p, x):
    signs = ms.legendre_table(p).signs.tolist()
    return sum(
        signs[k] * cmath.exp(-2j * cmath.pi * k * x / p) for k in range(p)
    ) / math.sqrt(p)


def test_character_polynomial_against_direct_sum():
    for p in (5, 7, 13, 29):
        for x in range(p):
            assert abs(ms.character_polynomial_values(p)[x] - _poly_direct(p, x)) < 1e-10


def test_character_polynomial_at_zero():
    for p in (5, 7, 29, 631):
        assert abs(ms.character_polynomial_values(p)[0] - 1 / math.sqrt(p)) < 1e-12


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


def _fresh(p):
    """A Legendre table with nothing cached, outside legendre_table's cache."""
    return ms.LegendreTable(prime=p, signs=ms.legendre_table(p).signs)


def test_numerator_counts_closed_form_against_the_numerators():
    # the value counts from p alone, before any sign is built, against
    # np.unique of the numerators summed over the table (p < 3000) or read
    # off the Jacobi sum (p_3); sum counts = p, and sum value * count =
    # (sum_x s(x))^2 = 1
    for p in [q for q in range(3, 3000) if sympy.isprime(q)] + [390_647]:
        table = ms.legendre_table.__wrapped__(p)  # uncached: freed with the next prime
        counts = charsums.numerator_counts(table)
        assert "signs" not in table.__dict__, p
        if p < 3000:
            numerators = charsums.window_autocorrelation_numerators(table)
        else:
            numerators = table.numerators
        values, m = np.unique(numerators, return_counts=True)
        assert counts == dict(zip(values.tolist(), m.tolist())), p
        assert sum(counts.values()) == p
        assert sum(v * c for v, c in counts.items()) == 1


def test_quadratic_check():
    for p in ODD_PRIMES_BELOW_500 + [15629]:
        assert ms.legendre_table(p).is_quadratic, p
        assert _fresh(p).is_quadratic, p
    flipped = ms.legendre_table(29).signs.copy()
    flipped[5] = -flipped[5]
    assert not ms.LegendreTable(prime=29, signs=flipped).is_quadratic
    assert not ms.LegendreTable(prime=3, signs=(1, -1, -1)).is_quadratic
    # lengths that are no odd prime never pass, whatever the entries
    assert not ms.LegendreTable(prime=9, signs=(1, 1, -1, -1, 1, -1, -1, 1, -1)).is_quadratic
    assert not ms.LegendreTable(prime=2, signs=(1, 1)).is_quadratic
    assert not ms.LegendreTable(prime=1, signs=(1,)).is_quadratic


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


def test_legendre_table_knows_it_is_quadratic(monkeypatch):
    table = ms.legendre_table.__wrapped__(29)
    custom = _fresh(29)  # same signs, not built by legendre_table

    def no_mask(p):
        raise AssertionError("the squares mask was built a second time")

    monkeypatch.setattr(charsums, "_quadratic_signs", no_mask)
    assert table.is_quadratic
    with pytest.raises(AssertionError, match="second time"):
        custom.is_quadratic


@pytest.mark.parametrize("p", [5, 7, 11, 13, 29, 631, 15629, 390_647])
def test_flatness_closed_form_against_the_fft_scan(p):
    # the primes of acceptance criterion 02 plus p_3; the scan may differ
    # from the Gauss-sum values by float round-off and by nothing more
    table = _fresh(p)
    rep = ms.charsums.table_flatness_report(table)
    assert rep.route == "gauss-sum"
    assert set(table.__dict__) <= {"prime", "signs", "is_quadratic"}
    mods = np.abs(table.polynomial)[1:]
    sup = table.density.max()
    roundoff = 1e-13
    assert abs(mods.min() - rep.min_modulus) <= roundoff
    assert abs(mods.max() - rep.max_modulus) <= roundoff
    assert abs(sup - rep.density_sup) <= roundoff
    root = math.sqrt(p)
    if p % 4 == 1:
        assert (rep.min_modulus, rep.max_modulus) == (1 - 1 / root, 1 + 1 / root)
        assert rep.density_sup == (1 + 1 / root) ** 2
    else:
        assert rep.min_modulus == rep.max_modulus == math.sqrt(1 + 1 / p)
        assert rep.density_sup == 1 + 1 / p


def test_a_flipped_entry_takes_the_scan_route():
    # one flipped entry pushes |P| out of the window; only the scan sees it
    signs = ms.legendre_table(29).signs.copy()
    signs[5] = -signs[5]
    table = ms.LegendreTable(prime=29, signs=signs)
    with pytest.raises(InternalConsistencyError, match="flatness window violated at p=29"):
        ms.charsums.table_flatness_report(table)
    assert "polynomial" in table.__dict__


def test_a_negated_table_is_scanned_and_stays_flat():
    # eps(k) = -(k|p) off 0 is no quadratic table but just as flat: the
    # Gauss sum gives |1 -/+ g| / sqrt(p), the same extremes
    for p in (29, 631):
        signs = -ms.legendre_table(p).signs
        signs[0] = 1
        table = ms.LegendreTable(prime=p, signs=signs)
        rep = ms.charsums.table_flatness_report(table)
        assert rep.route == "fft-scan"
        assert rep.density_sup == table.density.max()
        closed = ms.flatness_report(p)
        assert abs(rep.min_modulus - closed.min_modulus) < 1e-12
        assert abs(rep.max_modulus - closed.max_modulus) < 1e-12


def _autocorr_brute(p, j):
    table = ms.legendre_table(p).signs.tolist()
    return Fraction(sum(table[x] * table[(x + j) % p] for x in range(p)), p)


def test_autocorrelation_against_brute_force():
    for p in (3, 5, 7, 11, 13, 29, 47):
        for j in range(p):
            assert _autocorrelation(p, j) == _autocorr_brute(p, j)


def test_autocorrelation_frozen_values():
    assert _autocorrelation(5, 0) == 1
    assert _autocorrelation(5, 1) == Fraction(1, 5)
    assert _autocorrelation(5, 2) == Fraction(-3, 5)
    # -1 is a non-residue mod 7, so every off-zero value collapses to -1/7
    for j in range(1, 7):
        assert _autocorrelation(7, j) == Fraction(-1, 7)


def test_autocorrelation_closed_form_matches_everywhere():
    for p in [q for q in range(3, 500) if sympy.isprime(q)]:
        for j in range(p):
            assert _autocorrelation(p, j) == autocorrelation_closed_form(p, j)


def test_autocorrelation_symmetry_and_size():
    for p in (5, 7, 11, 29, 631):
        for j in range(1, p):
            c = _autocorrelation(p, j)
            assert c == _autocorrelation(p, p - j)
            assert abs(c) <= Fraction(3, p)


def test_density_fourier_route_agrees_with_autocorrelation():
    for p in (5, 7, 11, 29, 631):
        for j in range(p):
            assert abs(
                float(_autocorrelation(p, j)) - ms.legendre_table(p).density_fourier[j]
            ) < 1e-12
    # large prime: spot checks
    for j in (0, 1, 2, 7814, 15628):
        assert abs(
            float(_autocorrelation(15629, j)) - ms.legendre_table(15629).density_fourier[j]
        ) < 1e-12


def test_density_route_matches_exact_numerators_at_every_shift():
    for p in ODD_PRIMES_BELOW_500:
        table = ms.legendre_table(p)
        route = table.density_fourier
        assert not route.flags.writeable
        assert np.abs(route - table.numerators / p).max() < 1e-12, p
    # p = 3 pads to n = 6, the smallest transform
    assert ms.legendre_table(3).density_fourier.tolist() == pytest.approx(
        [1, -1 / 3, -1 / 3], abs=1e-15
    )
    for p in (15629, 390_647):
        chi = legendre_symbols(p)
        closed = (-1 + chi + chi[-np.arange(p) % p]) / p
        closed[0] = 1
        assert np.abs(ms.legendre_table(p).density_fourier - closed).max() < 1e-12, p


@pytest.mark.parametrize("p", [3, 5, 29, 997, 15629])
def test_density_fourier_is_bit_identical_to_the_reference(p):
    # |rfft|^2 is formed in place; the folded result must not move by a bit
    signs = ms.legendre_table(p).signs
    n = charsums._fft_length(2 * p)
    spec = np.fft.rfft(signs, n)
    r = np.fft.irfft(spec.real**2 + spec.imag**2, n)
    reference = (r[:p] + r[n - p :]) / p
    assert np.array_equal(_fresh(p).density_fourier, reference)


def _smooth(n):
    for q in (2, 3, 5):
        while n % q == 0:
            n //= q
    return n == 1


def test_density_route_length_is_five_smooth():
    # lag -p must read zero, so n >= 2p; and never longer than the next
    # power of two, the length used before
    for p in ODD_PRIMES_BELOW_500 + [15629, 390_647, 9_765_629]:
        n = charsums._fft_length(2 * p)
        assert n >= 2 * p and _smooth(n), p
        assert n <= 1 << (2 * p - 2).bit_length(), p
        if p < 500:  # and the least such length
            assert not any(_smooth(m) for m in range(2 * p, n)), p
    assert charsums._fft_length(2 * 390_647) == 786_432  # p_3, against 1 048 576


def test_density_route_refuses_an_asymmetric_autocorrelation(monkeypatch):
    irfft = np.fft.irfft

    def skewed(a, n):
        r = irfft(a, n)
        r[2] += 1e-6  # r(2) no longer equals r(-2)
        return r

    monkeypatch.setattr(charsums.np.fft, "irfft", skewed)
    table = ms.LegendreTable(prime=7, signs=ms.legendre_table(7).signs)  # nothing cached yet
    with pytest.raises(InternalConsistencyError, match="not symmetric at p=7, m=2"):
        table.density_fourier
    with pytest.raises(InternalConsistencyError, match="not symmetric at p=7, m=2"):
        table.density_fourier  # the failure is not cached


def test_density_mean_is_one():
    for p in (5, 7, 29, 631, 15629):
        assert abs(ms.legendre_table(p).density.mean() - 1.0) < 1e-12


def test_table_level_routines_accept_custom_tables():
    table = ms.LegendreTable(prime=3, signs=(1, -1, -1))
    dens = table.density
    assert abs(dens.mean() - 1.0) < 1e-12
    assert Fraction(autocorrelation_numerator(table, 0), 3) == 1
    # brute: (1*-1) + (-1*-1) + (-1*1) = -1
    assert Fraction(autocorrelation_numerator(table, 1), 3) == Fraction(-1, 3)
    assert autocorrelation_numerator(table, 1) == -1
    assert abs(table.density_fourier[1] - float(Fraction(-1, 3))) < 1e-12
    assert table.polynomial.shape == (3,)


def test_cached_density_owns_its_data():
    # a view such as (P * conj(P)).real would keep the complex product alive
    for p in (5, 29, 15629):
        table = ms.LegendreTable(prime=p, signs=ms.legendre_table(p).signs)
        dens = table.density
        assert dens.dtype == np.float64
        assert dens.base is None and dens.flags.owndata, p
        vals = table.polynomial
        assert np.array_equal(dens, (vals * vals.conj()).real), p


def test_all_shift_numerators_match_an_int64_window_sum():
    # the float64 correlate route against an exact int64 window sum, on
    # Legendre and on arbitrary +/-1 tables
    rng = np.random.default_rng(5)
    tables = [ms.legendre_table(p) for p in (3, 5, 97, 997)]
    for p in (3, 8, 101, 1000):
        signs = rng.choice([-1, 1], size=p)
        signs[0] = 1
        tables.append(ms.LegendreTable(prime=p, signs=signs))
    for table in tables:
        s = table.signs.astype(np.int64)
        window = np.array([np.dot(np.roll(s, -j), s) for j in range(table.prime)])
        numerators = table.numerators
        assert numerators.dtype == np.int64
        assert not numerators.flags.writeable
        assert np.array_equal(numerators, window), table.prime
