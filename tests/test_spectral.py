import hashlib
import itertools
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import morsespec as ms
from morsespec import charsums, spectral
from morsespec.errors import BudgetError, ConfigError, InternalConsistencyError
from oracles import autocorrelation_closed_form, neg, sbh_quadratic_form, sub

CFG = ms.make_group_config([5, 7])
CTX = ms.build_context(CFG)


def brute_coefficient(g, ctx):
    # average of the cocycle over every point of the truncated product,
    # as an exact rational; this is the independent route the fast
    # product formula must reproduce
    cfg = ctx.cfg
    total = sum(ms.cocycle_value(x, g, ctx) for x in ms.enumerate_points(cfg))
    return Fraction(total, ms.level_group_order(cfg.level, cfg))


def test_coefficient_matches_brute_average(ctx57):
    for g in ms.enumerate_level_group(2, ctx57.cfg):
        assert ms.spectral_coefficient(g, ctx57).value == brute_coefficient(g, ctx57)


def test_coefficient_frozen_values(ctx57):
    cfg = ctx57.cfg
    assert ms.spectral_coefficient((0, 0), ctx57).value == 1
    assert ms.spectral_coefficient(ms.element([1, 0], cfg), ctx57).value == Fraction(1, 5)
    assert ms.spectral_coefficient(ms.element([2, 0], cfg), ctx57).value == Fraction(-3, 5)
    assert ms.spectral_coefficient(ms.element([0, 1], cfg), ctx57).value == Fraction(-1, 7)
    assert ms.spectral_coefficient(ms.element([1, 1], cfg), ctx57).value == Fraction(-1, 35)


def test_coefficient_symmetry_and_size(ctx57):
    cfg = ctx57.cfg
    for g in ms.enumerate_level_group(2, cfg):
        v = ms.spectral_coefficient(g, ctx57).value
        assert ms.spectral_coefficient(neg(g, cfg), ctx57).value == v
        assert abs(v) <= 1
        if any(g):
            assert abs(v) < 1


@settings(max_examples=200, deadline=None)
@given(
    r5=st.integers(min_value=1, max_value=4),
    r7=st.integers(min_value=1, max_value=6),
)
def test_coefficient_splits_over_disjoint_support(r5, r7):
    a = ms.element([r5, 0], CFG)
    b = ms.element([0, r7], CFG)
    combined = ms.spectral_coefficient(ms.add(a, b, CFG), CTX).value
    assert combined == (
        ms.spectral_coefficient(a, CTX).value * ms.spectral_coefficient(b, CTX).value
    )


def test_density_route_agrees(ctx5711):
    worst = 0.0
    for g in ms.enumerate_level_group(3, ctx5711.cfg):
        exact = float(ms.spectral_coefficient(g, ctx5711).value)
        via_density = ms.spectral_coefficient_from_density(g, ctx5711)
        worst = max(worst, abs(exact - via_density))
    assert worst <= 1e-12


def test_whole_array_routes_match_the_per_coordinate_products(ctx5711):
    # the row-wise exact and density routes against a per-coordinate
    # reference: the Fraction product over the support, and the float
    # product over every coordinate from 1.0 in table order, bit for bit
    cfg = ctx5711.cfg
    residues = np.array(list(itertools.product(*(range(p) for p in cfg.primes))))
    exact = ms.spectral_coefficients(residues, ctx5711)
    numeric = ms.spectral_coefficients_from_density(residues, ctx5711)
    assert len(exact) == len(numeric) == len(residues)
    routes = [charsums.density_fourier(table, np.arange(p)) for p, table in zip(cfg.primes, ctx5711.tables)]
    for row, q, x in zip(residues.tolist(), exact, numeric.tolist()):
        want_q, want_x = Fraction(1), 1.0
        for p, route, r in zip(cfg.primes, routes, row):
            if r:
                want_q *= autocorrelation_closed_form(p, r)
            want_x *= float(route[r])
        assert q == want_q, row
        assert x == want_x, row


def test_whole_array_routes_reduce_and_check_the_residue_matrix(ctx57):
    # residues are taken mod each prime, like the per-element routes
    wrapped = np.array([[6, -1], [1, 6]])
    assert ms.spectral_coefficients(wrapped, ctx57) == ms.spectral_coefficients(
        np.array([[1, 6], [1, 6]]), ctx57
    )
    for bad in (np.zeros((2, 3), dtype=np.int64), np.zeros(2, dtype=np.int64)):
        with pytest.raises(ConfigError, match="one column per configured prime"):
            ms.spectral_coefficients(bad, ctx57)
        with pytest.raises(ConfigError, match="one column per configured prime"):
            ms.spectral_coefficients_from_density(bad, ctx57)


def test_exact_route_converts_rows_in_blocks(ctx57, monkeypatch):
    # blocks of 4 rows over the 35 rows of G_2: block edges fall inside
    # the matrix and at its end, and the values must not change
    residues = np.array(list(itertools.product(range(5), range(7))))
    whole = ms.spectral_coefficients(residues, ctx57)
    monkeypatch.setattr(spectral, "_ROW_BLOCK", 4)
    assert ms.spectral_coefficients(residues, ctx57) == whole
    for row, value in zip(residues.tolist(), whole):
        g = ms.element(row, ctx57.cfg)
        assert value == ms.spectral_coefficient(g, ctx57).value


def test_exact_ratios_stay_exact_past_int64():
    # prod p_n > 2^63, so the all-zero row's numerator outgrows int64; each
    # ratio is the reduced Fraction, and int true division is its float
    primes = (100003, 100019, 100043, 100049)
    assert math.prod(primes) > 2**63
    ctx = ms.build_context(ms.make_group_config(primes))
    residues = np.array([[0, 0, 0, 0], [0, 0, 0, 5], [1, 2, 3, 4], [7, 0, 0, 99999]])
    numerators, denominators = spectral.spectral_coefficient_ratios(residues, ctx)
    for row, num, den in zip(residues.tolist(), numerators, denominators):
        want = Fraction(1)
        for p, r in zip(primes, row):
            if r:
                want *= autocorrelation_closed_form(p, r)
        assert (num, den) == (want.numerator, want.denominator), row
        assert num / den == float(want), row


def test_exact_route_reads_only_per_shift_numerators(cfg5711):
    # the exact route reads the closed form, and the int8 signs only at
    # p = 1 (mod 4): nothing else is cached on the context's fresh tables,
    # and a k = 3 search after it builds no signs at 7 and 11 either
    ctx = ms.build_context(cfg5711)
    values = ms.spectral_coefficients(np.array([[1, 2, 3], [0, 0, 10], [4, 0, 0]]), ctx)
    assert values == [
        autocorrelation_closed_form(5, 1)
        * autocorrelation_closed_form(7, 2)
        * autocorrelation_closed_form(11, 3),
        autocorrelation_closed_form(11, 10),
        autocorrelation_closed_form(5, 4),
    ]
    cached = [{"prime", "signs"}, {"prime"}, {"prime"}]
    assert [set(table.__dict__) for table in ctx.tables] == cached
    ms.sbh_adversarial_search(3, 3, ctx, budget=2000, seed=1)
    assert [set(table.__dict__) for table in ctx.tables] == cached


def test_exact_route_answers_past_the_table_budget_at_p_3_mod_4():
    # p_5 = 244 140 683 = 3 (mod 4) is past the sign table's budget, but
    # its numerators are -1 off 0 and read no sign
    ctx = ms.build_context(ms.make_group_config(ms.theorem_primes(6), ms.THEOREM_GRADE))
    assert ctx.cfg.primes[5] == 244_140_683
    value = ms.spectral_coefficient((0, 0, 0, 0, 0, 1), ctx).value
    assert value == Fraction(-1, 244_140_683)
    assert set(ctx.tables[5].__dict__) == {"prime"}


def test_coefficient_routes_reproduce_the_coeffs_golden(ctx57):
    # the rational, numeric and discrepancy columns of `coeffs --primes 5,7`
    # (level:2), to the last bit, without the CLI
    golden = Path(__file__).parent / "golden" / "coeffs_5_7.json"
    rows = json.loads(golden.read_text())["results"]["rows"]
    residues = np.array(list(ms.enumerate_level_group(2, ctx57.cfg)))
    assert residues.tolist() == [row["element"] for row in rows]
    numerators, denominators, numeric, discrepancy = ms.coefficient_routes(residues, ctx57)
    assert [f"{num}/{den}" for num, den in zip(numerators, denominators)] == [row["rational"] for row in rows]
    assert numeric.tolist() == [row["numeric"] for row in rows]
    assert discrepancy.tolist() == [row["discrepancy"] for row in rows]


def test_coefficient_routes_check_every_prime_before_a_sign(monkeypatch):
    # 5 = 1 (mod 4) would have its signs read first; the refusal of
    # p_5 = 244 140 683 comes before that
    def no_signs(p):
        raise AssertionError(f"signs of {p} read")

    monkeypatch.setattr(charsums, "_quadratic_signs", no_signs)
    ctx = ms.build_context(ms.make_group_config([5, 244_140_683]))
    with pytest.raises(BudgetError, match="the sign table of 244140683 needs 244140683 residues"):
        ms.coefficient_routes(np.array([[1, 1]]), ctx)


def test_density_route_builds_no_polynomial(cfg5711, monkeypatch):
    # both coefficient routes, as coeffs runs them, on tables with nothing
    # cached: the density route reads the padded autocorrelation, so no
    # prime-length FFT runs and neither P nor |P|^2 is formed
    def no_fft(*args, **kwargs):
        raise AssertionError("a complex FFT ran on the coefficient routes")

    monkeypatch.setattr(np.fft, "fft", no_fft)
    monkeypatch.setattr(np.fft, "ifft", no_fft)
    ctx = ms.build_context(cfg5711)
    for g in ms.enumerate_level_group(3, cfg5711):
        ms.spectral_coefficient(g, ctx)
        ms.spectral_coefficient_from_density(g, ctx)
    for table in ctx.tables:
        assert set(table.__dict__) == {"prime", "signs"}


def test_geometric_tail_bound_dominates_partial_products():
    for a in (0.1, 0.2, float(Fraction(1, 5)), 0.5):
        assert ms.tail_partial_product(a, 40) <= ms.geometric_tail_bound(a) + 1e-12


def test_geometric_tail_bound_rejects_bad_ratio():
    with pytest.raises(ConfigError):
        ms.geometric_tail_bound(1.0)
    with pytest.raises(ConfigError):
        ms.geometric_tail_bound(-0.1)


def test_tail_density_bound_is_sound():
    # the true squared tail past the split: prod_{n>=m} (1 + 5^-(n+1))^2;
    # log(1 + x) >= x - x^2/2 keeps the bound within a factor
    # exp(sum_{n>=m} 25^-(n+1)) < 1 + 2 * 25^-(m+1) of it
    for m in range(7):
        true_tail = 1.0
        for n in range(m, m + 60):
            true_tail *= (1.0 + 5.0 ** -(n + 1)) ** 2
        bound = ms.tail_density_bound(m)
        assert true_tail <= bound <= true_tail * (1.0 + 2.0 * 25.0 ** -(m + 1))
    assert ms.tail_density_bound(0) == pytest.approx(math.exp(0.5), rel=1e-15)


def test_tail_density_bound_monotone():
    vals = [ms.tail_density_bound(m) for m in range(8)]
    assert vals == sorted(vals, reverse=True)
    assert vals[-1] > 1.0


def test_certificate_theorem_grade_frozen(theorem_ctx):
    cert = ms.density_certificate(theorem_ctx)
    assert cert.split_level == 3
    assert cert.finite_sup == pytest.approx(1.4307182788752573, abs=1e-12)
    assert cert.finite_window == pytest.approx(1.5444500291427137, abs=1e-12)
    assert cert.tail_bound == pytest.approx(1.004008010677342, abs=1e-12)
    assert cert.total_bound == pytest.approx(1.4364526130132576, abs=1e-12)
    assert cert.status == "certified"
    assert cert.sbh_certified


def test_certificate_split_levels(theorem_ctx):
    # split 0 keeps nothing finite: the bound is exactly the full tail
    cert0 = ms.density_certificate(theorem_ctx, split_level=0)
    assert cert0.finite_sup == 1.0
    assert cert0.total_bound == pytest.approx(math.exp(0.5))
    assert cert0.status == "certified"
    cert1 = ms.density_certificate(theorem_ctx, split_level=1)
    assert cert1.total_bound < cert0.total_bound
    cert3 = ms.density_certificate(theorem_ctx, split_level=3)
    assert cert3.total_bound < cert1.total_bound
    with pytest.raises(ConfigError):
        ms.density_certificate(theorem_ctx, split_level=4)


def test_certificate_experimental_inconclusive(ctx5711):
    cert = ms.density_certificate(ctx5711)
    assert cert.status == "inconclusive"
    assert cert.tail_bound is None
    assert cert.total_bound is None
    assert not cert.sbh_certified
    assert cert.finite_sup >= 1.0


def test_certificate_assumed_tail_rule(ctx29):
    # 29 >= 25 = the stage-0 floor, so the growth rule may be asserted
    cert = ms.density_certificate(ctx29, assume_tail_rule=True)
    assert cert.status == "certified"
    assert cert.total_bound == pytest.approx(
        cert.finite_sup * ms.tail_density_bound(1), abs=1e-12
    )


def test_certificate_assumed_tail_rule_rejected_below_floor(ctx57):
    with pytest.raises(ConfigError):
        ms.density_certificate(ctx57, split_level=0, assume_tail_rule=True)


def test_quadratic_form_frozen_pair(ctx57):
    cfg = ctx57.cfg
    theta = (ms.element([0, 0], cfg), ms.element([1, 0], cfg))
    # Q = 1 + coeff(theta1 - theta0) = 1 + 1/5 with aligned signs
    assert sbh_quadratic_form(theta, (1, 1), ctx57) == Fraction(6, 5)
    assert sbh_quadratic_form(theta, (1, -1), ctx57) == Fraction(4, 5)


def test_quadratic_form_validation(ctx57):
    cfg = ctx57.cfg
    g = ms.element([1, 0], cfg)
    with pytest.raises(ConfigError):
        sbh_quadratic_form((), (), ctx57)
    with pytest.raises(ConfigError):
        sbh_quadratic_form((g,), (1, 1), ctx57)
    with pytest.raises(ConfigError):
        sbh_quadratic_form((g,), (2,), ctx57)
    with pytest.raises(ConfigError):
        sbh_quadratic_form((g, g), (1, 1), ctx57)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_quadratic_form_nonnegative(data):
    # Q is (1/k) of a positive semidefinite form evaluated at a sign vector
    elems = list(ms.enumerate_level_group(2, CFG))
    k = data.draw(st.integers(min_value=1, max_value=4))
    idx = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(elems) - 1),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    signs = tuple(data.draw(st.sampled_from((1, -1))) for _ in range(k))
    theta = tuple(elems[i] for i in idx)
    assert sbh_quadratic_form(theta, signs, CTX) >= 0


def test_quadratic_form_bounded_by_certificate(theorem_ctx):
    cert = ms.density_certificate(theorem_ctx)
    result = ms.sbh_adversarial_search(1, 4, theorem_ctx, budget=500_000)
    assert float(result.probe.value) <= cert.total_bound + 1e-12


def brute_search(n, k, ctx):
    # reference maximiser: every subset and sign pattern in exact
    # arithmetic, each coefficient computed once per ordered element pair
    elems = list(ms.enumerate_level_group(n, ctx.cfg))
    coeff = {
        (a, b): ms.spectral_coefficient(sub(ga, gb, ctx.cfg), ctx).value
        for a, ga in enumerate(elems)
        for b, gb in enumerate(elems)
    }
    best = None
    for combo in itertools.combinations(range(len(elems)), k):
        for tail in itertools.product((1, -1), repeat=k - 1):
            signs = (1,) + tail
            q = sum(
                (si * sj * coeff[a, b] for a, si in zip(combo, signs) for b, sj in zip(combo, signs)),
                Fraction(0),
            ) / k
            if best is None or q > best:
                best, argmax = q, (combo, signs)
    combo, signs = argmax
    assert sbh_quadratic_form(tuple(elems[i] for i in combo), signs, ctx) == best
    return best


def test_search_matches_brute_maximum(ctx57):
    for k in (1, 2, 3):
        result = ms.sbh_adversarial_search(2, k, ctx57, budget=10**7)
        assert result.mode == "exhaustive"
        assert result.probe.value == brute_search(2, k, ctx57)


def test_search_frozen_bests(ctx29):
    expected = {
        1: (Fraction(1), 1),
        2: (Fraction(32, 29), 812),
        3: (Fraction(101, 87), 14616),
        4: (Fraction(36, 29), 190008),
    }
    for k, (value, evals) in expected.items():
        result = ms.sbh_adversarial_search(1, k, ctx29, budget=500_000)
        assert result.mode == "exhaustive"
        assert result.probe.value == value
        assert result.evaluations == evals


def test_search_probe_is_selfconsistent(ctx29):
    result = ms.sbh_adversarial_search(1, 3, ctx29, budget=500_000)
    probe = result.probe
    assert probe.signs[0] == 1
    assert list(probe.theta) == sorted(probe.theta)
    assert sbh_quadratic_form(probe.theta, probe.signs, ctx29) == probe.value


def test_search_local_mode(ctx29):
    # a budget too small for C(29,4) * 2^3 forces the hill climber
    result = ms.sbh_adversarial_search(1, 4, ctx29, budget=3000, seed=1)
    assert result.mode == "local"
    assert result.evaluations <= 3000
    assert result.probe.value >= 1
    assert (
        sbh_quadratic_form(result.probe.theta, result.probe.signs, ctx29)
        == result.probe.value
    )
    again = ms.sbh_adversarial_search(1, 4, ctx29, budget=3000, seed=1)
    assert again.probe == result.probe


# Frozen local-mode results (probe, value, evaluations) for the sampled
# swap pool (m - k > 64), the full-complement pool, a swap scan cut short
# by the budget, a budget the flips use up (one swap is still scored), and
# an empty pool (m = k).
LOCAL_PINS = [
    ([5, 7, 11], 3, 3, {"seed": 1}, 21423, Fraction(29, 15),
     [(1, 5, 5), (3, 5, 5), (4, 5, 5)], (1, -1, -1)),
    ([5, 7, 11], 3, 4, {"seed": 1}, 36144, Fraction(2),
     [(1, 0, 2), (2, 0, 2), (3, 0, 2), (4, 0, 2)], (1, 1, -1, -1)),
    ([5, 7, 11], 3, 5, {"seed": 1}, 56561, Fraction(71, 35),
     [(0, 0, 7), (2, 0, 7), (2, 2, 7), (4, 0, 7), (4, 2, 7)], (1, -1, 1, 1, -1)),
    ([5, 7, 11], 3, 6, {"seed": 1}, 77429, Fraction(44, 21),
     [(0, 3, 5), (0, 4, 5), (1, 3, 5), (2, 3, 5), (3, 3, 5), (3, 4, 5)],
     (1, -1, 1, -1, -1, 1)),
    ([29], 1, 4, {"seed": 1, "budget": 3000}, 3000, Fraction(36, 29),
     [(0,), (2,), (26,), (28,)], (1, -1, -1, 1)),
    ([29], 1, 5, {"budget": 100}, 100, Fraction(181, 145),
     [(9,), (13,), (24,), (27,), (28,)], (1, 1, -1, -1, -1)),
    ([29], 1, 5, {"budget": 5}, 7, Fraction(173, 145),
     [(12,), (13,), (24,), (27,), (28,)], (1, 1, -1, -1, -1)),
    ([3], 1, 3, {"budget": 5}, 5, Fraction(11, 9), [(0,), (1,), (2,)], (1, -1, -1)),
]


@pytest.mark.parametrize("primes,n,k,kwargs,evals,value,theta,signs", LOCAL_PINS)
def test_search_local_pinned(primes, n, k, kwargs, evals, value, theta, signs):
    ctx = ms.build_context(ms.make_group_config(primes))
    result = ms.sbh_adversarial_search(n, k, ctx, **kwargs)
    assert result.mode == "local"
    assert result.evaluations == evals
    assert result.probe.value == value
    assert list(result.probe.theta) == theta
    assert result.probe.signs == signs


# (primes, stage) of the grid below, in the order its lines are hashed
SEARCH_GRID = [
    ((29,), 1), ((11,), 1), ((3, 5), 2), ((5, 7), 2), ((5, 7, 11), 2),
    ((5, 7, 11), 3), ((13, 17), 2), ((3, 5, 7), 3),
]


def test_search_grid_pinned():
    # 576 results (both modes, every pool and budget path) hashed as one
    # text, so a refactor of the search must reproduce every mode,
    # evaluation count, probe and stage sup.  A change that means to move
    # results (ROADMAP items 19, 3 and 6) re-derives this digest and names
    # the change in CHANGES.md.
    lines = []
    for primes, n in SEARCH_GRID:
        ctx = ms.build_context(ms.make_group_config(primes))
        for k in range(1, min(8, math.prod(primes[:n])) + 1):
            for seed in (0, 1, 7):
                for budget in (50, 3000, 500_000):
                    r = ms.sbh_adversarial_search(n, k, ctx, budget=budget, seed=seed)
                    lines.append(repr((primes, n, k, seed, budget, r.mode, r.evaluations, r.probe, r.stage_sup)))
    assert len(lines) == 576
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "9fc59af3f6bc2831851580ad517230de6b566ad4e797a8ba133a4c185bee0d83"


def test_search_rejects_int64_overflow(theorem_ctx):
    # k^2 * |G_3| = 130000^2 * 29 * 631 * 15629 >= 2^62: refused before
    # any table, pool or subset count is built
    with pytest.raises(BudgetError):
        ms.sbh_adversarial_search(3, 130_000, theorem_ctx)
    # scores within int64, and 10^9 + 7 = 3 (mod 4) reads no sign: past the
    # table budget, a pair still reaches the stage sup 1 + 1/p
    huge = ms.build_context(ms.make_group_config((1_000_000_007,)))
    assert ms.sbh_adversarial_search(1, 2, huge).probe.value == Fraction(1_000_000_008, 1_000_000_007)
    # p_6 = 6103515637 = 1 (mod 4) reads its signs, refused at the first read
    huge = ms.build_context(ms.make_group_config((6_103_515_637,)))
    with pytest.raises(BudgetError, match="the sign table of 6103515637 needs 6103515637 residues"):
        ms.sbh_adversarial_search(1, 2, huge)


def test_search_gathers_its_pair_terms_at_the_member_differences():
    # p = 10 000 019: the pair terms are read at the coordinate differences
    # of the members and the swap candidates, so the search holds kilobytes,
    # where one int64 array of p * c_p at every shift would be 80 MB
    ctx = ms.build_context(ms.make_group_config((10_000_019,)))
    tracemalloc.start()
    try:
        result = ms.sbh_adversarial_search(1, 2, ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # p = 3 (mod 4): a pair reaches the stage sup 1 + 1/p
    assert result.probe.value == Fraction(10_000_020, 10_000_019)
    assert peak < 8 << 20


def test_exhaustive_search_holds_one_score_chunk_at_a_time():
    # k = 17 at [17]: 2^16 sign patterns of 136 pair signs each, about 71 MB
    # as one int64 block; the scan makes them _SCORE_CHUNK at a time
    ctx = ms.build_context(ms.make_group_config((17,)))
    tracemalloc.start()
    try:
        result = ms.sbh_adversarial_search(1, 17, ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (result.mode, result.evaluations, result.probe.value) == ("exhaustive", 65536, Fraction(433, 289))
    assert peak < 64 << 20


def test_exhaustive_search_over_several_pattern_blocks():
    # k = 15: 2^14 patterns in two blocks.  At [17] the second block ties
    # the first block's best at an earlier subset, and the first maximiser
    # in (subset, pattern) order must still be the one reported
    ctx17 = ms.build_context(ms.make_group_config((17,)))
    result = ms.sbh_adversarial_search(1, 15, ctx17, budget=10**8)
    assert (result.mode, result.evaluations) == ("exhaustive", 2_228_224)
    assert result.probe == ms.SbhProbe(
        theta=tuple((i,) for i in range(15)),
        signs=(1, -1, 1, 1, 1, -1, -1, -1, -1, -1, -1, 1, 1, 1, -1),
        value=Fraction(77, 51),
    )
    ctx35 = ms.build_context(ms.make_group_config((3, 5)))
    result = ms.sbh_adversarial_search(2, 15, ctx35, budget=10**8)
    assert (result.mode, result.evaluations) == ("exhaustive", 16_384)
    assert result.probe == ms.SbhProbe(
        theta=tuple((a, b) for a in range(3) for b in range(5)),
        signs=(1, 1, 1, -1, -1, 1, -1, -1, 1, 1, -1, -1, 1, 1, -1),
        value=Fraction(527, 225),
    )


def test_exhaustive_search_makes_each_pattern_once(monkeypatch):
    # k = 16 at [17]: 17 subsets, 2^15 patterns in four blocks, each made
    # once for the whole scan rather than once per subset
    made = 0
    real = spectral._sign_blocks

    def counting(*args):
        nonlocal made
        for patterns, pairsigns in real(*args):
            made += len(patterns)
            yield patterns, pairsigns

    monkeypatch.setattr(spectral, "_sign_blocks", counting)
    ctx17 = ms.build_context(ms.make_group_config((17,)))
    result = ms.sbh_adversarial_search(1, 16, ctx17, budget=2 * 10**6)
    assert (result.mode, result.evaluations) == ("exhaustive", 17 * 2**15)
    assert made == 2**15


def test_search_stage_sup_is_the_certificate_finite_sup(ctx5711):
    # the same product in the same order: equal to the bit
    ctx4 = ms.build_context(ms.make_group_config(ms.theorem_primes(4), ms.THEOREM_GRADE))
    for n in (1, 2, 3, 4):
        result = ms.sbh_adversarial_search(n, 1, ctx4)
        assert result.stage_sup == ms.density_certificate(ctx4, split_level=n).finite_sup
    for n in (1, 2, 3):
        result = ms.sbh_adversarial_search(n, 2, ctx5711, budget=2000, seed=1)
        assert result.stage_sup == ms.density_certificate(ctx5711, split_level=n).finite_sup


def test_search_refuses_a_value_above_the_stage_sup(ctx57, monkeypatch):
    # the best k = 2 probe at [5,7] scores 8/5, above a sup shrunk to 1
    real = spectral.flatness_report
    monkeypatch.setattr(spectral, "flatness_report", lambda p: real(p)._replace(density_sup=1.0))
    with pytest.raises(InternalConsistencyError, match="Q = 8/5 at k = 2 exceeds the stage-2 density sup 1.0"):
        ms.sbh_adversarial_search(2, 2, ctx57)


def test_search_local_finds_known_optimum(ctx29):
    exact = ms.sbh_adversarial_search(1, 2, ctx29, budget=500_000)
    local = ms.sbh_adversarial_search(1, 2, ctx29, budget=700, seed=0)
    assert local.mode == "local"
    assert local.probe.value == exact.probe.value


def test_search_validation(ctx57):
    with pytest.raises(ConfigError):
        ms.sbh_adversarial_search(1, 0, ctx57)
    with pytest.raises(ConfigError):
        ms.sbh_adversarial_search(3, 1, ctx57)
    with pytest.raises(ConfigError):
        ms.sbh_adversarial_search(1, 6, ctx57)  # |G_1| = 5
    with pytest.raises(ConfigError):
        ms.sbh_adversarial_search(1, 2, ctx57, budget=0)


def test_verdict_certified(theorem_ctx):
    verdict = ms.sbh_verdict(theorem_ctx)
    assert verdict.verdict == "non-AT certified"
    assert verdict.certificate.sbh_certified
    assert any("< 2" in r for r in verdict.reasons)
    assert len(verdict.assumptions) == 1
    assert len(verdict.cited) == 3


def test_verdict_inconclusive(ctx57):
    verdict = ms.sbh_verdict(ctx57)
    assert verdict.verdict == "inconclusive"
    assert not verdict.certificate.sbh_certified


def test_verdict_lists_asserted_tail_rule(ctx29):
    # experimental primes certified only through the asserted growth floor
    verdict = ms.sbh_verdict(ctx29, assume_tail_rule=True)
    assert verdict.verdict == "non-AT certified"
    assert len(verdict.assumptions) == 2
    assert "growth floor" in verdict.assumptions[1]
    assert "n >= 1" in verdict.assumptions[1]
    assert "assume_tail_rule" in verdict.assumptions[1]
    split = ms.sbh_verdict(ctx29, split_level=0, assume_tail_rule=True)
    assert "n >= 0" in split.assumptions[1]


def test_verdict_assumptions_theorem_grade_unchanged(theorem_ctx, ctx57):
    # the theorem-grade tail rule is proved, not asserted; with no tail rule
    # at all nothing is certified and nothing extra is assumed
    ergodicity = ms.sbh_verdict(ctx57).assumptions
    assert len(ergodicity) == 1
    for assume in (False, True):
        verdict = ms.sbh_verdict(theorem_ctx, assume_tail_rule=assume)
        assert verdict.verdict == "non-AT certified"
        assert verdict.assumptions == ergodicity
