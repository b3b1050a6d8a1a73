"""Spectral coefficients of the sign cocycle, the density certificate,
and the adversarial two-point quadratic form.

Averaging the cocycle against the base measure coordinate-factorises:

    coeff(g) = average of w(., g) = prod_{n in supp(g)} c_n(g_n),

the product of the per-coordinate sign autocorrelations, an exact
rational.  The same number is a Fourier coefficient of the product of
the per-coordinate densities |P_n|^2, which gives a floating-point
recomputation sharing no code with the rational route past the sign
arrays: each factor (r_n(j) + r_n(j - p_n)) / p_n comes from the
linear autocorrelation r_n of the signs, assembled from real FFTs of the
two halves of the table (see charsums).

The measure with these coefficients has a density whose sup is the
product of the per-coordinate sups.  Every coordinate up to a chosen split
is bounded by its own sup, in closed form from the Gauss sum (see
charsums.flatness_report); for coordinates past the split kept under the
growth floor p_n >= 5^(2(n+1)) the remaining product is at
most exp(2.5 * 5^-(split+1)), since each factor is at most
(1 + 5^-(n+1))^2 and log(1 + x) <= x.  A total below 2 certifies the
two-atom separation property: for any k distinct group elements theta_i
and signs eta_i, the averaged quadratic form

    Q = (1/k) * sum_{i,j} eta_i eta_j coeff(theta_i - theta_j)

is nonnegative and bounded by the density sup, hence stays below 2.
The adversarial search here hunts for large Q values; it can only ever
produce lower bounds for the sup, never refute the certificate.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from fractions import Fraction
from typing import Iterator, NamedTuple

from . import lazy_numpy
from .charsums import check_table_prime, flatness_report, jacobi_numerators
from .cocycle import CocycleContext
from .errors import BudgetError, ConfigError, InternalConsistencyError
from .odometer import _MR_LIMIT, THEOREM_GRADE, element, growth_floor, level_group_order

np = lazy_numpy()


class SpectralCoefficient(NamedTuple):
    element: tuple[int, ...]
    value: Fraction


def _checked_residues(residues: np.ndarray, ctx: CocycleContext) -> np.ndarray:
    residues = np.asarray(residues, dtype=np.int64)
    if residues.ndim != 2 or residues.shape[1] != ctx.cfg.level:
        raise ConfigError(
            f"residue matrix of shape {residues.shape} needs one column per "
            f"configured prime ({ctx.cfg.level})"
        )
    return residues % np.array(ctx.cfg.primes, dtype=np.int64)


# rows of the numerator matrix turned into Python ints at once
_ROW_BLOCK = 4096


def spectral_coefficient_ratios(residues: np.ndarray, ctx: CocycleContext) -> tuple[list[int], list[int]]:
    """coeff of every row of a dense residue matrix (one column per
    configured prime) by the exact rational route, as reduced numerators
    and positive denominators: the product over the coordinates of the
    numerators p_n * c_n(r_n), over prod p_n.  A coordinate at residue 0
    contributes p_n / p_n, so only the support counts.  Each column's
    numerators come from jacobi_numerators on its table: one gather of
    the signs per column where p_n = 1 (mod 4), a constant fill where
    p_n = 3 (mod 4), which builds no signs."""
    residues = _checked_residues(residues, ctx)
    numerators = np.empty(residues.shape, dtype=np.int64)
    for n, table in enumerate(ctx.tables):
        numerators[:, n] = jacobi_numerators(table, residues[:, n])
    den = math.prod(ctx.cfg.primes)
    # Python ints: the row products can outgrow int64; the rows become
    # lists a block at a time, never the whole matrix at once
    products = [
        product
        for start in range(0, len(numerators), _ROW_BLOCK)
        for product in map(math.prod, numerators[start : start + _ROW_BLOCK].tolist())
    ]
    divisors = list(map(math.gcd, products, itertools.repeat(den)))
    return (
        list(map(operator.floordiv, products, divisors)),
        list(map(operator.floordiv, itertools.repeat(den), divisors)),
    )


def spectral_coefficients(residues: np.ndarray, ctx: CocycleContext) -> list[Fraction]:
    """spectral_coefficient_ratios as Fractions."""
    return list(map(Fraction, *spectral_coefficient_ratios(residues, ctx)))


def spectral_coefficients_from_density(residues: np.ndarray, ctx: CocycleContext) -> np.ndarray:
    """coeff of every row of a dense residue matrix by the density route:
    one Fourier coefficient of |P_n|^2 per coordinate, every coordinate
    included (at residue 0 the factor is the density mean), multiplied in
    coordinate order from 1.0."""
    residues = _checked_residues(residues, ctx)
    out = np.ones(len(residues))
    for n, table in enumerate(ctx.tables):
        out *= table.density_fourier[residues[:, n]]
    return out


def coefficient_routes(
    residues: np.ndarray, ctx: CocycleContext
) -> tuple[list[int], list[int], np.ndarray, np.ndarray]:
    """Both routes on every row of a dense residue matrix, once
    check_table_prime has passed every configured prime (before either
    route reads a sign): the exact route's reduced numerators and
    denominators, the density route's floats, and per row the distance
    between the two, |float(numerator / denominator) - numeric|."""
    for p in ctx.cfg.primes:
        check_table_prime(p)
    numerators, denominators = spectral_coefficient_ratios(residues, ctx)
    numeric = spectral_coefficients_from_density(residues, ctx)
    # int true division rounds correctly, so these are float(Fraction) of each
    exact = np.fromiter(map(operator.truediv, numerators, denominators), float, len(numerators))
    return numerators, denominators, numeric, np.abs(exact - numeric)


def spectral_coefficient(g: tuple[int, ...], ctx: CocycleContext) -> SpectralCoefficient:
    """coeff(g) by the exact rational route: product of per-coordinate
    autocorrelations over the support of g."""
    value = spectral_coefficients([g], ctx)[0]
    return SpectralCoefficient(element=g, value=value)


def spectral_coefficient_from_density(g: tuple[int, ...], ctx: CocycleContext) -> float:
    """coeff(g) by the density route, one Fourier coefficient of |P_n|^2
    per coordinate."""
    return float(spectral_coefficients_from_density([g], ctx)[0])


def geometric_tail_bound(a: float) -> float:
    """prod_{j>=1} (1 + a^j) <= exp(a / (1 - a)) for 0 < a < 1, via
    log(1 + x) <= x and the geometric series."""
    if not 0 < a < 1:
        raise ConfigError(f"ratio must lie in (0, 1), got {a}")
    return math.exp(a / (1.0 - a))


def tail_partial_product(a: float, terms: int = 40) -> float:
    """prod_{j=1}^{terms} (1 + a^j), the finite stub of the bounded product."""
    if not 0 < a < 1:
        raise ConfigError(f"ratio must lie in (0, 1), got {a}")
    out = 1.0
    for j in range(1, terms + 1):
        out *= 1.0 + a**j
    return out


def tail_density_bound(split_level: int) -> float:
    """Bound on the product of density sups over all coordinates past the
    split, assuming each keeps p_n >= 5^(2(n+1)): the n-th factor is at
    most (1 + 5^-(n+1))^2, and log(1 + x) <= x turns the product into
    exp(2 * sum_{n>=split} 5^-(n+1)) = exp(2.5 * 5^-(split+1)).

    Note the exponent sums the actual floor sequence 5^-(n+1), which from
    the second tail term on decays slower than the geometric powers of
    its leading term; folding the tail into geometric_tail_bound of the
    leading term would undercount it.
    """
    if split_level < 0:
        raise ConfigError("split level must be nonnegative")
    return math.exp(2.5 * 5.0 ** -(split_level + 1))


class DensityCertificate(NamedTuple):
    """Sup bound for the spectral density, split into a finite part (the
    product of the per-coordinate sups up to the split) and an analytically
    bounded tail.

    finite_window is the per-coordinate analytic window product
    prod (1 + 1/sqrt(p_n))^2 over the finite coordinates; their sups can
    only sharpen it.  status is 'certified' when the total lands below 2,
    'not-certified' when a valid total fails that threshold, and
    'inconclusive' when no growth rule covers the tail.
    """

    split_level: int
    finite_sup: float
    finite_window: float
    tail_bound: float | None
    total_bound: float | None
    status: str
    sbh_certified: bool


def density_certificate(
    ctx: CocycleContext,
    split_level: int | None = None,
    assume_tail_rule: bool = False,
) -> DensityCertificate:
    """Certify sup(density) < 2 by the per-coordinate sups up to the split
    (flatness_report) and the growth-floor tail bound past it.

    The tail bound applies when the configuration is theorem-grade, or
    when assume_tail_rule asserts the growth floor for all coordinates
    past the split (checked against the retained primes).  Otherwise the
    certificate comes back inconclusive: absence of a tail rule is
    reported, never guessed around.
    """
    cfg = ctx.cfg
    m = cfg.level if split_level is None else split_level
    if not 0 <= m <= cfg.level:
        raise ConfigError(f"split level {m} outside 0..{cfg.level}")

    finite_sup = 1.0
    finite_window = 1.0
    for rep in map(flatness_report, cfg.primes[:m]):
        finite_sup *= rep.density_sup
        finite_window *= rep.window_high**2

    tail_applies = cfg.mode == THEOREM_GRADE
    if not tail_applies and assume_tail_rule:
        for n in range(m, cfg.level):
            if cfg.primes[n] < growth_floor(n):
                raise ConfigError(
                    f"tail rule asserted but prime #{n} = {cfg.primes[n]} "
                    f"is below its growth floor {growth_floor(n)}"
                )
        tail_applies = True

    if tail_applies:
        tail = tail_density_bound(m)
        total = finite_sup * tail
        status = "certified" if total < 2.0 else "not-certified"
    else:
        tail = None
        total = None
        status = "inconclusive"
    return DensityCertificate(
        split_level=m,
        finite_sup=finite_sup,
        finite_window=finite_window,
        tail_bound=tail,
        total_bound=total,
        status=status,
        sbh_certified=status == "certified",
    )


class SbhProbe(NamedTuple):
    """A candidate for the averaged quadratic form: distinct group
    elements with signs, and the exact value achieved."""

    theta: tuple[tuple[int, ...], ...]
    signs: tuple[int, ...]
    value: Fraction


class SearchResult(NamedTuple):
    """Best probe found for one subset size, how it was found, how many
    sign-pattern probes were scored along the way, and the stage's density
    sup, the product of the per-prime sups, which bounds the probe's Q."""

    probe: SbhProbe
    mode: str  # "exhaustive" or "local"
    evaluations: int
    stage_sup: float


# sign-pattern scores the exhaustive scan holds at once
_SCORE_CHUNK = 1 << 13


def _check_search_budget(k: int, primes: tuple[int, ...]) -> None:
    """Refuse a k-subset search over the stage primes whose int64 scores
    could overflow; k = 1 scores nothing."""
    n, m = len(primes), math.prod(primes)
    if k > 1 and k * k * m >= 2**62:
        raise BudgetError(f"k^2 * |G_{n}| = {k * k * m} overflows the int64 scores")


class _Stage(NamedTuple):
    """The stage-n group as the flat indices 0..order-1: index idx has
    residue idx // weights[i] mod p_i at coordinate i < n."""

    ctx: CocycleContext
    weights: tuple[int, ...]
    order: int

    def element(self, idx: int) -> tuple[int, ...]:
        return element([idx // w for w in self.weights], self.ctx.cfg)

    def pairs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """|G_n| * coeff(theta_a - theta_b) for broadcast index arrays: the
        numerators p_i * c_i at the coordinate differences, idx // w_i
        being congruent to the i-th residue mod p_i."""
        return math.prod(
            jacobi_numerators(table, (a // w - b // w) % table.prime) for w, table in zip(self.weights, self.ctx.tables)
        )


# a scanner's result: the best score sum_{i<j} eta_i eta_j pairs(i, j), its
# subset as sorted indices, its signs, and the sign-pattern probes scored
_Found = tuple[int, tuple[int, ...], tuple[int, ...], int]


def _sign_blocks(k: int, left: np.ndarray, right: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every sign pattern with the first sign +1 (the form is invariant
    under a global flip), _SCORE_CHUNK at a time in product order, each
    block with its patterns' per-pair sign products."""
    rests = itertools.product((1, -1), repeat=k - 1)
    while block := list(itertools.islice(rests, _SCORE_CHUNK)):
        patterns = np.array([(1, *rest) for rest in block], dtype=np.int64)
        yield patterns, patterns[:, left] * patterns[:, right]


def _exhaustive(stage: _Stage, k: int) -> _Found:
    """Score every k-subset with every sign pattern; the first maximiser
    in (subset, pattern) order wins.  Each pattern block is made once per
    scan and scored against every subset, a chunk at a time, so at most
    _SCORE_CHUNK scores are held at any k."""
    left, right = np.array(list(itertools.combinations(range(k), 2))).T
    rows = max(1, _SCORE_CHUNK >> (k - 1))
    best, evaluations = None, 0
    for patterns, pairsigns in _sign_blocks(k, left, right):
        flat = itertools.chain.from_iterable(itertools.combinations(range(stage.order), k))
        for start in range(0, math.comb(stage.order, k), rows):
            chunk = np.fromiter(itertools.islice(flat, rows * k), dtype=np.int64).reshape(-1, k)
            svals = stage.pairs(chunk[:, left], chunk[:, right]) @ pairsigns.T
            evaluations += svals.size
            c, row = np.unravel_index(np.argmax(svals), svals.shape)
            # argmax takes a block's earliest subset, so a later block wins
            # a tie only at an earlier subset: keyed on (score, -ordinal)
            key = int(svals[c, row]), -start - int(c)
            if best is None or key > best[0]:
                best = key, tuple(int(x) for x in chunk[c]), tuple(int(x) for x in patterns[row])
    return best[0][0], *best[1:], evaluations


def _local(stage: _Stage, k: int, budget: int, seed: int, restarts: int) -> _Found:
    """Seeded hill climbing from random restarts: each step takes the
    best single-sign flip or single-element swap if it strictly improves
    the score, a flip winning a tie with a swap."""
    m = stage.order
    rng = random.Random(seed)

    def pair_matrix(combo: np.ndarray) -> np.ndarray:
        mat = stage.pairs(combo[:, None], combo[None, :])
        np.fill_diagonal(mat, 0)
        return mat

    # deterministic baseline so the result is well-defined even with
    # zero restarts or an exhausted budget
    best_s = int(pair_matrix(np.arange(k)).sum()) // 2
    best_combo, best_signs = tuple(range(k)), (1,) * k
    evaluations = 1

    for _ in range(restarts):
        if evaluations >= budget:
            break
        combo = np.array(sorted(rng.sample(range(m), k)), dtype=np.int64)
        eta = np.array([1] + [rng.choice((1, -1)) for _ in range(k - 1)], dtype=np.int64)
        # mat[i, j] = pairs(combo[i], combo[j]), symmetric, kept across moves
        mat = pair_matrix(combo)
        s = int(eta @ mat @ eta) // 2
        evaluations += 1
        while evaluations < budget:
            # row[i] = sum_{j != i} eta_j pairs(combo[i], combo[j])
            row = mat @ eta
            # flips of signs 1..k-1 are always all scored
            flips = s - 2 * eta[1:] * row[1:]
            evaluations += k - 1
            flip = int(np.argmax(flips)) + 1
            move_s, swap = max(s, int(flips[flip - 1])), None
            # swap candidates: the full complement when small, else a
            # seeded sample; members of the combo are skipped uncounted
            pool = np.arange(m) if m - k <= 64 else np.array(rng.sample(range(m), 64), dtype=np.int64)
            pool = pool[(pool[:, None] != combo).all(axis=1)]
            if pool.size:
                # swapping combo[i] for pool[v] drops row[i] and adds
                # pool[v]'s pairs with the other members
                rep = stage.pairs(pool[:, None], combo[None, :])
                swaps = s - eta * row + eta * ((rep @ eta)[:, None] - rep * eta)
                # i outer, pool order inner; the scan stops at the budget
                # but always scores at least one candidate
                swaps = swaps.T.ravel()[: max(1, budget - evaluations)]
                evaluations += swaps.size
                j = int(np.argmax(swaps))
                if swaps[j] > move_s:
                    move_s, swap = int(swaps[j]), divmod(j, pool.size)
            if move_s == s:
                break
            if swap is None:
                eta[flip] *= -1
            else:
                i, v = swap
                combo[i] = pool[v]
                mat[i] = mat[:, i] = rep[v]
                mat[i, i] = 0
            s = move_s
        if s > best_s:
            best_s = s
            order = np.argsort(combo)
            best_combo = tuple(int(x) for x in combo[order])
            best_signs = tuple(int(eta[order[0]] * x) for x in eta[order])
    return best_s, best_combo, best_signs, evaluations


def sbh_adversarial_search(
    n: int,
    k: int,
    ctx: CocycleContext,
    budget: int = 500_000,
    seed: int = 0,
    restarts: int = 32,
) -> SearchResult:
    """Maximise the quadratic form over subsets of the stage-n group of
    size exactly k, together with sign patterns.

    The stage group is coded as flat indices (_Stage: an index's element,
    and the pair numerators of broadcast index arrays), and one of two
    scanners runs on it.  _exhaustive (all subsets, all patterns:
    C(|G_n|, k) * 2^k probes, the scan halved by global-flip invariance;
    each block of at most _SCORE_CHUNK patterns is made once per scan and
    scored a subset chunk at a time) when that count fits the budget;
    otherwise _local, seeded hill climbing with restarts, using
    single-element swaps and single-sign flips.  Either way the result is
    deterministic for fixed inputs; the reported probe is the first
    maximiser in enumeration order, elements sorted, leading sign +1.

    Scores are int64 sums of pair numerators |G_n| * coeff(theta_a -
    theta_b).  Refused (BudgetError): k^2 * |G_n| >= 2^62, before any
    score; a stage prime p = 1 (mod 4) past the sign table's budget, at its
    first sign read.  A Q above the stage-n density sup (beyond float
    rounding) is an InternalConsistencyError.
    """
    cfg = ctx.cfg
    if k < 1:
        raise ConfigError("subset size must be at least 1")
    if not 1 <= n <= cfg.level:
        raise ConfigError(f"stage {n} outside 1..{cfg.level}")
    if budget < 1:
        raise ConfigError("budget must be positive")
    m = level_group_order(n, cfg)
    if k > m:
        raise ConfigError(f"subset size {k} exceeds |G_{n}| = {m}")
    stage = _Stage(ctx, tuple(math.prod(cfg.primes[i + 1 : n]) for i in range(n)), m)
    stage_sup = density_certificate(ctx, n).finite_sup

    if k == 1:
        # every single-element probe scores coeff(0) = 1 exactly, and no sup is below 1
        probe = SbhProbe(theta=(stage.element(0),), signs=(1,), value=Fraction(1))
        return SearchResult(probe=probe, mode="exhaustive", evaluations=1, stage_sup=stage_sup)
    _check_search_budget(k, cfg.primes[:n])

    # m <= 1500 caps the exhaustive mode under generous budgets; the cap
    # fixes the mode, and with it the reported result, for every input
    if math.comb(m, k) * 2**k <= budget and m <= 1500:
        mode, (best_s, best_combo, best_signs, evaluations) = "exhaustive", _exhaustive(stage, k)
    else:
        mode, (best_s, best_combo, best_signs, evaluations) = "local", _local(stage, k, budget, seed, restarts)

    value = Fraction(k * m + 2 * best_s, k * m)
    if value > stage_sup * (1 + 1e-9):
        raise InternalConsistencyError(
            f"Q = {value} at k = {k} exceeds the stage-{n} density sup {stage_sup}"
        )
    probe = SbhProbe(theta=tuple(stage.element(idx) for idx in best_combo), signs=best_signs, value=value)
    return SearchResult(probe=probe, mode=mode, evaluations=evaluations, stage_sup=stage_sup)


class SbhVerdict(NamedTuple):
    """Outcome of the certification chain, with the structural facts it
    leans on spelled out: what was assumed, and what is cited from the
    established theory without being re-verified here."""

    certificate: DensityCertificate
    verdict: str  # "non-AT certified" or "inconclusive"
    reasons: tuple[str, ...]
    assumptions: tuple[str, ...]
    cited: tuple[str, ...]


_ASSUMPTIONS = (
    "the translation action of the finitely supported group on the full product is ergodic (assumed, not re-verified here)",
)
_CITED = (
    "the two-point extension has simple spectrum (cited)",
    "the spectral type of the extension obeys a purity law (cited)",
    "a spectral density bounded below 2 rules out approximate transitivity of the sign factor (cited)",
)


def sbh_verdict(
    ctx: CocycleContext,
    split_level: int | None = None,
    assume_tail_rule: bool = False,
) -> SbhVerdict:
    """Run the density certificate and package the conclusion."""
    cert = density_certificate(ctx, split_level=split_level, assume_tail_rule=assume_tail_rule)
    if cert.sbh_certified:
        verdict = "non-AT certified"
        reasons = (
            f"the Gauss sums bound the first {cert.split_level} density factors by {cert.finite_sup:.9f}",
            f"the growth floor bounds the remaining factors by {cert.tail_bound:.9f}",
            f"sup of the spectral density is at most {cert.total_bound:.9f} < 2",
            "the sign involution commutes with every skew translation, so the bound applies to the flip factor",
        )
    elif cert.status == "not-certified":
        verdict = "inconclusive"
        reasons = (
            f"density bound {cert.total_bound:.9f} does not clear the threshold 2",
        )
    else:
        verdict = "inconclusive"
        reasons = (
            f"mode {ctx.cfg.mode!r} fixes no growth rule past the configured primes, so the tail is unbounded here",
        )
    assumptions = _ASSUMPTIONS
    if cert.tail_bound is not None and ctx.cfg.mode != THEOREM_GRADE:
        assumptions += (
            f"the growth floor p_n >= 5^(2(n+1)) holds for every coordinate n >= "
            f"{cert.split_level} (asserted by assume_tail_rule; checked only against "
            "the configured primes)",
        )
    probable = [p for p in ctx.cfg.primes if p >= _MR_LIMIT]
    if probable:
        assumptions += (
            f"{probable[0]} and every later configured prime passed the strong BPSW "
            "probable-prime test, not a proof of primality",
        )
    return SbhVerdict(
        certificate=cert,
        verdict=verdict,
        reasons=reasons,
        assumptions=assumptions,
        cited=_CITED,
    )

