"""Closed-form checks of morsespec CLI reports.

Every expected value is recomputed here from the paper's formulas, with
Legendre symbols from Euler's criterion; nothing in this module imports
morsespec.  `check(argv, exit_code, stdout)` returns the list of problems
found in one operation's report; an empty list means the operation passed.

    certify      finite_sup = prod (1+1/sqrt p)^2 (p = 1 mod 4) or 1+1/p
                 (p = 3 mod 4); total_bound = finite_sup * exp(2.5*5^-(m+1)) < 2
    coeffs       coeff(g) = prod over the support of (-1+(j|p)+(-j|p))/p
    names        2|G_n| names, all pairs counted, delta_min = (1 - max|c_p|)/2
    sbh-search   each Q re-scored exactly from theta and eta, Q <= stage sup
    gauss-check  all_ok and one entry per odd prime up to pmax
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

TOL_TRANSCENDENTAL = 1e-9
TOL_NUMERIC = 1e-12

# Best Q per k = 1..4 for sbh-search at primes [29], stage 1: the exhaustive
# maxima, so any correct search must report exactly these.
PINNED_Q = {((29,), 1): ("1/1", "32/29", "101/87", "36/29")}

# Exit codes the README gives for a successful run of each command.  The
# sbh-search code is not checked beyond "0 or 2": the values are.
EXIT_CODES = {
    "certify": (0,),
    "coeffs": (0,),
    "names": (0,),
    "sbh-search": (0, 2),
    "gauss-check": (0,),
}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def theorem_primes(count: int) -> tuple[int, ...]:
    """Least prime >= 5^(2(n+1)) for n = 0..count-1."""
    out = []
    for n in range(count):
        q = 5 ** (2 * (n + 1))
        while not is_prime(q):
            q += 1
        out.append(q)
    return tuple(out)


def legendre(a: int, p: int) -> int:
    """(a|p) by Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


@lru_cache(maxsize=None)
def autocorrelation(p: int, j: int) -> Fraction:
    j %= p
    if j == 0:
        return Fraction(1)
    return Fraction(-1 + legendre(j, p) + legendre(-j, p), p)


def coefficient(vec: tuple[int, ...], primes: tuple[int, ...]) -> Fraction:
    out = Fraction(1)
    for p, j in zip(primes, vec):
        out *= autocorrelation(p, j)
    return out


def density_sup(p: int) -> float:
    """sup of the prime's density factor |P|^2."""
    return (1 + 1 / math.sqrt(p)) ** 2 if p % 4 == 1 else 1 + 1 / p


def max_abs_autocorrelation(p: int) -> Fraction:
    return Fraction(3, p) if p % 4 == 1 else Fraction(1, p)


def parse_argv(argv: list[str]) -> tuple[str, dict[str, str], list[str]]:
    """Split a generated CLI argv into command, --flag values, positionals."""
    command, rest = argv[0], argv[1:]
    opts: dict[str, str] = {}
    positional = []
    i = 0
    while i < len(rest):
        if rest[i].startswith("--"):
            opts[rest[i][2:]] = rest[i + 1]
            i += 2
        else:
            positional.append(rest[i])
            i += 1
    return command, opts, positional


def primes_of(opts: dict[str, str]) -> tuple[int, ...]:
    if "theorem" in opts:
        return theorem_primes(int(opts["theorem"]))
    return tuple(int(p) for p in opts["primes"].split(","))


def real(x) -> float:
    """A reported number, given as a JSON number or a 'num/den' string."""
    return float(Fraction(x)) if isinstance(x, str) else float(x)


class Problems(list):
    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)


def check_certify(opts, positional, res, out: Problems) -> None:
    out.expect("theorem" in opts, "oracle covers theorem-grade certify only")
    primes = primes_of(opts)
    m = int(opts.get("split-level", len(primes)))
    finite = math.prod(density_sup(p) for p in primes[:m])
    total = finite * math.exp(2.5 * 5.0 ** -(m + 1))
    cert = res["certificate"]
    finite_sup, total_bound = real(cert["finite_sup"]), real(cert["total_bound"])
    out.expect(abs(finite_sup - finite) <= TOL_TRANSCENDENTAL,
               f"finite_sup {finite_sup} != closed form {finite}")
    out.expect(abs(total_bound - total) <= TOL_TRANSCENDENTAL,
               f"total_bound {total_bound} != closed form {total}")
    out.expect(total_bound < 2, "total_bound is not below 2")
    out.expect(cert["status"] == "certified" and cert["sbh_certified"] is True,
               f"certificate status {cert['status']!r}")
    out.expect(res["verdict"]["verdict"] == "non-AT certified",
               f"verdict {res['verdict']['verdict']!r}")
    out.expect([f["prime"] for f in res["flatness"]] == list(primes), "flatness primes differ")
    for f in res["flatness"]:
        r = 1 / math.sqrt(f["prime"])
        out.expect(f["min_modulus"] >= 1 - r - TOL_TRANSCENDENTAL
                   and f["max_modulus"] <= 1 + r + TOL_TRANSCENDENTAL,
                   f"|P| leaves the flatness window at p = {f['prime']}")


def check_coeffs(opts, positional, res, out: Problems) -> None:
    primes = primes_of(opts)
    if positional:
        vectors = [
            tuple(int(r) % p for r, p in zip(spec.split(","), primes))
            for spec in positional
        ]
        vectors = [v + (0,) * (len(primes) - len(v)) for v in vectors]
    else:
        vectors = list(product(*(range(p) for p in primes)))
    rows = res["rows"]
    out.expect(len(rows) == len(vectors) == res["count"],
               f"{len(rows)} rows, count {res['count']}, expected {len(vectors)}")
    for row, vec in zip(rows, vectors):
        expected = coefficient(vec, primes)
        if tuple(row["element"]) != vec or Fraction(row["rational"]) != expected:
            out.append(f"coeff{vec} reported {row['element']} = {row['rational']}, expected {expected}")
            break
        if abs(row["numeric"] - float(expected)) > TOL_NUMERIC:
            out.append(f"density route {row['numeric']} for coeff{vec} = {expected}")
            break
    out.expect(res["routes_agree"] is True, "routes_agree is not true")


def check_names(opts, positional, res, out: Problems) -> None:
    primes = primes_of(opts)
    n = int(opts.get("level", len(primes)))
    order = math.prod(primes[:n])
    names = 2 * order
    pairs = names * (names - 1) // 2
    delta = (1 - max(max_abs_autocorrelation(p) for p in primes[:n])) / 2
    histogram = {Fraction(h["distance"]): h["count"] for h in res["histogram"]}
    out.expect(res["name_count"] == names, f"name_count {res['name_count']} != {names}")
    out.expect(res["pair_count"] == pairs, f"pair_count {res['pair_count']} != {pairs}")
    out.expect(sum(histogram.values()) == pairs, "histogram counts do not sum to the pair count")
    out.expect(Fraction(res["delta_min"]) == delta, f"delta_min {res['delta_min']} != {delta}")
    out.expect(min(histogram) == delta, f"histogram starts at {min(histogram)}, not {delta}")
    out.expect(histogram.get(Fraction(1)) == order, "complement pairs at distance 1 != |G_n|")
    epsilon = Fraction(opts["epsilon"]) if "epsilon" in opts else delta / 4
    out.expect(Fraction(res["epsilon_used"]) == epsilon, f"epsilon_used {res['epsilon_used']}")
    if epsilon < delta / 2:
        out.expect(Fraction(res["ball_bound"]) == Fraction(1, 2), f"ball_bound {res['ball_bound']}")


def check_sbh_search(opts, positional, res, out: Problems) -> None:
    primes = primes_of(opts)
    n = int(opts.get("level", 1))
    k_cap = min(int(opts.get("k-max", 4)), math.prod(primes[:n]))
    sup = math.prod(density_sup(p) for p in primes[:n])
    per_k = res["per_k"]
    out.expect([e["k"] for e in per_k] == list(range(1, k_cap + 1)), "per_k sizes differ")
    for e in per_k:
        theta = [tuple(v) for v in e["theta"]]
        signs = e["signs"]
        k = e["k"]
        valid = (
            len(theta) == len(signs) == k
            and len(set(theta)) == k
            and all(s in (1, -1) for s in signs)
            and all(
                len(v) == len(primes)
                and all(0 <= r < p for r, p in zip(v, primes))
                and not any(v[n:])
                for v in theta
            )
        )
        if not valid:
            out.append(f"k={k}: malformed probe {theta} {signs}")
            continue
        q = sum(
            si * sj * coefficient(tuple((a - b) % p for a, b, p in zip(ti, tj, primes)), primes)
            for ti, si in zip(theta, signs)
            for tj, sj in zip(theta, signs)
        ) / k
        out.expect(Fraction(e["value"]) == q, f"k={k}: reported Q {e['value']}, re-scored {q}")
        out.expect(float(q) <= sup + TOL_TRANSCENDENTAL, f"k={k}: Q {q} above the stage sup {sup}")
    pinned = PINNED_Q.get((primes, n))
    if pinned:
        got = tuple(e["value"] for e in per_k)
        out.expect(got == pinned[: len(got)], f"exhaustive Q values {got} != {pinned}")
    if per_k:
        out.expect(Fraction(res["best"]["value"]) == max(Fraction(e["value"]) for e in per_k),
                   "best is not the largest Q")


def check_gauss_check(opts, positional, res, out: Problems) -> None:
    pmax = int(opts.get("pmax", 200))
    count = sum(1 for p in range(3, pmax + 1) if is_prime(p))
    out.expect(res["pmax"] == pmax, f"pmax {res['pmax']} != {pmax}")
    out.expect(res["primes_checked"] == count, f"primes_checked {res['primes_checked']} != {count}")
    out.expect(res["all_ok"] is True, "all_ok is not true")
    out.expect(res["closed_form_matches"] is True, "closed forms do not match")
    out.expect(res["max_gauss_error"] <= TOL_TRANSCENDENTAL, "Gauss sum error above 1e-9")
    out.expect(res["max_density_route_error"] <= TOL_NUMERIC, "density route error above 1e-12")


CHECKS = {
    "certify": check_certify,
    "coeffs": check_coeffs,
    "names": check_names,
    "sbh-search": check_sbh_search,
    "gauss-check": check_gauss_check,
}


def check(argv: list[str], exit_code: int, stdout: str) -> list[str]:
    """Problems with one operation: its exit code and its JSON report."""
    command, opts, positional = parse_argv(argv)
    out = Problems()
    out.expect(exit_code in EXIT_CODES[command], f"exit code {exit_code}")
    try:
        report = json.loads(stdout)
        out.expect(report["command"] == command, f"report is for {report['command']!r}")
        CHECKS[command](opts, positional, report["results"], out)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        out.append(f"malformed report: {type(exc).__name__}: {exc}")
    return out


# Altered copies of the saved reports in seed_reports.json; each must fail.
def _flip_coefficient_sign(report: dict) -> None:
    row = next(r for r in report["results"]["rows"] if Fraction(r["rational"]) not in (0, 1))
    row["rational"] = str(-Fraction(row["rational"]))


def _bump_q_numerator(report: dict) -> None:
    entry = report["results"]["per_k"][-1]
    q = Fraction(entry["value"])
    entry["value"] = f"{q.numerator + 1}/{q.denominator}"


def _alter_delta_min(report: dict) -> None:
    report["results"]["delta_min"] = str(Fraction(report["results"]["delta_min"]) * 2)


def _alter_total_bound(report: dict) -> None:
    report["results"]["certificate"]["total_bound"] *= 1 + 1e-6


def _drop_a_prime(report: dict) -> None:
    report["results"]["primes_checked"] -= 1


MUTATIONS = {
    "coeffs": ("coefficient sign", _flip_coefficient_sign),
    "sbh-search": ("Q numerator", _bump_q_numerator),
    "names": ("delta_min", _alter_delta_min),
    "certify": ("total_bound", _alter_total_bound),
    "gauss-check": ("primes_checked", _drop_a_prime),
}


def self_test(path) -> list[str]:
    """Each saved report must pass as saved and fail once altered."""
    with open(path) as fh:
        saved = json.load(fh)
    problems = []
    for entry in saved:
        argv, code, report = entry["argv"], entry["exit_code"], entry["report"]
        found = check(argv, code, json.dumps(report))
        if found:
            problems.append(f"saved {argv[0]} report fails: {found}")
        field, mutate = MUTATIONS[argv[0]]
        altered = json.loads(json.dumps(report))
        mutate(altered)
        if not check(argv, code, json.dumps(altered)):
            problems.append(f"{argv[0]} report with altered {field} passes")
    return problems
