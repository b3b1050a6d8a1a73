"""Command line front end: certification pipelines, coefficient tables,
name-separation diagnostics, the adversarial search, and character-sum
self-checks, all emitting versioned machine-readable reports.

Exit codes: 0 success/certified, 1 inconclusive, 2 falsified certificate
or internal-consistency failure, 64 usage error.  Reports are deterministic
for a fixed configuration and seed apart from the timestamp field.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import shutil
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from fractions import Fraction

# before numpy loads: no command runs threaded BLAS, and an idle OpenBLAS worker spins ~0.13 s of CPU
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from .charsums import (
    flatness_report,
    gauss_sum_all,
    legendre_symbols,
    legendre_table,
    table_density_fourier_all,
    table_flatness_report,
    table_polynomial_values,
    window_autocorrelation_numerators,
)
from .cocycle import CocycleContext, build_context
from .diagnostics import at_ball_bound, name_separation, write_histogram_csv
from .errors import BudgetError, ConfigError, InternalConsistencyError
from .odometer import (
    EXPERIMENTAL,
    THEOREM_GRADE,
    GroupConfig,
    GroupElement,
    element,
    is_prime,
    level_group_order,
    level_group_vectors,
    make_group_config,
    theorem_primes,
)
from .reporting import (
    SCHEMA,
    config_digest,
    report_pieces,
    timestamp,
    write_atomic,
)
from .spectral import (
    sbh_adversarial_search,
    sbh_verdict,
    spectral_coefficients,
    spectral_coefficients_from_density,
)

EXIT_OK = 0
EXIT_INCONCLUSIVE = 1
EXIT_FALSIFIED = 2
EXIT_USAGE = 64


class UsageError(Exception):
    """Bad invocation or configuration; maps to exit code 64."""


def _parse_primes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise UsageError(f"bad primes list {text!r}: {exc}") from None


def _parse_epsilon(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad epsilon {text!r}: {exc}") from None


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"bad boolean {text!r}")


def _option(default, parse, help: str, echo: bool = True):
    """A run option: the long flag is the field name with dashes, the
    config-file key is the field name (dashes allowed), `parse` reads both,
    and `echo` puts the value in the report's config echo."""
    return field(default=default, metadata={"parse": parse, "help": help, "echo": echo})


@dataclass
class RunConfig:
    """Resolved run parameters: dataclass defaults, then config file
    entries, then command-line flags, later layers winning."""

    primes: tuple[int, ...] | None = _option(None, _parse_primes, "comma-separated odd primes")
    theorem: int | None = _option(None, int, "use the first N growth-floor primes", echo=False)
    level: int | None = _option(None, int, "stage / truncation level for the command")
    k_max: int = _option(4, int, "largest probe size")
    seed: int = _option(0, int, "search seed")
    budget: int = _option(500_000, int, "probe budget for searches")
    restarts: int = _option(32, int, "local-search restarts")
    epsilon: Fraction | None = _option(None, _parse_epsilon, "ball radius (rational, e.g. 1/20)")
    split_level: int | None = _option(None, int, "certificate split point")
    assume_tail_rule: bool = _option(
        False, _parse_bool, "assert the growth floor for coordinates past the split"
    )
    tolerance_numeric: float = _option(1e-12, float, "tolerance of the float route comparisons")
    tolerance_transcendental: float = _option(
        1e-9, float, "tolerance of the Gauss-sum and flatness checks"
    )
    format: str = _option("json", str, "report format: json or csv")
    out: str | None = _option(None, str, "also write the report to this path", echo=False)
    histogram_out: str | None = _option(
        None, str, "write the distance histogram CSV here", echo=False
    )
    pmax: int = _option(200, int, "prime range bound for gauss-check")


_PARSERS = {f.name: f.metadata["parse"] for f in fields(RunConfig)}


def load_config_file(path: str) -> dict[str, object]:
    """Flat 'key = value' lines; # starts a comment; keys match the
    command-line flags."""
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    out: dict[str, object] = {}
    for lineno, line in enumerate(raw.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _PARSERS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = _PARSERS[key](value.strip())
        except (ValueError, TypeError) as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return out


def build_run_config(args: argparse.Namespace) -> RunConfig:
    values = load_config_file(args.config) if getattr(args, "config", None) else {}
    flags = {k: v for k, v in vars(args).items() if k in _PARSERS and v is not None}
    if flags.keys() & {"primes", "theorem"}:
        # a group chosen by flag replaces the file's choice, not joins it
        values.pop("primes", None)
        values.pop("theorem", None)
    rc = RunConfig(**{**values, **flags})
    if rc.level is not None and rc.level < 1:
        raise UsageError("level must be at least 1")
    if rc.k_max < 1:
        raise UsageError("k_max must be at least 1")
    for tol in (rc.tolerance_numeric, rc.tolerance_transcendental):
        # nan passes a "<= 0" test and inf turns the check off
        if not (math.isfinite(tol) and tol > 0):
            raise UsageError(f"tolerances must be finite and positive, got {tol}")
    if rc.epsilon is not None and rc.epsilon < 0:
        raise UsageError(f"epsilon must be nonnegative, got {rc.epsilon}")
    if rc.budget < 1:
        raise UsageError("budget must be positive")
    if rc.restarts < 0:
        raise UsageError("restarts must be nonnegative")
    if rc.format not in ("json", "csv"):
        raise UsageError(f"unknown format {rc.format!r}")
    return rc


def resolve_group_config(rc: RunConfig) -> GroupConfig:
    if rc.primes is not None and rc.theorem is not None:
        raise UsageError("give either --primes or --theorem, not both")
    if rc.theorem is not None:
        if rc.theorem < 1:
            raise UsageError("--theorem count must be at least 1")
        primes, mode = theorem_primes(rc.theorem), THEOREM_GRADE
    elif rc.primes is not None:
        primes, mode = rc.primes, EXPERIMENTAL
    else:
        raise UsageError("one of --primes or --theorem is required")
    try:
        return make_group_config(primes, mode)
    except ConfigError as exc:
        raise UsageError(f"invalid configuration: {exc}") from None


@contextmanager
def _writing(path: str):
    """An output file that cannot be written is a usage error."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None


def _config_echo(rc: RunConfig, cfg: GroupConfig | None) -> dict:
    echo = {f.name: getattr(rc, f.name) for f in fields(RunConfig) if f.metadata["echo"]}
    echo["primes"] = list(cfg.primes) if cfg else None
    echo["mode"] = cfg.mode if cfg else None
    return echo


def _envelope(command: str, rc: RunConfig, cfg: GroupConfig | None, results: dict) -> dict:
    echo = _config_echo(rc, cfg)
    return {
        "schema": SCHEMA,
        "command": command,
        "config": echo,
        "config_digest": config_digest(echo),
        "timestamp": timestamp(),
        "results": results,
    }


def _vector(g: GroupElement, cfg: GroupConfig) -> list[int]:
    return list(g.vector(cfg.level))


def cmd_certify(rc: RunConfig, args: argparse.Namespace) -> tuple[dict, int]:
    """Flatness per prime, density certificate, final verdict."""
    cfg = resolve_group_config(rc)
    ctx = build_context(cfg)
    flatness = []
    for p in cfg.primes:
        rep = flatness_report(p)
        flatness.append(
            {
                "prime": p,
                "min_modulus": rep.min_modulus,
                "max_modulus": rep.max_modulus,
                "window_low": 1.0 - 1.0 / math.sqrt(p),
                "window_high": 1.0 + 1.0 / math.sqrt(p),
                "delta_sign": rep.delta_sign,
                "op": "flatness_report",
            }
        )
    verdict = sbh_verdict(
        ctx, split_level=rc.split_level, assume_tail_rule=rc.assume_tail_rule
    )
    cert = verdict.certificate
    results = {
        "flatness": flatness,
        "certificate": {
            "split_level": cert.split_level,
            "finite_sup": cert.finite_sup,
            "finite_window": cert.finite_window,
            "tail_bound": cert.tail_bound,
            "total_bound": cert.total_bound,
            "status": cert.status,
            "sbh_certified": cert.sbh_certified,
            "op": "density_certificate",
        },
        "verdict": {
            "verdict": verdict.verdict,
            "reasons": list(verdict.reasons),
            "assumptions": list(verdict.assumptions),
            "cited": list(verdict.cited),
            "op": "sbh_verdict",
        },
    }
    code = EXIT_OK if cert.sbh_certified else EXIT_INCONCLUSIVE
    return _envelope("certify", rc, cfg, results), code


def _parse_elements(specs: list[str], cfg: GroupConfig) -> np.ndarray:
    """Dense residue vectors, one row per element and one column per
    configured prime."""
    if not specs:
        specs = [f"level:{cfg.level}"]
    if len(specs) == 1 and specs[0].startswith("level:"):
        try:
            n = int(specs[0].split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad element spec {specs[0]!r}") from None
        if not 0 <= n <= cfg.level:
            raise UsageError(f"level {n} outside 0..{cfg.level}")
        vectors = level_group_vectors(n, cfg)
        size = level_group_order(n, cfg)
        out = np.zeros((size, cfg.level), dtype=np.int64)
        flat = itertools.chain.from_iterable(vectors)
        out[:, :n] = np.fromiter(flat, dtype=np.int64, count=size * n).reshape(size, n)
        return out
    out = []
    for spec in specs:
        try:
            residues = [int(part) for part in spec.split(",")]
        except ValueError:
            raise UsageError(f"bad element spec {spec!r}") from None
        if len(residues) > cfg.level:
            raise UsageError(
                f"element {spec!r} has {len(residues)} coordinates, "
                f"configuration has {cfg.level}"
            )
        try:
            out.append(element(residues, cfg).vector(cfg.level))
        except ConfigError as exc:
            raise UsageError(f"bad element {spec!r}: {exc}") from None
    return np.array(out, dtype=np.int64)


def cmd_coeffs(rc: RunConfig, args: argparse.Namespace) -> tuple[dict, int]:
    """Exact and density-route coefficient table with the max discrepancy;
    disagreement beyond tolerance is an internal-consistency failure."""
    cfg = resolve_group_config(rc)
    ctx = build_context(cfg)
    residues = _parse_elements(list(getattr(args, "elements", []) or []), cfg)
    exact = spectral_coefficients(residues, ctx)
    numeric = spectral_coefficients_from_density(residues, ctx)
    discrepancy = np.abs(np.array([float(q) for q in exact]) - numeric)
    max_discrepancy = float(discrepancy.max(initial=0.0))
    # built as the report is written, one row at a time
    rows = (
        {"element": vec.tolist(), "rational": q, "numeric": float(x), "discrepancy": float(d)}
        for vec, q, x, d in zip(residues, exact, numeric, discrepancy)
    )
    agree = max_discrepancy <= rc.tolerance_numeric
    results = {
        "rows": rows,
        "count": len(residues),
        "max_discrepancy": max_discrepancy,
        "tolerance_numeric": rc.tolerance_numeric,
        "routes_agree": agree,
        "op": "spectral_coefficient vs spectral_coefficient_from_density",
    }
    return _envelope("coeffs", rc, cfg, results), EXIT_OK if agree else EXIT_FALSIFIED


def cmd_names(rc: RunConfig, args: argparse.Namespace) -> tuple[dict, int]:
    """Name separation scan at the requested stage plus the ball bound."""
    cfg = resolve_group_config(rc)
    ctx = build_context(cfg)
    n = rc.level if rc.level is not None else cfg.level
    sep = name_separation(n, ctx)  # rejects a stage outside 0..level
    epsilon = rc.epsilon if rc.epsilon is not None else sep.delta_min / 4
    bound = at_ball_bound(n, epsilon, ctx, separation=sep)
    if bound == Fraction(1, 2):
        interpretation = (
            f"ball bound 1/2: no radius-{epsilon} ball around any word captures "
            "more than one name class, while an averaging approximation would "
            f"need nearly full mass in one ball (achieved mass stays <= 1/2 of the scaled budget)"
        )
    else:
        interpretation = (
            f"epsilon {epsilon} is not below delta_min/2 = {sep.delta_min / 2}; "
            "only the trivial bound applies"
        )
    results = {
        "level": n,
        "name_count": sep.name_count,
        "pair_count": sep.pair_count,
        "delta_min": sep.delta_min,
        "histogram": [
            {"distance": dist, "count": cnt} for dist, cnt in sep.histogram
        ],
        "epsilon_used": epsilon,
        "ball_bound": bound,
        "interpretation": interpretation,
        "op": "name_separation / at_ball_bound",
    }
    if rc.histogram_out:
        with _writing(rc.histogram_out):
            write_histogram_csv(sep, rc.histogram_out)
        results["histogram_file"] = rc.histogram_out
    return _envelope("names", rc, cfg, results), EXIT_OK


def cmd_sbh_search(rc: RunConfig, args: argparse.Namespace) -> tuple[dict, int]:
    """Adversarial quadratic-form search, best probe per subset size."""
    cfg = resolve_group_config(rc)
    ctx = build_context(cfg)
    n = rc.level if rc.level is not None else 1
    if n > cfg.level:
        raise UsageError(f"level {n} exceeds the {cfg.level} configured primes")
    group_order = math.prod(cfg.primes[:n])
    k_cap = min(rc.k_max, group_order)
    # Q never exceeds the stage-n density sup; it can falsify only a certificate
    stage_sup = math.prod(table_flatness_report(t).density_sup for t in ctx.tables[:n])
    cert = sbh_verdict(ctx, rc.split_level, rc.assume_tail_rule).certificate
    per_k = []
    best_entry = None
    for k in range(1, k_cap + 1):
        result = sbh_adversarial_search(
            n, k, ctx, budget=rc.budget, seed=rc.seed, restarts=rc.restarts
        )
        probe = result.probe
        if probe.value > stage_sup * (1 + 1e-9):
            raise InternalConsistencyError(
                f"Q = {probe.value} at k = {k} exceeds the stage-{n} density sup {stage_sup}"
            )
        entry = {
            "k": k,
            "value": probe.value,
            "value_float": float(probe.value),
            "theta": [_vector(g, cfg) for g in probe.theta],
            "signs": list(probe.signs),
            "mode": result.mode,
            "evaluations": result.evaluations,
            "falsification": cert.sbh_certified and probe.value > cert.total_bound,
            "op": "sbh_adversarial_search",
        }
        if best_entry is None or probe.value > best_entry["value"]:
            best_entry = entry
        per_k.append(entry)
    results = {
        "level": n,
        "k_max_requested": rc.k_max,
        "k_max_effective": k_cap,
        "per_k": per_k,
        "best": best_entry,
        "stage_sup": stage_sup,
        "sup_gap": stage_sup - float(best_entry["value"]),
        "falsification": any(entry["falsification"] for entry in per_k),
        "note": "search lower-bounds the density sup; it can never certify on its own",
    }
    return _envelope("sbh-search", rc, cfg, results), (
        EXIT_FALSIFIED if results["falsification"] else EXIT_OK
    )


def cmd_gauss_check(rc: RunConfig, args: argparse.Namespace) -> tuple[dict, int]:
    """Character-sum invariants over all odd primes up to pmax: Gauss sum
    formula vs direct summation, parity class, the flatness closed form
    vs an FFT scan of |P|, and the two autocorrelation routes, each checked
    over a prime's whole table."""
    if rc.pmax < 3:
        raise UsageError("pmax must be at least 3")
    if rc.pmax > 3000:
        raise UsageError(
            "pmax above 3000 is not supported (the sweep does sum p^2 integer work)"
        )
    primes = [p for p in range(3, rc.pmax + 1) if is_prime(p)]
    max_gauss_err = 0.0
    max_parity_err = 0.0
    max_density_err = 0.0
    max_flatness_err = 0.0
    flatness_ok = True
    closed_form_ok = True
    worst_prime = None
    for p in primes:
        brute = gauss_sum_all(p)[1:]
        chi = legendre_symbols(p)
        # the formula's parts for x != 0 as gauss_sum builds them, so that the
        # hypot equals abs(brute[x] - gauss_sum(p, x)) to the last digit
        root = math.sqrt(p)
        if p % 4 == 1:
            formula_re, formula_im, off_axis = chi[1:] * root, 0.0, brute.imag
        else:
            formula_re, formula_im, off_axis = 0.0, -chi[1:] * root, brute.real
        err = np.hypot(brute.real - formula_re, brute.imag - formula_im).max()
        if err > max_gauss_err:
            max_gauss_err = err
            worst_prime = p
        max_parity_err = max(max_parity_err, np.abs(off_axis).max())
        table = legendre_table.__wrapped__(p)  # uncached: freed with the next prime
        # the Gauss-sum closed form (it raises on a window violation) against
        # the exhaustive scan of |P| that it replaces everywhere else
        flatness = table_flatness_report(table)
        flatness_ok = flatness_ok and flatness.route == "gauss-sum"
        mods = np.abs(table_polynomial_values(table))[1:]
        max_flatness_err = max(
            max_flatness_err,
            abs(float(mods.min()) - flatness.min_modulus),
            abs(float(mods.max()) - flatness.max_modulus),
        )
        # summed over the table, not read off the closed form it is checked against
        numerators = window_autocorrelation_numerators(table)
        # p * c_p(j) = -1 + (j|p) + (-j|p) for j != 0, and p at j = 0
        closed = -1 + chi + chi[-np.arange(p) % p]
        closed[0] = p
        closed_form_ok = closed_form_ok and np.array_equal(numerators, closed)
        max_density_err = max(
            max_density_err,
            np.abs(numerators / p - table_density_fourier_all(table)).max(),
        )
    flatness_ok = flatness_ok and max_flatness_err <= rc.tolerance_transcendental
    ok = (
        max_gauss_err <= rc.tolerance_transcendental
        and max_parity_err <= rc.tolerance_transcendental
        and flatness_ok
        and max_density_err <= rc.tolerance_numeric
        and closed_form_ok
    )
    results = {
        "pmax": rc.pmax,
        "primes_checked": len(primes),
        "max_gauss_error": max_gauss_err,
        "worst_prime": worst_prime,
        "max_parity_error": max_parity_err,
        "max_density_route_error": max_density_err,
        "closed_form_matches": closed_form_ok,
        "flatness_ok": flatness_ok,
        "tolerance_transcendental": rc.tolerance_transcendental,
        "tolerance_numeric": rc.tolerance_numeric,
        "all_ok": ok,
        "op": "gauss_sum_all vs gauss_sum / flatness_report / autocorrelation routes",
    }
    return _envelope("gauss-check", rc, None, results), (
        EXIT_OK if ok else EXIT_FALSIFIED
    )


_COMMANDS = {
    "certify": cmd_certify,
    "coeffs": cmd_coeffs,
    "names": cmd_names,
    "sbh-search": cmd_sbh_search,
    "gauss-check": cmd_gauss_check,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D401 - argparse hook
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", help="flat key = value config file")
    for f in fields(RunConfig):
        parse = f.metadata["parse"]
        # a bare switch; its None default leaves a config file's value standing
        how = {"action": "store_true", "default": None} if parse is _parse_bool else {"type": parse}
        common.add_argument("--" + f.name.replace("_", "-"), help=f.metadata["help"], **how)

    parser = _Parser(prog="morsespec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    sub.add_parser("certify", parents=[common], help="flatness + density certificate + verdict")
    coeffs = sub.add_parser("coeffs", parents=[common], help="two-route coefficient table")
    coeffs.add_argument(
        "elements",
        nargs="*",
        help="elements as comma-separated residues, or a single 'level:n'",
    )
    sub.add_parser("names", parents=[common], help="name separation and ball bound")
    sub.add_parser("sbh-search", parents=[common], help="adversarial quadratic-form search")
    sub.add_parser("gauss-check", parents=[common], help="character-sum invariant sweep")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        rc = build_run_config(args)
        report, code = _COMMANDS[args.command](rc, args)
        pieces = report_pieces(report, rc.format)
        if rc.out:
            # the whole file first, then the same bytes to stdout
            with _writing(rc.out):
                write_atomic(rc.out, pieces)
                written = open(rc.out)
            with written:
                shutil.copyfileobj(written, sys.stdout)
        else:
            sys.stdout.writelines(pieces)
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED


if __name__ == "__main__":
    sys.exit(main())
