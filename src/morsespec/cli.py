"""Command line front end: certification pipelines, coefficient tables,
name-separation diagnostics, the adversarial search, and character-sum
self-checks, all emitting versioned machine-readable reports.

Exit codes: 0 success/certified, 1 inconclusive, 2 falsified certificate
or internal-consistency failure, 64 usage error.  Reports are deterministic
for a fixed configuration and seed apart from the timestamp field.
"""

from __future__ import annotations

import argparse
import atexit
import errno
import gc
import itertools
import math
import os
import shutil
import sys
from collections import namedtuple
from contextlib import contextmanager
from fractions import Fraction

# before numpy loads: no command runs threaded BLAS, and an idle OpenBLAS worker spins ~0.13 s of CPU
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

# numpy itself loads on first use, which certify and names never make
from . import lazy_numpy
from .charsums import check_prime, flatness_report
from .cocycle import build_context
from .diagnostics import at_ball_bound, name_separation, write_histogram_csv
from .errors import BudgetError, ConfigError, InternalConsistencyError
from .odometer import (
    EXPERIMENTAL,
    THEOREM_GRADE,
    GroupConfig,
    element,
    enumerate_level_group,
    is_prime,
    level_group_order,
    make_group_config,
    theorem_primes,
)
from .reporting import (
    SCHEMA,
    Table,
    config_digest,
    rational_str,
    rational_strs,
    report_pieces,
    timestamp,
    write_atomic,
)
from .spectral import (
    _check_search_budget,
    coefficient_routes,
    density_certificate,
    sbh_adversarial_search,
    sbh_verdict,
)

np = lazy_numpy()

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


# each run option once: name -> (default, parser, help, echo).  The long flag
# is the name with dashes, the config-file key is the name (dashes allowed),
# the parser reads both, and echo puts the value in the report's config echo.
_OPTIONS = {
    "primes": (None, _parse_primes, "comma-separated odd primes", True),
    "theorem": (None, int, "use the first N growth-floor primes", False),
    "level": (None, int, "stage / truncation level for the command", True),
    "k_max": (4, int, "largest probe size", True),
    "seed": (0, int, "search seed", True),
    "budget": (500_000, int, "probe budget for searches", True),
    "restarts": (32, int, "local-search restarts", True),
    "epsilon": (None, _parse_epsilon, "ball radius (rational, e.g. 1/20)", True),
    "split_level": (None, int, "certificate split point", True),
    "assume_tail_rule": (
        False, _parse_bool, "assert the growth floor for coordinates past the split", True
    ),
    "tolerance_numeric": (1e-12, float, "tolerance of the float route comparisons", True),
    "tolerance_transcendental": (
        1e-9, float, "tolerance of the Gauss-sum and flatness checks", True
    ),
    "format": ("json", str, "report format: json or csv", True),
    "out": (None, str, "also write the report to this path", False),
    "histogram_out": (None, str, "write the distance histogram CSV here", False),
    "pmax": (200, int, "prime range bound for gauss-check", True),
}

RunConfig = namedtuple("RunConfig", _OPTIONS, defaults=[opt[0] for opt in _OPTIONS.values()])
RunConfig.__doc__ = """Resolved run parameters: the option defaults, then config file
entries, then command-line flags, later layers winning."""

_PARSERS = {name: opt[1] for name, opt in _OPTIONS.items()}


def load_config_file(path: str) -> dict[str, object]:
    """Flat 'key = value' lines; # starts a comment; keys match the
    command-line flags."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
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
        except (ValueError, TypeError, UsageError) as exc:
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
    echo = {name: getattr(rc, name) for name, opt in _OPTIONS.items() if opt[3]}
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
                "window_low": rep.window_low,
                "window_high": rep.window_high,
                "delta_sign": rep.delta_sign,
                "op": "flatness_report",
            }
        )
    verdict = sbh_verdict(
        ctx, split_level=rc.split_level, assume_tail_rule=rc.assume_tail_rule
    )._asdict()
    cert = verdict.pop("certificate")
    results = {
        "flatness": flatness,
        "certificate": {**cert._asdict(), "op": "density_certificate"},
        "verdict": {**verdict, "op": "sbh_verdict"},
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
        flat = itertools.chain.from_iterable(enumerate_level_group(n, cfg))
        return np.fromiter(flat, dtype=np.int64).reshape(-1, cfg.level)
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
        out.append(element(residues, cfg))
    return np.array(out, dtype=np.int64)


def cmd_coeffs(rc: RunConfig, args: argparse.Namespace) -> tuple[dict, int]:
    """Exact and density-route coefficient table with the max discrepancy;
    disagreement beyond tolerance is an internal-consistency failure."""
    cfg = resolve_group_config(rc)
    ctx = build_context(cfg)
    residues = _parse_elements(list(getattr(args, "elements", []) or []), cfg)
    numerators, denominators, numeric, discrepancy = coefficient_routes(residues, ctx)
    max_discrepancy = float(discrepancy.max(initial=0.0))
    rows = Table(
        {
            "element": residues,
            "rational": rational_strs(numerators, denominators),
            "numeric": numeric,
            "discrepancy": discrepancy,
        }
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
    distances, counts = zip(*sep.histogram)  # never empty: the complement pairs sit at 1
    results = {
        **sep._asdict(),
        "histogram": Table({"distance": list(map(rational_str, distances)), "count": list(counts)}),
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
    k_cap = min(rc.k_max, level_group_order(n, cfg))
    _check_search_budget(k_cap, cfg.primes[:n])  # before any search, not at the k that fails
    # the search checks Q against the stage-n density sup; Q can falsify only a certificate
    cert = density_certificate(ctx, rc.split_level, rc.assume_tail_rule)
    per_k = []
    for k in range(1, k_cap + 1):
        result = sbh_adversarial_search(
            n, k, ctx, budget=rc.budget, seed=rc.seed, restarts=rc.restarts
        )
        probe = result.probe
        entry = {
            "k": k,
            **probe._asdict(),
            "value_float": float(probe.value),
            "mode": result.mode,
            "evaluations": result.evaluations,
            "falsification": cert.sbh_certified and probe.value > cert.total_bound,
            "op": "sbh_adversarial_search",
        }
        per_k.append(entry)
    best_entry = max(per_k, key=lambda entry: entry["value"])
    results = {
        "level": n,
        "k_max_requested": rc.k_max,
        "k_max_effective": k_cap,
        "per_k": per_k,
        "best": best_entry,
        "stage_sup": result.stage_sup,
        "sup_gap": result.stage_sup - float(best_entry["value"]),
        "falsification": any(entry["falsification"] for entry in per_k),
        "note": "search lower-bounds the density sup; it can never certify on its own",
    }
    return _envelope("sbh-search", rc, cfg, results), (
        EXIT_FALSIFIED if results["falsification"] else EXIT_OK
    )


def cmd_gauss_check(rc: RunConfig, args: argparse.Namespace) -> tuple[dict, int]:
    """Character-sum invariants over all odd primes up to pmax: one
    charsums.check_prime per prime, in order, folded into the largest
    error of each route and whether every closed form held."""
    if rc.pmax < 3:
        raise UsageError("pmax must be at least 3")
    if rc.pmax > 3000:
        raise UsageError(
            "pmax above 3000 is not supported (the sweep does sum p^2 integer work)"
        )
    primes = [p for p in range(3, rc.pmax + 1) if is_prime(p)]
    max_gauss_err = max_parity_err = max_flatness_err = max_density_err = 0.0
    closed_form_ok = True
    worst_prime = None
    for p in primes:
        check = check_prime(p)
        if check.gauss_error > max_gauss_err:
            max_gauss_err = check.gauss_error
            worst_prime = p
        max_parity_err = max(max_parity_err, check.parity_error)
        max_flatness_err = max(max_flatness_err, check.flatness_error)
        max_density_err = max(max_density_err, check.density_error)
        closed_form_ok = closed_form_ok and check.closed_form_ok
    flatness_ok = max_flatness_err <= rc.tolerance_transcendental
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
    "certify": (cmd_certify, "flatness + density certificate + verdict"),
    "coeffs": (cmd_coeffs, "two-route coefficient table"),
    "names": (cmd_names, "name separation and ball bound"),
    "sbh-search": (cmd_sbh_search, "adversarial quadratic-form search"),
    "gauss-check": (cmd_gauss_check, "character-sum invariant sweep"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D401 - argparse hook
        raise UsageError(message)


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser of argv: every subcommand, with the run options on the
    one argv invokes only.  That is argv's first command name, since what
    comes before the command can only be an option."""
    invoked = next((arg for arg in argv if arg in _COMMANDS), None)
    parser = _Parser(prog="morsespec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, (_, summary) in _COMMANDS.items():
        cmd = sub.add_parser(command, help=summary)
        if command != invoked:
            continue
        cmd.add_argument("--config", help="flat key = value config file")
        for name, (_, parse, text, _) in _OPTIONS.items():
            # a bare switch; its None default leaves a config file's value standing
            how = {"action": "store_true", "default": None} if parse is _parse_bool else {"type": parse}
            cmd.add_argument("--" + name.replace("_", "-"), help=text, **how)
        if command == "coeffs":
            cmd.add_argument(
                "elements",
                nargs="*",
                help="elements as comma-separated residues, or a single 'level:n'; -- before a spec starting with -",
            )
    return parser


def _stdout():
    """sys.stdout, which is None in a process started with file
    descriptor 1 closed."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    return sys.stdout


def main(argv: list[str] | None = None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = _build_parser(argv).parse_args(argv)
        rc = build_run_config(args)
        report, code = _COMMANDS[args.command][0](rc, args)
        pieces = report_pieces(report, rc.format)
        # a closed stdout is an unwritable output like any other
        with _writing("stdout"):
            if rc.out:
                # the whole file first, then the same bytes to stdout
                with _writing(rc.out):
                    write_atomic(rc.out, pieces)
                    written = open(rc.out)
                with written:
                    shutil.copyfileobj(written, _stdout())
            else:
                _stdout().writelines(pieces)
            sys.stdout.flush()
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


def run() -> int:
    """Process entry point of `python -m morsespec.cli` and the `morsespec`
    console script: main(), with every object alive at exit frozen.

    The interpreter's shutdown collections skip frozen objects, so they no
    longer walk the import graph (about 22 000 tracked objects, most of
    them numpy's) that the OS reclaims with the process anyway.  main()
    itself freezes nothing: in-process callers keep their collector.
    """
    atexit.register(gc.freeze)
    code = main()
    if sys.stdout is None:
        return code
    try:
        sys.stdout.flush()
    except OSError:
        # main() has reported the closed stdout; the flush at exit must not fail again (exit 120)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(run())
