"""Compare one CLI command's output, child CPU time and peak RSS between
two source trees, in alternating pairs.

    python scripts/paired_cli.py OLD_SRC NEW_SRC --pairs 15 -- coeffs --primes 5,7,11,13
    python scripts/paired_cli.py OLD_SRC NEW_SRC --pairs 15 --
    python scripts/paired_cli.py OLD_SRC NEW_SRC --pairs 0 -- certify --bogus
    python scripts/paired_cli.py OLD_SRC NEW_SRC --pairs 10 --bench-out BENCH.json -- certify --theorem 4

Each run is one child that runs morsespec.cli <argv> as `python -m` does,
with the tree first on PYTHONPATH and stdout and stderr sent to /dev/null.
Each tree gets its own temporary PYTHONPYCACHEPREFIX, and the children
run without PYTHONDONTWRITEBYTECODE: a tree's untimed run compiles it
once, its timed runs read that bytecode, and neither reads a __pycache__
left inside the tree, which may be stale for some modules and valid for
others.
It is reaped with os.wait4 for its own user + system CPU time, and at exit
it writes its own peak RSS (VmHWM) to a pipe.  With nothing after `--`,
each child only imports morsespec.cli instead: the start-up that every
command pays, which prints nothing to compare.  One untimed
run per tree comes first, its stdout and stderr kept in temporary files,
then the pairs; pair i runs OLD first when i is even and NEW first when
it is odd.  With --pairs 0 only the untimed runs are made and compared.
The script prints each side's median and quartiles, the median of the
paired differences (new - old) and how many pairs each side won; ties
count for neither.  It ends with one verdict line per metric: `gain` when NEW is
lower in at least nine tenths of the pairs and the medians differ by more
than OLD's interquartile range, `regression` when the same holds with the
sides swapped, `unresolved` otherwise, and always with fewer than 10
pairs, whose quartiles say nothing of the spread (one pair has none).
It exits 1 if the two trees' runs end with different exit codes, or if
their untimed runs print different stdout, once the report's timestamp
line is removed, or different stderr.
With --bench-out PATH (and at least one pair) it also appends one entry
to the JSON list in PATH, made if missing: both source paths, the argv,
the number of pairs, each side's exit codes and the median and quartiles
of its CPU and peak, both verdicts, whether the outputs matched, and the
environment (nproc and the Python, numpy and sympy versions).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from importlib.metadata import PackageNotFoundError, version


# Runs morsespec.cli as `python -m` does, or only imports it when given no
# arguments, and at exit writes the process's VmHWM line to the pipe
# descriptor given as its first argument.  A child's rusage carries the
# parent's peak RSS across fork and exec, so ru_maxrss reads at least the
# caller's size; exec resets VmHWM.
PEAK_REPORTING_CLI = """\
import atexit, os, runpy, sys
fd = int(sys.argv.pop(1))
def report():
    with open("/proc/self/status") as fh:
        os.write(fd, next(line for line in fh if line.startswith("VmHWM:")).encode())
atexit.register(report)
if sys.argv[1:]:
    runpy.run_module("morsespec.cli", run_name="__main__", alter_sys=True)
else:
    import morsespec.cli
"""


def run(
    src: str,
    argv: list[str],
    stdout=subprocess.DEVNULL,
    stderr=subprocess.DEVNULL,
    preexec_fn=None,
    pycache: str | None = None,
) -> tuple[int, float, float]:
    """Exit code, CPU seconds and own peak RSS in MB (nan if it exited
    without reporting one) of one CLI child, or of a bare import of
    morsespec.cli when argv is empty.  preexec_fn runs in the child
    before it starts Python, as in subprocess.Popen.  With a pycache
    directory the child reads and writes its bytecode there only."""
    path = os.pathsep.join(filter(None, [os.path.abspath(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    if pycache:
        env["PYTHONPYCACHEPREFIX"] = pycache
        env.pop("PYTHONDONTWRITEBYTECODE", None)
    peak_r, peak_w = os.pipe()
    with open(peak_r, "rb") as peak:
        with open(peak_w, "wb"):  # this copy closes here: the read ends when the child's does
            proc = subprocess.Popen(
                [sys.executable, "-c", PEAK_REPORTING_CLI, str(peak_w), *argv],
                env=env,
                stdout=stdout,
                stderr=stderr,
                preexec_fn=preexec_fn,
                pass_fds=(peak_w,),
            )
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        hwm = peak.read().split()  # b"VmHWM:", the size, b"kB"; empty without a report
    return proc.returncode, usage.ru_utime + usage.ru_stime, int(hwm[1]) / 1024 if hwm else math.nan


def untimed_output(src: str, argv: list[str], pycache: str) -> tuple[int, str, str]:
    """Exit code, stdout with the timestamp line removed, and stderr of
    one CLI child."""
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        code = run(src, argv, out, err, pycache=pycache)[0]
        out.seek(0)
        err.seek(0)
        text = re.sub(r'^(\s*"timestamp": "[^"]*",?|timestamp,.*)\n', "", out.read(), flags=re.M)
        return code, text, err.read()


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def summary(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"median {median:.4f}  quartiles {q1:.4f} .. {q3:.4f}"


def verdict(old: list[float], new: list[float]) -> str:
    """gain, regression or unresolved for lower-is-better paired runs;
    unresolved for fewer than 10 pairs."""
    if len(old) < 10:
        return "unresolved"
    q1, median, q3 = quartiles(old)
    gap = statistics.median(new) - median
    # pairs won by the side the medians favour
    won = sum((n - o) * gap > 0 for o, n in zip(old, new))
    if abs(gap) > q3 - q1 and 10 * won >= 9 * len(old):
        return "gain" if gap < 0 else "regression"
    return "unresolved"


def main() -> int:
    parser = argparse.ArgumentParser(
        usage="%(prog)s OLD_SRC NEW_SRC [--pairs N] [--bench-out PATH] -- [CLI_ARG...]",
        description=__doc__.split("\n\n")[0],
    )
    parser.add_argument("old_src", help="source tree of the parent, e.g. a checkout's src")
    parser.add_argument("new_src", help="source tree of the change")
    parser.add_argument(
        "--pairs", type=int, default=10, help="number of alternating pairs; 0 compares output only"
    )
    parser.add_argument("--bench-out", help="append the measurement to the JSON list in this file")
    own = sys.argv[1:]
    split = own.index("--") if "--" in own else len(own)
    args = parser.parse_args(own[:split])
    argv = own[split + 1 :]
    if "--" not in own or args.pairs < 0:
        parser.error("give --pairs >= 0 and --, then the CLI arguments if any")
    if args.bench_out and args.pairs == 0:
        parser.error("--bench-out needs at least one pair")

    sides = {"old": args.old_src, "new": args.new_src}
    with tempfile.TemporaryDirectory() as old_cache, tempfile.TemporaryDirectory() as new_cache:
        return compare(sides, {"old": old_cache, "new": new_cache}, args.pairs, argv, args.bench_out)


def compare(sides: dict, caches: dict, pairs: int, argv: list[str], bench_out: str | None = None) -> int:
    """The untimed runs, then the pairs, with each side's bytecode in its
    own cache directory; prints the report, appends the entry to
    bench_out if given, and returns main's exit code."""
    first = {name: untimed_output(src, argv, caches[name]) for name, src in sides.items()}
    codes = {name: {first[name][0]} for name in sides}
    if pairs == 0:
        print(f"argv: {' '.join(argv) or '(import morsespec.cli)'}  pairs: 0")
        for name, src in sides.items():
            print(f"{name} ({src}) exit {first[name][0]}")
        return differences(codes, first)
    cpu = {name: [] for name in sides}
    rss = {name: [] for name in sides}
    metrics = {"cpu_s": cpu, "peak_rss_mb": rss}
    for i in range(pairs):
        for name in ("old", "new") if i % 2 == 0 else ("new", "old"):
            code, cpu_s, rss_mb = run(sides[name], argv, pycache=caches[name])
            codes[name].add(code)
            cpu[name].append(cpu_s)
            rss[name].append(rss_mb)

    print(f"argv: {' '.join(argv) or '(import morsespec.cli)'}  pairs: {pairs}")
    for name, src in sides.items():
        print(f"{name} ({src}) exit {sorted(codes[name])}")
        print(f"  cpu_s        {summary(cpu[name])}")
        print(f"  peak_rss_mb  {summary(rss[name])}")
    for metric, values in metrics.items():
        diffs = [new - old for old, new in zip(values["old"], values["new"])]
        new_wins = sum(d < 0 for d in diffs)
        old_wins = sum(d > 0 for d in diffs)
        print(
            f"{metric} new - old: median {statistics.median(diffs):+.4f}; "
            f"new lower in {new_wins}, old lower in {old_wins} of {len(diffs)} pairs"
        )
    verdicts = {metric: verdict(values["old"], values["new"]) for metric, values in metrics.items()}
    for metric, outcome in verdicts.items():
        print(f"{metric} verdict: {outcome}")
    status = differences(codes, first)
    if bench_out:
        entry = {
            "old_src": sides["old"],
            "new_src": sides["new"],
            "argv": argv,
            "pairs": pairs,
            **{
                name: {"exit": sorted(codes[name])} | {m: stats(values[name]) for m, values in metrics.items()}
                for name in sides
            },
            "verdicts": verdicts,
            "same_output": status == 0,
            "environment": environment(),
        }
        append_entry(bench_out, entry)
    return status


def stats(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3}


def environment() -> dict:
    """nproc and the versions a measurement depends on; numpy and sympy
    are read from their metadata, not imported."""

    def package(name: str) -> str | None:
        try:
            return version(name)
        except PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": package("numpy"),
        "sympy": package("sympy"),
    }


def append_entry(path: str, entry: dict) -> None:
    """Append entry to the JSON list in path, made if missing."""
    try:
        with open(path, encoding="utf-8") as fh:
            entries = json.load(fh)
    except FileNotFoundError:
        entries = []
    entries.append(entry)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")


def differences(codes: dict, first: dict) -> int:
    """1, with a line on stderr per difference, when the trees' exit codes
    or untimed stdout or stderr differ; 0 when they match."""
    found = []
    if codes["old"] != codes["new"]:
        found.append("exit codes differ between the trees")
    if first["old"][1] != first["new"][1]:
        found.append("stdout differs between the trees, timestamp aside")
    if first["old"][2] != first["new"][2]:
        found.append("stderr differs between the trees")
    for line in found:
        print(line, file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
