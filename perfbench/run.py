"""morsespec benchmark: runs a workload's CLI commands as subprocesses,
checks every report against closed forms, and prints the metrics.

    python3 perfbench/run.py --workload theorem --seed 1 --seconds 30 --trace 0

Run it from the repository root.  The load is a closed loop with one
client: each operation is one `python -m morsespec.cli ...` child, run one
after another, reaped with os.wait4 for its own CPU time and peak RSS.  A
run makes one untimed warm-up batch, then repeats the workload's batch
for as many times as fit in --seconds and reports medians over them.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates plain and
traced batches; a traced batch runs each command through traced_cli.py in
a fresh interpreter and the per-layer metrics are medians over those.

Every line but the last is a JSON record of the run (seed, argv, the
environment, per-command figures, failures); the last line is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import dataclass
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path
from time import perf_counter

import oracle
from traced_cli import SPANS, TRACE_PREFIX

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SEED_REPORTS = BENCH / "seed_reports.json"
SETUP_PER_BATCH = 3
THEOREM_ELEMENTS = 150


def theorem_ops(rng: random.Random) -> list[list[str]]:
    primes = oracle.theorem_primes(4)
    elements = [
        ",".join(str(rng.randrange(p)) for p in primes) for _ in range(THEOREM_ELEMENTS)
    ]
    return [["certify", "--theorem", "4"], ["coeffs", "--theorem", "4", *elements]]


def stage_search_ops(rng: random.Random) -> list[list[str]]:
    seed = str(rng.randrange(10**6))
    return [
        ["names", "--primes", "5,7,11"],
        ["sbh-search", "--primes", "5,7,11", "--level", "3", "--k-max", "6", "--seed", seed],
        ["sbh-search", "--primes", "29", "--k-max", "4", "--seed", seed],
    ]


def prime_sweep_ops(rng: random.Random) -> list[list[str]]:
    # no random input: both commands cover their whole range
    return [["gauss-check", "--pmax", "1000"], ["coeffs", "--primes", "5,7,11,13"]]


WORKLOADS = {
    "theorem": theorem_ops,
    "stage-search": stage_search_ops,
    "prime-sweep": prime_sweep_ops,
}
COMMANDS = ("certify", "coeffs", "names", "sbh-search", "gauss-check")
LAYERS = ("odometer", "charsums", "cocycle", "spectral", "diagnostics", "reporting", "cli")
SEARCH_MODES = ("local", "exhaustive")


@dataclass
class Op:
    argv: list[str]
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    problems: list[str]
    trace: dict | None = None


@dataclass
class Batch:
    wall_s: float
    ops: list[Op]

    @property
    def cpu_s(self) -> float:
        return sum(op.cpu_s for op in self.ops)

    @property
    def peak_rss_mb(self) -> float:
        return max(op.rss_mb for op in self.ops)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


ENV = child_env()


def spawn(cmd: list[str]) -> tuple[int, bytes, bytes, float, object]:
    """Run cmd to completion; reap it with wait4 for its own rusage."""
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV, cwd=ROOT)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return proc.returncode, out, err[0], wall, usage


def run_op(argv: list[str], traced: bool) -> Op:
    entry = [str(BENCH / "traced_cli.py")] if traced else ["-m", "morsespec.cli"]
    code, out, err, wall, usage = spawn([sys.executable, *entry, *argv])
    problems = oracle.check(argv, code, out.decode())
    trace = None
    if traced:
        lines = [l for l in err.decode().splitlines() if l.startswith(TRACE_PREFIX)]
        if lines:
            trace = json.loads(lines[-1][len(TRACE_PREFIX):])
        else:
            problems.append("traced run wrote no trace")
    if problems and err:
        problems.append("stderr: " + err.decode()[-500:])
    return Op(
        argv=argv,
        exit_code=code,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        problems=problems,
        trace=trace,
    )


def run_batch(ops: list[list[str]], traced: bool = False) -> Batch:
    """Every operation in order, each report checked before the next."""
    start = perf_counter()
    done = [run_op(argv, traced) for argv in ops]
    return Batch(wall_s=perf_counter() - start, ops=done)


def setup_sample() -> float:
    """Wall time for a fresh interpreter to import morsespec.cli."""
    code, _, err, wall, _ = spawn([sys.executable, "-c", "import morsespec.cli"])
    if code:
        raise RuntimeError(f"import morsespec.cli failed: {err.decode()[-500:]}")
    return wall


def layer_metrics(batch: Batch) -> dict[str, float]:
    """Per-layer figures of one traced batch, summed over its commands."""
    seconds: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    errors = Counter(dict.fromkeys(LAYERS, 0))
    out: dict[str, float] = {}
    for command in COMMANDS:
        out[f"cli.{command}.wall_s"] = 0.0
        out[f"cli.{command}.self_s"] = 0.0
    for op in batch.ops:
        trace = op.trace or {"wall_s": 0.0, "spans": {}, "counts": {}}
        if op.problems:
            errors["cli"] += 1
        child = 0.0
        for name, span in trace["spans"].items():
            seconds[name] += span["seconds"]
            calls[name] += span["calls"]
            errors[name.split(".")[0]] += span["errors"]
            child += span["seconds"]
        counts.update(trace["counts"])
        self_s = trace["wall_s"] - child
        if self_s < -1e-6:
            raise RuntimeError(f"spans of {op.argv[0]} exceed its wall time by {-self_s} s")
        out[f"cli.{op.argv[0]}.wall_s"] += trace["wall_s"]
        out[f"cli.{op.argv[0]}.self_s"] += self_s

    span_names = [s for s in SPANS.values() if s != "spectral.sbh_search"]
    span_names += [f"spectral.sbh_search.{mode}" for mode in SEARCH_MODES]
    for name in span_names:
        out[f"{name}_s"] = seconds[name]
        out[f"{name}.calls"] = calls[name]
    for mode in SEARCH_MODES:
        name = f"spectral.sbh_search.{mode}"
        evaluations = counts[f"{name}.evaluations"]
        out[f"{name}.evaluations"] = evaluations
        out[f"{name}.evals_per_s"] = evaluations / seconds[name] if evaluations else 0.0
    elements = counts["spectral.coeff_exact.elements"]
    density_calls = calls["spectral.coeff_density"]
    out["spectral.coeff_exact.elements"] = elements
    out["spectral.coeff_exact_per_elem_ms"] = (
        1e3 * seconds["spectral.coeff_exact"] / elements if elements else 0.0
    )
    out["spectral.coeff_density_per_call_us"] = (
        1e6 * seconds["spectral.coeff_density"] / density_calls if density_calls else 0.0
    )
    for name in ("diagnostics.name_count", "diagnostics.pair_count",
                 "odometer.add.calls", "reporting.report_bytes"):
        out[name] = counts[name]
    for layer, n in errors.items():
        out[f"{layer}.errors"] = n
    return out


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else ref


def environment() -> dict:
    def package(name: str) -> str | None:
        try:
            return version(name)
        except PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": package("numpy"),
        "sympy": package("sympy"),
        "commit": git_commit(),
        "platform": platform.platform(),
    }


def op_record(op: Op) -> dict:
    return {
        "command": op.argv[0],
        "exit_code": op.exit_code,
        "wall_s": op.wall_s,
        "cpu_s": op.cpu_s,
        "rss_mb": op.rss_mb,
        "problems": op.problems,
    }


def batch_record(batch: Batch) -> dict:
    return {"wall_s": batch.wall_s, "ops": [op_record(op) for op in batch.ops]}


def repeat(step, seconds: float) -> None:
    """Call step() at least once, and again while the next call, taking as
    long as the last one, still ends within `seconds`."""
    start = perf_counter()
    while True:
        began = perf_counter()
        step()
        now = perf_counter()
        if now - start + (now - began) > seconds:
            return


def measure(ops: list[list[str]], seconds: float) -> tuple[dict, dict, list[Batch]]:
    setup: list[float] = []
    batches: list[Batch] = []

    def step() -> None:
        setup.extend(setup_sample() for _ in range(SETUP_PER_BATCH))
        batches.append(run_batch(ops))

    repeat(step, seconds)
    metrics = {
        "wall_s": (statistics.median(b.wall_s for b in batches), "s"),
        "cpu_s": (statistics.median(b.cpu_s for b in batches), "s"),
        "peak_rss_mb": (statistics.median(b.peak_rss_mb for b in batches), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    record = {
        "setup_samples_s": setup,
        "batches": [batch_record(b) for b in batches],
    }
    return metrics, record, batches


def measure_traced(ops: list[list[str]], seconds: float) -> tuple[dict, dict, list[Batch]]:
    plain: list[Batch] = []
    traced: list[Batch] = []

    def step() -> None:
        plain.append(run_batch(ops))
        traced.append(run_batch(ops, traced=True))

    repeat(step, seconds)
    per_batch = [layer_metrics(b) for b in traced]
    metrics = {
        name: (statistics.median(m[name] for m in per_batch), unit_of(name))
        for name in per_batch[0]
    }
    overhead = statistics.median(b.wall_s for b in traced) - statistics.median(b.wall_s for b in plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    record = {
        "plain_batches": [batch_record(b) for b in plain],
        "traced_batches": [batch_record(b) for b in traced],
        "traced_layers": per_batch,
    }
    return metrics, record, plain + traced


def unit_of(name: str) -> str:
    for suffix, unit in (("_per_elem_ms", "ms"), ("_per_call_us", "us"),
                         ("evals_per_s", "1/s"), ("_s", "s"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "morsespec" / "cli.py").is_file():
        print(f"no morsespec sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    selftest = oracle.self_test(SEED_REPORTS)
    ops = WORKLOADS[args.workload](random.Random(args.seed))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "argv": ops, "environment": environment(),
                      "oracle_self_test": selftest or "ok"}))

    warmup = run_batch(ops)
    if args.trace:
        metrics, record, batches = measure_traced(ops, args.seconds)
    else:
        metrics, record, batches = measure(ops, args.seconds)
    all_ops = [op for b in [warmup, *batches] for op in b.ops]
    failed = [op for op in all_ops if op.problems]
    if not args.trace:
        metrics["ok_ratio"] = (1 - len(failed) / len(all_ops), "ratio")
    record["warmup"] = batch_record(warmup)
    record["failures"] = [{"argv": op.argv, "problems": op.problems} for op in failed]
    record["measured_batches"] = len(batches)
    print(json.dumps(record))
    print(json.dumps({
        "correct": not failed and not selftest,
        "attempted": len(all_ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
