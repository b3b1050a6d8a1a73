import ast
import csv
import functools
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import resource
import shutil
import stat
import subprocess
import sys
import tempfile
import time
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import morsespec as ms
import morsespec.cli as cli
from morsespec import charsums, reporting, spectral
from oracles import autocorrelation_closed_form

PAIRED_CLI = Path(__file__).parent.parent / "scripts" / "paired_cli.py"
paired_cli = importlib.util.module_from_spec(importlib.util.spec_from_file_location("paired_cli", PAIRED_CLI))
paired_cli.__spec__.loader.exec_module(paired_cli)


def canonical_json(data):
    """The whole JSON text of a report, joined from its pieces."""
    return "".join(reporting.json_pieces(data))


def render_csv(data):
    """The whole CSV text of a report, joined from its pieces."""
    return "".join(reporting.csv_pieces(data))


def test_rational_round_trip():
    for frac in (Fraction(1, 5), Fraction(-3, 7), Fraction(0), Fraction(4), Fraction(36, 29)):
        assert Fraction(reporting.rational_str(frac)) == frac
    assert reporting.rational_str(Fraction(2)) == "2/1"


def test_to_builtin_conversions():
    data = {
        "f": Fraction(1, 3),
        "arr": np.array([1.0, 2.0]),
        "scalar": np.float64(0.5),
        "pair": [Fraction(-1, 7), (1, 2)],
        "nested": [Fraction(2, 5), {"inner": np.int64(3)}],
    }
    out = json.loads(canonical_json(data))
    assert out["f"] == "1/3"
    assert out["arr"] == [1.0, 2.0]
    assert out["scalar"] == 0.5
    assert out["pair"] == ["-1/7", [1, 2]]
    assert out["nested"] == ["2/5", {"inner": 3}]


def test_canonical_json_is_sorted_and_terminated():
    text = canonical_json({"b": 1, "a": {"d": 2, "c": 3}})
    assert text.index('"a"') < text.index('"b"')
    assert text.index('"c"') < text.index('"d"')
    assert text.endswith("\n")


def builtin(obj):
    """The built-in value the writers render obj as: a Fraction as its
    string, numpy values through tolist, a Table as its row dicts."""
    if isinstance(obj, Fraction):
        return reporting.rational_str(obj)
    if isinstance(obj, (np.generic, np.ndarray)):
        return builtin(obj.tolist())
    if isinstance(obj, dict):
        return {k: builtin(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, reporting.Table)):
        return [builtin(v) for v in obj]
    return obj


def json_oracle(data):
    """The reference rendering canonical_json must reproduce byte for byte."""
    return json.dumps(builtin(data), sort_keys=True, indent=2) + "\n"


report_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(),  # NaN, +/-inf and -0.0 included
    st.text(),  # non-ASCII and control characters included
    st.fractions(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.booleans().map(np.bool_),
    hnp.arrays(
        dtype=st.sampled_from([np.int64, np.float64, np.bool_]),
        shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3),
    ),
)

table_floats = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-300])
big_fractions = st.fractions() | st.builds(
    Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**30)
)


@st.composite
def tables(draw, cells):
    """A Table of a few rows, each column drawn from the kinds cmd_coeffs
    and cmd_names use and from lists of any report values without a Table
    (cells)."""
    rows = draw(st.integers(0, 4))
    cells_per_row = functools.partial(st.lists, min_size=rows, max_size=rows)
    column = st.one_of(
        hnp.arrays(np.float64, rows, elements=table_floats),
        st.integers(0, 3).flatmap(lambda width: hnp.arrays(np.int64, (rows, width))),
        cells_per_row(big_fractions),
        cells_per_row(st.integers(-(10**40), 10**40)),  # names' counts pass 2^63
        cells_per_row(st.integers(-1, 1) | st.booleans()),  # a bool is an int, not rendered as one
        cells_per_row(st.text()),  # non-ASCII and control characters included
        cells_per_row(cells),
    )
    names = draw(st.lists(st.text(max_size=4), max_size=4, unique=True))
    return reporting.Table({name: draw(column) for name in names})


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    )


report_trees = st.recursive(
    report_leaves | tables(st.recursive(report_leaves, containers, max_leaves=5)),
    containers,
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(data=report_trees)
def test_canonical_json_matches_json_dumps(data):
    assert canonical_json(data) == json_oracle(data)
    # CSV flattens a Table and numpy values as it does their built-in values
    assert render_csv(data) == render_csv(builtin(data))


def row_dicts(n):
    return ({"element": [i, 3], "numeric": i / 7} for i in range(n))


def row_table(n):
    """row_dicts(n) as columns."""
    element = np.stack([np.arange(n), np.full(n, 3)], axis=1)
    return reporting.Table({"element": element, "numeric": np.arange(n) / 7})


def test_table_renders_as_its_rows():
    # rows across several batches, a table that is not the last child,
    # tables at two depths, and a table that is the whole report
    rows = list(row_dicts(300))
    assert canonical_json([row_table(300), 1]) == json_oracle([rows, 1])
    nested = {"a": row_table(3), "b": [{"c": row_table(300)}, "x"]}
    assert canonical_json(nested) == json_oracle(nested)
    assert canonical_json(row_table(300)) == json_oracle(rows)
    assert canonical_json(reporting.Table({})) == "[]\n"
    # a row template with no slots to fill still unescapes its "%%"
    empty_rows = reporting.Table({"%": np.zeros((2, 0), dtype=np.int64)})
    assert canonical_json(empty_rows) == json_oracle(empty_rows)
    assert render_csv(row_table(300)) == render_csv(rows)


@pytest.mark.parametrize(
    "columns",
    [{"a": [1], "b": [1, 2]}, {"a": np.zeros((1, 1, 1))}],
)
def test_table_refuses_ragged_or_deep_columns(columns):
    with pytest.raises(ValueError, match="table columns"):
        reporting.Table(columns)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_streamed_table_heap_stays_far_below_its_length(fmt):
    # the columns exist before tracing starts; the rows' text must not pile up
    report = {"results": {"rows": row_table(50_000), "count": 50_000}}
    # a writer that renders the whole report first holds at least its length
    length = 0
    tracemalloc.start()
    try:
        for piece in reporting.report_pieces(report, fmt):
            length += len(piece)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert length > 4_000_000
    assert peak < length / 10


def test_canonical_json_edge_values():
    data = {
        "floats": [float("nan"), float("inf"), -float("inf"), -0.0, 1e-300, 0.1],
        "big": 10**40,
        "text": "caf\u00e9 \u2603 \x00\x1f\t\n\"\\",
        "empty": {"empty_list": [], "empty_dict": {}, "empty_tuple": ()},
        "array": np.arange(6.0).reshape(2, 3),
        "objects": np.array([Fraction(1, 3), None], dtype=object),
        "pair": [Fraction(-2, 4), (np.int64(-5), np.bool_(True))],
    }
    assert canonical_json(data) == json_oracle(data)
    assert canonical_json([]) == "[]\n"
    assert canonical_json(Fraction(3)) == '"3/1"\n'


@pytest.mark.parametrize("bad", [{1, 2}, 1j, object(), np.complex128(1j), [b"bytes"]])
def test_canonical_json_rejects_what_json_rejects(bad):
    data = {"ok": 1, "bad": bad}
    with pytest.raises(TypeError):
        json_oracle(data)
    with pytest.raises(TypeError, match="not JSON serializable"):
        canonical_json(data)


def test_config_digest_stability():
    d1 = reporting.config_digest({"a": 1, "b": "x"})
    d2 = reporting.config_digest({"b": "x", "a": 1})
    d3 = reporting.config_digest({"a": 2, "b": "x"})
    assert d1 == d2
    assert d1 != d3
    assert len(d1) == 16


def test_config_digest_is_sha256():
    data = {"primes": [29, 631], "epsilon": Fraction(1, 20), "seed": 0}
    blob = b'{"epsilon":"1/20","primes":[29,631],"seed":0}'
    assert reporting.config_digest(data) == hashlib.sha256(blob).hexdigest()[:16]


SRC = str(Path(ms.__file__).resolve().parents[1])
THREAD_SETTINGS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def fresh_python(code, env=None):
    """Run code in a new interpreter with src on PYTHONPATH.  env, when
    given, is the child's whole environment; otherwise it inherits this
    process's, which importing morsespec.cli has changed."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def env_without_thread_settings():
    return {k: v for k, v in os.environ.items() if k not in THREAD_SETTINGS}


def test_cli_import_leaves_openssl_unloaded():
    # hashlib's OpenSSL module costs every command about 3.4 MB of RSS
    code = "import sys, morsespec.cli; sys.exit('_hashlib' in sys.modules)"
    assert fresh_python(code).returncode == 0


def test_package_import_loads_no_numpy():
    code = "import sys, morsespec; sys.exit('numpy' in sys.modules)"
    assert fresh_python(code).returncode == 0


def test_cli_import_loads_no_dataclass_or_datetime_machinery():
    # dataclasses pulls in inspect, ast, dis and tokenize; every command paid for them
    code = "import sys, morsespec.cli; print([m for m in ('dataclasses', 'inspect', 'datetime') if m in sys.modules])"
    res = fresh_python(code)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_cli_import_runs_blas_on_one_thread():
    # importing the CLI loads no numpy; its first use does, and starts OpenBLAS
    code = (
        "import os, morsespec.cli\n"
        "morsespec.cli.np.ones(1)\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))"
    )
    res = fresh_python(code, env_without_thread_settings())
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["1", "1"]


@pytest.mark.parametrize("name", THREAD_SETTINGS)
def test_cli_import_keeps_a_user_thread_setting(name):
    code = "import os, morsespec.cli; print([os.environ.get(k) for k in {!r}])".format(
        THREAD_SETTINGS
    )
    res = fresh_python(code, {**env_without_thread_settings(), name: "2"})
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == repr(["2" if k == name else None for k in THREAD_SETTINGS])


def numpy_submodules_at_exit(argv, exit_code=0):
    """The process of `morsespec <argv>` (of `import morsespec.cli` alone
    for no argv), which must end with exit_code: its result, and the numpy
    submodules loaded at its exit.  The lazy numpy module itself is always
    there."""
    code = (
        "import atexit, sys\n"
        "atexit.register(lambda: print(sorted(m for m in sys.modules if m.startswith('numpy.')),"
        " file=sys.stderr))\n"
        "import morsespec.cli as cli\n"
        f"sys.argv[1:] = {argv!r}\n"
        "sys.exit(cli.run() if sys.argv[1:] else 0)\n"
    )
    res = fresh_python(code)
    assert res.returncode == exit_code, res.stderr
    return res, ast.literal_eval(res.stderr.splitlines()[-1])


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["certify", "--theorem", "4"],
        ["names", "--primes", "5,7,11"],
        ["sbh-search", "--theorem", "6", "--level", "6", "--k-max", "1"],
    ],
)
def test_closed_form_commands_load_no_numpy(argv):
    # every number these print comes from p alone, so numpy never loads
    assert numpy_submodules_at_exit(argv)[1] == []


def test_coeffs_loads_numpy_on_first_use():
    res, loaded = numpy_submodules_at_exit(["coeffs", "--primes", "5,7"])
    assert loaded
    assert strip_timestamp(res.stdout) == strip_timestamp((GOLDEN / "coeffs_5_7.json").read_text())


def test_full_complement_search_loads_no_masked_arrays():
    # |G_1| - k <= 64, so every non-member is a swap candidate; the pool is
    # filtered as a sampled one is, without np.setdiff1d and its numpy.ma
    _, loaded = numpy_submodules_at_exit(["sbh-search", "--primes", "29", "--k-max", "7"])
    assert loaded and [name for name in loaded if name.split(".")[:2] == ["numpy", "ma"]] == []


# a finder ahead of every other that refuses sympy, and an exit handler,
# registered before the CLI runs, that says whether sympy got loaded
SYMPY_REFUSED = (
    "import atexit, sys\n"
    "class RefuseSympy:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name.partition('.')[0] == 'sympy':\n"
    "            raise ImportError(f'{name} is refused')\n"
    "sys.meta_path.insert(0, RefuseSympy())\n"
    "atexit.register(lambda: print('sympy loaded:', 'sympy' in sys.modules, file=sys.stderr))\n"
)


@pytest.mark.parametrize("argv, exit_code", [(["certify", "--theorem", "20"], 0), (["names", "--theorem", "18"], 64)])
def test_theorem_stages_past_the_mr_limit_run_without_sympy(capsys, argv, exit_code):
    # p_17 onwards pass the package's own BPSW test: numpy is the one run-time dependency
    code = SYMPY_REFUSED + f"import morsespec.cli as cli\nsys.argv[1:] = {argv!r}\nsys.exit(cli.run())\n"
    res = fresh_python(code)
    assert res.returncode == exit_code, res.stderr
    *err, loaded = res.stderr.splitlines()
    assert loaded == "sympy loaded: False"
    if exit_code == 0:
        assert err == []
        assert strip_timestamp(res.stdout) == strip_timestamp(run_cli(capsys, *argv)[1])
    else:
        refusal = "budget exceeded: stage 18 has at least 81920 distinct coefficient values, budget is 50000"
        assert (res.stdout, err) == ("", [refusal])


# registered before the CLI runs, so it runs after the handlers the CLI registers
FREEZE_OBSERVER = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: print('freeze count', gc.get_freeze_count(), file=sys.stderr))\n"
)


def freeze_count_at_exit(stderr):
    return int(re.search(r"freeze count (\d+)", stderr).group(1))


@pytest.mark.parametrize("argv, exit_code", [(["--pmax", "3"], 0), (["--pmax", "2"], 64)])
def test_process_entry_freezes_the_collector_at_exit(argv, exit_code):
    code = FREEZE_OBSERVER + (
        "import runpy\n"
        f"sys.argv = ['morsespec', 'gauss-check', *{argv!r}]\n"
        "runpy.run_module('morsespec.cli', run_name='__main__')\n"
    )
    res = fresh_python(code)
    assert res.returncode == exit_code, res.stderr
    assert freeze_count_at_exit(res.stderr) > 0
    if exit_code == 0:
        assert json.loads(res.stdout)["results"]["all_ok"] is True


def test_main_leaves_the_collector_alone():
    code = FREEZE_OBSERVER + (
        "import morsespec.cli as cli\n"
        "sys.exit(cli.main(['gauss-check', '--pmax', '3']))\n"
    )
    res = fresh_python(code)
    assert res.returncode == 0, res.stderr
    assert freeze_count_at_exit(res.stderr) == 0


def test_console_script_and_module_run_the_same_entry():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(Path(SRC).parent / "pyproject.toml", "rb") as fh:
        script = tomllib.load(fh)["project"]["scripts"]["morsespec"]
    module, _, func = script.partition(":")
    assert module == cli.__name__
    tree = ast.parse(Path(cli.__file__).read_text())
    (block,) = [
        node
        for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    assert [ast.unparse(stmt) for stmt in block.body] == [f"sys.exit({func}())"]


# test-only routes moved to tests/oracles.py, the deleted density marginal,
# the sparse element format with what converted it, and the table cache
REMOVED_EXPORTS = (
    "autocorrelation_closed_form",
    "gauss_sum_brute",
    "FunnyWord",
    "NameAtlas",
    "complement",
    "hamming",
    "name_atlas",
    "name_word",
    "DensityMarginal",
    "density_marginal",
    "ExtensionPoint",
    "flip",
    "skew_step",
    "zero_extension_point",
    "neg",
    "sub",
    "point",
    "tower_address",
    "zero_point",
    "sbh_quadratic_form",
    "GroupElement",
    "IDENTITY",
    "translate",
    "level_group_vectors",
    "legendre_table",
)


def test_lazy_exports_are_the_submodules_objects():
    for module, names in ms._EXPORTS.items():
        sub = importlib.import_module(f"morsespec.{module}")
        for name in names:
            assert getattr(ms, name) is getattr(sub, name), name
    assert sorted(ms.__all__) == sorted(n for names in ms._EXPORTS.values() for n in names)
    assert set(ms.__all__) <= set(dir(ms))
    for name in ("no_such_name", *REMOVED_EXPORTS):
        assert name not in ms.__all__
        with pytest.raises(AttributeError, match=name):
            getattr(ms, name)
    # every name the acceptance gate reads through ms. still resolves
    gate = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    names = {
        node.attr
        for node in ast.walk(gate)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "ms"
    }
    assert "density_certificate" in names and "name_separation" in names
    for name in names:
        assert name in ms.__all__, name
        getattr(ms, name)


def test_src_holds_no_unreached_defs(tmp_path):
    # every top-level def of src/ is reached from cli, import time or the gate
    script = Path(__file__).parent.parent / "scripts" / "unreached_src.py"
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    # an orphan is found, though cli's parser has a local variable of its name
    src = tmp_path / "morsespec"
    src.mkdir()
    for path in Path(ms.__file__).parent.glob("*.py"):
        (src / path.name).write_text(path.read_text())
    with open(src / "odometer.py", "a") as fh:
        fh.write("\n\ndef sub(a, b):\n    return a\n")
    gate = Path(__file__).parent / "test_acceptance.py"
    done = subprocess.run([sys.executable, str(script), str(src), str(gate)], capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (1, "odometer.sub\n")
    # so is a method of a reached class whose name no reached code loads as
    # an attribute, though a top-level def of that name is reached
    text = (src / "odometer.py").read_text()
    level = "    def level(self) -> int:\n        return len(self.primes)\n"
    assert level in text
    (src / "odometer.py").write_text(text.replace(level, level + "\n    def _check_stage(self):\n        return None\n"))
    done = subprocess.run([sys.executable, str(script), str(src), str(gate)], capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (1, "odometer.sub\nodometer.GroupConfig._check_stage\n")


def test_src_functions_stay_under_80_lines():
    # a function past 80 lines (docstring included) is split before it grows
    long = [
        f"{path.stem}.{node.name}: {node.end_lineno - node.lineno + 1} lines"
        for path in sorted(Path(ms.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.end_lineno - node.lineno + 1 > 80
    ]
    assert long == []


def test_paired_cli_compares_stderr_and_exit_code(tmp_path):
    # --pairs 0 runs each tree once, untimed, and compares what the runs print
    for tree in ("old", "same", "changed"):
        shutil.copytree(
            Path(cli.__file__).parent, tmp_path / tree / "morsespec", ignore=shutil.ignore_patterns("__pycache__")
        )
    changed = tmp_path / "changed" / "morsespec" / "cli.py"
    text = changed.read_text()
    assert "one of --primes or --theorem is required" in text
    changed.write_text(text.replace("one of --primes or --theorem is required", "give --primes or --theorem"))

    def compare(tree):
        argv = [str(tmp_path / "old"), str(tmp_path / tree), "--pairs", "0", "--", "certify"]
        return subprocess.run([sys.executable, str(PAIRED_CLI), *argv], capture_output=True, text=True)

    same = compare("same")
    assert (same.returncode, same.stderr) == (0, "")
    differs = compare("changed")
    assert (differs.returncode, differs.stderr) == (1, "stderr differs between the trees\n")


def test_paired_cli_appends_a_bench_entry(tmp_path):
    # --bench-out appends one entry per command to a JSON list
    bench = tmp_path / "bench.json"
    for argv in (["certify", "--theorem", "3"], []):
        done = subprocess.run(
            [sys.executable, str(PAIRED_CLI), SRC, SRC, "--pairs", "1", "--bench-out", str(bench), "--", *argv],
            capture_output=True,
            text=True,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.endswith("cpu_s verdict: unresolved\npeak_rss_mb verdict: unresolved\n")
    first, second = json.loads(bench.read_text())
    assert (first["argv"], second["argv"]) == (["certify", "--theorem", "3"], [])
    assert (first["old_src"], first["new_src"], first["pairs"]) == (SRC, SRC, 1)
    for side in ("old", "new"):
        assert first[side]["exit"] == [0]
        for metric in ("cpu_s", "peak_rss_mb"):
            stats = first[side][metric]
            assert set(stats) == {"q1", "median", "q3"} and stats["median"] > 0
    assert set(first["verdicts"]) == {"cpu_s", "peak_rss_mb"}
    assert first["verdicts"] == {"cpu_s": "unresolved", "peak_rss_mb": "unresolved"}  # one pair
    assert first["same_output"] is True
    assert set(first["environment"]) == {"nproc", "python", "numpy", "sympy"}


def test_paired_cli_verdict_needs_ten_pairs():
    # one pair has no spread: its difference alone must not read as a gain
    assert paired_cli.verdict([1.0], [0.5]) == "unresolved"
    assert paired_cli.verdict([1.0] * 9, [0.5] * 9) == "unresolved"
    # old's quartiles are 1.0175 .. 1.0725; each pair moves by 0.1, more than that
    old = [1.0 + 0.01 * i for i in range(10)]
    assert paired_cli.verdict(old, [o - 0.1 for o in old]) == "gain"
    assert paired_cli.verdict(old, [o + 0.1 for o in old]) == "regression"


def test_flatten_paths():
    rows = render_csv({"b": [10, {"z": 1}], "a": Fraction(1, 2)})
    assert rows.splitlines() == ["key,value", "a,1/2", "b[0],10", "b[1].z,1"]


def test_render_csv_quoting():
    rows = render_csv({"msg": 'has,comma "and" quotes', "n": 3})
    lines = rows.splitlines()
    assert lines[0] == "key,value"
    assert lines[1] == 'msg,"has,comma ""and"" quotes"'
    assert lines[2] == "n,3"
    # a bare carriage return would end the row for a CSV reader
    for end in ("\n", "\r", "\r\n"):
        data = {"file": f"/tmp/h{end}x.csv", "msg": f'a "b"{end}c,d'}
        rows = render_csv(data)
        assert list(csv.reader(io.StringIO(rows, newline=""))) == [
            ["key", "value"],
            ["file", data["file"]],
            ["msg", data["msg"]],
        ]


def test_write_atomic(tmp_path):
    target = tmp_path / "sub" / "report.json"
    reporting.write_atomic(str(target), "content\n")
    assert target.read_text() == "content\n"
    reporting.write_atomic(str(target), "other\n")
    assert target.read_text() == "other\n"
    assert list(tmp_path.glob("sub/.tmp*")) == []


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out) if out else None, err


@pytest.fixture
def built_contexts(monkeypatch):
    """The context of each command run in the test, in order, recorded by
    wrapping the build_context that morsespec.cli calls."""
    built = []
    build = cli.build_context
    monkeypatch.setattr(cli, "build_context", lambda cfg: built.append(build(cfg)) or built[-1])
    return built


def test_certify_theorem_grade(capsys):
    code, report, _ = run_json(capsys, "certify", "--theorem", "3")
    assert code == 0
    assert report["schema"] == "morsespec-report/1"
    assert report["command"] == "certify"
    assert report["config"]["primes"] == [29, 631, 15629]
    cert = report["results"]["certificate"]
    assert cert["status"] == "certified"
    assert cert["total_bound"] == pytest.approx(1.4364526130132576, abs=1e-12)
    assert report["results"]["verdict"]["verdict"] == "non-AT certified"
    assert len(report["results"]["flatness"]) == 3
    assert "timestamp" in report


def test_certify_experimental_is_inconclusive(capsys):
    code, report, _ = run_json(capsys, "certify", "--primes", "5,7")
    assert code == 1
    assert report["results"]["certificate"]["status"] == "inconclusive"
    assert report["results"]["verdict"]["verdict"] == "inconclusive"


def test_certify_deterministic_up_to_timestamp(capsys):
    _, r1, _ = run_json(capsys, "certify", "--theorem", "3")
    _, r2, _ = run_json(capsys, "certify", "--theorem", "3")
    del r1["timestamp"], r2["timestamp"]
    assert r1 == r2


def test_sbh_search_deterministic(capsys):
    argv = ("sbh-search", "--primes", "29", "--k-max", "4", "--seed", "7")
    _, r1, _ = run_json(capsys, *argv)
    _, r2, _ = run_json(capsys, *argv)
    del r1["timestamp"], r2["timestamp"]
    assert r1 == r2


def test_sbh_search_frozen_per_k(capsys):
    code, report, _ = run_json(capsys, "sbh-search", "--primes", "29", "--k-max", "4")
    assert code == 0
    values = [entry["value"] for entry in report["results"]["per_k"]]
    assert values == ["1/1", "32/29", "101/87", "36/29"]
    assert all(entry["mode"] == "exhaustive" for entry in report["results"]["per_k"])
    assert report["results"]["best"]["value"] == "36/29"
    assert report["results"]["falsification"] is False


def test_sbh_search_reports_margins(capsys):
    # the p = 29 density sup is (1 + 1/sqrt(29))^2, and the best Q is 36/29
    code, report, _ = run_json(capsys, "sbh-search", "--primes", "29", "--k-max", "4")
    assert code == 0
    res = report["results"]
    assert res["stage_sup"] == pytest.approx((1 + 29**-0.5) ** 2, rel=1e-12)
    assert res["sup_gap"] == res["stage_sup"] - 36 / 29
    assert res["sup_gap"] > 0


def test_sbh_search_uncertified_stage_is_not_falsified(capsys):
    # Q = 2 is reachable at [5,7] stage 2 (density sup about 2.39), and
    # the configuration has no certificate to falsify
    code, report, _ = run_json(
        capsys, "sbh-search", "--primes", "5,7", "--level", "2", "--k-max", "4"
    )
    assert code == 0
    assert report["results"]["best"]["value"] == "2/1"
    assert report["results"]["falsification"] is False
    assert not any(entry["falsification"] for entry in report["results"]["per_k"])


def test_sbh_search_value_above_density_sup_is_inconsistent(capsys, monkeypatch):
    # the search checks Q against the stage sup, here shrunk below Q = 8/5 at k = 2
    real = spectral.flatness_report
    monkeypatch.setattr(spectral, "flatness_report", lambda p: real(p)._replace(density_sup=1.0))
    code, out, err = run_cli(
        capsys, "sbh-search", "--primes", "5,7", "--level", "2", "--k-max", "2"
    )
    assert code == 2
    assert out == ""
    assert "density sup" in err


def test_sbh_search_k_cap_at_group_order(capsys):
    code, report, _ = run_json(capsys, "sbh-search", "--primes", "3", "--k-max", "9")
    assert code == 0
    assert report["results"]["k_max_effective"] == 3
    assert len(report["results"]["per_k"]) == 3


def test_sbh_search_refuses_an_overflowing_k_before_any_search(capsys, monkeypatch):
    # k = 250 at stage 4 overflows the int64 scores; the refusal comes before
    # the first search, not after the searches for k = 1..203
    def no_search(*args, **kwargs):
        raise AssertionError("a search ran before the k refusal")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "sbh_adversarial_search", no_search)
        code, out, err = run_cli(
            capsys, "sbh-search", "--theorem", "4", "--level", "4", "--k-max", "250"
        )
    assert (code, out) == (64, "")
    score = 250**2 * math.prod(ms.theorem_primes(4))
    assert err == f"budget exceeded: k^2 * |G_4| = {score} overflows the int64 scores\n"
    # a k = 1 probe scores nothing, so it runs at any stage
    code, report, _ = run_json(
        capsys, "sbh-search", "--theorem", "5", "--level", "5", "--k-max", "1"
    )
    assert code == 0 and report["results"]["best"]["value"] == "1/1"


def test_sbh_search_runs_a_p_3_mod_4_prime_past_the_table_budget(capsys, monkeypatch):
    # p = 10^9 + 7 = 3 (mod 4) is past the table budget, but every numerator
    # off 0 is -1, so the search reads no sign and builds no 1 GB mask: a
    # pair of opposite signs reaches the stage sup 1 + 1/p
    def no_signs(p):
        raise AssertionError(f"sign array for {p} built")

    monkeypatch.setattr(charsums, "_quadratic_signs", no_signs)
    argv = ["sbh-search", "--primes", "1000000007", "--k-max", "2"]
    code, report, _ = run_json(capsys, *argv)
    assert code == 0 and report["results"]["best"]["value"] == "1000000008/1000000007"
    code, _, _, rss_mb = run_capped(*argv)
    assert code == 0 and rss_mb < 40
    code, report, _ = run_json(capsys, "sbh-search", "--primes", "1000000007", "--k-max", "1")
    assert code == 0 and report["results"]["best"]["value"] == "1/1"


def test_coeffs_default_level(capsys):
    code, report, _ = run_json(capsys, "coeffs", "--primes", "5,7")
    assert code == 0
    res = report["results"]
    assert res["count"] == 35
    assert res["routes_agree"] is True
    assert res["max_discrepancy"] <= 1e-12


def test_coeffs_explicit_elements(capsys):
    code, report, _ = run_json(capsys, "coeffs", "--primes", "5,7", "1,0", "2,0", "1,1")
    assert code == 0
    rows = report["results"]["rows"]
    assert [row["rational"] for row in rows] == ["1/5", "-3/5", "-1/35"]
    assert rows[0]["element"] == [1, 0]


def test_names_defaults(capsys, tmp_path):
    hist = tmp_path / "hist.csv"
    code, report, _ = run_json(
        capsys, "names", "--primes", "5,7", "--histogram-out", str(hist)
    )
    assert code == 0
    res = report["results"]
    assert res["name_count"] == 70
    assert res["delta_min"] == "1/5"
    assert res["epsilon_used"] == "1/20"
    assert res["ball_bound"] == "1/2"
    assert res["histogram"][0] == {"distance": "1/5", "count": 70}
    assert res["histogram_file"] == str(hist)
    assert hist.read_text().splitlines()[0] == "numerator,denominator,count"


def test_names_trivial_radius(capsys):
    code, report, _ = run_json(
        capsys, "names", "--primes", "5,7", "--epsilon", "1/2"
    )
    assert code == 0
    assert report["results"]["ball_bound"] == "35/1"
    assert "trivial" in report["results"]["interpretation"]


def test_names_theorem_stage(capsys):
    code, report, _ = run_json(capsys, "names", "--theorem", "2")
    assert code == 0
    res = report["results"]
    assert res["name_count"] == 36_598
    assert res["pair_count"] == 669_688_503
    assert res["delta_min"] == "13/29"


def test_names_and_search_at_theorem_stage_4(capsys):
    # the quadratic tables' numerators come from the closed form in O(p),
    # so stage 4 (sum p^2 = 1.5e11) runs
    primes = ms.theorem_primes(4)
    code, report, _ = run_json(capsys, "names", "--theorem", "4")
    assert code == 0
    res = report["results"]
    size = math.prod(primes)
    assert res["name_count"] == 2 * size
    # the largest |c_p(j)| off j = 0 sets the closest pair of names
    largest = max(abs(autocorrelation_closed_form(p, j)) for p in primes for j in range(1, 29))
    assert res["delta_min"] == ms.reporting.rational_str((1 - largest) / 2) == "13/29"
    assert sum(row["count"] for row in res["histogram"]) == res["pair_count"]
    code, report, _ = run_json(capsys, "sbh-search", "--theorem", "4", "--level", "4", "--k-max", "4")
    assert code == 0
    res = report["results"]
    assert res["falsification"] is False
    assert [entry["mode"] for entry in res["per_k"]] == ["exhaustive"] + ["local"] * 3


def test_gauss_check(capsys):
    code, report, _ = run_json(capsys, "gauss-check", "--primes", "5", "--pmax", "60")
    assert code == 0
    res = report["results"]
    assert res["all_ok"] is True
    assert res["primes_checked"] == 16  # odd primes up to 60
    assert res["max_gauss_error"] <= 1e-9
    assert res["max_density_route_error"] <= 1e-12
    assert res["closed_form_matches"] is True
    assert res["flatness_ok"] is True


def _gauss_check_per_element(pmax):
    """charsums.check_prime one x and one shift j at a time: yields each
    odd prime p <= pmax, in order, with its (gauss, parity, flatness,
    density, closed_form_ok), the scalar reference for the whole-array
    checks."""
    for p in [q for q in range(3, pmax + 1) if ms.odometer.is_prime(q)]:
        brute = ms.gauss_sum_all(p)
        gauss = parity = density = 0.0
        low, high = math.inf, 0.0
        for x in range(1, p):
            gauss = max(gauss, abs(brute[x] - ms.gauss_sum(p, x)))
            parity = max(parity, abs(brute[x].imag) if p % 4 == 1 else abs(brute[x].real))
            # np.abs of one element: numpy's vectorised complex modulus,
            # which the array scan uses, may differ from hypot in the last digit
            modulus = np.abs(brute[x : x + 1] + 1)[0] / math.sqrt(p)
            low, high = min(low, modulus), max(high, modulus)
        rep = ms.flatness_report(p)
        flatness = max(abs(low - rep.min_modulus), abs(high - rep.max_modulus))
        table = ms.LegendreTable(p)
        closed_form_ok = all(table.signs[x] == ms.legendre(x, p) for x in range(1, p))
        signs = table.signs.astype(np.int64)
        route = charsums.density_fourier(table, np.arange(p))
        for j in range(p):
            c = autocorrelation_closed_form(p, j)
            closed_form_ok = closed_form_ok and c * p == np.dot(signs, np.roll(signs, -j))
            density = max(density, abs(float(c) - float(route[j])))
        yield p, (gauss, parity, flatness, density, closed_form_ok)


def test_check_prime_matches_per_element_route():
    # exact equality, field by field, at every odd prime up to 100
    for p, values in _gauss_check_per_element(100):
        assert tuple(charsums.check_prime(p)) == values, p


@pytest.mark.parametrize("bad", [11, 13])
def test_check_prime_flags_a_mask_complemented_off_0(monkeypatch, bad):
    squares = charsums._quadratic_signs

    def complemented(p):
        signs = squares(p)
        signs[1:] *= -1
        return signs

    assert charsums.check_prime(bad).closed_form_ok is True
    monkeypatch.setattr(charsums, "_quadratic_signs", complemented)
    assert charsums.check_prime(bad).closed_form_ok is False


@pytest.mark.parametrize("pmax", [100, 300])
def test_gauss_check_matches_per_element_route(capsys, pmax):
    # exact float equality; at pmax 300, np.abs of the complex difference
    # instead of the hypot of its parts changes the last digit
    code, report, _ = run_json(capsys, "gauss-check", "--pmax", str(pmax))
    assert code == 0
    res = report["results"]
    max_gauss = max_parity = max_flatness = max_density = 0.0
    closed_form_ok = True
    worst = None
    for p, (gauss, parity, flatness, density, ok) in _gauss_check_per_element(pmax):
        if gauss > max_gauss:
            max_gauss, worst = gauss, p
        max_parity = max(max_parity, parity)
        max_flatness = max(max_flatness, flatness)
        max_density = max(max_density, density)
        closed_form_ok = closed_form_ok and ok
    assert (
        res["max_gauss_error"],
        res["worst_prime"],
        res["max_parity_error"],
        res["max_density_route_error"],
        res["closed_form_matches"],
    ) == (max_gauss, worst, max_parity, max_density, closed_form_ok)
    assert res["flatness_ok"] is bool(max_flatness <= res["tolerance_transcendental"])


def test_gauss_check_flags_a_wrong_symbol(capsys, monkeypatch):
    real = ms.charsums.legendre_symbols

    def flipped(p):
        symbols = real(p).copy()
        if p == 13:
            symbols[2] = -symbols[2]
        return symbols

    monkeypatch.setattr("morsespec.charsums.legendre_symbols", flipped)
    code, report, _ = run_json(capsys, "gauss-check", "--pmax", "60")
    assert code == 2
    assert report["results"]["all_ok"] is False
    assert report["results"]["closed_form_matches"] is False


@pytest.mark.parametrize("bad", [11, 13])
def test_gauss_check_flags_a_mask_complemented_off_0(capsys, monkeypatch, bad):
    # a mask negated off 0 has window numerators p c(j) - 2 chi(j) - 2 chi(-j):
    # -1 at p = 3 (mod 4) and -2 chi(j) - 1 at p = 1, which the closed form
    # read off that mask matches; only the mask against Euler's criterion
    # tells it from the squares
    squares = ms.charsums._quadratic_signs

    def complemented(p):
        signs = squares(p)
        if p == bad:
            signs[1:] *= -1
        return signs

    monkeypatch.setattr(ms.charsums, "_quadratic_signs", complemented)
    code, report, _ = run_json(capsys, "gauss-check", "--pmax", "60")
    assert code == 2
    assert report["results"]["all_ok"] is False
    assert report["results"]["closed_form_matches"] is False


def test_gauss_check_compares_the_window_route(capsys, monkeypatch):
    # the numerators checked against the closed form are summed over the
    # table; one wrong entry must fail the check
    window = ms.charsums.window_autocorrelation_numerators

    def flipped(signs):
        out = window(signs)
        if len(signs) == 13:
            out[4] = -out[4]
        return out

    monkeypatch.setattr("morsespec.charsums.window_autocorrelation_numerators", flipped)
    code, report, _ = run_json(capsys, "gauss-check", "--pmax", "60")
    assert code == 2
    assert report["results"]["closed_form_matches"] is False
    assert report["results"]["all_ok"] is False


def test_gauss_check_pmax_cap(capsys, monkeypatch):
    def no_scan(*args):
        raise AssertionError("a prime was scanned past the cap")

    monkeypatch.setattr("morsespec.charsums.gauss_sum_all", no_scan)
    code, out, err = run_cli(capsys, "gauss-check", "--pmax", "3001")
    assert code == 64
    assert out == ""
    assert "3000" in err


def test_coeffs_builds_no_all_shift_numerators(capsys, built_contexts):
    # the exact route reads one closed-form numerator per distinct shift
    # off the int8 signs, and the density route caches nothing
    code, report, _ = run_json(capsys, "coeffs", "--theorem", "3", "1,2,3", "5,0,77")
    assert code == 0 and report["results"]["routes_agree"] is True
    (ctx,) = built_contexts
    for table in ctx.tables:
        assert set(table.__dict__) <= {"prime", "signs"}, table.prime


def test_coeffs_level_spec_keeps_its_checks(capsys):
    code, report, _ = run_json(capsys, "coeffs", "--primes", "5,7,11", "level:1")
    assert code == 0
    assert [row["element"] for row in report["results"]["rows"]] == [[r, 0, 0] for r in range(5)]
    code, report, _ = run_json(capsys, "coeffs", "--primes", "5,7", "level:0")
    assert code == 0
    assert report["results"]["rows"][0]["element"] == [0, 0]
    assert report["results"]["rows"][0]["rational"] == "1/1"
    for spec, message in (("level:3", "outside 0..2"), ("level:x", "bad element spec")):
        code, out, err = run_cli(capsys, "coeffs", "--primes", "5,7", spec)
        assert code == 64 and out == "" and message in err
    code, out, err = run_cli(capsys, "coeffs", "--theorem", "3", "level:3")
    assert code == 64 and out == "" and "enumeration budget" in err


def test_gauss_check_leaves_no_table_alive(capsys, monkeypatch):
    # the sweep makes one table per prime, and no table outlives the command
    refs = []
    real = charsums.LegendreTable

    def watched(p):
        table = real(p)
        refs.append(weakref.ref(table))
        return table

    monkeypatch.setattr(charsums, "LegendreTable", watched)
    code, report, _ = run_json(capsys, "gauss-check", "--pmax", "300")
    assert code == 0 and report["results"]["all_ok"] is True
    assert len(refs) == report["results"]["primes_checked"] == 61
    assert [ref() for ref in refs] == [None] * 61


def test_gauss_check_flags_a_flatness_mismatch(capsys, monkeypatch):
    # the closed form must match the FFT scan of |P| within 1e-9
    real = charsums.flatness_report

    def shifted(p):
        rep = real(p)
        if p == 13:
            rep = rep._replace(min_modulus=rep.min_modulus + 1e-6)
        return rep

    monkeypatch.setattr(charsums, "flatness_report", shifted)
    code, report, _ = run_json(capsys, "gauss-check", "--pmax", "60")
    assert code == 2
    assert report["results"]["flatness_ok"] is False
    assert report["results"]["all_ok"] is False


def test_gauss_check_makes_one_prime_length_fft_per_prime(capsys, monkeypatch):
    # the scan of |P| reads sqrt(p) * P = 1 + G off the Gauss sums' own
    # transform; the sign table's prime-length FFT is a test oracle only
    fft = np.fft.fft
    lengths = []

    def counted(a, *args, **kwargs):
        lengths.append(len(a))
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counted)
    code, report, _ = run_json(capsys, "gauss-check", "--pmax", "60")
    assert code == 0 and report["results"]["all_ok"] is True
    assert lengths == [p for p in range(3, 61) if sympy.isprime(p)]
    assert len(lengths) == 16


def test_certify_and_search_run_no_fft_on_quadratic_tables(capsys, monkeypatch, built_contexts):
    # flatness and the density sups come from the Gauss sums: no FFT runs,
    # and no table keeps P afterwards
    def no_fft(*args, **kwargs):
        raise AssertionError("an FFT ran for a quadratic table")

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, no_fft)
    code, report, _ = run_json(capsys, "certify", "--theorem", "4")
    assert code == 0 and report["results"]["certificate"]["status"] == "certified"
    code, report, _ = run_json(capsys, "sbh-search", "--primes", "29", "--k-max", "4")
    assert code == 0 and report["results"]["stage_sup"] == (1 + 1 / 29**0.5) ** 2
    # certify reads no sign; the search builds the signs it reads
    certify_ctx, search_ctx = built_contexts
    assert [set(t.__dict__) for t in certify_ctx.tables] == [{"prime"}] * 4
    assert [set(t.__dict__) for t in search_ctx.tables] == [{"prime", "signs"}]


def test_theorem_stage_6_builds_no_table(capsys, monkeypatch):
    # the certificate, the name counts and a k = 1 search need only the
    # primes; the squares mask of p_5 = 244 140 683 alone would take 244 MB
    def no_table(p):
        raise AssertionError(f"table for {p} built")

    monkeypatch.setattr("morsespec.charsums._quadratic_signs", no_table)
    code, stage5, _ = run_json(capsys, "certify", "--theorem", "5")
    assert code == 0
    code, report, _ = run_json(capsys, "certify", "--theorem", "6")
    assert code == 0
    res = report["results"]
    assert res["verdict"]["verdict"] == "non-AT certified"
    assert res["certificate"]["total_bound"] <= stage5["results"]["certificate"]["total_bound"]
    code, report, _ = run_json(capsys, "names", "--theorem", "6")
    assert code == 0
    res = report["results"]
    assert res["delta_min"] == "13/29"
    assert res["pair_count"] == math.comb(2 * math.prod(ms.theorem_primes(6)), 2)
    argv = ("sbh-search", "--theorem", "6", "--level", "6", "--k-max", "1")
    code, report, _ = run_json(capsys, *argv)
    assert code == 0
    assert report["results"]["best"]["value"] == "1/1"


def test_float_range_primes_are_refused_where_a_float_is_formed(capsys):
    # certify and sbh-search read the Gauss-sum sups, floats in 1/sqrt(p);
    # names stays in exact integers and answers for the same primes
    primes = f"100000000000000000039,{sympy.nextprime(10**309)}"
    for argv in (["certify"], ["sbh-search", "--k-max", "1"]):
        code, out, err = run_cli(capsys, *argv, "--primes", primes)
        assert (code, out) == (64, ""), argv
        assert err == "configuration error: a prime of 1027 bits is past the float range\n"
    code, report, err = run_json(capsys, "names", "--primes", primes)
    assert (code, err) == (0, "")
    assert report["results"]["delta_min"] == "50000000000000000019/100000000000000000039"


# address space each capped child may map: a p_6 squares mask alone is 6 GB
CHILD_ADDRESS_SPACE = 1 << 30


def run_capped(*argv):
    """Run `python -m morsespec.cli <argv>` in a child whose address space is
    capped at CHILD_ADDRESS_SPACE (setrlimit in the child only), so a
    regression that builds a huge table fails at once instead of exhausting
    the machine.  Returns the exit code, stdout, stderr and the child's own
    peak RSS in MB (nan if it exited without reporting one), as
    scripts/paired_cli.py reads it."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))

    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        code, _, rss_mb = paired_cli.run(SRC, list(argv), out, err, preexec_fn=cap)
        out.seek(0)
        err.seek(0)
        return code, out.read().decode(), err.read().decode(), rss_mb


@pytest.mark.parametrize(
    "argv",
    [
        ("certify", "--theorem", "7"),
        ("certify", "--theorem", "12"),
        ("names", "--theorem", "10"),
        ("names", "--theorem", "12"),
        ("sbh-search", "--theorem", "10", "--level", "10", "--k-max", "1"),
    ],
)
def test_theorem_stages_7_to_12_run_in_small_memory(argv):
    code, out, err, rss_mb = run_capped(*argv)
    assert (code, err) == (0, ""), argv
    assert json.loads(out)["results"]
    assert rss_mb < 128, argv


def test_search_at_theorem_stage_4_fits_its_budget():
    # the search reads the pair terms off the collapsed Jacobi sum at the
    # members' differences: no array of the p_3 = 390 647 numerators, and
    # only 29 and p_2 = 15 629, the primes = 1 (mod 4), build their signs
    code, out, err, rss_mb = run_capped("sbh-search", "--theorem", "4", "--level", "4", "--k-max", "4")
    assert (code, err) == (0, "")
    assert json.loads(out)["results"]["falsification"] is False
    assert rss_mb < 31


def test_search_runs_wherever_every_stage_prime_has_a_table():
    # 10 000 019 is past the old 2^21 lookup budget and under the table's;
    # at p = 3 (mod 4) the search reads no sign, and it holds no array of
    # p numerators (one of int64 would be 80 MB)
    assert sympy.isprime(10_000_019)
    code, out, err, rss_mb = run_capped("sbh-search", "--primes", "10000019", "--k-max", "2")
    assert (code, err) == (0, "")
    # p = 3 (mod 4): a pair reaches the stage sup 1 + 1/p
    assert json.loads(out)["results"]["best"]["value"] == "10000020/10000019"
    assert rss_mb < 48
    # p = 1 (mod 4): the search reads the 9.8 MB int8 signs, at the
    # members' differences only
    assert sympy.isprime(9_765_629) and 9_765_629 % 4 == 1
    code, out, err, rss_mb = run_capped("sbh-search", "--primes", "9765629", "--k-max", "3")
    assert (code, err) == (0, "")
    assert json.loads(out)["results"]["falsification"] is False
    assert rss_mb < 48


def test_names_at_theorem_stage_13_fits_its_budget():
    code, out, err, rss_mb = run_capped("names", "--theorem", "13")
    assert (code, err) == (0, "")
    assert rss_mb < 100
    results = json.loads(out)["results"]
    assert results["delta_min"] == "13/29"
    assert len(results["histogram"]) == 81_919
    assert sum(row["count"] for row in results["histogram"]) == results["pair_count"]


def test_capped_runs_read_the_childs_own_peak():
    # a touched 200 MB in this process: rusage would report at least that
    # for every child, the child's own high-water mark does not
    ballast = bytearray(b"\1") * (200 << 20)
    code, _, _, small = run_capped("sbh-search", "--theorem", "10", "--level", "10", "--k-max", "1")
    assert (code, len(ballast)) == (0, 200 << 20)
    assert small < 64
    # the same reading in scripts/paired_cli.py, uncapped, and for the bare
    # import it runs when given no arguments
    code, cpu_s, small = paired_cli.run(SRC, ["certify", "--theorem", "3"])
    assert code == 0 and 0 < small < 32 and cpu_s > 0
    code, _, small = paired_cli.run(SRC, [])
    assert code == 0 and 0 < small < 32
    # the reading still sees the child's own growth: the density route at
    # p = 3 000 017 holds the spectra of 32 blocks of 93 751 signs, each
    # zero-padded to 192 000 points, and the command peaks at about 88 MB,
    # against a bare child's 30 MB
    code, _, _, large = run_capped("coeffs", "--primes", "3000017", "1")
    assert code == 0 and large > 70


@pytest.mark.parametrize(
    "argv, first_words",
    [
        (("names", "--theorem", "14"), "budget exceeded: stage 14 has at least 81920 distinct coefficient values"),
        (
            ("sbh-search", "--primes", "6103515637", "--k-max", "2"),
            "budget exceeded: the sign table of 6103515637 needs 6103515637 residues, budget is 16777216",
        ),
        (("certify", "--primes", str(2**1024 + 643)), "configuration error: a prime of 1025 bits"),
        (("sbh-search", "--k-max", "1", "--primes", str(2**1024 + 643)), "configuration error: a prime of 1025 bits"),
    ],
)
def test_refusals_past_the_budgets_and_ranges_are_one_line(argv, first_words):
    code, out, err, _ = run_capped(*argv)
    assert (code, out) == (64, "")
    assert err.startswith(first_words) and err.count("\n") == 1, err


def test_tables_build_their_signs_on_first_read(capsys, built_contexts):
    for argv in (["certify"], ["names"], ["sbh-search", "--k-max", "1"]):
        code, _, _ = run_cli(capsys, *argv, "--theorem", "1")
        assert code == 0
        (table,) = built_contexts[-1].tables
        assert set(table.__dict__) == {"prime"}, argv
    code, _, _ = run_cli(capsys, "sbh-search", "--theorem", "1", "--k-max", "4")
    assert code == 0
    (table,) = built_contexts[-1].tables
    assert "signs" in table.__dict__
    assert table.signs.tolist() == [ms.legendre(k, 29) or 1 for k in range(29)]


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name, argv",
    [
        ("certify_theorem_3", ["certify", "--theorem", "3"]),
        ("names_5_7_11", ["names", "--primes", "5,7,11"]),
        ("sbh_search_29_k4_seed1", ["sbh-search", "--primes", "29", "--k-max", "4", "--seed", "1"]),
        (
            "sbh_search_5_7_11_level3_k6_seed1",
            ["sbh-search", "--primes", "5,7,11", "--level", "3", "--k-max", "6", "--seed", "1"],
        ),
        ("coeffs_5_7", ["coeffs", "--primes", "5,7"]),
        (
            "coeffs_theorem_3_elements",
            ["coeffs", "--theorem", "3", "1,2,3", "0,0,0", "28,630,15628", "5,0,77", "0,1"],
        ),
        ("coeffs_5_7_csv", ["coeffs", "--primes", "5,7", "--format", "csv"]),
        ("gauss_check_300", ["gauss-check", "--pmax", "300"]),
        ("certify_theorem_3", ["certify", "--theorem", "3", "--format", "csv"]),
        ("names_theorem_6", ["names", "--theorem", "6"]),
        ("certify_theorem_6", ["certify", "--theorem", "6"]),
        ("certify_5_7", ["certify", "--primes", "5,7"]),
        ("certify_29_assume_tail_rule", ["certify", "--primes", "29", "--assume-tail-rule"]),
        ("names_5_7_11_csv", ["names", "--primes", "5,7,11", "--format", "csv"]),
        (
            "sbh_search_29_k4_seed1_csv",
            ["sbh-search", "--primes", "29", "--k-max", "4", "--seed", "1", "--format", "csv"],
        ),
        # theta padded past the stage; exhaustive for k <= 3, local for k = 4, 5
        (
            "sbh_search_5_7_11_level2_k5_seed2",
            ["sbh-search", "--primes", "5,7,11", "--level", "2", "--k-max", "5", "--seed", "2"],
        ),
        # negative, past-int64 and short element specs
        (
            "coeffs_5_7_elements",
            ["coeffs", "--primes", "5,7", "--", "1,2", "-3,9", "99999999999999999999999,1", "0"],
        ),
        # the first search golden with a stage prime past 29: theorem stage 4
        (
            "sbh_search_theorem_4_level4_k4",
            ["sbh-search", "--theorem", "4", "--level", "4", "--k-max", "4"],
        ),
        # the last stage whose primes are all below the Miller-Rabin bound
        ("certify_theorem_17", ["certify", "--theorem", "17"]),
        # the sweep of the prime-sweep benchmark workload
        ("gauss_check_1000", ["gauss-check", "--pmax", "1000"]),
    ],
)
def test_reports_match_golden(capsys, name, argv):
    """stdout minus the timestamp line is byte-identical to a report saved
    from an earlier version of the program; criterion 10 only compares
    reruns of the same code.  Regenerate a file only for an intended
    report change, with `python -m morsespec.cli <argv> > tests/golden/<name>.<format>`."""
    fmt = "csv" if "csv" in argv else "json"
    code, out, _ = run_cli(capsys, *argv)
    # the one inconclusive verdict: experimental mode bounds no tail
    assert code == (1 if name == "certify_5_7" else 0)
    assert strip_timestamp(out) == strip_timestamp((GOLDEN / f"{name}.{fmt}").read_text())


def strip_timestamp(text):
    return re.sub(r'^(\s*"timestamp": "[^"]*",?|timestamp,.*)\n', "", text, flags=re.MULTILINE)


def test_certify_names_the_first_probable_prime(capsys):
    # p_17 is the first theorem prime past the deterministic Miller-Rabin
    # bound: from stage 18 the verdict lists what its primality rests on
    p17 = ms.theorem_primes(18)[17]
    assert ms.odometer._MR_LIMIT <= p17
    code, report, _ = run_json(capsys, "certify", "--theorem", "18")
    assert code == 0
    assert report["results"]["verdict"]["assumptions"][1:] == [
        f"{p17} and every later configured prime passed the strong BPSW "
        "probable-prime test, not a proof of primality"
    ]
    # in any mode (golden certify_theorem_17 holds the stage before)
    ctx = ms.build_context(ms.make_group_config([5, p17]))
    assert str(p17) in ms.sbh_verdict(ctx).assumptions[-1]


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("json", "c069c14b7c3c7d42ceafab0909c71d0f01604c6370fda7ab5724a9f2c0ba46bc"),
        ("csv", "2dba1ca0205942e9e61e177ff51cd7759bae1b33bd9b1bea2c0d281475ea3fc1"),
    ],
)
def test_largest_coeffs_report_is_pinned(capsys, fmt, digest):
    """The 5005-row coeffs report, too large for a golden file, by the
    SHA-256 of its timestamp-stripped stdout: its rows cross every batch
    edge of the writers.  Re-pin only for an intended report change."""
    code, out, _ = run_cli(capsys, "coeffs", "--primes", "5,7,11,13", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(strip_timestamp(out).encode()).hexdigest() == digest


def test_coeffs_spec_starting_with_a_minus_needs_a_double_dash(capsys):
    # argparse reads -3,9 as an option; after `--` it is an element spec
    # (golden coeffs_5_7_elements)
    code, out, err = run_cli(capsys, "coeffs", "--primes", "5,7", "1,2", "-3,9")
    assert (code, out) == (64, "")
    assert err.count("\n") == 1 and "-3,9" in err, err


def test_usage_errors(capsys):
    cases = [
        ("certify", "--primes", "4,7"),             # 4 is not prime
        ("certify", "--primes", "5", "--theorem", "2"),
        ("certify",),                               # no group at all
        ("coeffs", "--primes", "5,7", "9,9,9"),     # element too wide
        ("certify", "--theorem", "3", "--split-level", "-1"),
        ("sbh-search", "--primes", "29", "--budget", "0"),
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 64, argv
        assert out == ""
        assert err


@pytest.mark.parametrize(
    "argv",
    [
        # nan passes a "<= 0" test and then fails every comparison: a false exit 2
        ("coeffs", "--primes", "5,7", "--tolerance-numeric", "nan"),
        # inf turns the route comparison off
        ("coeffs", "--primes", "5,7", "--tolerance-numeric", "inf"),
        ("gauss-check", "--pmax", "5", "--tolerance-transcendental", "nan"),
        ("names", "--primes", "5,7", "--epsilon", "-1"),
    ],
)
def test_bad_numeric_flags_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 64
    assert out == ""
    assert argv[-1] in err


def test_bad_numeric_config_values_are_usage_errors(capsys, tmp_path):
    for line in ("tolerance_numeric = inf", "epsilon = -1/20"):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"primes = 5,7\n{line}\n")
        code, out, err = run_cli(capsys, "names", "--config", str(cfg))
        assert code == 64, line
        assert out == ""
        assert line.split(" = ")[1] in err


def test_theorem_stages_past_the_int64_tables_read_no_sign(capsys, monkeypatch):
    # p_6 = 6 103 515 637 squares residues past int64, but the certificate,
    # the name counts and a k = 1 search need only the primes
    def no_table(p):
        raise AssertionError(f"table for {p} built")

    monkeypatch.setattr("morsespec.charsums._quadratic_signs", no_table)
    code, stage6, _ = run_json(capsys, "certify", "--theorem", "6")
    assert code == 0
    for stage in ("7", "10"):
        code, report, err = run_json(capsys, "certify", "--theorem", stage)
        assert (code, err) == (0, ""), stage
        res = report["results"]
        assert res["verdict"]["verdict"] == "non-AT certified"
        assert res["certificate"]["total_bound"] <= stage6["results"]["certificate"]["total_bound"]
    code, report, err = run_json(capsys, "names", "--theorem", "10")
    assert (code, err) == (0, "")
    assert report["results"]["delta_min"] == "13/29"
    argv = ("sbh-search", "--theorem", "10", "--level", "10", "--k-max", "1")
    code, report, err = run_json(capsys, *argv)
    assert (code, err) == (0, "")
    assert report["results"]["best"]["value"] == "1/1"


def test_coeffs_checks_every_prime_against_the_fft_budget(capsys, monkeypatch):
    # the table budget bounds the density FFT as well: a budget of 6
    # residues refuses 7, on fresh tables, before either route reads a
    # sign or runs an FFT
    def refused(*args):
        raise AssertionError("read past the budget check")

    monkeypatch.setattr(charsums, "_TABLE_BUDGET", 6)
    monkeypatch.setattr(charsums, "_quadratic_signs", refused)
    monkeypatch.setattr(np.fft, "rfft", refused)
    code, out, err = run_cli(capsys, "coeffs", "--primes", "5,7")
    assert (code, out) == (64, "")
    assert err == "budget exceeded: the sign table of 7 needs 7 residues, budget is 6\n"


def test_coeffs_refuses_theorem_6_before_any_table_work(capsys, monkeypatch):
    # p_5 = 244 140 683 would transform about 4.9e8 points: tens of GB of
    # FFT scratch.  Never run this command unguarded; here a missing guard
    # fails at once, at the first sign or FFT
    def refused(*args):
        raise AssertionError("read past the budget check")

    monkeypatch.setattr(charsums, "_quadratic_signs", refused)
    monkeypatch.setattr(np.fft, "rfft", refused)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "coeffs", "--theorem", "6", "1,2,3,4,5,6")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (64, "")
    assert err == "budget exceeded: the sign table of 244140683 needs 244140683 residues, budget is 16777216\n"


def test_bad_format_flag(capsys):
    code, _, err = run_cli(capsys, "certify", "--theorem", "3", "--format", "xml")
    assert code == 64
    assert err


def test_config_file_and_flag_precedence(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nprimes = 5,7\nk-max = 2\n\nseed = 9\n")
    code, report, _ = run_json(
        capsys, "sbh-search", "--config", str(cfg), "--primes", "29"
    )
    assert code == 0
    assert report["config"]["primes"] == [29]      # flag beats file
    assert report["config"]["k_max"] == 2          # file beats default
    assert report["config"]["seed"] == 9
    assert len(report["results"]["per_k"]) == 2


@pytest.mark.parametrize(
    "file_lines, argv, primes, mode",
    [
        # a flag choosing the group replaces the file's choice, whichever key each uses
        ("theorem = 2\n", ["--primes", "29"], [29], "experimental"),
        ("primes = 5,7\n", ["--theorem", "2"], [29, 631], "theorem-grade"),
        ("primes = 5,7\ntheorem = 2\n", ["--primes", "29"], [29], "experimental"),
    ],
    ids=["file-theorem-flag-primes", "file-primes-flag-theorem", "file-both-flag-primes"],
)
def test_group_flag_replaces_the_files_group(capsys, tmp_path, file_lines, argv, primes, mode):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(file_lines + "seed = 9\n")
    code, report, _ = run_json(capsys, "names", "--config", str(cfg), *argv)
    assert code == 0
    assert report["config"]["primes"] == primes
    assert report["config"]["mode"] == mode
    assert report["config"]["seed"] == 9  # the rest of the file still applies


def test_both_group_keys_in_one_layer_are_a_usage_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "names", "--primes", "5", "--theorem", "3")
    assert (code, out) == (64, "")
    assert "not both" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("primes = 5\ntheorem = 3\n")
    code, out, err = run_cli(capsys, "names", "--config", str(cfg))
    assert (code, out) == (64, "")
    assert "not both" in err


# one sample per RunConfig field, each unlike its default; a new field needs one here
OPTION_SAMPLES = {
    "primes": ("5,7", (5, 7)),
    "theorem": ("2", 2),
    "level": ("3", 3),
    "k_max": ("5", 5),
    "seed": ("7", 7),
    "budget": ("1000", 1000),
    "restarts": ("3", 3),
    "epsilon": ("1/20", Fraction(1, 20)),
    "split_level": ("1", 1),
    "assume_tail_rule": ("true", True),
    "tolerance_numeric": ("1e-10", 1e-10),
    "tolerance_transcendental": ("1e-8", 1e-8),
    "format": ("csv", "csv"),
    "out": ("report.json", "report.json"),
    "histogram_out": ("hist.csv", "hist.csv"),
    "pmax": ("50", 50),
}


@pytest.mark.parametrize("name", cli.RunConfig._fields)
def test_flag_and_config_keys_agree(tmp_path, name):
    text, expected = OPTION_SAMPLES[name]
    assert getattr(cli.RunConfig(), name) != expected
    flag = "--" + name.replace("_", "-")
    flag_argv = [flag] if isinstance(expected, bool) else [flag, text]
    argv = ["certify", *flag_argv]
    configs = [cli.build_run_config(cli._build_parser(argv).parse_args(argv))]
    for key in {name, name.replace("_", "-")}:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {text}\n")
        argv = ["certify", "--config", str(cfg)]
        args = cli._build_parser(argv).parse_args(argv)
        configs.append(cli.build_run_config(args))
    for rc in configs:
        assert rc == cli.RunConfig()._replace(**{name: expected})


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_each_command_help_lists_every_option(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    words = set(capsys.readouterr().out.split())
    flags = {"--" + name.replace("_", "-") for name in cli.RunConfig._fields}
    assert flags | {"--config"} <= words
    assert ("elements" in words) == (command == "coeffs")


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "usage error: the following arguments are required: command\n"),
        (
            ["bogus", "--primes", "5"],
            "usage error: argument command: invalid choice: 'bogus' (choose from "
            "'certify', 'coeffs', 'names', 'sbh-search', 'gauss-check')\n",
        ),
    ],
)
def test_missing_or_unknown_command_is_a_usage_error(capsys, argv, message):
    assert run_cli(capsys, *argv) == (64, "", message)


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        *([command, "--help"] for command in cli._COMMANDS),
        [],
        ["bogus"],
        ["--help", "certify"],
        ["certify", "--bogus"],
    ],
)
def test_one_subcommand_parser_answers_as_all_five_do(argv):
    # every parser lists all five commands for the help and the errors,
    # and only the subcommand argv invokes carries the run options
    subparsers = cli._build_parser(argv)._actions[-1].choices
    assert list(subparsers) == list(cli._COMMANDS)
    invoked = [arg for arg in argv if arg in cli._COMMANDS]
    for command, parser in subparsers.items():
        options = {option for action in parser._actions for option in action.option_strings}
        assert ("--primes" in options) == (command in invoked), (argv, command)


def test_config_echo_keys():
    cfg = ms.make_group_config((5, 7))
    echo = cli._config_echo(cli.RunConfig(primes=(5, 7), seed=3), cfg)
    assert set(echo) == {
        "primes", "mode", "level", "k_max", "seed", "budget", "restarts", "epsilon",
        "split_level", "assume_tail_rule", "tolerance_numeric",
        "tolerance_transcendental", "format", "pmax",
    }
    assert (echo["primes"], echo["mode"], echo["seed"]) == ([5, 7], "experimental", 3)
    assert cli._config_echo(cli.RunConfig(), None)["primes"] is None


def test_cache_dir_option_removed(capsys, tmp_path):
    # the disk caches are gone; their flag and config key must fail loudly
    code, out, err = run_cli(
        capsys, "certify", "--primes", "5,7", "--cache-dir", str(tmp_path)
    )
    assert code == 64
    assert out == ""
    assert "--cache-dir" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("primes = 5,7\ncache_dir = x\n")
    code, out, err = run_cli(capsys, "certify", "--config", str(cfg))
    assert code == 64
    assert out == ""
    assert "cache_dir" in err


def test_certify_lists_asserted_tail_rule(capsys):
    code, report, _ = run_json(capsys, "certify", "--primes", "29", "--assume-tail-rule")
    assert code == 0
    verdict = report["results"]["verdict"]
    assert verdict["verdict"] == "non-AT certified"
    assert len(verdict["assumptions"]) == 2
    assert "growth floor" in verdict["assumptions"][1]


@pytest.mark.parametrize(
    "line", ["primes = 5,x", "epsilon = 1/0", "assume_tail_rule = maybe", "level = x"]
)
def test_bad_config_values_name_their_file_and_line(capsys, tmp_path, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"seed = 1\n{line}\n")
    code, out, err = run_cli(capsys, "names", "--config", str(cfg))
    assert (code, out) == (64, "")
    key = line.split(" = ")[0]
    assert err.startswith(f"usage error: {cfg}:2: bad value for {key}: "), err


def test_config_file_that_is_not_utf8_is_a_usage_error(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"primes = 5,7\n# caf\xe9\n")
    code, out, err = run_cli(capsys, "names", "--config", str(cfg))
    assert (code, out) == (64, "")
    assert err.startswith(f"usage error: cannot read config file {cfg}: ")
    assert len(err.splitlines()) == 1


def test_config_file_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("primes = 5,7\nmystery = 1\n")
    code, _, err = run_cli(capsys, "certify", "--config", str(cfg))
    assert code == 64
    assert "mystery" in err


def test_csv_format(capsys):
    code, out, _ = run_cli(capsys, "certify", "--theorem", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert "results.certificate.status,certified" in lines


def test_out_file_matches_stdout(capsys, tmp_path):
    target = tmp_path / "report.json"
    for argv in (
        ["certify", "--theorem", "3"],
        ["coeffs", "--primes", "5,7,11,13"],
        ["coeffs", "--primes", "5,7,11,13", "--format", "csv"],
    ):
        code, out, _ = run_cli(capsys, *argv, "--out", str(target))
        assert code == 0
        assert target.read_text() == out


def test_out_files_get_the_umask_mode(capsys, tmp_path):
    for umask, mode in ((0o022, 0o644), (0o027, 0o640)):
        report, hist = tmp_path / f"{umask:o}.json", tmp_path / f"{umask:o}.csv"
        old = os.umask(umask)
        try:
            code, _, _ = run_cli(
                capsys, "names", "--primes", "5,7", "--out", str(report), "--histogram-out", str(hist)
            )
        finally:
            os.umask(old)
        assert code == 0
        assert stat.S_IMODE(report.stat().st_mode) == mode
        assert stat.S_IMODE(hist.stat().st_mode) == mode


def test_unwritable_out_is_a_usage_error(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    target = blocker / "report.json"  # a path below a regular file
    code, out, err = run_cli(capsys, "certify", "--theorem", "3", "--out", str(target))
    assert code == 64
    assert out == ""
    assert err.startswith(f"usage error: cannot write {target}")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, read",
    [
        (["coeffs", "--primes", "5,7,11,13"], 100),  # a 1 MB report
        (["coeffs", "--primes", "5,7,11,13", "--out", "{tmp}/r.json"], 100),
        (["gauss-check", "--pmax", "3"], 0),  # all of it still buffered at the close
    ],
)
def test_closed_stdout_is_a_usage_error(tmp_path, argv, read):
    # the reader takes `read` bytes and closes the pipe; stdout is block
    # buffered, as for a user, so the flush at exit has bytes left to fail on
    # unless the process entry has put them aside
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    proc = subprocess.Popen(
        [sys.executable, "-m", "morsespec.cli", *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(read)) == read
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 64, err
    assert err.startswith("usage error: cannot write stdout: ")
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.parametrize("out", [False, True])
def test_stdout_closed_at_start_is_a_usage_error(tmp_path, out):
    # with file descriptor 1 closed when the process starts, sys.stdout is None
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    target = tmp_path / "r.json"
    argv = ["certify", "--theorem", "2", *(["--out", str(target)] if out else [])]
    proc = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "morsespec.cli", *argv],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert proc.returncode == 64, proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("usage error: cannot write stdout: ")
    if out:
        # the file is written before stdout is tried
        assert json.loads(target.read_text())["command"] == "certify"


def test_unwritable_histogram_out_is_a_usage_error(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    target = blocker / "hist.csv"
    code, out, err = run_cli(capsys, "names", "--primes", "5,7", "--histogram-out", str(target))
    assert code == 64
    assert out == ""
    assert err.startswith(f"usage error: cannot write {target}")
    assert len(err.splitlines()) == 1


def test_config_digest_in_report_tracks_config(capsys):
    _, r1, _ = run_json(capsys, "certify", "--theorem", "3")
    _, r2, _ = run_json(capsys, "certify", "--theorem", "3", "--seed", "5")
    assert r1["config_digest"] != r2["config_digest"]
    assert r1["config_digest"] == reporting.config_digest(r1["config"])
