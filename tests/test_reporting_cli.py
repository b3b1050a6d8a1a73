import dataclasses
import functools
import hashlib
import importlib
import json
import math
import os
import re
import stat
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import morsespec as ms
import morsespec.cli as cli
from morsespec import reporting


def test_rational_round_trip():
    for frac in (Fraction(1, 5), Fraction(-3, 7), Fraction(0), Fraction(4), Fraction(36, 29)):
        assert Fraction(reporting.rational_str(frac)) == frac
    assert reporting.rational_str(Fraction(2)) == "2/1"


def test_to_builtin_conversions():
    @dataclasses.dataclass
    class Box:
        x: Fraction
        y: tuple

    data = {
        "f": Fraction(1, 3),
        "arr": np.array([1.0, 2.0]),
        "scalar": np.float64(0.5),
        "box": Box(x=Fraction(-1, 7), y=(1, 2)),
        "nested": [Fraction(2, 5), {"inner": np.int64(3)}],
    }
    out = reporting.to_builtin(data)
    assert out["f"] == "1/3"
    assert out["arr"] == [1.0, 2.0]
    assert out["scalar"] == 0.5
    assert out["box"] == {"x": "-1/7", "y": [1, 2]}
    assert out["nested"] == ["2/5", {"inner": 3}]
    json.dumps(out)  # everything must be JSON-serializable


def test_canonical_json_is_sorted_and_terminated():
    text = reporting.canonical_json({"b": 1, "a": {"d": 2, "c": 3}})
    assert text.index('"a"') < text.index('"b"')
    assert text.index('"c"') < text.index('"d"')
    assert text.endswith("\n")


def json_oracle(data):
    """The reference rendering canonical_json must reproduce byte for byte."""
    return json.dumps(reporting.to_builtin(data), sort_keys=True, indent=2) + "\n"


@dataclasses.dataclass
class Pair:
    rational: Fraction
    payload: object


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


class Lazy(list):
    """A list that fresh() turns into a new single-pass generator."""


def fresh(tree):
    """A copy of tree with a new generator for each Lazy list, so that
    each rendering of it reads the generators once."""
    if isinstance(tree, Lazy):
        return (fresh(v) for v in tree)
    if isinstance(tree, dict):
        return {k: fresh(v) for k, v in tree.items()}
    if isinstance(tree, (list, tuple)):
        return type(tree)(fresh(v) for v in tree)
    if isinstance(tree, Pair):
        return Pair(rational=tree.rational, payload=fresh(tree.payload))
    return tree


report_trees = st.recursive(
    report_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(Lazy),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4) | st.integers(-3, 3), children, max_size=4),
        st.builds(Pair, rational=st.fractions(), payload=children),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(data=report_trees)
def test_canonical_json_matches_json_dumps(data):
    expected = json_oracle(fresh(data))
    assert "".join(reporting.json_pieces(fresh(data))) == expected
    assert reporting.canonical_json(fresh(data)) == expected
    # read lazily, CSV flattens the same rows as from a materialised copy
    assert reporting.render_csv(fresh(data)) == reporting.render_csv(
        reporting.to_builtin(fresh(data))
    )


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_streamed_report_heap_stays_far_below_its_length(fmt):
    # a writer that renders the whole report first holds at least its length
    rows = ({"element": [i, 3], "numeric": i / 7} for i in range(50_000))
    report = {"results": {"rows": rows, "count": 50_000}}
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
        7: {"empty_list": [], "empty_dict": {}, "empty_tuple": ()},
        "array": np.arange(6.0).reshape(2, 3),
        "objects": np.array([Fraction(1, 3), None], dtype=object),
        "pair": Pair(rational=Fraction(-2, 4), payload=(np.int64(-5), np.bool_(True))),
    }
    assert reporting.canonical_json(data) == json_oracle(data)
    assert reporting.canonical_json([]) == "[]\n"
    assert reporting.canonical_json(Fraction(3)) == '"3/1"\n'


@pytest.mark.parametrize("bad", [{1, 2}, 1j, object(), np.complex128(1j), [b"bytes"]])
def test_canonical_json_rejects_what_json_rejects(bad):
    data = {"ok": 1, "bad": bad}
    with pytest.raises(TypeError):
        json_oracle(data)
    with pytest.raises(TypeError, match="not JSON serializable"):
        reporting.canonical_json(data)


def test_config_digest_stability():
    d1 = reporting.config_digest({"a": 1, "b": "x"})
    d2 = reporting.config_digest({"b": "x", "a": 1})
    d3 = reporting.config_digest({"a": 2, "b": "x"})
    assert d1 == d2
    assert d1 != d3
    assert len(d1) == 16


def test_config_digest_is_sha256():
    data = {"primes": [29, 631], "epsilon": Fraction(1, 20), "seed": 0}
    blob = json.dumps(reporting.to_builtin(data), sort_keys=True, separators=(",", ":"))
    assert reporting.config_digest(data) == hashlib.sha256(blob.encode()).hexdigest()[:16]


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


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_cli_import_runs_blas_on_one_thread():
    code = (
        "import os, morsespec.cli\n"
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


def test_lazy_exports_are_the_submodules_objects():
    for module, names in ms._EXPORTS.items():
        sub = importlib.import_module(f"morsespec.{module}")
        for name in names:
            assert getattr(ms, name) is getattr(sub, name), name
    assert sorted(ms.__all__) == sorted(n for names in ms._EXPORTS.values() for n in names)
    assert set(ms.__all__) <= set(dir(ms))
    with pytest.raises(AttributeError, match="no_such_name"):
        ms.no_such_name


def test_flatten_paths():
    flat = reporting.flatten({"b": [10, {"z": 1}], "a": Fraction(1, 2)})
    assert flat == [
        ("a", Fraction(1, 2)),
        ("b[0]", 10),
        ("b[1].z", 1),
    ]


def test_render_csv_quoting():
    rows = reporting.render_csv({"msg": 'has,comma "and" quotes', "n": 3})
    lines = rows.splitlines()
    assert lines[0] == "key,value"
    assert lines[1] == 'msg,"has,comma ""and"" quotes"'
    assert lines[2] == "n,3"


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
    real = cli.sbh_adversarial_search

    def inflated(*args, **kwargs):
        result = real(*args, **kwargs)
        probe = dataclasses.replace(result.probe, value=Fraction(3))
        return dataclasses.replace(result, probe=probe)

    monkeypatch.setattr(cli, "sbh_adversarial_search", inflated)
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


def _custom_tables(p):
    """The Legendre table with the square 1 flipped: not the quadratic
    character, so its numerators need the window route."""
    signs = ms.legendre_table.__wrapped__(p).signs.copy()
    signs[1] = -1
    return ms.LegendreTable(prime=p, signs=signs)


def test_names_budget_exceeded(capsys, monkeypatch):
    # on tables other than the quadratic character, stage 4 of the theorem
    # primes needs about 1.5e11 exact window terms; the budget refuses it
    # before any scan
    def no_scan(*args):
        raise AssertionError("autocorrelation scanned past the budget")

    monkeypatch.setattr("morsespec.cocycle.legendre_table", _custom_tables)
    monkeypatch.setattr("morsespec.charsums.window_autocorrelation_numerators", no_scan)
    monkeypatch.setattr("morsespec.diagnostics.autocorrelation_numerators", no_scan)
    code, out, err = run_cli(capsys, "names", "--theorem", "4")
    assert code == 64
    assert out == ""
    assert "budget" in err


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
    largest = max(abs(ms.autocorrelation_closed_form(p, j)) for p in primes for j in range(1, 29))
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
    """The gauss-check sweep one x and one shift j at a time: the scalar
    reference for the whole-array checks in cli.cmd_gauss_check."""
    max_gauss = max_parity = max_density = 0.0
    closed_form_ok = True
    worst = None
    for p in [q for q in range(3, pmax + 1) if ms.odometer.is_prime(q)]:
        brute = ms.gauss_sum_all(p)
        for x in range(1, p):
            err = abs(brute[x] - ms.gauss_sum(p, x))
            if err > max_gauss:
                max_gauss, worst = err, p
            parity = abs(brute[x].imag) if p % 4 == 1 else abs(brute[x].real)
            max_parity = max(max_parity, parity)
        for j in range(p):
            c = ms.autocorrelation(p, j)
            closed_form_ok = closed_form_ok and c == ms.autocorrelation_closed_form(p, j)
            max_density = max(max_density, abs(float(c) - ms.fourier_of_density_factor(p, j)))
    return max_gauss, worst, max_parity, max_density, closed_form_ok


@pytest.mark.parametrize("pmax", [100, 300])
def test_gauss_check_matches_per_element_route(capsys, pmax):
    # exact float equality; at pmax 300, np.abs of the complex difference
    # instead of the hypot of its parts changes the last digit
    code, report, _ = run_json(capsys, "gauss-check", "--pmax", str(pmax))
    assert code == 0
    res = report["results"]
    assert (
        res["max_gauss_error"],
        res["worst_prime"],
        res["max_parity_error"],
        res["max_density_route_error"],
        res["closed_form_matches"],
    ) == _gauss_check_per_element(pmax)


def test_gauss_check_flags_a_wrong_symbol(capsys, monkeypatch):
    def flipped(p):
        symbols = ms.charsums.legendre_symbols(p).copy()
        if p == 13:
            symbols[2] = -symbols[2]
        return symbols

    monkeypatch.setattr("morsespec.cli.legendre_symbols", flipped)
    code, report, _ = run_json(capsys, "gauss-check", "--pmax", "60")
    assert code == 2
    assert report["results"]["all_ok"] is False
    assert report["results"]["closed_form_matches"] is False


def test_gauss_check_compares_the_window_route(capsys, monkeypatch):
    # the numerators checked against the closed form are summed over the
    # table; one wrong entry must fail the check
    window = ms.charsums.window_autocorrelation_numerators

    def flipped(table):
        out = window(table)
        if table.prime == 13:
            out[4] = -out[4]
        return out

    monkeypatch.setattr("morsespec.cli.window_autocorrelation_numerators", flipped)
    code, report, _ = run_json(capsys, "gauss-check", "--pmax", "60")
    assert code == 2
    assert report["results"]["closed_form_matches"] is False
    assert report["results"]["all_ok"] is False


def test_gauss_check_pmax_cap(capsys, monkeypatch):
    def no_scan(*args):
        raise AssertionError("a prime was scanned past the cap")

    monkeypatch.setattr("morsespec.cli.gauss_sum_all", no_scan)
    code, out, err = run_cli(capsys, "gauss-check", "--pmax", "3001")
    assert code == 64
    assert out == ""
    assert "3000" in err


def test_coeffs_builds_no_all_shift_numerators(capsys, monkeypatch):
    # the exact route reads one closed-form numerator per distinct shift
    # off the int8 signs: neither the all-shift array nor the int64 copy
    cache = functools.lru_cache(maxsize=None)(ms.legendre_table.__wrapped__)
    monkeypatch.setattr("morsespec.charsums.legendre_table", cache)
    monkeypatch.setattr("morsespec.cocycle.legendre_table", cache)
    code, report, _ = run_json(capsys, "coeffs", "--theorem", "3", "1,2,3", "5,0,77")
    assert code == 0 and report["results"]["routes_agree"] is True
    for p in ms.theorem_primes(3):
        assert "_autocorrelation_numerators" not in cache(p).__dict__, p
        assert "_signs" not in cache(p).__dict__, p


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


def test_gauss_check_leaves_the_table_cache_alone(capsys, monkeypatch):
    # each swept prime's table is built outside the lru_cache and freed; an
    # empty cache in its place shows this even for primes other tests cached
    cache = functools.lru_cache(maxsize=None)(ms.legendre_table.__wrapped__)
    monkeypatch.setattr("morsespec.charsums.legendre_table", cache)
    monkeypatch.setattr("morsespec.cli.legendre_table", cache)
    code, report, _ = run_json(capsys, "gauss-check", "--pmax", "200")
    assert code == 0 and report["results"]["all_ok"] is True
    assert cache.cache_info().currsize == 0


def test_gauss_check_flags_a_flatness_mismatch(capsys, monkeypatch):
    # the closed form must match the FFT scan of |P| within 1e-9
    real = cli.table_flatness_report

    def shifted(table):
        rep = real(table)
        if table.prime == 13:
            rep = dataclasses.replace(rep, min_modulus=rep.min_modulus + 1e-6)
        return rep

    monkeypatch.setattr(cli, "table_flatness_report", shifted)
    code, report, _ = run_json(capsys, "gauss-check", "--pmax", "60")
    assert code == 2
    assert report["results"]["flatness_ok"] is False
    assert report["results"]["all_ok"] is False


def test_certify_and_search_run_no_fft_on_quadratic_tables(capsys, monkeypatch):
    # every table passes the quadratic check, so flatness and the density
    # sups come from the Gauss sums: no FFT runs, and no table keeps P or
    # |P|^2 afterwards
    def no_fft(*args, **kwargs):
        raise AssertionError("an FFT ran for a quadratic table")

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, no_fft)
    cache = functools.lru_cache(maxsize=None)(ms.legendre_table.__wrapped__)
    monkeypatch.setattr("morsespec.charsums.legendre_table", cache)
    monkeypatch.setattr("morsespec.cocycle.legendre_table", cache)
    code, report, _ = run_json(capsys, "certify", "--theorem", "4")
    assert code == 0 and report["results"]["certificate"]["status"] == "certified"
    code, report, _ = run_json(capsys, "sbh-search", "--primes", "29", "--k-max", "4")
    assert code == 0 and report["results"]["stage_sup"] == (1 + 1 / 29**0.5) ** 2
    primes = ms.theorem_primes(4)
    assert cache.cache_info().currsize == len(primes)
    for p in primes:
        table = cache(p)
        assert "_polynomial" not in table.__dict__, p
        assert "_density" not in table.__dict__, p


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
    ],
)
def test_reports_match_golden(capsys, name, argv):
    """stdout minus the timestamp line is byte-identical to a report saved
    from an earlier version of the program; criterion 10 only compares
    reruns of the same code.  Regenerate a file only for an intended
    report change, with `python -m morsespec.cli <argv> > tests/golden/<name>.<format>`."""
    def strip(text):
        return re.sub(r'^(\s*"timestamp": "[^"]*",?|timestamp,.*)\n', "", text, flags=re.MULTILINE)

    fmt = "csv" if "csv" in argv else "json"
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert strip(out) == strip((GOLDEN / f"{name}.{fmt}").read_text())


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


def test_certify_refuses_theorem_7_before_building_a_table(capsys, monkeypatch):
    # p_6 = 6 103 515 637 squares residues past int64; p_0..p_5 must not be built first
    def no_table(p):
        raise AssertionError(f"table for {p} built")

    monkeypatch.setattr("morsespec.charsums._quadratic_signs", no_table)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "certify", "--theorem", "7")
    assert time.perf_counter() - start < 1.0
    assert code == 64
    assert out == ""
    assert "6103515637" in err


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


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(cli.RunConfig)])
def test_flag_and_config_keys_agree(tmp_path, name):
    text, expected = OPTION_SAMPLES[name]
    assert getattr(cli.RunConfig(), name) != expected
    flag = "--" + name.replace("_", "-")
    flag_argv = [flag] if isinstance(expected, bool) else [flag, text]
    configs = [cli.build_run_config(cli._build_parser().parse_args(["certify", *flag_argv]))]
    for key in {name, name.replace("_", "-")}:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {text}\n")
        args = cli._build_parser().parse_args(["certify", "--config", str(cfg)])
        configs.append(cli.build_run_config(args))
    for rc in configs:
        assert rc == dataclasses.replace(cli.RunConfig(), **{name: expected})


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
