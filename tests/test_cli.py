"""CLI integration: commands, formats, round trips, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
import time
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from qtcatalan import (
    ABCParams,
    LaurentPoly,
    VerificationReport,
    bracket,
    f_stat,
    f_tableaux,
    parse_json,
    render_csv,
    render_json,
    render_latex,
)
from qtcatalan.cli import _scan_vectors
from qtcatalan.verification import CaseResult

polys = st.dictionaries(
    keys=st.tuples(st.integers(-5, 9), st.integers(-5, 9)),
    values=st.integers(-9, 9),
    max_size=8,
).map(LaurentPoly)


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "qtcatalan.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,  # a hung child fails its test instead of stalling the suite
    )
    return proc


# -- rendering ----------------------------------------------------------------

def test_latex_golden():
    p = f_tableaux((0, 2))
    assert render_latex(p) == (
        "q^{4} + q^{3}t + q^{2}t + q^{2}t^{2} - qt + qt^{2} + qt^{3} + t^{4}"
    )


def test_latex_constants_and_negative_exponents():
    assert render_latex(LaurentPoly.zero()) == "0"
    assert render_latex(LaurentPoly({(0, 0): 3})) == "3"
    assert render_latex(LaurentPoly({(-1, 2): -2})) == "-2q^{-1}t^{2}"


def test_csv_render():
    text = render_csv(LaurentPoly({(1, 0): 1, (0, 1): 1}))
    assert text == "q,t,coeff\n1,0,1\n0,1,1\n"


def test_json_schema_fields():
    obj = json.loads(render_json(LaurentPoly({(2, 1): -3}), (1, 2)))
    assert obj == {"params": [1, 2], "terms": [{"q": 2, "t": 1, "coeff": "-3"}]}


@given(polys)
@settings(max_examples=100)
def test_json_round_trip_byte_identical(p):
    rendered = render_json(p, (0, 1, 2))
    params, parsed = parse_json(rendered)
    assert parsed == p and params == (0, 1, 2)
    assert render_json(parsed, params) == rendered


def test_json_survives_huge_coefficients():
    p = LaurentPoly({(0, 0): 10**50})
    params, parsed = parse_json(render_json(p, ()))
    assert parsed == p


@pytest.mark.parametrize("name", ["f_0_1_2", "f_0_2", "f_1_1_1"])
def test_golden_fixtures(name):
    # fixture files use the interchange schema; recomputing the stored
    # params must reproduce the stored polynomial, and re-rendering must
    # reproduce the stored bytes
    import pathlib

    path = pathlib.Path(__file__).parent / "fixtures" / f"{name}.json"
    raw = path.read_text()
    params, poly = parse_json(raw)
    assert f_tableaux(params) == poly
    assert render_json(poly, params) + "\n" == raw


# -- compute -------------------------------------------------------------------

def test_compute_tableaux_text():
    proc = run_cli("compute", "--method", "tableaux", "--a", "1")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "q + t"


def test_compute_csv_ends_with_its_last_row():
    proc = run_cli("compute", "--method", "tableaux", "--a", "1", "--format", "csv")
    assert proc.returncode == 0
    assert proc.stdout == "q,t,coeff\n1,0,1\n0,1,1\n"


def test_closed_pipe_exits_1_without_a_traceback():
    # 118 kB of CSV overfill the pipe, so the child is still writing when
    # the reader closes it after one line.  Its stdout is buffered, as in a
    # shell: unbuffered, Python drops the rest of a partial write silently.
    args = ["compute", "--method", "tableaux", "--a", "10000,0", "--format", "csv"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "qtcatalan.cli", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    assert proc.stdout.readline() == "q,t,coeff\n"
    proc.stdout.close()
    assert proc.wait() == 1
    assert "Traceback" not in proc.stderr.read()
    proc.stderr.close()


def test_compute_tesler_needs_first_entry():
    proc = run_cli("compute", "--method", "tesler", "--a", "1,1")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "q + t"


def test_compute_negative_vector_needs_equals_form():
    proc = run_cli("compute", "--method", "tableaux", "--a=-1,2")
    assert proc.returncode == 0
    assert proc.stdout.strip() == f_tableaux((-1, 2)).to_text()


def test_compute_methods_agree_via_cli():
    outputs = set()
    for method, flag, vec in [
        ("tableaux", "--a", "1,1,2"),
        ("tesler", "--a", "0,1,1,2"),
        ("recursion", "--abc", "1,1,2"),
        ("two-step", "--abc", "1,1,2"),
        ("chains", "--abc", "1,1,2"),
        ("stat", "--abc", "1,1,2"),
    ]:
        proc = run_cli("compute", "--method", method, flag, vec)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout.strip())
    assert len(outputs) == 1


def test_compute_json_round_trip():
    proc = run_cli("compute", "--method", "chains", "--abc", "1,1,1", "--format", "json")
    params, poly = parse_json(proc.stdout)
    assert params == (1, 1, 1)
    assert poly == f_stat(ABCParams(1, 1, 1))


def test_compute_domain_error_exit_2():
    proc = run_cli("compute", "--method", "recursion", "--abc", "1,3,1")
    assert proc.returncode == 2
    assert "error" in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("--method", "recursion", "--abc", "1200,1200,1200"),
        ("--method", "two-step", "--abc", "2400,2400,2400"),
        ("--method", "tesler", "--a", ",".join(["0"] + ["1"] * 1200)),
    ],
)
def test_compute_too_deep_exit_2(args):
    # each route recurses once per unit of an entry or per entry; past
    # Python's depth limit that is one error line, not a traceback.  The
    # Tesler walk's first descent reads the hook vector with a_n dropped,
    # here 1,200 entries long
    proc = run_cli("compute", *args)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert len(proc.stderr.splitlines()) == 1


def test_compute_refuses_an_expensive_tableau_sum_up_front():
    # F(50001, 50000) has about 4e9 terms: the sum once ran to 1.4 GB before
    # it was killed; now its quotient's box is counted and refused
    start = time.perf_counter()
    proc = run_cli("compute", "--method", "tableaux", "--a", "50001,50000")
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "slots" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_compute_refuses_a_long_term_by_term_division_up_front(run_capped):
    # H(3000000, 0) has one term, but F = [3000001] is divided from it term
    # by term; the quotient's 3,000,001 terms are counted and refused
    start = time.perf_counter()
    proc = run_capped("-m", "qtcatalan.cli", "compute", "--method", "tableaux", "--a", "3000000,0")
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "3000001 terms" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_compute_bad_vector_exit_2():
    proc = run_cli("compute", "--method", "tableaux", "--a", "1,x")
    assert proc.returncode == 2


def test_compute_missing_vector_exit_2():
    proc = run_cli("compute", "--method", "chains")
    assert proc.returncode == 2


# -- decompose -------------------------------------------------------------------

def test_decompose_csv_matches_stat_sum():
    proc = run_cli("decompose", "--abc", "1,1,2", "--format", "csv")
    assert proc.returncode == 0
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    members = [r for r in rows if r["role"] == "member"]
    total = LaurentPoly.zero()
    for r in members:
        total = total + LaurentPoly.monomial(int(r["area"]), int(r["stat"]))
    assert total == f_stat(ABCParams(1, 1, 2))
    roles = {r["role"] for r in rows}
    assert roles == {"tail", "pseudohead", "head", "quasihead", "member"}


@pytest.mark.parametrize(
    "name, args",
    [
        ("decompose_1_1_2.txt", ["--abc", "1,1,2"]),
        ("decompose_2_2_2.csv", ["--abc", "2,2,2", "--format", "csv"]),
    ],
)
def test_decompose_golden_output(name, args):
    import pathlib

    proc = run_cli("decompose", *args)
    assert proc.returncode == 0
    path = pathlib.Path(__file__).parent / "fixtures" / name
    assert proc.stdout.encode() == path.read_bytes()


def test_decompose_single_chain():
    proc = run_cli("decompose", "--abc", "0,0,0")
    assert proc.returncode == 0
    assert proc.stdout.count("chain ") == 1


def test_decompose_outside_region_exit_2():
    proc = run_cli("decompose", "--abc", "0,2,0")
    assert proc.returncode == 2


# -- scan --------------------------------------------------------------------------

def test_scan_monotone_clean():
    proc = run_cli("scan", "--n", "2", "--max", "5")
    assert proc.returncode == 0
    assert "no negative coefficients" in proc.stdout


def test_scan_all_finds_known_negative():
    proc = run_cli("scan", "--n", "4", "--max", "3", "--all")
    assert proc.returncode == 0
    assert "(0, 1, 2)" in proc.stdout


def test_scan_prints_the_negative_part_as_a_polynomial():
    proc = run_cli("scan", "--n", "4", "--max", "2", "--all")
    assert proc.returncode == 0
    assert "negative coefficients at (0, 0, 2): -q^2 t - q t^2\n" in proc.stdout


def test_scan_monotone_n4():
    proc = run_cli("scan", "--n", "4", "--max", "3", "--monotone")
    assert proc.returncode == 0
    assert "no negative coefficients" in proc.stdout


def test_scan_vectors_order():
    for n in range(2, 6):
        for m in range(5):
            every = list(product(range(m + 1), repeat=n - 1))
            monotone = [v for v in every if list(v) == sorted(v, reverse=True)]
            assert list(_scan_vectors(n, m, True)) == sorted(monotone, reverse=True)
            assert list(_scan_vectors(n, m, False)) == every


def test_scan_pool_matches_serial(monkeypatch):
    monkeypatch.delenv("QTC_JOBS", raising=False)
    serial = run_cli("scan", "--n", "4", "--max", "3", "--all")
    monkeypatch.setenv("QTC_JOBS", "2")
    pooled = run_cli("scan", "--n", "4", "--max", "3", "--all")
    assert serial.returncode == pooled.returncode == 0
    assert serial.stdout == pooled.stdout


# -- rational -----------------------------------------------------------------------

def test_rational_catalan():
    proc = run_cli("rational", "--m", "4", "--n", "3")
    assert proc.returncode == 0
    assert "(2, 1, 1)" in proc.stdout
    assert f_tableaux((1, 1)).to_text() in proc.stdout


def test_rational_two_over_three():
    proc = run_cli("rational", "--m", "3", "--n", "2")
    assert proc.returncode == 0
    assert "(2, 1)" in proc.stdout
    assert "q + t" in proc.stdout


def test_rational_trivial():
    proc = run_cli("rational", "--m", "1", "--n", "1")
    assert proc.returncode == 0
    assert proc.stdout.strip().endswith("1")


def test_rational_large_entries(run_capped):
    proc = run_capped("-m", "qtcatalan.cli", "rational", "--m", "100001", "--n", "2")
    assert proc.returncode == 0, proc.stderr[-500:]
    assert proc.stdout == f"slope sequence: (50001, 50000)\n{bracket(50001).to_text()}\n"


# -- verify ------------------------------------------------------------------------

def test_verify_small_sweep_exit_0():
    proc = run_cli("verify", "--n", "4", "--max", "1")
    assert proc.returncode == 0
    assert "0 mismatches" in proc.stdout


def test_verify_max_zero_trivially_passes():
    proc = run_cli("verify", "--n", "4", "--max", "0")
    assert proc.returncode == 0
    assert "0 mismatches" in proc.stdout


def test_verify_n5_small():
    proc = run_cli("verify", "--n", "5", "--max", "1")
    assert proc.returncode == 0


def test_verify_n_range():
    proc = run_cli("verify", "--n", "2-3", "--max", "1")
    assert proc.returncode == 0
    assert proc.stdout.count("mismatches") == 2


def test_verify_unsupported_n_exit_2():
    proc = run_cli("verify", "--n", "6", "--max", "1")
    assert proc.returncode == 2


def test_verify_range_is_checked_before_any_report():
    # n = 6 is out of range: nothing runs, not even n = 4 and n = 5
    proc = run_cli("verify", "--n", "4-6", "--max", "0")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: verify supports n in 2..5, got 6\n"


def test_verify_parallel_matches_serial():
    serial = run_cli("verify", "--n", "3", "--max", "2")
    parallel = run_cli("verify", "--n", "3", "--max", "2", "--jobs", "2")
    assert serial.returncode == parallel.returncode == 0
    assert serial.stdout.splitlines()[:-1] == parallel.stdout.splitlines()[:-1]


def test_verify_report_matches_its_fixture():
    # every line is pinned; the last one up to its elapsed seconds
    import pathlib

    proc = run_cli("verify", "--n", "4", "--max", "3")
    assert proc.returncode == 0
    path = pathlib.Path(__file__).parent / "fixtures" / "verify_4_3.txt"
    expected = path.read_text().splitlines()
    got = proc.stdout.splitlines()
    assert expected[-1] == "177 checks, 0 mismatches"
    assert got[:-1] == expected[:-1]
    assert got[-1].startswith(expected[-1] + ", ") and got[-1].endswith(" s")


def test_verify_mismatch_maps_to_exit_1(monkeypatch):
    import qtcatalan.cli as cli_module

    def fake_verify(n, maxval, jobs):
        report = VerificationReport()
        report.cases.append(CaseResult("stub", (0,), False, "forced mismatch"))
        return report

    monkeypatch.setattr(cli_module, "run_verify", fake_verify)
    assert cli_module.main(["verify", "--n", "4", "--max", "1"]) == 1


def test_verify_env_default_jobs(monkeypatch):
    monkeypatch.setenv("QTC_JOBS", "2")
    from qtcatalan.verification import default_jobs

    assert default_jobs() == 2


@pytest.mark.parametrize(
    "env, args",
    [
        ({}, ("verify", "--n", "4-2", "--max", "1")),
        ({}, ("verify", "--n", "4", "--max", "-1")),
        ({}, ("scan", "--n", "4", "--max", "-1")),
        ({"QTC_VERIFY_MAX": "abc"}, ("verify", "--n", "2")),
        ({"QTC_JOBS": "abc"}, ("verify", "--n", "2", "--max", "1")),
        ({}, ("compute", "--method", "chains", "--abc", "1,2")),
        ({}, ("compute", "--method", "tableaux")),
        ({}, ("verify", "--n", "2-x")),
        ({}, ("scan", "--n", "6", "--max", "1")),
    ],
)
def test_zero_checks_and_bad_env_exit_2(monkeypatch, env, args):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert len(proc.stderr.splitlines()) == 1
