"""Command-line interface: exit codes, formats, golden values, truncation cap."""

import ast
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import qelliptic
from qelliptic import cli, numutil
from qelliptic.registry import registry


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _rel_to(literal: str, want) -> float:
    """Relative distance of a printed decimal from an mpmath value."""
    with mpmath.workdps(30):
        return float(abs(mpmath.mpf(literal) - want) / abs(want))


# sn(0.4) at the nome 0.05, m = (theta2/theta3)^4, at 30 digits: 0.384181134153873560899...
with mpmath.workdps(30):
    _Q = mpmath.mpf(0.05)
    _M = (mpmath.jtheta(2, 0, _Q) / mpmath.jtheta(3, 0, _Q)) ** 4
    _SN_ORACLE = mpmath.ellipfun("sn", 0.4, m=_M)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_emits_value_terms_and_tail(capsys):
    rc, out, _ = run_cli(capsys, "eval", "sn", "--q", "0.05", "--u", "0.4")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "value=0.3841811341538737"
    assert _rel_to("0.3841811341538737", _SN_ORACLE) <= 4e-16
    assert lines[1].startswith("terms_used=") and int(lines[1].split("=")[1]) > 0
    assert lines[2].startswith("est_tail=") and float(lines[2].split("=")[1]) < 1e-12


def test_eval_imports_neither_scipy_nor_numpy():
    # the library is stdlib-only
    code = (
        "import sys, qelliptic\n"
        "from qelliptic import cli\n"
        "assert cli.main(['eval', 'sn', '--q', '0.05', '--u', '0.4']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'numpy')))\n"
    )
    src = str(Path(qelliptic.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    lines = out.splitlines()
    assert lines[0] == "value=0.3841811341538737"
    assert lines[-1] == "[]"
    # -S leaves site-packages off the path, so any third-party import fails
    bare = dict(os.environ, PYTHONPATH=src)
    for argv, first in ((["verify", "--all"], None),
                        (["eval", "sn", "--q", "0.05", "--u", "0.4"], "value=0.3841811341538737")):
        run = subprocess.run([sys.executable, "-S", "-m", "qelliptic", *argv], env=bare,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        if first is not None:
            assert run.stdout.splitlines()[0] == first


# stdlib modules a cold CLI process must not import: each costs milliseconds per
# process, and only JSON/CSV output and exact Bernoulli numbers need any of them
COLD_START_FREE = ("dataclasses", "inspect", "fractions", "decimal", "json", "csv")
QELLIPTIC_MODULES = ("numutil", "qseries", "elliptic", "fourier", "angle", "thetagen",
                     "harness", "registry", "cli")


def _run_bare(*argv: str) -> subprocess.CompletedProcess:
    """``python -S *argv`` with this checkout's package and nothing else on the path."""
    src = str(Path(qelliptic.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-S", *argv], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    return run


def _modules_after(code: str) -> set[str]:
    out = _run_bare("-c", f"{code}\nimport sys\nprint(sorted(sys.modules))").stdout
    return set(ast.literal_eval(out.splitlines()[-1]))


def _imported(*argv: str) -> set[str]:
    """The modules ``python -S -X importtime *argv`` reports importing."""
    err = _run_bare("-X", "importtime", *argv).stderr
    return {line.rpartition("|")[2].strip() for line in err.splitlines()
            if line.startswith("import time:") and "self [us]" not in line}


def test_cold_start_imports_only_what_it_uses():
    added = _modules_after("import qelliptic.cli") - _modules_after("pass")
    assert sorted(added.intersection(COLD_START_FREE)) == []
    assert {f"qelliptic.{m}" for m in QELLIPTIC_MODULES} <= added
    # the whole `eval` command, run as a user runs it
    eval_added = (_imported("-m", "qelliptic", "eval", "sn", "--q", "0.05", "--u", "0.4")
                  - _imported("-c", "pass"))
    assert sorted(eval_added.intersection(COLD_START_FREE)) == []
    # the registry front loads, its case definitions do not: `eval` never reads them
    assert "qelliptic.registry" in eval_added
    assert "qelliptic._cases" not in eval_added
    assert "qelliptic._cases" in _imported("-m", "qelliptic", "list")


def test_eval_singular_value(capsys):
    rc, out, _ = run_cli(capsys, "eval", "alpha", "--r", "4")
    assert rc == 0
    value = float(out.splitlines()[0].split("=")[1])
    assert abs(value - (6.0 - 4.0 * math.sqrt(2.0))) < 1e-12


def test_eval_lemniscatic_period(capsys):
    # K at the r = 1 point equals Gamma(1/4)^2 / (4 sqrt(pi))
    rc, out, _ = run_cli(capsys, "eval", "K", "--r", "1")
    assert rc == 0
    assert out.splitlines()[0] == "value=1.854074677301372"


@pytest.mark.parametrize("fn, q", [("K", 0.9), ("kprime", 0.95)])
def test_eval_context_at_deep_nomes(capsys, fn, q):
    # K was off by 60% at q = 0.9; q = 0.95 raised "K diverges at k = 1"
    rc, out, _ = run_cli(capsys, "eval", fn, "--q", str(q))
    assert rc == 0
    with mpmath.workdps(60):
        x = mpmath.mpf(q)
        t3 = mpmath.jtheta(3, 0, x)
        if fn == "K":
            want = mpmath.pi / 2 * t3**2
        else:  # theta4 by Jacobi's imaginary transformation, L = -log q
            L = -mpmath.log(x)
            t4 = mpmath.sqrt(mpmath.pi / L) * mpmath.jtheta(2, 0, mpmath.exp(-mpmath.pi**2 / L))
            want = (t4 / t3) ** 2
    value = out.splitlines()[0].split("=")[1]
    assert _rel_to(value, want) <= 1e-13


def test_eval_angle_series(capsys):
    rc, out, _ = run_cli(capsys, "eval", "theta-angle", "--q", "0.2", "--x", "0.5")
    assert rc == 0
    value = float(out.splitlines()[0].split("=")[1])
    assert abs(value - 1.186513626335924) < 1e-12


def test_eval_json_format(capsys):
    rc, out, _ = run_cli(capsys, "eval", "R", "--q", "0.05", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert set(doc) == {"fn", "value", "terms_used", "est_tail"}
    assert abs(float(doc["value"]) - 0.5231861892435733) < 1e-12


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _csv_cell(value) -> str:
    """A JSON value as the CSV writer writes it."""
    return "" if value is None else str(value)


FORMAT_COMMANDS = [
    (("verify", "--id", "EQ7"),
     "id,params,lhs,rhs,abs_residual,rel_residual,pass,tolerance,compare,status,"
     "terms_used,wall_time_ms,error",
     {"id": "EQ7", "pass": "True", "status": "ACTIVE"}),
    (("eval", "sn", "--q", "0.05", "--u", "0.4"),
     "fn,value,terms_used,est_tail",
     {"fn": "sn", "value": "0.3841811341538737"}),
    (("table", "k"), "r,value,terms_used", {"r": "1", "value": "0.7071067811865475"}),
    (("list", "--id", "T5"),
     "id,status,compare,samples,tolerance,description",
     {"id": "T5", "status": "ACTIVE"}),
]


@pytest.mark.parametrize("argv, header, first", FORMAT_COMMANDS,
                         ids=[argv[0] for argv, _, _ in FORMAT_COMMANDS])
def test_csv_format_is_the_json_rows(capsys, argv, header, first):
    rc, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert rc == 0
    doc = json.loads(out, parse_constant=_reject_constant)
    rc, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert rc == 0
    assert out.splitlines()[0] == header
    if argv[0] == "verify":
        want = [{**rec, "params": ";".join(f"{k}={v}" for k, v in rec["params"].items())}
                for rec in doc["records"]]
    else:
        want = [doc] if argv[0] == "eval" else doc
    got = list(csv.DictReader(io.StringIO(out)))
    assert got[0].items() >= first.items()
    # a record's wall time differs from run to run
    assert ([{k: v for k, v in row.items() if k != "wall_time_ms"} for row in got]
            == [{k: _csv_cell(v) for k, v in row.items() if k != "wall_time_ms"}
                for row in want])


def test_eval_missing_parameter_is_precondition_error(capsys):
    rc, _, err = run_cli(capsys, "eval", "sn", "--q", "0.05")
    assert rc == 2
    assert "precondition violated" in err


def test_eval_domain_error(capsys):
    rc, _, err = run_cli(capsys, "eval", "alpha", "--r", "-1")
    assert rc == 2
    assert "precondition violated" in err


@pytest.mark.parametrize("fn", ["sn", "theta3"])
@pytest.mark.parametrize("q", ["0", "1.5", "nan"])
def test_eval_nome_off_the_disk_is_precondition_error(capsys, fn, q):
    # the library refuses the nome itself: the context needs 0 < |q| < 1,
    # the theta kernel |q| < 1, so theta3(0) = 1 is evaluated
    rc, out, err = run_cli(capsys, "eval", fn, "--q", q, "--u", "0.4")
    if fn == "theta3" and q == "0":
        assert (rc, out.splitlines()[0], err) == (0, "value=1", "")
        return
    assert (rc, out) == (2, "")
    want = "nome must satisfy 0 < |q| < 1" if fn == "sn" else "theta3_two requires |q^a| < 1"
    assert err.startswith(f"precondition violated: {want}")


# one valid point per eval function; each flag in turn is set to nan below
EVAL_POINTS = {
    **{fn: {"q": "0.05", "u": "0.4"}
       for fn in ("sn", "cn", "dn", "cd", "sd", "nd", "ss", "cc", "dd", "cd1", "cn1")},
    **{fn: {"q": "0.05"}
       for fn in ("theta2", "theta3", "theta4", "k", "kprime", "K", "E", "G", "H", "R", "f")},
    "alpha": {"r": "2"},
    "theta-angle": {"q": "0.2", "x": "0.5"},
    "ghost-sum": {"x": "1"},
    "U": {"a": "0.3", "b": "0.2", "q": "0.3"},
    "u0": {"a": "0.3", "q": "0.3"},
    "agile-minus": {"a": "0.3", "p": "5", "q": "0.3"},
    "agile-plus": {"a": "0.3", "p": "5", "q": "0.3"},
}
NAN_PAIRS = [(fn, name) for fn, point in EVAL_POINTS.items() for name in point]


def test_eval_points_cover_every_function(capsys):
    assert sorted(EVAL_POINTS) == sorted(cli.EVAL_FUNCTIONS)
    assert len(NAN_PAIRS) == 48
    for fn, point in EVAL_POINTS.items():
        argv = [x for name, value in point.items() for x in (f"--{name}", value)]
        assert run_cli(capsys, "eval", fn, *argv)[0] == 0, fn


@pytest.mark.parametrize("fn, nan_flag", NAN_PAIRS, ids=[f"{fn}-{name}" for fn, name in NAN_PAIRS])
def test_eval_nan_argument_is_precondition_error(capsys, fn, nan_flag):
    # refused by the library function's own domain test, not by a copy in the CLI
    argv = [x for name, value in EVAL_POINTS[fn].items()
            for x in (f"--{name}", "nan" if name == nan_flag else value)]
    rc, out, err = run_cli(capsys, "eval", fn, *argv)
    assert (rc, out) == (2, "")
    assert err.startswith("precondition violated: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv, value", [
    (("theta3", "--q", "0"), "1"),
    (("G", "--q", "0"), "1"),
    (("R", "--q", "0"), "0"),
    # u_product's closed form holds at |a| > 1 too
    (("U", "--a", "2", "--b", "0.5", "--q", "0.3"), "1.594260725604051"),
])
def test_eval_accepts_the_library_domain(capsys, argv, value):
    rc, out, _ = run_cli(capsys, "eval", *argv)
    assert (rc, out.splitlines()[0]) == (0, f"value={value}")


@pytest.mark.parametrize("fn", ["alpha", "sn", "theta3"])
def test_eval_nan_r_blames_r(capsys, fn):
    rc, _, err = run_cli(capsys, "eval", fn, "--r", "nan", "--u", "0.4")
    assert rc == 2
    assert "precondition violated: r must be positive" in err


@pytest.mark.parametrize(
    "argv",
    [
        # the expansion's head (gamma - log x)/x leaves the doubles
        ("ghost-sum", "--x", "1e-308"),
        # q^(p - a) with the integer exponent 1 - 1e308: principal_power names w and n
        ("agile-plus", "--a", "1e308", "--p", "1", "--q", "0.3"),
    ],
)
def test_eval_arithmetic_failure_is_evaluation_failure(capsys, argv):
    rc, out, err = run_cli(capsys, "eval", *argv)
    assert rc == 1
    assert out == ""
    # the OverflowError's own message follows the prefix
    assert err in ("evaluation failed: ghost_sum: (gamma - log x)/x is not finite at x = 1e-308\n",
                   "evaluation failed: principal_power: w**n leaves the double range "
                   "at w = 0.3, n = -1e+308\n")


@pytest.mark.parametrize("argv", [
    # (-0.99; 0.999)_inf and (-0.5; 0.999)_inf overflow to inf: their direct
    # factors (2,069 and 2,078) stay finite and exp(-tail) of the rest leaves
    # the double range
    ("U", "--a", "0.99", "--b", "0", "--q", "0.999"),
    ("agile-plus", "--a", "0.5", "--p", "1", "--q", "0.999"),
])
def test_eval_overflowing_product_is_evaluation_failure(capsys, argv):
    rc, out, err = run_cli(capsys, "eval", *argv, "--format", "json")
    assert rc == 1
    assert out == ""
    assert re.fullmatch(r"evaluation failed: q-Pochhammer product is \(inf\+0j\) after 20[67]\d factors "
                        r"and its log-series tail\n", err)


@pytest.mark.parametrize("command", ["eval", "table"])
def test_non_finite_value_is_evaluation_failure(capsys, monkeypatch, command):
    # the backstop behind the library's own checks
    monkeypatch.setitem(cli.EVAL_FUNCTIONS, "ghost-sum", lambda args: complex(math.inf))
    rc, out, err = run_cli(capsys, command, "ghost-sum", "--x", "1.0")
    assert rc == 1
    assert out == ""
    assert err == "evaluation failed: value is not finite: inf\n"


@pytest.mark.parametrize("fn", ["sn", "theta3"])
def test_eval_infinite_r_blames_r(capsys, fn):
    rc, out, err = run_cli(capsys, "eval", fn, "--r", "inf", "--u", "0.4")
    assert rc == 2
    assert out == ""
    assert err == "precondition violated: r must be positive and finite, got inf\n"


def test_eval_zero_division_is_evaluation_failure(capsys, monkeypatch):
    # a plain ZeroDivisionError (not a PoleError) is a failed evaluation
    monkeypatch.setitem(cli.EVAL_FUNCTIONS, "ghost-sum", lambda args: 1.0 / (args.x - args.x))
    rc, out, err = run_cli(capsys, "eval", "ghost-sum", "--x", "1.0")
    assert rc == 1
    assert out == ""
    assert err == "evaluation failed: float division by zero\n"


def test_eval_unresolved_u_over_K_is_evaluation_failure(capsys):
    # K ~ 6e-40 at q = -0.95, so u/K ~ 1.6e38, which a double does not resolve
    # modulo the periods: no value and no pole can be told apart there
    rc, out, err = run_cli(capsys, "eval", "sn", "--q", "-0.95", "--u", "0.1")
    assert rc == 1
    assert out == ""
    assert err.startswith("evaluation failed: sn: u/K = ")
    assert err.endswith("is not resolved in double precision\n")


def test_eval_overflowing_theta_sum_is_evaluation_failure(capsys):
    # theta1's odd sum overflows: an OverflowError, so a failed evaluation
    rc, out, err = run_cli(capsys, "eval", "cn", "--q", "0.995", "--u", "100")
    assert rc == 1
    assert out == ""
    assert err.startswith("evaluation failed: ")


def test_ghost_sum_at_tiny_x_answers_from_the_expansion(capsys):
    # the direct sum would take ~1/x terms; the expansion's head is finite
    rc, out, err = run_cli(capsys, "eval", "ghost-sum", "--x", "1e-300")
    assert (rc, err) == (0, "")
    assert out.splitlines()[:2] == ["value=6.913527435631152e+302", "terms_used=1"]


def test_negative_value_in_exponent_notation_reaches_the_library(capsys):
    # argparse alone takes "-1e-3" for an option and exits 2 before the library
    rc, out, err = run_cli(capsys, "eval", "sn", "--q", "0.05", "--u", "-1e-3")
    assert (rc, err) == (0, "")
    assert out == run_cli(capsys, "eval", "sn", "--q", "0.05", "--u=-1e-3")[1]
    assert out.startswith("value=-0.000999999741355")


def test_negative_ghost_sum_argument_is_refused_by_ghost_sum(capsys):
    rc, out, err = run_cli(capsys, "eval", "ghost-sum", "--x", "-1e-3")
    assert (rc, out) == (2, "")
    assert err == "precondition violated: ghost_sum requires x > 0, got x = -0.001\n"


def test_eval_rogers_ramanujan_near_one(capsys):
    # G(0.999) ~ 3.5e285: (q; q)_n and q^(n^2) underflow alone, their ratio does not
    rc, out, _ = run_cli(capsys, "eval", "G", "--q", "0.999")
    assert rc == 0
    assert out.startswith("value=3.4766296164")


def test_eval_is_deterministic(capsys):
    first = run_cli(capsys, "eval", "cd", "--q", "0.1", "--u", "0.7")
    second = run_cli(capsys, "eval", "cd", "--q", "0.1", "--u", "0.7")
    assert first == second


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def test_table_default_sweep_ghost_sum(capsys):
    rc, out, _ = run_cli(capsys, "table", "ghost-sum")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert "value=0.04712099285567072" in lines[0]


def test_table_default_sweep_modulus(capsys):
    rc, out, _ = run_cli(capsys, "table", "k", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "r,value,terms_used"
    values = [row.split(",")[1] for row in lines[1:]]
    assert values == [
        "0.7071067811865475",
        "0.4142135623730951",
        "0.2588190451025208",
        "0.1715728752538099",
    ]
    # the singular moduli k_1..k_4: 1/sqrt 2, sqrt 2 - 1, (sqrt 6 - sqrt 2)/4, 3 - 2 sqrt 2
    with mpmath.workdps(30):
        exact = [1 / mpmath.sqrt(2), mpmath.sqrt(2) - 1,
                 (mpmath.sqrt(6) - mpmath.sqrt(2)) / 4, 3 - 2 * mpmath.sqrt(2)]
    for value, want in zip(values, exact):
        assert _rel_to(value, want) <= 4e-16


def test_table_explicit_sweep(capsys):
    rc, out, _ = run_cli(capsys, "table", "sn", "--u", "0.4",
                         "--sweep", "q=0.05,0.1", "--format", "json")
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 2
    assert rows[0]["q"] == "0.05"
    assert rows[0]["value"] == "0.3841811341538737"


def test_table_no_default_sweep(capsys):
    rc, _, err = run_cli(capsys, "table", "sn", "--u", "0.4")
    assert rc == 2
    assert "no default sweep" in err


def test_table_malformed_sweep(capsys):
    rc, _, err = run_cli(capsys, "table", "k", "--sweep", "bogus")
    assert rc == 2
    assert "malformed range" in err


# ---------------------------------------------------------------------------
# list
# ---------------------------------------------------------------------------


def test_list_enumerates_registry(capsys):
    rc, out, _ = run_cli(capsys, "list")
    assert rc == 0
    assert len(out.splitlines()) == len(registry())


def test_list_json_matches_registry(capsys):
    rc, out, _ = run_cli(capsys, "list", "--format", "json")
    assert rc == 0
    rows = json.loads(out)
    assert [row["id"] for row in rows] == [c.id for c in registry()]
    assert all(row["status"] in ("ACTIVE", "QUARANTINED") for row in rows)


def test_list_glob_filter(capsys):
    rc, out, _ = run_cli(capsys, "list", "--id", "T5", "--format", "json")
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 1 and rows[0]["id"] == "T5"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_single_case_text(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--id", "EQ7")
    assert rc == 0
    assert "gate=PASS" in out


def test_verify_all_json(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--all", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["gate_passed"] is True
    expected = sum(len(c.samples) for c in registry())
    assert len(doc["records"]) == expected


def test_verify_sample_override(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--id", "A5-158", "--q", "0.3",
                         "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["records"]
    assert all(rec["params"]["q"] == 0.3 for rec in doc["records"])


def test_verify_all_under_an_r_override_prints_its_report(capsys):
    # the tabulated closed forms of EQ14, EQ15 and EQ88 refuse r = 0.05 with a
    # typed error, which the report counts, instead of a KeyError traceback
    rc, out, _ = run_cli(capsys, "verify", "--all", "--r", "0.05")
    assert isinstance(rc, int)
    assert re.search(r"^-- \d+ active pass-gated, \d+ quarantined, \d+ auto-quarantined; gate=",
                     out, re.MULTILINE)


@pytest.mark.parametrize("r, printed", [("0.05", 0.05), ("inf", None)])
def test_verify_json_writes_non_finite_floats_as_null(capsys, r, printed):
    # EQ14's tabulated closed form refuses r = 0.05 (and r = inf): error
    # records, whose infinite residuals RFC 8259 cannot carry
    rc, out, _ = run_cli(capsys, "verify", "--id", "EQ14", "--r", r, "--format", "json")
    assert rc == 1
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["records"]
    for rec in doc["records"]:
        assert rec["error"]
        assert rec["abs_residual"] is None and rec["rel_residual"] is None
        assert rec["pass"] is False
        assert rec["params"]["r"] == printed


def test_verify_no_match(capsys):
    rc, _, err = run_cli(capsys, "verify", "--id", "NOPE-*")
    assert rc == 2
    assert "no registry case matches" in err


def test_verify_tol_override_can_fail_gate(capsys):
    rc, _, _ = run_cli(capsys, "verify", "--id", "EQ7", "--tol", "1e-30")
    assert rc == 1


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_verify_refuses_a_tol_that_is_not_positive_and_finite(capsys, tol):
    # zero, negative and NaN would fail every inexact sample; inf would pass all
    rc, out, err = run_cli(capsys, "verify", "--all", "--tol", tol)
    assert rc == 2
    assert out == ""
    assert "precondition violated: tolerance must be positive and finite" in err


def test_verify_text_prints_the_tolerance_it_judged_against(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--id", "EQ7", "--tol", "1e-20")
    assert rc == 1
    assert re.search(r"^EQ7 .* tol=1e-20 \[direct\]$", out, re.MULTILINE), out
    rc, out, _ = run_cli(capsys, "verify", "--id", "EQ7")
    assert re.search(r"^EQ7 .* tol=1e-10 \[direct\]$", out, re.MULTILINE), out


# ---------------------------------------------------------------------------
# truncation cap
# ---------------------------------------------------------------------------


CAPPED_EVALS = [
    # theta3(0.2) is summed directly in 5 terms; theta3(0.5), reduced by
    # Jacobi's imaginary transformation, in 2, and the cap reaches that sum too
    (("theta3", "--q", "0.2"), 3),
    (("theta3", "--q", "0.5"), 1),
    # products, elliptic contexts and agile brackets must see the cap too
    (("f", "--q", "0.3"), 5),
    # a deep product and an angle sum, spent in their log-series tails (the
    # angle at q = 0.3 takes 2 atanh terms before its tail)
    (("f", "--q", "0.9"), 25),
    (("theta-angle", "--q", "0.3", "--x", "0.7"), 3),
    (("K", "--r", "2"), 4),
    (("E", "--r", "2"), 4),
    (("k", "--r", "2"), 4),
    (("agile-minus", "--a", "0.3", "--p", "1", "--q", "0.3"), 5),
    # and the continued fractions, whose depth is capped by the same policy
    (("R", "--q", "0.05"), 3),
    # and both rules of the Ghost Sum: its expansion below x = 1, the direct sum above
    (("ghost-sum", "--x", "0.5"), 3),
    (("ghost-sum", "--x", "2"), 5),
]


def test_max_terms_flag_caps_series(capsys):
    for argv, cap in CAPPED_EVALS:
        rc, _, err = run_cli(capsys, "eval", *argv, "--max-terms", str(cap))
        assert rc == 1, argv
        assert "evaluation failed" in err, argv
        assert f"{cap} terms" in err or f"{cap} factors" in err or f"depth {cap}" in err, argv
        # the cap is scoped to the call
        assert numutil.current_policy() is numutil.DEFAULT_POLICY


def test_nonpositive_cap(capsys):
    # truncation() owns the rule: an int N >= 0; 0 refuses every loop at once
    rc, out, err = run_cli(capsys, "eval", "theta3", "--q", "0.5", "--max-terms", "-2")
    assert (rc, out) == (2, "")
    assert err == "precondition violated: truncation() needs an int max_terms >= 0, got -2\n"
    rc, out, err = run_cli(capsys, "eval", "theta3", "--q", "0.5", "--max-terms", "0")
    assert (rc, out) == (1, "")
    assert err == "evaluation failed: theta3_two did not converge within 0 terms\n"
