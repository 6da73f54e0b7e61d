"""Command-line interface: exit codes, formats, golden values, truncation cap."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import qelliptic
from qelliptic import cli, numutil
from qelliptic.registry import registry


@pytest.fixture(autouse=True)
def pristine_policy(monkeypatch):
    monkeypatch.delenv("QELLIPTIC_MAX_TERMS", raising=False)


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


def test_eval_csv_format_is_one_row_of_the_json_fields(capsys):
    rc, out, _ = run_cli(capsys, "eval", "sn", "--q", "0.05", "--u", "0.4", "--format", "csv")
    assert rc == 0
    _, doc_out, _ = run_cli(capsys, "eval", "sn", "--q", "0.05", "--u", "0.4", "--format", "json")
    doc = json.loads(doc_out)
    header, row = out.splitlines()
    assert header == "fn,value,terms_used,est_tail"
    assert row.split(",") == ["sn", "0.3841811341538737", str(doc["terms_used"]), str(doc["est_tail"])]


def test_eval_missing_parameter_is_precondition_error(capsys):
    rc, _, err = run_cli(capsys, "eval", "sn", "--q", "0.05")
    assert rc == 2
    assert "precondition violated" in err


def test_eval_domain_error(capsys):
    rc, _, err = run_cli(capsys, "eval", "alpha", "--r", "-1")
    assert rc == 2
    assert "precondition violated" in err


@pytest.mark.parametrize(
    "argv",
    [
        # expm1((n+1) x) overflows at the first term
        ("ghost-sum", "--x", "1e308"),
        # q^a with the integer exponent 1e308: CPython's complex power raises OverflowError
        ("agile-plus", "--a", "1e308", "--p", "1", "--q", "0.3"),
    ],
)
def test_eval_arithmetic_failure_is_evaluation_failure(capsys, argv):
    rc, out, err = run_cli(capsys, "eval", *argv)
    assert rc == 1
    assert out == ""
    # the OverflowError's own message follows the prefix
    assert err in ("evaluation failed: math range error\n",
                   "evaluation failed: complex exponentiation\n")


def test_eval_zero_division_is_evaluation_failure(capsys, monkeypatch):
    # a plain ZeroDivisionError (not a PoleError) is a failed evaluation
    monkeypatch.setattr(cli, "_ghost_sum", lambda x: 1.0 / (x - x))
    rc, out, err = run_cli(capsys, "eval", "ghost-sum", "--x", "1.0")
    assert rc == 1
    assert out == ""
    assert err == "evaluation failed: float division by zero\n"


def test_ghost_sum_at_tiny_x_is_refused_by_max_terms(capsys):
    # 1/expm1((n+1) x) ~ 1/((n+1) x): no division by zero, but ~1/x terms
    rc, out, err = run_cli(capsys, "eval", "ghost-sum", "--x", "1e-300")
    assert rc == 1
    assert out == ""
    assert err.startswith("evaluation failed: series did not converge within 100000 terms")


def test_ghost_sum_matches_mpmath():
    # sum 1/(e^(n x) - 1) = (gamma - log x)/x + 1/4 - x/144 - x^3/86400 + O(x^5)
    x = mpmath.mpf("1e-3")
    want = (mpmath.euler - mpmath.log(x)) / x + mpmath.mpf(1) / 4 - x / 144 - x**3 / 86400
    got = cli._ghost_sum(1e-3)
    assert abs(got - complex(want)) <= 1e-13 * abs(want)


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


def test_verify_no_match(capsys):
    rc, _, err = run_cli(capsys, "verify", "--id", "NOPE-*")
    assert rc == 2
    assert "no registry case matches" in err


def test_verify_tol_override_can_fail_gate(capsys):
    rc, _, _ = run_cli(capsys, "verify", "--id", "EQ7", "--tol", "1e-30")
    assert rc == 1


# ---------------------------------------------------------------------------
# truncation cap
# ---------------------------------------------------------------------------


CAPPED_EVALS = [
    (("theta3", "--q", "0.5"), 3),
    # products, elliptic contexts and agile brackets must see the cap too
    (("f", "--q", "0.3"), 5),
    (("K", "--r", "2"), 4),
    (("E", "--r", "2"), 4),
    (("k", "--r", "2"), 4),
    (("agile-minus", "--a", "0.3", "--p", "1", "--q", "0.3"), 5),
    # and the continued fractions, whose depth is capped by the same policy
    (("R", "--q", "0.05"), 3),
]


def test_max_terms_flag_caps_series(capsys):
    for argv, cap in CAPPED_EVALS:
        rc, _, err = run_cli(capsys, "eval", *argv, "--max-terms", str(cap))
        assert rc == 1, argv
        assert "evaluation failed" in err, argv
        assert f"{cap} terms" in err or f"{cap} factors" in err or f"depth {cap}" in err, argv
        # the cap is scoped to the call
        assert numutil.current_policy() is numutil.DEFAULT_POLICY


def test_env_cap_honored(capsys, monkeypatch):
    monkeypatch.setenv("QELLIPTIC_MAX_TERMS", "3")
    rc, _, err = run_cli(capsys, "eval", "theta3", "--q", "0.5")
    assert rc == 1
    assert "evaluation failed" in err


def test_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("QELLIPTIC_MAX_TERMS", "3")
    rc, out, _ = run_cli(capsys, "eval", "theta3", "--q", "0.5",
                         "--max-terms", "100000")
    assert rc == 0
    assert out.startswith("value=")


def test_invalid_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("QELLIPTIC_MAX_TERMS", "abc")
    rc, _, err = run_cli(capsys, "eval", "theta3", "--q", "0.5")
    assert rc == 2
    assert "must be an integer" in err


def test_nonpositive_cap(capsys, monkeypatch):
    rc, _, err = run_cli(capsys, "eval", "theta3", "--q", "0.5",
                         "--max-terms", "-2")
    assert rc == 2
    assert "--max-terms must be positive" in err
    # a bad cap from the environment names the variable, not the unused flag
    monkeypatch.setenv("QELLIPTIC_MAX_TERMS", "0")
    rc, _, err = run_cli(capsys, "eval", "theta3", "--q", "0.5")
    assert rc == 2
    assert "QELLIPTIC_MAX_TERMS must be positive" in err
    assert "--max-terms" not in err
