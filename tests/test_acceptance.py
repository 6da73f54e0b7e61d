"""Acceptance gate: ten end-to-end criteria, one printed pass/fail line each."""

import json
import math
import time
from pathlib import Path

from qelliptic import cli
from qelliptic.elliptic import EllipticContext, singular_alpha
from qelliptic.harness import report_to_text, run_case, run_registry
from qelliptic.numutil import sum_series
from qelliptic.qseries import dirichlet_chi8, divisor_expand, lambert_sum
from qelliptic.registry import registry
from qelliptic.thetagen import (
    agile_minus,
    cayley,
    odd_lambert,
    rr_G,
    rr_H,
    rr_cf,
    theta3_two,
    u0_cf,
    u0_product,
    u_cf,
    u_product,
)


def _criterion(capsys, label, body):
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] {label}: FAIL")
        raise
    with capsys.disabled():
        print(f"[acceptance] {label}: PASS")


def test_criterion_01_weight_n_lambert_value(capsys):
    # sum n/(e^{2 pi n} - 1) = 1/24 - 1/(8 pi), via the command-line gate
    def body():
        start = time.perf_counter()
        rc = cli.main(["verify", "--id", "EQ7", "--format", "json"])
        elapsed = time.perf_counter() - start
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["records"]
        assert all(rec["rel_residual"] <= 1e-10 for rec in doc["records"])
        assert elapsed < 0.1

    _criterion(capsys, "1 weight-n Lambert sum at rate 2 pi", body)


def test_criterion_02_odd_weight_n_gamma_value(capsys):
    # sum over odd n of n/(e^{pi n} - 1) = -1/24 + 16 pi / Gamma(-1/4)^4
    def body():
        start = time.perf_counter()
        q = math.exp(-math.pi)
        lhs = lambert_sum(q, lambda n: float(n) if n % 2 else 0.0)
        rhs = -1.0 / 24.0 + 16.0 * math.pi / math.gamma(-0.25) ** 4
        elapsed = time.perf_counter() - start
        assert abs(lhs - rhs) <= 1e-8
        assert elapsed < 0.1

    _criterion(capsys, "2 odd weight-n sum against the Gamma closed form", body)


def test_criterion_03_alpha_value_and_reflection(capsys):
    def body():
        assert abs(singular_alpha(4.0) - (6.0 - 4.0 * math.sqrt(2.0))) <= 1e-9
        for r in (2.0, 3.0, 4.0):
            lhs = singular_alpha(1.0 / r)
            rhs = 1.0 / math.sqrt(r) - singular_alpha(r) / r
            assert abs(lhs - rhs) <= 1e-9

    _criterion(capsys, "3 alpha(4) closed form and the r -> 1/r reflection", body)


def test_criterion_04_odd_sech_sum(capsys):
    # sum 1/cosh((2j+1) pi sqrt(r)/2) = K k / pi at the singular modulus
    def body():
        for r in (1.0, 2.0, 3.0):
            lhs = sum_series(
                lambda j: 1.0 / math.cosh((2 * j + 1) * math.pi * math.sqrt(r) / 2.0)
            )
            c = EllipticContext.from_r(r)
            rhs = c.K * c.k / math.pi
            assert abs(lhs - rhs) <= 1e-10

    _criterion(capsys, "4 odd sech sum equals K k/pi", body)


def test_criterion_05_fraction_vs_product_oracles(capsys):
    # the two continued fractions against their q-Pochhammer product forms
    def body():
        a_grid = (0.15, 0.35, 0.55)
        b_grid = (0.1, 0.3, 0.5)
        q_grid = (0.1, 0.2, 0.3)
        for i, a in enumerate(a_grid):
            for j, b in enumerate(b_grid):
                q = q_grid[(i + j) % 3]
                assert abs(u_cf(a, b, q) - u_product(a, b, q)) <= 1e-10
        for a in a_grid:
            for q in q_grid:
                assert abs(u0_cf(a, q) - u0_product(a, q)) <= 1e-10

    _criterion(capsys, "5 continued fractions agree with product forms", body)


def test_criterion_06_lambert_divisor_duality(capsys):
    def body():
        weights = (
            lambda n: 1.0,
            lambda n: float(n),
            lambda n: float(dirichlet_chi8(n)),
        )
        for weight in weights:
            for q in (0.1, 0.3):
                lhs = lambert_sum(q, weight)
                rhs = divisor_expand(q, weight)
                assert abs(lhs - rhs) <= 1e-10

    _criterion(capsys, "6 Lambert sums equal divisor convolutions", body)


def test_criterion_07_log_cayley_decomposition(capsys):
    # log cayley(U(xq, yq; q)) = 2 L(xq) - 2 L(yq), compared after exp
    def body():
        import cmath

        for x, y, q in ((0.4, 0.2, 0.25), (0.1, 0.7, 0.3)):
            lhs = cmath.log(cayley(u_cf(x * q, y * q, q)))
            rhs = 2.0 * odd_lambert(x * q, q) - 2.0 * odd_lambert(y * q, q)
            assert abs(cmath.exp(lhs) - cmath.exp(rhs)) <= 1e-9

    _criterion(capsys, "7 log-Cayley of the scaled fraction splits into odd Lambert logs", body)


def test_criterion_08_rogers_ramanujan_chain(capsys):
    def body():
        for q in (0.05, 0.1):
            assert abs(rr_G(q) - 1.0 / agile_minus(1, 5, q)) <= 1e-11
            assert abs(rr_H(q) - 1.0 / agile_minus(2, 5, q)) <= 1e-11
        for q in (0.1, 0.15):
            lhs = theta3_two(2.5, 1.5, q) / theta3_two(2.5, 0.5, q)
            rhs = q ** (-0.2) * rr_cf(q * q) / rr_cf(q)
            assert abs(lhs - rhs) <= 1e-9

    _criterion(capsys, "8 Rogers-Ramanujan sums, products, and quotient law", body)


def test_criterion_09_full_suite_gate(capsys):
    def body():
        start = time.perf_counter()
        report = run_registry(registry())
        elapsed = time.perf_counter() - start
        assert len(report.results) >= 80
        assert elapsed < 60.0
        assert report.gate_passed
        for res in report.results:
            if res.case.status == "ACTIVE":
                assert res.passed_all, res.case.id
        text = report_to_text(report)
        quarantined = report.quarantined()
        assert quarantined
        for res in quarantined:
            assert math.isfinite(res.worst_rel_residual), res.case.id
            assert res.case.id in text

    _criterion(capsys, "9 full registry gate with quarantine reporting", body)


def test_criterion_10_property_modes(capsys):
    def body():
        here = Path(__file__).parent
        for name in ("numutil", "qseries", "elliptic", "fourier", "angle", "theta"):
            assert (here / f"test_{name}.py").is_file()
        derivative = [c for c in registry()
                      if c.compare == "derivative" and c.status == "ACTIVE"]
        limits = [c for c in registry()
                  if c.compare == "limit" and c.status == "ACTIVE"]
        assert derivative and limits
        for case in derivative:
            assert case.tol is not None, case.id
            assert case.tolerance <= 1e-6
            assert run_case(case).passed_all, case.id
        for case in limits:
            assert case.tol is not None, case.id
            assert case.tolerance <= 1e-3
            assert run_case(case).passed_all, case.id

    _criterion(capsys, "10 derivative- and limit-mode property suites", body)
