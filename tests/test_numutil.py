"""Truncation policy, series summation, differentiation, quadrature, CF."""

import cmath
import dataclasses
import math

import pytest
from numpy.testing import assert_allclose

from qelliptic.numutil import (
    DEFAULT_POLICY,
    NonConvergenceError,
    PoleError,
    TruncationPolicy,
    complex_quad,
    continued_fraction,
    numeric_derivative,
    current_policy,
    principal_power,
    sum_series,
    term_counter,
    truncation,
)


# ---------------------------------------------------------------------------
# sum_series
# ---------------------------------------------------------------------------


def test_sum_series_geometric_value():
    # sum_{n>=0} 0.5^n = 2
    out = sum_series(lambda n: 0.5**n)
    assert_allclose(out.value, 2.0, rtol=1e-14)
    assert out.converged
    assert out.terms_used > 0


def test_sum_series_start_offset():
    # sum_{n>=1} 0.5^n = 1
    out = sum_series(lambda n: 0.5**n, start=1)
    assert_allclose(out.value, 1.0, rtol=1e-14)


def test_sum_series_est_tail_bounds_truncation_error():
    q = 0.3
    out = sum_series(lambda n: q**n)
    exact = 1.0 / (1.0 - q)
    assert abs(out.value - exact) <= max(out.est_tail, 1e-15)


def test_sum_series_survives_gaps():
    # sparse support: only every fifth term is nonzero, so the stagnation
    # window must bridge runs of exact zeros without stopping early
    q = 0.4
    out = sum_series(lambda n: q**n if n % 5 == 0 else 0.0)
    assert_allclose(out.value, 1.0 / (1.0 - q**5), rtol=1e-13)


def test_sum_series_yields_complex_partial_sums():
    out = sum_series(lambda n: (0.2 + 0.3j) ** n)
    assert_allclose(out.value, 1.0 / (1.0 - (0.2 + 0.3j)), rtol=1e-13)


def test_sum_series_honors_max_terms():
    with truncation(max_terms=50), pytest.raises(NonConvergenceError):
        sum_series(lambda n: 0.999**n)


@pytest.mark.parametrize(
    "term, used",
    [
        (lambda n: math.nan if n == 2 else 0.5**n, 3),
        (lambda n: 1e308 if n < 3 else 0.0, 2),
        (lambda n: math.nan, 1),
        (lambda n: complex(0.5**n, math.inf) if n == 4 else 0.5**n, 5),
    ],
    ids=["nan term", "overflowing total", "nan terms only", "infinite imaginary part"],
)
def test_sum_series_refuses_non_finite_partial_sums(term, used):
    with term_counter() as count:
        with pytest.raises(NonConvergenceError, match="partial sum"):
            sum_series(term)
        assert count() == used


def _reference_sum_series(term, start=0):
    """The summation loop with its tail estimate updated every term: a bit-for-bit oracle."""
    pol = current_policy()
    total = 0.0 + 0.0j
    prev_mag = 0.0
    est_tail = float("inf")
    consecutive_small = 0
    n = start
    used = 0
    while used < pol.max_terms:
        t = complex(term(n))
        total += t
        used += 1
        mag = abs(t)
        scale = max(1.0, abs(total))
        if mag > 0.0:
            if prev_mag > 0.0:
                ratio = min(mag / prev_mag, 0.999999)
                est_tail = mag * ratio / (1.0 - ratio)
            prev_mag = mag
        if mag <= pol.rel_tail_cutoff * scale:
            consecutive_small += 1
            if consecutive_small >= pol.stagnation_window and (
                est_tail <= pol.rel_tail_cutoff * scale or mag == 0.0
            ):
                return (total, used, est_tail if est_tail != float("inf") else mag, True)
        else:
            consecutive_small = 0
        n += 1
    raise NonConvergenceError(
        f"series did not converge within {pol.max_terms} terms (est_tail={est_tail:.3g})"
    )


_REFERENCE_SERIES = [
    ("real geometric", lambda n: 0.5**n, 0),
    ("slow real geometric", lambda n: 0.97**n, 0),
    ("complex geometric", lambda n: (0.2 + 0.3j) ** n, 0),
    ("lacunary, squares only", lambda m: 0.9**m if math.isqrt(m) ** 2 == m else 0.0, 0),
    ("all zero", lambda n: 0.0, 0),
    ("alternating", lambda n: (-0.7) ** n, 0),
    ("start=1", lambda n: 0.3**n / n, 1),
]


@pytest.mark.parametrize("overrides", [{}, {"stagnation_window": 1}, {"rel_tail_cutoff": 1e-12}])
def test_sum_series_matches_reference_loop_bit_for_bit(overrides):
    with truncation(**overrides):
        for label, term, start in _REFERENCE_SERIES:
            out = sum_series(term, start=start)
            got = (out.value, out.terms_used, out.est_tail, out.converged)
            assert got == _reference_sum_series(term, start=start), label


@pytest.mark.parametrize("max_terms", [0, 1, 50])
def test_sum_series_refusal_matches_reference_loop(max_terms):
    with truncation(max_terms=max_terms):
        for _, term, start in _REFERENCE_SERIES[:2]:
            with pytest.raises(NonConvergenceError) as expected:
                _reference_sum_series(term, start=start)
            with term_counter() as count:
                with pytest.raises(NonConvergenceError) as got:
                    sum_series(term, start=start)
                assert count() == max_terms
            assert str(got.value) == str(expected.value)


def test_truncation_nests_and_restores():
    assert current_policy() is DEFAULT_POLICY
    with truncation(max_terms=50) as outer:
        assert current_policy() is outer
        assert outer == TruncationPolicy(max_terms=50)
        with truncation(rel_tail_cutoff=1e-12) as inner:
            # overrides apply on top of the enclosing scope
            assert inner == TruncationPolicy(rel_tail_cutoff=1e-12, max_terms=50)
            assert current_policy() is inner
        assert current_policy() is outer
        with pytest.raises(NonConvergenceError), truncation(max_terms=3):
            sum_series(lambda n: 0.5**n)
        assert current_policy() is outer
    assert current_policy() is DEFAULT_POLICY


def test_policy_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        DEFAULT_POLICY.max_terms = 17  # type: ignore[misc]


def test_policy_defaults():
    assert DEFAULT_POLICY.rel_tail_cutoff == 1e-16
    assert DEFAULT_POLICY.max_terms == 100_000
    assert DEFAULT_POLICY.stagnation_window == 8


# ---------------------------------------------------------------------------
# term_counter
# ---------------------------------------------------------------------------


def test_term_counter_accumulates():
    with term_counter() as count:
        sum_series(lambda n: 0.5**n)
        assert count() > 0
        before = count()
        sum_series(lambda n: 0.25**n)
        assert count() > before


def test_term_counter_nests():
    with term_counter() as outer:
        sum_series(lambda n: 0.5**n)
        seen_outer = outer()
        with term_counter() as inner:
            sum_series(lambda n: 0.5**n)
            assert inner() == seen_outer
        assert outer() == 2 * seen_outer


# ---------------------------------------------------------------------------
# numeric_derivative
# ---------------------------------------------------------------------------


def test_derivative_of_square():
    # d/dx x^2 at 3 = 6
    assert_allclose(numeric_derivative(lambda x: x * x, 3.0), 6.0, rtol=1e-9)


def test_derivative_of_exp_at_zero():
    assert_allclose(numeric_derivative(cmath.exp, 0.0), 1.0, rtol=1e-10)


def test_derivative_richardson_steps_sharpen():
    f = cmath.cos
    coarse = abs(numeric_derivative(f, 1.0, h=1e-2, steps=1) + math.sin(1.0))
    fine = abs(numeric_derivative(f, 1.0, h=1e-2, steps=3) + math.sin(1.0))
    assert fine < coarse


def test_derivative_rejects_bad_steps():
    with pytest.raises(ValueError):
        numeric_derivative(cmath.exp, 0.0, steps=0)


def test_derivative_log_euler_product():
    # d/dq log prod(1 - q^n) at q = e^{-2 pi} equals
    # -(1/(4q)) sum 1/sinh(n x)^2 with q = e^{-2x}, x = pi
    from qelliptic.qseries import euler_product

    q = math.exp(-2.0 * math.pi)
    lhs = numeric_derivative(lambda t: cmath.log(euler_product(t)), q, steps=2)
    rhs = -1.0 / (4.0 * q) * sum_series(
        lambda n: 1.0 / math.sinh((n + 1) * math.pi) ** 2
    ).value
    assert abs(lhs - rhs) <= 1e-6


# ---------------------------------------------------------------------------
# complex_quad
# ---------------------------------------------------------------------------


def test_quad_real_segment():
    # int_0^pi sin = 2
    assert_allclose(complex_quad(cmath.sin, 0.0, math.pi), 2.0, rtol=1e-12)


def test_quad_complex_segment():
    # int_0^{1+i} e^t dt = e^{1+i} - 1, path independence of entire integrand
    calls = []

    def f(t):
        calls.append(t)
        return cmath.exp(t)

    got = complex_quad(f, 0.0, 1.0 + 1.0j)
    assert_allclose(
        [got.real, got.imag],
        [(cmath.exp(1.0 + 1.0j) - 1.0).real, (cmath.exp(1.0 + 1.0j) - 1.0).imag],
        rtol=1e-13,
    )
    # one complex evaluation per node, fewer than two 21-node real passes
    assert len(calls) < 42


def test_quad_kinked_integrand_is_refused():
    # |t - 0.3| is not analytic on [0, 1]: the rules converge only
    # algebraically, so they never agree to 1e-13
    with pytest.raises(NonConvergenceError):
        complex_quad(lambda t: abs(t - 0.3), 0.0, 1.0)


# ---------------------------------------------------------------------------
# continued_fraction
# ---------------------------------------------------------------------------


def test_cf_sqrt_two():
    # sqrt(2) = 1 + 1/(2 + 1/(2 + ...))
    got = 1.0 + continued_fraction(lambda k: 2.0, lambda k: 1.0)
    assert_allclose(got, math.sqrt(2.0), rtol=1e-12)


def test_cf_computes_each_coefficient_once():
    calls = {"a": [], "b": []}

    def a(k):
        calls["a"].append(k)
        return 2.0

    def b(k):
        calls["b"].append(k)
        return 1.0

    with term_counter() as count:
        got = continued_fraction(a, b)
        work = count()
    deepest = max(calls["a"])
    assert sorted(calls["a"]) == sorted(calls["b"]) == list(range(1, deepest + 1))
    # the work count still charges every backward sweep, 25 + 50 + ...
    assert work == sum(d for d in (25, 50, 100, 200, 400) if d <= deepest)

    # a fresh backward evaluation at the final depth gives the same bits
    acc = 0.0 + 0.0j
    for k in range(deepest, 0, -1):
        acc = complex(1.0) / (complex(2.0) + acc)
    assert got == acc


def test_cf_zero_denominator_raises():
    with pytest.raises(PoleError):
        continued_fraction(lambda k: 0.0, lambda k: 1.0, max_depth=100)


def test_cf_stagnation_raises():
    # sum |a_k| < infinity with unit numerators: even/odd convergents split
    # to different limits, so successive depths never agree
    requested = []

    def a(k):
        requested.append(k)
        return 1e-8

    with pytest.raises(NonConvergenceError, match="did not stabilize by depth 400"):
        continued_fraction(a, lambda k: 1.0, tail_tol=1e-15, max_depth=400)
    # the deepest sweep is the largest doubling of 25 not above max_depth
    assert max(requested) == 400
    assert len(requested) == 400


# ---------------------------------------------------------------------------
# principal_power
# ---------------------------------------------------------------------------


def test_principal_power_integer_exponents_exact():
    assert principal_power(-2.0, 3) == complex(-8.0)
    assert principal_power(0.3, 0) == complex(1.0)


def test_principal_power_principal_branch():
    got = principal_power(-0.2, 0.5)
    assert_allclose([got.real, got.imag], [0.0, math.sqrt(0.2)], atol=1e-15)


def test_principal_power_zero_base():
    assert principal_power(0.0, 0.5) == 0.0
    with pytest.raises(PoleError):
        principal_power(0.0, -1)
    with pytest.raises(PoleError):
        principal_power(0.0, -0.5)


def test_error_taxonomy():
    # PoleError participates in ZeroDivisionError handling paths
    assert issubclass(PoleError, ZeroDivisionError)
    assert issubclass(NonConvergenceError, RuntimeError)
