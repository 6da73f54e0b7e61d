"""Truncation policy, series summation, differentiation, quadrature, CF."""

import asyncio
import cmath
import math
import random

import mpmath as mp
import pytest
from assertions import assert_close

from qelliptic import numutil
from qelliptic.angle import angle_sum
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
from qelliptic.qseries import euler_product, qpochhammer
from qelliptic.thetagen import (
    agile_minus,
    agile_plus,
    cayley,
    cayley_u_product,
    cayley_u0_product,
    odd_lambert,
    ramanujan_quantity,
    restricted_divisor_log,
    theta1_two,
    theta3_two,
    theta4_two,
    u0_product,
    u_product,
)


# ---------------------------------------------------------------------------
# sum_series
# ---------------------------------------------------------------------------


def _terms_used(term):
    """The work :func:`sum_series` charges to :func:`term_counter`."""
    with term_counter() as count:
        sum_series(term)
    return count()


def test_sum_series_geometric_value():
    # sum_{n>=0} 0.5^n = 2
    out = sum_series(lambda n: 0.5**n)
    assert_close(out, 2.0, rtol=1e-14)
    assert _terms_used(lambda n: 0.5**n) > 0


def test_sum_series_start_offset():
    # sum_{n>=1} 0.5^n = 1: a sum from n = 1 shifts its own index
    out = sum_series(lambda n: 0.5 ** (n + 1))
    assert_close(out, 1.0, rtol=1e-14)


def test_sum_series_est_tail_bounds_truncation_error():
    # the stop needs a geometric tail estimate below rel_tail_cutoff * |sum|
    # (1e-16), so what is left is within that plus a few roundings
    for q in (0.3, -0.7, 0.2 + 0.3j):
        out = sum_series(lambda n: q**n)
        exact = 1.0 / (1.0 - q)
        assert abs(out - exact) <= 1e-15 * abs(exact), q


def test_sum_series_survives_gaps():
    # sparse support: only every fifth term is nonzero, so the stagnation
    # window must bridge runs of exact zeros without stopping early
    q = 0.4
    out = sum_series(lambda n: q**n if n % 5 == 0 else 0.0)
    assert_close(out, 1.0 / (1.0 - q**5), rtol=1e-13)


def test_sum_series_yields_complex_partial_sums():
    out = sum_series(lambda n: (0.2 + 0.3j) ** n)
    assert_close(out, 1.0 / (1.0 - (0.2 + 0.3j)), rtol=1e-13)


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
        with pytest.raises(OverflowError, match="partial sum"):
            sum_series(term)
        assert count() == used


def _reference_sum_series(term, trend_guard=True):
    """The stopping rule written out over the list of every term seen: a
    bit-for-bit oracle of the sum and its term count.  ``trend_guard=False``
    gives the plain rule (two negligible nonzero terms and a negligible
    geometric tail)."""
    pol = current_policy()
    total = 0.0 + 0.0j
    seen = []  # (index, |term|, negligible) of every nonzero term
    peak_n = peak = None  # the first index of the largest term seen, negligible or not
    last_big = None  # position in seen of the last non-negligible term
    zeros = 0
    for n in range(pol.max_terms):
        t = complex(term(n))
        if t == 0:
            zeros += 1
            if zeros == 64:
                return (total, n + 1)
            continue
        zeros = 0
        total += t
        if not math.isfinite(abs(total)):
            raise OverflowError(f"series partial sum is {total} after {n + 1} terms")
        if peak is None or abs(t) > peak:
            peak_n, peak = n, abs(t)
        bound = pol.rel_tail_cutoff * max(abs(total), 2.0**-52 * peak)
        seen.append((n, abs(t), abs(t) <= bound))
        if not seen[-1][2]:
            last_big = len(seen) - 1
        if len(seen) < 2 or not (seen[-1][2] and seen[-2][2]):
            continue
        if trend_guard:
            big_n, big = seen[last_big][:2] if last_big is not None else (None, None)
            if big_n is None or big_n <= peak_n:
                # no big term after the peak: a run of 64 negligible terms stands in
                run = len(seen) - 1 - (last_big if last_big is not None else -1)
                if run < 64:
                    continue
            # the trend from the peak to the last big term, one index ahead
            elif big * (big / peak) ** ((n + 1 - big_n) / (big_n - peak_n)) > bound:
                continue
        if _reference_tail(seen) <= bound:
            return (total, n + 1)
    raise NonConvergenceError(
        f"series did not converge within {pol.max_terms} terms (est_tail={_reference_tail(seen):.3g})"
    )


def _reference_tail(seen):
    if len(seen) < 2:
        return math.inf
    last, before = seen[-1][1], seen[-2][1]
    r = min(last / before, 0.999999)
    return last * r / (1.0 - r)


def _noise_gap_term(q):
    """q^n sin(n pi/3) sin((n+1) pi/3): for n = 2, 3, 5, 6, ... one factor is
    sin(k pi), float noise of about 1e-16 instead of 0, so two "zeros" in a
    row come before the decay shows."""
    return lambda n: q**n * math.sin(n * math.pi / 3) * math.sin((n + 1) * math.pi / 3)


def _noise_gap_sum(q):
    # sin a sin b = (cos(a - b) - cos(a + b))/2, summed as two geometric series
    w = cmath.exp(2j * math.pi / 3)
    return 0.25 / (1.0 - q) - 0.5 * (cmath.exp(1j * math.pi / 3) / (1.0 - q * w)).real


_REFERENCE_SERIES = [
    ("real geometric", lambda n: 0.5**n),
    ("slow real geometric", lambda n: 0.97**n),
    ("complex geometric", lambda n: (0.2 + 0.3j) ** n),
    ("lacunary, squares only", lambda m: 0.9**m if math.isqrt(m) ** 2 == m else 0.0),
    ("all zero", lambda n: 0.0),
    ("alternating", lambda n: (-0.7) ** n),
    ("from n = 1, shifted", lambda n: 0.3 ** (n + 1) / (n + 1)),
    ("noise gaps, q = 0.3", _noise_gap_term(0.3)),
    ("noise gaps, q = 0.5", _noise_gap_term(0.5)),
    ("noise gaps, q = 0.8", _noise_gap_term(0.8)),
    ("one dominant term", lambda n: 1e6 if n == 5 else 0.5**n),
    ("finite support", lambda n: [3.0, -1.0, 0.5][n] if n < 3 else 0.0),
    ("tiny, slow", lambda n: 1e-17 * 0.995**n),
    ("tiny, fast", lambda n: 1e-17 * 0.9**n),
    ("lone first term", lambda n: 1.0 if n == 0 else 1e-17 / n**2),
]


@pytest.mark.parametrize("overrides", [{}, {"rel_tail_cutoff": 1e-8}, {"rel_tail_cutoff": 1e-12}])
def test_sum_series_matches_reference_loop_bit_for_bit(overrides):
    with truncation(**overrides):
        for label, term in _REFERENCE_SERIES:
            with term_counter() as count:
                out = sum_series(term)
            assert (out, count()) == _reference_sum_series(term), label


@pytest.mark.parametrize("max_terms", [0, 1, 50])
def test_sum_series_refusal_matches_reference_loop(max_terms):
    with truncation(max_terms=max_terms):
        for _, term in _REFERENCE_SERIES[:2]:
            with pytest.raises(NonConvergenceError) as expected:
                _reference_sum_series(term)
            with term_counter() as count:
                with pytest.raises(NonConvergenceError) as got:
                    sum_series(term)
                assert count() == max_terms
            assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("q, plain_used, plain_error", [(0.3, 4, 0.027), (0.5, 4, 0.125), (0.8, 19, 0.018)])
def test_sum_series_noise_gaps_need_the_trend_guard(q, plain_used, plain_error):
    exact = _noise_gap_sum(q)
    term = _noise_gap_term(q)
    # without the guard two noise terms in a row end the sum early and wrong
    plain, used = _reference_sum_series(term, trend_guard=False)
    assert used == plain_used
    assert abs(plain.real - exact) / exact == pytest.approx(plain_error, rel=0.01)
    out = sum_series(term)
    assert abs(out - exact) <= 4e-16 * exact


def test_sum_series_zero_run_ends_the_sum():
    # 1e-30 and 1e-31 are negligible but follow no big term after the peak,
    # so only the run of 64 exact zeros after them ends the sum
    with term_counter() as count:
        out = sum_series(lambda n: [1.0, 0.0, 1e-30, 0.0, 1e-31][n] if n < 5 else 0.0)
    assert count() == 5 + 64
    assert out == 1.0 + 1e-30 + 1e-31


def test_sum_series_stops_after_a_run_without_a_trend():
    # no non-negligible term follows the largest one, so there is no decay
    # trend: 64 negligible terms in a row and a negligible tail end the sum
    assert _terms_used(lambda n: 1.0 if n == 0 else 1e-17 / n**2) == 65


# the series of the scale-invariance check and the terms each takes at any
# scale; under the old floor max(1, |partial sum|) the counts moved with the
# scale 2^k, k in {-600, -60, -10, 0, 10, 60, 600}: 46-64, 64-109, 31-335,
# 64-65 and 64-350
_SCALED_SERIES = [
    ("geometric", lambda n: 0.5**n, 55),
    ("alternating", lambda n: (-0.7) ** n, 109),
    ("lacunary", lambda n: 0.3**n if n % 5 == 0 else 0.0, 41),
    ("lone leading term", lambda n: 1.0 if n == 0 else 1e-17 / n**2, 65),
    ("tiny geometric", lambda n: 1e-17 * 0.9**n, 350),
]


@pytest.mark.parametrize("term, used", [s[1:] for s in _SCALED_SERIES],
                         ids=[s[0] for s in _SCALED_SERIES])
def test_sum_series_stop_is_invariant_under_power_of_two_scaling(term, used):
    # 2^k c f(n) stops at the index where c f(n) does, and since scaling by a
    # power of two is exact in these ranges, the sum is the scaled sum
    base = sum_series(term)
    rng = random.Random(2026)
    for k in [-600, -60, -10, 0, 10, 60, 600] + [rng.randint(-600, 600) for _ in range(8)]:
        scale = math.ldexp(1.0, k)
        with term_counter() as count:
            out = sum_series(lambda n: scale * term(n))
        assert count() == used, k
        assert out == scale * base, k


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
    with pytest.raises(AttributeError):
        DEFAULT_POLICY.max_terms = 17  # type: ignore[misc]
    assert DEFAULT_POLICY.max_terms == 100_000


def test_policy_defaults():
    assert DEFAULT_POLICY.rel_tail_cutoff == 1e-16
    assert DEFAULT_POLICY.max_terms == 100_000
    assert TruncationPolicy._fields == ("rel_tail_cutoff", "max_terms")
    assert TruncationPolicy._field_defaults == {"rel_tail_cutoff": 1e-16, "max_terms": 100_000}


def test_truncation_refuses_an_unknown_field():
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        with truncation(max_terms=50, bogus=1):
            pass
    assert current_policy() is DEFAULT_POLICY


@pytest.mark.parametrize("field, value", [
    ("rel_tail_cutoff", -1.0), ("rel_tail_cutoff", 0.0), ("rel_tail_cutoff", math.nan),
    ("rel_tail_cutoff", math.inf), ("rel_tail_cutoff", "1e-12"), ("rel_tail_cutoff", True),
    ("max_terms", 2.5), ("max_terms", -1), ("max_terms", True), ("max_terms", None),
])
def test_truncation_refuses_an_invalid_value(field, value):
    # refused when the scope opens, before any loop runs: no factor of
    # euler_product(0.3) passes a negative or nan cutoff, so it would take all
    # 100,000, and a float cap would fail inside qpochhammer's range()
    with term_counter() as count, pytest.raises(ValueError, match=f"{field} .*got {value!r}"):
        with truncation(**{field: value}):
            euler_product(0.3)
    assert count() == 0
    assert current_policy() is DEFAULT_POLICY


@pytest.mark.parametrize("field, value", [
    ("rel_tail_cutoff", 1e-300), ("rel_tail_cutoff", 1e-12), ("rel_tail_cutoff", 1),
    ("max_terms", 0), ("max_terms", 1), ("max_terms", 10**9),
])
def test_truncation_accepts_a_valid_value(field, value):
    with truncation(**{field: value}) as policy:
        assert policy == DEFAULT_POLICY._replace(**{field: value})
    assert current_policy() is DEFAULT_POLICY


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


def test_term_counter_reads_its_block_after_exit():
    with term_counter() as outer:
        with term_counter() as count:
            sum_series(lambda n: 0.5**n)
        sum_series(lambda n: 0.5**n)
    # 0.5^n stops at n = 54 (55 terms)
    assert count() == 55
    assert outer() == 110


def test_term_counter_charges_a_raising_block_to_the_outer_scope():
    with term_counter() as outer:
        with pytest.raises(RuntimeError):
            with term_counter() as count:
                sum_series(lambda n: 0.5**n)
                raise RuntimeError("block fails")
        assert count() == 55
        assert outer() == 55
        # the outer scope's counter is the active one again
        sum_series(lambda n: 0.5**n)
        assert outer() == 110
        assert count() == 55


def test_term_counter_nested_in_a_raising_block():
    with term_counter() as outer:
        with pytest.raises(RuntimeError):
            with term_counter() as middle:
                with term_counter() as inner:
                    sum_series(lambda n: 0.5**n)
                sum_series(lambda n: 0.5**n)
                raise RuntimeError("block fails")
    assert (inner(), middle(), outer()) == (55, 110, 110)
    # no counter is left active
    assert numutil._WORK.get() is None


def test_term_counter_is_per_task():
    async def sums(k):
        with term_counter() as count:
            for _ in range(k):
                sum_series(lambda n: 0.5**n)
                await asyncio.sleep(0)
            return count()

    async def both():
        with term_counter() as outer:
            got = await asyncio.gather(sums(2), sums(3))
        return got, outer()

    # each task keeps its own count across the awaits; the outer scope sees both
    assert asyncio.run(both()) == ([110, 165], 275)


# ---------------------------------------------------------------------------
# numeric_derivative
# ---------------------------------------------------------------------------


def test_derivative_of_square():
    # d/dx x^2 at 3 = 6
    assert_close(numeric_derivative(lambda x: x * x, 3.0), 6.0, rtol=1e-9)


def test_derivative_of_exp_at_zero():
    assert_close(numeric_derivative(cmath.exp, 0.0), 1.0, rtol=1e-10)


@pytest.mark.parametrize("f, df, a", [
    (cmath.sin, cmath.cos, 1.0),
    (cmath.sin, cmath.cos, 0.0),
    (cmath.sin, cmath.cos, 2.5),
    (cmath.exp, cmath.exp, 1.0),
    (cmath.exp, cmath.exp, 0.0),
    (cmath.exp, cmath.exp, 2.5),
    # near the origin the step stays h, so a smooth f keeps its accuracy
    (cmath.exp, cmath.exp, 1e-10),
    (cmath.exp, cmath.exp, 1e-300),
    (cmath.log, lambda a: 1.0 / a, 1.0),
    (cmath.log, lambda a: 1.0 / a, 2.5),
])
def test_derivative_one_rule_is_accurate(f, df, a):
    # steps h, h/2, h/4 with h = 10^(-16/7) max(1, |a|), extrapolated twice
    want = df(a)
    assert abs(numeric_derivative(f, a) - want) <= 1e-13 * abs(want)


def test_derivative_log_euler_product():
    # d/dq log prod(1 - q^n) at q = e^{-2 pi} equals
    # -(1/(4q)) sum 1/sinh(n x)^2 with q = e^{-2x}, x = pi
    from qelliptic.qseries import euler_product

    q = math.exp(-2.0 * math.pi)
    lhs = numeric_derivative(lambda t: cmath.log(euler_product(t)), q)
    rhs = -1.0 / (4.0 * q) * sum_series(
        lambda n: 1.0 / math.sinh((n + 1) * math.pi) ** 2
    )
    assert abs(lhs - rhs) <= 1e-6


# ---------------------------------------------------------------------------
# complex_quad
# ---------------------------------------------------------------------------


def test_quad_real_segment():
    # int_0^pi sin = 2
    assert_close(complex_quad(cmath.sin, 0.0, math.pi), 2.0, rtol=1e-12)


def test_quad_complex_segment():
    # int_0^{1+i} e^t dt = e^{1+i} - 1, path independence of entire integrand
    calls = []

    def f(t):
        calls.append(t)
        return cmath.exp(t)

    got = complex_quad(f, 0.0, 1.0 + 1.0j)
    assert_close(
        [got.real, got.imag],
        [(cmath.exp(1.0 + 1.0j) - 1.0).real, (cmath.exp(1.0 + 1.0j) - 1.0).imag],
        rtol=1e-13,
    )
    # the pair agrees on the whole segment: one complex evaluation per node
    assert len(calls) == 25


def _counting(f):
    calls = []

    def g(t):
        calls.append(t)
        return f(t)

    return g, calls


@pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_quad_refuses_a_non_finite_rule_sum_at_the_first_pair(value):
    f, calls = _counting(lambda t: value)
    with pytest.raises(OverflowError, match="G12/K25"):
        complex_quad(f, 0.0, 1.0)
    assert len(calls) <= 25


@pytest.mark.parametrize(
    "f, want",
    [
        (cmath.sin, 1.0 - math.cos(1.0)),
        (lambda t: cmath.cos(200.0 * t), math.sin(200.0) / 200.0),
        (cmath.sqrt, 2.0 / 3.0),  # branch point at 0
        (lambda t: 1.0 / ((t - 0.5) ** 2 + 1e-4), 200.0 * math.atan(50.0)),  # poles 0.01 off
        (lambda t: abs(t - 0.3), 0.29),  # kink
    ],
)
def test_quad_matches_closed_forms(f, want):
    assert abs(complex_quad(f, 0.0, 1.0) - want) <= 1e-13


@pytest.mark.parametrize(
    "f",
    [
        cmath.log,  # integrable singularity at 0
        lambda t: 1.0 / (t - 0.3),  # pole on the segment: no integral, only a principal value
        lambda t: 1.0 / (t - 0.3) ** 2,  # non-integrable pole
    ],
)
def test_quad_refuses_what_it_cannot_resolve(f):
    # never a silent wrong value: next to the singularity the pair keeps
    # disagreeing, so the bisection spends its 30 intervals and stops
    f, calls = _counting(f)
    with pytest.raises(NonConvergenceError, match="30 intervals"):
        complex_quad(f, 0.0, 1.0)
    assert len(calls) == 25 + 29 * 50


def test_quad_pole_at_the_midpoint_raises_at_the_kronrod_node():
    # K25 has a node at the midpoint; the Gauss rule of even size alone
    # would have returned the principal value 0 here
    f, calls = _counting(lambda t: 1.0 / (t - 0.5))
    with pytest.raises(ZeroDivisionError):
        complex_quad(f, 0.0, 1.0)
    assert calls[-1] == 0.5 and len(calls) <= 25


def _kronrod_reference(n):
    """The K_(2n+1) rule on [0, 1] at 40 digits: Laurie's algorithm with the
    diagonal carried, nodes by Newton from the tabulated rule, Christoffel
    weights.  Returns (nodes, weights, largest diagonal entry)."""
    got = numutil._QUAD_NODES
    with mp.workdps(40):
        a = [mp.mpf(0)] * (2 * n + 1)
        b = [mp.mpf(0)] * (2 * n + 1)
        b[0] = mp.mpf(2)
        for k in range(1, (3 * n + 1) // 2 + 1):
            b[k] = mp.mpf(k * k) / (4 * k * k - 1)
        s = [mp.mpf(0)] * (n // 2 + 2)
        t = [mp.mpf(0)] * (n // 2 + 2)
        t[1] = b[n + 1]
        for m in range(n - 1):
            acc = mp.mpf(0)
            for k in range((m + 1) // 2, -1, -1):
                acc += (a[k + n + 1] - a[m - k]) * t[k + 1] + b[k + n + 1] * s[k] - b[m - k] * s[k + 1]
                s[k + 1] = acc
            s, t = t, s
        for j in range(n // 2, -1, -1):
            s[j + 1] = s[j]
        for m in range(n - 1, 2 * n - 2):
            acc = mp.mpf(0)
            for k in range(m + 1 - n, (m - 1) // 2 + 1):
                j = n - 1 - m + k
                acc += -(a[k + n + 1] - a[m - k]) * t[j + 1] - b[k + n + 1] * s[j + 1] + b[m - k] * s[j + 2]
                s[j + 1] = acc
            k = (m + 1) // 2
            if m % 2:
                b[k + n + 1] = s[j + 1] / s[j + 2]
            else:
                a[k + n + 1] = a[k] + (s[j + 1] - b[k + n + 1] * s[j + 2]) / t[j + 2]
            s, t = t, s
        a[2 * n] = a[n - 1] - b[2 * n] * s[1] / t[1]
        root_b = [mp.sqrt(v) for v in b]

        def recurrence(z):
            p0, p1 = mp.mpf(0), 1 / root_b[0]
            d0 = d1 = mp.mpf(0)
            squares = p1 * p1
            for k in range(2 * n):
                p0, p1 = p1, ((z - a[k]) * p1 - root_b[k] * p0) / root_b[k + 1]
                d0, d1 = d1, (p0 + (z - a[k]) * d1 - root_b[k] * d0) / root_b[k + 1]
                squares += p1 * p1
            z_a = z - a[2 * n]
            return z_a * p1 - root_b[2 * n] * p0, p1 + z_a * d1 - root_b[2 * n] * d0, squares

        nodes, weights = [], []
        for node in got:
            z = 2 * mp.mpf(node) - 1
            for _ in range(20):
                value, slope, _ = recurrence(z)
                z -= value / slope
                if abs(value / slope) <= mp.mpf(10) ** -38:
                    break
            nodes.append((1 + z) / 2)
            weights.append(1 / (2 * recurrence(z)[2]))
        return nodes, weights, max(abs(v) for v in a)


def _legendre_reference(nodes):
    """The Gauss-Legendre rule on [0, 1] at 40 digits: the roots of P_n by
    mpmath's root finder from the tabulated nodes, weights
    1/((1 - z^2) P_n'(z)^2).  Returns (nodes, weights)."""
    n = len(nodes)
    with mp.workdps(40):
        zs = [mp.findroot(lambda z: mp.legendre(n, z), 2 * mp.mpf(t) - 1) for t in nodes]
        slopes = [n * (z * mp.legendre(n, z) - mp.legendre(n - 1, z)) / (z * z - 1) for z in zs]
        return [(1 + z) / 2 for z in zs], [1 / ((1 - z * z) * d * d) for z, d in zip(zs, slopes)]


@pytest.mark.parametrize("n", [12])
def test_kronrod_rule_matches_a_40_digit_construction(n):
    nodes, weights, gauss_weights = numutil._QUAD_NODES, numutil._QUAD_KRONROD, numutil._QUAD_GAUSS
    ref_nodes, ref_weights, diagonal = _kronrod_reference(n)
    assert diagonal <= 1e-35  # Legendre's symmetry: the Kronrod diagonal is 0
    # 2n + 1 distinct roots of a degree 2n + 1 polynomial: every Kronrod node
    assert all(x < y for x, y in zip(ref_nodes, ref_nodes[1:]))
    assert max(abs(x - y) for x, y in zip(nodes, ref_nodes)) <= 2e-16
    errors = [w - y for w, y in zip(weights, ref_weights)]
    assert max(abs(e) for e in errors) <= 2e-16
    assert abs(sum(errors)) <= 3e-15
    assert min(weights) > 0.0
    # every second node is a node of the n-point Gauss rule
    gauss_nodes, ref_gauss_weights = _legendre_reference(nodes[1::2])
    assert len(gauss_weights) == n
    assert all(x < y for x, y in zip(gauss_nodes, gauss_nodes[1:]))
    assert max(abs(x - y) for x, y in zip(nodes[1::2], gauss_nodes)) <= 2e-16
    assert max(abs(w - y) for w, y in zip(gauss_weights, ref_gauss_weights)) <= 2e-16


@pytest.mark.parametrize("n", [12])
def test_kronrod_rule_integrates_legendre_polynomials_exactly(n):
    # K_(2n+1) has degree 3n + 1: int_0^1 P_j(2t - 1) dt = [j == 0]
    nodes, weights = numutil._QUAD_NODES, numutil._QUAD_KRONROD
    assert len(nodes) == 2 * n + 1
    moments = [0.0] * (3 * n + 2)
    for node, w in zip(nodes, weights):
        z = 2.0 * node - 1.0
        p0, p1 = 1.0, z
        moments[0] += w
        moments[1] += w * z
        for j in range(1, 3 * n + 1):
            p0, p1 = p1, ((2 * j + 1) * z * p1 - j * p0) / (j + 1)
            moments[j + 1] += w * p1
    assert abs(moments[0] - 1.0) <= 1e-14
    assert max(abs(m) for m in moments[1:]) <= 1e-14


# ---------------------------------------------------------------------------
# continued_fraction
# ---------------------------------------------------------------------------


def test_cf_sqrt_two():
    # sqrt(2) = 1 + 1/(2 + 1/(2 + ...))
    got = 1.0 + continued_fraction(lambda k: 2.0, lambda k: 1.0)
    assert_close(got, math.sqrt(2.0), rtol=1e-12)


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
    assert calls["a"] == calls["b"] == list(range(1, deepest + 1))
    # the work count is the final depth
    assert work == deepest

    # a backward evaluation at the final depth agrees to rounding
    acc = 0.0 + 0.0j
    for k in range(deepest, 0, -1):
        acc = complex(1.0) / (complex(2.0) + acc)
    assert abs(got - acc) <= 2.5e-16 * abs(acc)


def test_cf_zero_first_numerator_is_exactly_zero():
    requested = []

    def b(k):
        requested.append(k)
        return 0.0 if k == 1 else 1.0

    with term_counter() as count:
        assert continued_fraction(lambda k: 0.0, b) == 0
        assert count() == 1
    assert requested == [1]


def test_cf_passes_a_zero_or_infinite_convergent():
    # 1/(1 + 1/(-1 + 1/(-1 + ...))): B_2 = 0, so f_2 is infinite, yet the
    # convergents 1, inf, 2, 3, 2.5, ... go on to phi^2
    got = continued_fraction(lambda k: 1.0 if k == 1 else -1.0, lambda k: 1.0)
    assert_close(got, (3.0 + math.sqrt(5.0)) / 2.0, rtol=1e-14)
    # 1/(1 + 1/(0 + 1/(1 + 1/(1 + ...)))): A_2 = 0, so f_2 = 0; the fraction
    # is 1/(1 + 1/(0 + t)) = t/(t + 1) with t = 1/(1 + t) = 1/phi
    got = continued_fraction(lambda k: 0.0 if k == 2 else 1.0, lambda k: 1.0)
    t = (math.sqrt(5.0) - 1.0) / 2.0
    assert_close(got, t / (t + 1.0), rtol=1e-14)
    # 1/(1 + 1/(0 + 0/...)) ends on f_2 = 0
    with term_counter() as count:
        got = continued_fraction(lambda k: 0.0 if k == 2 else 1.0, lambda k: 0.0 if k == 3 else 1.0)
        assert count() == 3
    assert got == 0


def test_cf_zero_denominator_raises():
    # 1/(0 + 1/(0 + ...)): the convergents are infinite and 0 by turns
    with truncation(max_terms=100):
        with pytest.raises(PoleError, match="depth 1 and did not settle by depth 100"):
            continued_fraction(lambda k: 0.0, lambda k: 1.0)
    # 1/(1 + 1/(0 + 1/(0 + ...))): C_2 = a(2) = 0, then 1 and 0 by turns
    with truncation(max_terms=100):
        with pytest.raises(PoleError, match="depth 2 and did not settle by depth 100"):
            continued_fraction(lambda k: 1.0 if k == 1 else 0.0, lambda k: 1.0)
    # 1/(1 + 1/(-1 + 0/...)) ends on f_2 = 1/(1 - 1)
    with term_counter() as count:
        with pytest.raises(PoleError, match="ends on a zero denominator at depth 2"):
            continued_fraction(lambda k: 1.0 if k == 1 else -1.0, lambda k: 0.0 if k == 3 else 1.0)
        assert count() == 3


def test_cf_stagnation_raises():
    # sum |a_k| < infinity with unit numerators: even/odd convergents split
    # to different limits (Stern-Stolz), so the convergent never settles
    requested = []

    def a(k):
        requested.append(k)
        return 1.0 / k**2

    with term_counter() as count, truncation(max_terms=400):
        with pytest.raises(NonConvergenceError, match="did not stabilize by depth 400"):
            continued_fraction(a, lambda k: 1.0)
        assert count() == 400
    # the policy's max_terms is the deepest coefficient requested, each requested once
    assert requested == list(range(1, 401))


# ---------------------------------------------------------------------------
# principal_power
# ---------------------------------------------------------------------------


def test_principal_power_integer_exponents_exact():
    assert principal_power(-2.0, 3) == complex(-8.0)
    assert principal_power(0.3, 0) == complex(1.0)


def test_principal_power_principal_branch():
    got = principal_power(-0.2, 0.5)
    assert_close([got.real, got.imag], [0.0, math.sqrt(0.2)], atol=1e-15)


@pytest.mark.parametrize("w, s", [(0.01, -199), (0.3, -1e300), (1e200, 2), (1e200 + 1e200j, 2),
                                  (-0.5, -1e308), (-2.0, 1e308), (-1.5 + 2j, 1e308)])
def test_principal_power_integer_overflow_names_w_and_n(w, s):
    with pytest.raises(OverflowError) as info:
        principal_power(w, s)
    assert str(info.value) == (f"principal_power: w**n leaves the double range "
                               f"at w = {w}, n = {float(s)!r}")


@pytest.mark.parametrize("w, s", [(-0.5, 1e308), (-2.0, -1e308), (-0.3 - 0.4j, 1e308), (0.05, 1e308),
                                  (1e10, -50), (-1e10, -50), (1e10 + 1j, -40)])
def test_principal_power_integer_underflow_is_zero_at_any_base(w, s):
    # CPython's complex ** int takes the phase n Arg w, which is infinite for a
    # negative or complex w here (a bare ZeroDivisionError); |w|^n underflows
    # to 0 as at a positive base, and the theta kernel's ratio q^(a - b) with it.
    # For -100 <= n < 0 it takes 1/w**|n|, a bare NaN where w**|n| overflows
    assert principal_power(w, s) == 0j
    assert principal_power(abs(w), s) == 0j


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


# ---------------------------------------------------------------------------
# one cause per exception type
# ---------------------------------------------------------------------------


def _capped(f, max_terms=3):
    def run():
        with truncation(max_terms=max_terms):
            return f()

    return run


_REFUSALS = [
    # a value that is not a finite double: OverflowError, where it appears
    ("continued_fraction, NaN b(1)",
     lambda: continued_fraction(lambda k: 1.0, lambda k: math.nan if k == 1 else 1.0), OverflowError),
    ("numeric_derivative, infinite f", lambda: numeric_derivative(lambda t: math.inf, 1.0), OverflowError),
    ("theta3_two, overflowing fold", lambda: theta3_two(1, 150.5, 0.01), OverflowError),
    ("theta3_two, b Log q past the double range", lambda: theta3_two(1e-3, 1e308, 1e-300), OverflowError),
    ("theta3_two, q^(a - b) past the double range at a negative nome",
     lambda: theta3_two(2.5, 1e308, -0.5), OverflowError),
    ("cayley, subnormal 1 - v", lambda: cayley(1 + 1e-320j), OverflowError),
    ("u_product, N - D and N + D infinite", lambda: u_product(1e200, -1e200, 0.0), OverflowError),
    ("cayley_u_product, N/D past the double range", lambda: cayley_u_product(0.9, -0.9, 0.995), OverflowError),
    ("cayley_u0_product, P past the double range", lambda: cayley_u0_product(0.9, 0.995), OverflowError),
    # two finite products, 1.8e171 and 1.0e186, whose product is not
    ("agile_plus, two finite brackets past the double range", lambda: agile_plus(50, 2, -0.999), OverflowError),
    ("agile_minus, two finite brackets past the double range", lambda: agile_minus(1, 2, -0.999), OverflowError),
    # 386 direct factors at q = 0.3 overflow to inf, and then to NaN
    ("qpochhammer, product past the double range", lambda: qpochhammer(1e200, 0.3), OverflowError),
    # a spent cap: NonConvergenceError
    # (0.5; 0.5): 3 direct factors, the last at 1/8, then a tail of 12 terms that a cap of 3 cuts
    ("qpochhammer, capped", _capped(lambda: qpochhammer(0.5, 0.5)), NonConvergenceError),
    ("qpochhammer, capped in its direct factors", _capped(lambda: qpochhammer(0.5, 0.9)), NonConvergenceError),
    # 20 atanh terms and an odd tail of 8
    ("angle_sum, capped in its tail", _capped(lambda: angle_sum(0.9, 0.7), max_terms=25), NonConvergenceError),
    ("odd_lambert, capped in its atanh terms", _capped(lambda: odd_lambert(0.99, 0.9)), NonConvergenceError),
    ("theta3_two, capped", _capped(lambda: theta3_two(1, 0.5, 0.2), max_terms=1), NonConvergenceError),
    # a denominator that is exactly 0: PoleError
    ("cayley, v = 1", lambda: cayley(1.0), PoleError),
    ("u_product, N + D = 0", lambda: u_product(2.0, 0.5, 0.0), PoleError),
    ("cayley_u_product, D = 0", lambda: cayley_u_product(1.0, 0.5, 0.3), PoleError),
    ("cayley_u0_product, (a; q) = 0", lambda: cayley_u0_product(1.0, 0.5), PoleError),
    ("u0_product, P + 1 = 0", lambda: u0_product(1j, 0.0), PoleError),
    ("ramanujan_quantity, agile_minus(0, p, q) = 0", lambda: ramanujan_quantity(1, 0, 5, 0.3), PoleError),
    # an argument outside the domain, NaN included: ValueError, not a pole
    # or an overflow that the argument itself brought in
    ("theta3_two, NaN a at q = 0", lambda: theta3_two(math.nan, 0, 0.0), ValueError),
    ("theta3_two, NaN b at q = 0", lambda: theta3_two(1, math.nan, 0.0), ValueError),
    ("theta3_two, NaN b", lambda: theta3_two(1, math.nan, 0.3), ValueError),
    ("theta3_two, infinite b", lambda: theta3_two(1, math.inf, 0.5), ValueError),
    ("theta3_two, NaN b, direct route", lambda: theta3_two(1, math.nan, 0.01), ValueError),
    ("theta3_two, infinite b, direct route", lambda: theta3_two(1, math.inf, 0.01), ValueError),
    ("theta4_two, NaN b, direct route", lambda: theta4_two(1, math.nan, 0.01), ValueError),
    ("theta1_two, infinite a", lambda: theta1_two(math.inf, 0, 0.3), ValueError),
    ("restricted_divisor_log, |q| > 1", lambda: restricted_divisor_log(2.0, 3, [1]), ValueError),
    ("restricted_divisor_log, |q| = 1", lambda: restricted_divisor_log(-1.0, 3, [1]), ValueError),
    ("restricted_divisor_log, NaN q", lambda: restricted_divisor_log(math.nan, 3, [1]), ValueError),
    ("restricted_divisor_log, p = 0", lambda: restricted_divisor_log(0.2, 0, [1]), ValueError),
    ("restricted_divisor_log, p = -1", lambda: restricted_divisor_log(0.2, -1, [1]), ValueError),
]


@pytest.mark.parametrize("call, exc", [row[1:] for row in _REFUSALS], ids=[row[0] for row in _REFUSALS])
def test_each_exception_type_has_one_cause(call, exc):
    with pytest.raises(Exception) as info:
        call()
    assert type(info.value) is exc


def test_a_near_pole_is_a_large_finite_value():
    # PoleError at an exact 0 only: 1 - v = 2^-52 gives 2^53 - 1
    assert cayley(1.0 - 2.0**-52) == 2.0**53 - 1.0


@pytest.mark.parametrize("a, b", [
    (lambda k: 1.0, lambda k: 1e308 * (k + 1)),
    (lambda k: math.nan if k == 3 else 1.0, lambda k: 1.0),
], ids=["overflowing numerators", "NaN a(3)"])
def test_cf_refuses_a_non_finite_convergent_where_it_appears(a, b):
    # refused at the depth where the convergent stops being finite, not
    # after max_terms depths as a fraction that did not stabilize
    with term_counter() as count:
        with pytest.raises(OverflowError, match="continued fraction convergent is") as info:
            continued_fraction(a, b)
        depth = int(str(info.value).rsplit(" ", 1)[1])
        assert depth <= 3 and count() == depth
