"""Two-parameter theta sums, agile products, Rogers-Ramanujan chain,
restricted divisor-sum logarithms."""

import cmath
import math

import mpmath as mp
import pytest
from assertions import assert_close

from qelliptic import thetagen
from qelliptic.elliptic import theta3
from qelliptic.numutil import (
    NonConvergenceError,
    PoleError,
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
    cayley_u0_product,
    cayley_u_product,
    odd_lambert,
    ramanujan_quantity,
    restricted_divisor_log,
    rr_G,
    rr_H,
    rr_cf,
    rr_product,
    rr_sum,
    theta3_two,
    theta4_two,
    u_product,
)


# ---------------------------------------------------------------------------
# two-parameter theta sums
# ---------------------------------------------------------------------------


def test_theta3_two_reduces_to_theta_null():
    q = 0.2
    assert abs(theta3_two(1.0, 0.0, q) - theta3(q)) <= 1e-14


def test_theta4_two_reduces_to_negated_null():
    q = 0.1
    assert abs(theta4_two(1.0, 0.0, q) - theta3(-q)) <= 1e-14


def test_theta3_two_matches_bilateral_brute_force():
    a, b, q = 2.5, 1.5, 0.1
    direct = sum(q ** (a * n * n + b * n) for n in range(-30, 31))
    assert abs(theta3_two(a, b, q) - direct) <= 1e-14


def test_theta_two_linear_symmetry():
    # n -> -n flips the sign of the linear coefficient only
    a, b, q = 1.7, 0.6, 0.22
    assert abs(theta3_two(a, b, q) - theta3_two(a, -b, q)) <= 1e-14
    assert abs(theta4_two(a, b, q) - theta4_two(a, -b, q)) <= 1e-14


def test_theta_two_rejects_divergent_quadratic():
    with pytest.raises(ValueError):
        theta3_two(-1.0, 0.0, 0.3)


def test_theta_two_at_zero_nome():
    # every exponent n (a n +- b) with n != 0 is positive when a > |b|
    assert theta3_two(2.5, 1.5, 0) == 1.0
    assert theta4_two(2.5, 1.5, 0.0) == 1.0
    assert theta3_two(1, 0.4j, 0j) == 1.0
    # A-144's left side is 1 at q = 0
    assert theta4_two(2.5, 1.5, 0) / theta3_two(2.5, 1.5, 0) * rr_G(0.0) ** 2 == 1.0
    # a = |b|: the single q^0 term of n = -+1 counts
    for b in (1.0, -1.0):
        assert theta3_two(1.0, b, 0) == 2.0
        assert theta4_two(1.0, b, 0) == 0.0
    for f in (theta3_two, theta4_two):
        with pytest.raises(PoleError):
            f(1.0, 1.5, 0)


def test_theta_two_overflow_is_refused_fast():
    # q^(a n^2 - b n) overflows near n = 19 long before the sum would turn
    with term_counter() as used:
        with pytest.raises(NonConvergenceError):
            theta3_two(0.5, 400, 0.9)
        assert used() < 100


def _per_term_power(q):
    """``s -> q^s`` as the per-term sum took it: exact integer powers,
    else ``exp(s Log q)``."""
    w = complex(q)
    log_w = cmath.log(w)

    def power(s):
        sc = complex(s)
        if sc.imag == 0.0 and float(sc.real).is_integer():
            return w ** int(sc.real)
        return cmath.exp(sc * log_w)

    return power


def _reference_theta_two(a, b, q, alternating):
    """The per-term sum these kernels replaced (q != 0): three powers per term.
    Returns the sum and its term count."""
    power = _per_term_power(q)
    if abs(power(a)) >= 1.0:
        raise ValueError("|q^a| >= 1")

    def term(n):
        if n == 0:
            return 1.0
        sign = -1.0 if alternating and n % 2 else 1.0
        return sign * power(a * n * n) * (power(b * n) + power(-b * n))

    with term_counter() as used:
        value = sum_series(term)
    return value, used()


def _tail_bound_stop(a, b, q, alternating, cutoff=1e-16):
    """Terms to the first partial sum ``S_m`` (``n = 0 .. m``) at which both
    next ratios ``rho = |q^(a (2m + 1) +- b)|`` are below 1 and
    ``|T_m+| rho+ / (1 - rho+) + |T_m-| rho- / (1 - rho-)`` is at most
    ``cutoff * max(1, |S_m|)``, every quantity from the per-term powers."""
    power = _per_term_power(q)
    total = 0.0
    for m in range(10_000):
        sign = -1.0 if alternating and m % 2 else 1.0
        t_plus = sign * power(a * m * m + b * m)
        t_minus = sign * power(a * m * m - b * m)
        total += 1.0 if m == 0 else t_plus + t_minus
        rho_plus = abs(power(a * (2 * m + 1) + b))
        rho_minus = abs(power(a * (2 * m + 1) - b))
        if rho_plus < 1.0 and rho_minus < 1.0:
            tail = abs(t_plus) * rho_plus / (1.0 - rho_plus) + abs(t_minus) * rho_minus / (1.0 - rho_minus)
            if tail <= cutoff * max(1.0, abs(total)):
                return m + 1
    raise AssertionError("no stop within 10,000 terms")


_AB = [(1, 0), (1, 0.4), (2.5, 1.5), (2.5, 0.5), (0.5, 0.25), (1, 0.4j), (1.5, 0.3 + 0.2j), (0.7, -1.1)]
_SHALLOW_NOMES = [0.01, 0.05, -0.02, -0.05, 0.05j, 0.04 * cmath.exp(2j)]
_DEEP_NOMES = [0.5, 0.9, 0.95, -0.5, -0.9, -0.95, 0.3j, 0.6 * cmath.exp(1j),
               0.95 * cmath.exp(2.5j), 0.95 * cmath.exp(-0.7j), 0.9j]


@pytest.mark.parametrize("alternating", [False, True])
def test_theta_two_kernel_matches_per_term_sum(alternating):
    f = theta4_two if alternating else theta3_two
    for q in _SHALLOW_NOMES + _DEEP_NOMES:
        for a, b in _AB:
            want, want_used = _reference_theta_two(a, b, q, alternating)
            with term_counter() as used:
                got = f(a, b, q)
            assert used() <= want_used, (q, a, b)
            if abs(q) > 0.05:
                continue
            if isinstance(q, float) and q > 0 and isinstance(b, (int, float)):
                # the registry's class: shallow positive nomes, real exponents
                assert got == want, (q, a, b)
            else:
                # the last bit moves; at q < 0 the per-term w**n (n > 100)
                # also carried an imaginary part of ~1e-220
                assert abs(got - want) <= 1e-15 * abs(want), (q, a, b)


@pytest.mark.parametrize("alternating", [False, True])
def test_theta_two_stops_at_its_first_negligible_tail_bound(alternating):
    f = theta4_two if alternating else theta3_two
    for q in _SHALLOW_NOMES + _DEEP_NOMES:
        for a, b in _AB:
            with term_counter() as used:
                f(a, b, q)
            assert used() == _tail_bound_stop(a, b, q, alternating), (q, a, b)


def test_theta_two_obeys_the_truncation_policy():
    a, b, q = 2.5, 1.5, 0.9
    with term_counter() as used:
        want = theta3_two(a, b, q)
    needed = used()
    with truncation(max_terms=needed):
        assert theta3_two(a, b, q) == want
    with term_counter() as used:
        with truncation(max_terms=needed - 1):
            with pytest.raises(NonConvergenceError):
                theta3_two(a, b, q)
    assert used() == needed - 1
    with term_counter() as used:
        with truncation(rel_tail_cutoff=1e-12):
            coarse = theta3_two(a, b, q)
    assert used() == _tail_bound_stop(a, b, q, False, cutoff=1e-12) < needed
    assert abs(coarse - want) <= 1e-12 * max(1.0, abs(want))


def _oracle_theta_two(a, b, q, alternating):
    """Bilateral sum and sum of |terms| at 30 digits, q^s = exp(s Log q)."""
    with mp.workdps(30):
        log_q = mp.log(mp.mpc(q))
        a, b = mp.mpc(a), mp.mpc(b)
        # |term m| = exp(Re(a log q) m^2 + Re(b log q) m) falls for |m| past the vertex
        vertex = abs(mp.re(b * log_q) / (2 * mp.re(a * log_q)))
        total, abs_total, n = mp.mpc(0), mp.mpf(0), 0
        while True:
            largest = mp.mpf(0)
            for m in (n, -n) if n else (0,):
                t = mp.exp((a * m * m + b * m) * log_q)
                if alternating and m % 2:
                    t = -t
                total += t
                abs_total += abs(t)
                largest = max(largest, abs(t))
            if n > vertex and largest < mp.mpf(10) ** -34 * abs_total:
                return complex(total), float(abs_total)
            n += 1


def test_theta_two_against_mpmath_over_the_disk():
    # bound fixed before the running products were written; the per-term
    # sum reached 2.1e-14 at q = -0.95, a = 1, b = 0.4i
    for q in _SHALLOW_NOMES + _DEEP_NOMES:
        for a, b in _AB:
            for f, alternating in ((theta3_two, False), (theta4_two, True)):
                want, abs_total = _oracle_theta_two(a, b, q, alternating)
                assert abs(f(a, b, q) - want) <= 1e-14 * (1.0 + abs_total), (q, a, b, alternating)


@pytest.mark.parametrize("q", [0.05, 0.9])
def test_theta_two_takes_three_powers_per_call(monkeypatch, q):
    calls = []

    def counting_power(w, s):
        calls.append(s)
        return principal_power(w, s)

    monkeypatch.setattr(thetagen, "principal_power", counting_power)
    for f in (theta3_two, theta4_two):
        calls.clear()
        f(2.5, 1.5, q)
        assert len(calls) == 3


# ---------------------------------------------------------------------------
# agile products
# ---------------------------------------------------------------------------


def test_agile_empty_product():
    assert_close(agile_minus(1.0, 3.0, 0.0), 1.0, rtol=1e-15)
    assert_close(agile_plus(1.0, 3.0, 0.0), 1.0, rtol=1e-15)


def test_agile_sign_split():
    # [a,p;q]^- [a,p;q]^+ = [2a,2p;q]^- = [a,p;q^2]^-
    a, p, q = 1.0, 3.0, 0.2
    prod = agile_minus(a, p, q) * agile_plus(a, p, q)
    assert abs(prod - agile_minus(2 * a, 2 * p, q)) <= 1e-12
    assert abs(prod - agile_minus(a, p, q * q)) <= 1e-12


def test_agile_ratio_is_theta_ratio():
    # [a,p;q]^-/[a,p;q]^+ = theta4(p/2,(p-2a)/2)/theta3(p/2,(p-2a)/2)
    a, p, q = 1.0, 4.0, 0.2
    lhs = agile_minus(a, p, q) / agile_plus(a, p, q)
    rhs = theta4_two(p / 2.0, (p - 2.0 * a) / 2.0, q) / theta3_two(
        p / 2.0, (p - 2.0 * a) / 2.0, q
    )
    assert abs(lhs - rhs) <= 1e-11


def test_agile_squaring_laws():
    # [a,p;q^2]^- = (theta3/theta4) ([a,p;q]^-)^2
    #             = (theta4/theta3) ([a,p;q]^+)^2
    for a, p in ((1.0, 3.0), (2.0, 5.0)):
        for q in (0.1, 0.2):
            b1, b2 = p / 2.0, (p - 2.0 * a) / 2.0
            ratio = theta3_two(b1, b2, q) / theta4_two(b1, b2, q)
            lhs = agile_minus(a, p, q * q)
            assert abs(lhs - ratio * agile_minus(a, p, q) ** 2) <= 1e-10
            assert abs(lhs - agile_plus(a, p, q) ** 2 / ratio) <= 1e-10


def test_agile_eta_normalizations():
    # [a,p;q]^+ = theta3(p/2,(p-2a)/2)/f(q^p), minus companion via theta4
    a, p, q = 1.0, 3.0, 0.15
    f = euler_product(q**p)
    assert abs(agile_plus(a, p, q) - theta3_two(p / 2.0, (p - 2.0 * a) / 2.0, q) / f) <= 1e-10
    assert abs(agile_minus(a, p, q) - theta4_two(p / 2.0, (p - 2.0 * a) / 2.0, q) / f) <= 1e-10


# ---------------------------------------------------------------------------
# cayley transform and the theta quotient for U
# ---------------------------------------------------------------------------


def test_cayley_values():
    assert cayley(0.0) == 1.0 + 0.0j
    assert_close(cayley(-1.0), 0.0, atol=1e-15)
    with pytest.raises(PoleError):
        cayley(1.0)


def test_cayley_U_theta_quotient():
    # -1 + 2/(1 - U(q^{k+h}, -q^{k-h}; q^{2k})) = theta3(k,h;q)/theta4(k,h;q)
    k, h, q = 2.0, 1.0, 0.2
    lhs = cayley(u_product(q ** (k + h), -(q ** (k - h)), q ** (2 * k)))
    rhs = theta3_two(k, h, q) / theta4_two(k, h, q)
    assert abs(lhs - rhs) <= 1e-9


def test_cayley_U_square_splits_into_u0_factors():
    # cayley(U(q^a, -q^b; q^p))^2 = P(q^a) P(q^b) over the nome q^p
    a, b, p, q = 1.0, 2.0, 5.0, 0.2
    lhs = cayley(u_product(q**a, -(q**b), q**p)) ** 2
    rhs = cayley_u0_product(q**a, q**p) * cayley_u0_product(q**b, q**p)
    assert abs(lhs - rhs) <= 1e-10


# ---------------------------------------------------------------------------
# Rogers-Ramanujan chain
# ---------------------------------------------------------------------------


def test_G_and_H_are_agile_reciprocals():
    for q in (0.05, 0.1):
        assert abs(rr_G(q) - 1.0 / agile_minus(1, 5, q)) <= 1e-11
        assert abs(rr_H(q) - 1.0 / agile_minus(2, 5, q)) <= 1e-11


@pytest.mark.parametrize("q", [0.99, 0.998, 0.999])
def test_G_and_H_near_one_carry_the_ratio_term(q):
    # q^(n^2) and (q; q)_n underflow on their own near q = 1 (G(0.999) is
    # 3.5e285).  Against a 40-digit sum the series are within 3.6e-14; the
    # agile products (about 8,400 factors of q^5 each) are within 2.3e-12, hence
    # the bound of 5e-12 relative.
    for series, a in ((rr_G, 1), (rr_H, 2)):
        want = 1.0 / agile_minus(a, 5, q)
        assert abs(series(q) - want) <= 5e-12 * abs(want)


def test_H_small_nome_limit():
    # the n = 0 term is included, so H(0+) = 1
    assert_close(rr_H(1e-10), 1.0, rtol=1e-9)


def test_cf_equals_product_equals_sum():
    for q in (0.05, 0.2):
        cf = rr_cf(q)
        assert abs(cf - rr_product(q)) <= 1e-11
        assert abs(cf - rr_sum(q)) <= 1e-11


def test_cf_golden_point():
    assert_close(rr_cf(0.05), 0.5231861892435733, rtol=1e-12)


def test_G_H_squaring_laws():
    # G(q^2) = (theta4(5/2,3/2)/theta3(5/2,3/2)) G(q)^2, H likewise at b=1/2
    q = 0.15
    gl = theta4_two(2.5, 1.5, q) / theta3_two(2.5, 1.5, q)
    assert abs(rr_G(q * q) - gl * rr_G(q) ** 2) <= 1e-9
    hl = theta4_two(2.5, 0.5, q) / theta3_two(2.5, 0.5, q)
    assert abs(rr_H(q * q) - hl * rr_H(q) ** 2) <= 1e-9


def test_theta_quotient_measures_cf_doubling():
    # theta3(5/2,3/2)/theta3(5/2,1/2) = q^{-1/5} R(q^2)/R(q)
    for q in (0.1, 0.15):
        lhs = theta3_two(2.5, 1.5, q) / theta3_two(2.5, 0.5, q)
        rhs = q ** (-0.2) * rr_cf(q * q) / rr_cf(q)
        assert abs(lhs - rhs) <= 1e-9


def test_ramanujan_quantity_trivial_diagonal():
    assert_close(ramanujan_quantity(1, 1, 5, 0.15), 1.0, rtol=1e-14)


def test_ramanujan_quantity_negated_nome_theta3():
    # R(a,b,p;-q) = theta3-quotient at odd a,b and even p
    a, b, p, q = 1.0, 3.0, 6.0, 0.2
    lhs = ramanujan_quantity(a, b, p, -q)
    rhs = theta3_two(p / 2.0, (p - 2.0 * a) / 2.0, q) / theta3_two(
        p / 2.0, (p - 2.0 * b) / 2.0, q
    )
    assert abs(lhs - rhs) <= 1e-9


def test_ramanujan_quantity_theta4_form():
    # R(a,b,p;q) = theta4-quotient under the same parity demands
    a, b, p, q = 1.0, 3.0, 6.0, 0.2
    lhs = ramanujan_quantity(a, b, p, q)
    rhs = theta4_two(p / 2.0, (p - 2.0 * a) / 2.0, q) / theta4_two(
        p / 2.0, (p - 2.0 * b) / 2.0, q
    )
    assert abs(lhs - rhs) <= 1e-9


def test_ramanujan_quantity_nome_splitting():
    # R(a,b,p;q^2) = R(a,b,p;q) R(a,b,p;-q)
    a, b, p, q = 1.0, 3.0, 6.0, 0.2
    lhs = ramanujan_quantity(a, b, p, q * q)
    rhs = ramanujan_quantity(a, b, p, q) * ramanujan_quantity(a, b, p, -q)
    assert abs(lhs - rhs) <= 1e-9


# ---------------------------------------------------------------------------
# restricted divisor-sum logarithms
# ---------------------------------------------------------------------------


def brute_restricted_log(q, p, residues, *, odd_only=True, alternating=False,
                         x=1.0, multiset=False, nmax=120):
    res_list = [r % p for r in residues]
    total = 0.0
    for A in range(1, nmax + 1):
        if odd_only and A % 2 == 0:
            continue
        for B in range(1, nmax // A + 1):
            if multiset:
                count = sum(1 for r in res_list if r == B % p)
            else:
                count = 1 if (B % p) in res_list else 0
            if not count:
                continue
            w = ((-1.0) ** A if alternating else x**A) / A
            total += count * w * q ** (A * B)
    return total


def test_restricted_log_matches_brute_force():
    q = 0.2
    for kwargs in (
        dict(p=2, residues=[1]),
        dict(p=5, residues=[1, 4], multiset=True),
        dict(p=3, residues=[1], odd_only=False, alternating=True),
        dict(p=4, residues=[1], x=0.7),
    ):
        got = restricted_divisor_log(q, **kwargs)
        want = brute_restricted_log(q, **kwargs)
        assert abs(got - want) <= 1e-12


def test_restricted_log_rejects_weighted_alternating():
    with pytest.raises(ValueError):
        restricted_divisor_log(0.2, 2, [1], alternating=True, x=0.5)


def test_theta_ratio_log_series():
    # log(theta3/theta4) = 2 sum q^n sum_{AB=n, A odd, B=+-a (p)} 1/A
    a, p, q = 1.0, 4.0, 0.2
    b1, b2 = p / 2.0, (p - 2.0 * a) / 2.0
    lhs = cmath.log(theta3_two(b1, b2, q)) - cmath.log(theta4_two(b1, b2, q))
    rhs = 2.0 * restricted_divisor_log(q, int(p), [1, 3])
    assert abs(lhs - rhs) <= 1e-10


def test_agile_log_series_exponentiated():
    # [a,p;q]^- = exp(-sum q^n sum_{AB=n, B=+-a (p)} 1/A), all A
    a, p, q = 1.0, 3.0, 0.2
    want = cmath.exp(-restricted_divisor_log(q, int(p), [1, 2], odd_only=False))
    assert abs(agile_minus(a, p, q) - want) <= 1e-10


def test_agile_plus_log_series_exponentiated():
    # [a,p;q]^+ = exp(-sum q^n sum (-1)^A/A) over the same residue pairs
    a, p, q = 1.0, 3.0, 0.2
    want = cmath.exp(
        -restricted_divisor_log(q, int(p), [1, 2], odd_only=False, alternating=True)
    )
    assert abs(agile_plus(a, p, q) - want) <= 1e-10


def test_theta3_log_series_exponentiated():
    # theta3(p/2, p/2-a) = f(q^p) exp(-alternating unrestricted-parity series)
    a, p, q = 1.0, 4.0, 0.2
    want = euler_product(q ** int(p)) * cmath.exp(
        -restricted_divisor_log(
            q, int(p), [1, 3], odd_only=False, alternating=True, multiset=True
        )
    )
    assert abs(theta3_two(p / 2.0, p / 2.0 - a, q) - want) <= 1e-10


def test_symmetric_cayley_log_series_exponentiated():
    # cayley(U(w, -w; q^p)) = exp(4 sum q^n sum_{AB=n, A odd, B=a (p)} 1/A)
    a, p, q = 1.0, 3.0, 0.2
    w = q**a
    lhs = cayley(u_product(w, -w, q ** int(p)))
    want = cmath.exp(4.0 * restricted_divisor_log(q, int(p), [1]))
    assert abs(lhs - want) <= 1e-10


def test_pochhammer_log_series_exponentiated():
    # (+-q^a; q^p) = exp(-restricted series), alternating for the + sign
    a, p, q = 1.0, 3.0, 0.2
    got_plus = qpochhammer(q**a, q ** int(p))
    want_plus = cmath.exp(-restricted_divisor_log(q, int(p), [1], odd_only=False))
    assert abs(got_plus - want_plus) <= 1e-10
    got_minus = qpochhammer(-(q**a), q ** int(p))
    want_minus = cmath.exp(
        -restricted_divisor_log(q, int(p), [1], odd_only=False, alternating=True)
    )
    assert abs(got_minus - want_minus) <= 1e-10


def test_pochhammer_ratio_log_series():
    # log((-w; q^p)/(w; q^p)) = 2 sum q^n sum_{AB=n, A odd, B=a (p)} w-powers
    a, p, q, x = 1.0, 3.0, 0.2, 0.6
    w = x * q**a
    lhs = cmath.log(qpochhammer(-w, q ** int(p)) / qpochhammer(w, q ** int(p)))
    rhs = 2.0 * restricted_divisor_log(q, int(p), [1], x=x)
    assert abs(lhs - rhs) <= 1e-10


def test_two_sided_residue_split():
    # log cayley(U(q^a, -q^{p-a}; q^p)) counts classes a and p-a as a multiset
    a, p, q = 1.0, 2.0, 0.2
    lhs = cmath.log(cayley(u_product(q**a, -(q ** (p - a)), q ** int(p))))
    rhs = 2.0 * restricted_divisor_log(q, int(p), [1, 1], multiset=True)
    assert abs(lhs - rhs) <= 1e-9


def test_epsilon_sign_law():
    # log cayley(U(q^a, eps q^b; q^p)) = 2 S_a - 2 eps S_b
    a, b, p, q = 1.0, 2.0, 5.0, 0.15
    for eps in (1.0, -1.0):
        lhs = cmath.log(cayley(u_product(q**a, eps * q**b, q ** int(p))))
        rhs = 2.0 * restricted_divisor_log(q, int(p), [1]) - 2.0 * eps * (
            restricted_divisor_log(q, int(p), [2])
        )
        assert abs(lhs - rhs) <= 1e-10


def test_epsilon_complementary_combination():
    # the (a,b) and (p-a,p-b) contributions combine into theta-ratio logs
    a, b, p, q = 1.0, 2.0, 5.0, 0.15

    def theta_ratio_log(cc):
        b1, b2 = p / 2.0, (p - 2.0 * cc) / 2.0
        return cmath.log(theta3_two(b1, b2, q) / theta4_two(b1, b2, q))

    for eps in (1.0, -1.0):
        lhs = cmath.log(cayley(u_product(q**a, eps * q**b, q**p))) + cmath.log(
            cayley(u_product(q ** (p - a), eps * q ** (p - b), q**p))
        )
        rhs = theta_ratio_log(a) - eps * theta_ratio_log(b)
        assert abs(lhs - rhs) <= 1e-9


def test_scaled_arguments_log_series():
    # log cayley(U(x q^a, -y q^b; q^p)) = 2 S_a(x) + 2 S_b(y)
    a, b, p, q = 1.0, 2.0, 3.0, 0.2
    x, y = 0.5, 0.3
    lhs = cmath.log(cayley(u_product(x * q**a, -y * q**b, q ** int(p))))
    rhs = 2.0 * restricted_divisor_log(q, int(p), [1], x=x) + 2.0 * (
        restricted_divisor_log(q, int(p), [2], x=y)
    )
    assert abs(lhs - rhs) <= 1e-9


def test_unrestricted_odd_lambert_form():
    # log cayley(U(x q, y q; q)) = 2 L(x q) - 2 L(y q),
    # L(z) = sum z^{2n+1}/((2n+1)(1 - q^{2n+1}))
    for x, y, q in ((0.4, 0.2, 0.25), (0.1, 0.7, 0.3)):
        lhs = cmath.log(cayley(u_product(x * q, y * q, q)))
        rhs = 2.0 * odd_lambert(x * q, q) - 2.0 * odd_lambert(y * q, q)
        assert abs(lhs - rhs) <= 1e-9
