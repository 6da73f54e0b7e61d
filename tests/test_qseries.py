"""q-Pochhammer products, Lambert/divisor duality, arithmetic constants."""

import cmath
import math
import random
import re
from fractions import Fraction

import mpmath
import pytest
from assertions import assert_close

from qelliptic.angle import angle_sum
from qelliptic.numutil import NonConvergenceError, sum_series, term_counter, truncation
from qelliptic.qseries import (
    _divisor_series,
    bernoulli,
    dirichlet_chi8,
    divisor_count,
    divisor_expand,
    divisors,
    euler_product,
    fermi_derivative_constant,
    ghost_sum,
    lambert_sum,
    qpochhammer,
    zeta_value,
)
from qelliptic.thetagen import agile_minus, restricted_divisor_log


# ---------------------------------------------------------------------------
# q-Pochhammer
# ---------------------------------------------------------------------------


def test_qpochhammer_zero_argument():
    # (0; q)_inf = 1: every factor equals 1
    assert_close(qpochhammer(0.0, 0.3), 1.0, rtol=1e-15)


def test_qpochhammer_zero_nome():
    # q = 0 leaves the single factor 1 - z
    assert_close(qpochhammer(0.1, 0.0), 0.9, rtol=1e-15)


def test_qpochhammer_matches_brute_force():
    z, q = 0.1, 0.1
    direct = 1.0
    for n in range(200):
        direct *= 1.0 - z * q**n
    assert_close(qpochhammer(z, q), direct, rtol=1e-14)


@pytest.mark.parametrize("a, q", [(1.0, 0.5), (0.3, 0.9), (2j, -0.2), (0.5, 1e-3), (0.5, 0.0)])
@pytest.mark.parametrize("cutoff", [1e-16, 1e-8])
def test_qpochhammer_stops_at_its_geometric_tail_bound(a, q, cutoff):
    a, q = complex(a), complex(q)
    rho = abs(q)
    # the first factor k with |a q^k| <= 1/8 is the last, at every nome
    k = 0
    while abs(a) * rho ** k > 0.125:
        k += 1
    want_count = k + 1
    # the finite product of factors 0..k, with a q^i carried by its ratio
    want, y = 1.0 + 0.0j, a
    for _ in range(k + 1):
        want *= 1.0 - y
        y *= q
    # then -log of the rest as the series sum_j y^j/(j (1 - q^j)) at
    # y = a q^(k+1), whose terms past j sum to at most
    # |y|^(j+1)/((j+1)(1 - |q|)(1 - |y|)): the first j where that is at
    # most cutoff is the last term
    r = abs(y)
    j = 1
    while r ** (j + 1) / ((j + 1) * (1.0 - rho) * (1.0 - r)) > cutoff:
        j += 1
    want_count += j
    # the same operations in the same order: y^i and q^i carried
    tail, yi, qi = 0j, y, q
    for i in range(1, j + 1):
        tail += yi / (i * (1.0 - qi))
        yi *= y
        qi *= q
    want *= cmath.exp(-tail)
    # the bound holds: the terms left out move the log by at most cutoff
    left = sum(y ** i / (i * (1.0 - q ** i)) for i in range(j + 1, j + 200))
    assert abs(left) <= cutoff
    with truncation(rel_tail_cutoff=cutoff), term_counter() as count:
        got = qpochhammer(a, q)
        assert count() == want_count
    assert got == want


def test_qpochhammer_rejects_big_nome():
    with pytest.raises(ValueError):
        qpochhammer(0.5, 1.0)


@pytest.mark.parametrize("a, q", [(math.nan, 0.3), (math.inf, 0.3), (complex(0.1, math.nan), 0.3),
                                  (0.5, math.nan), (0.5, complex(math.nan, 0.0))])
def test_qpochhammer_refuses_a_non_finite_argument_before_any_factor(a, q):
    # refused on entry: a NaN a would run through all max_terms factors
    with term_counter() as count, pytest.raises(ValueError):
        qpochhammer(a, q)
    assert count() == 0


def test_qpochhammer_refuses_a_product_that_overflows():
    # (-0.99; 0.999)_inf grows past the double range: its 2,070 direct factors
    # stay finite and exp(-tail) of the rest carries the product to inf, which
    # no later factor brings back; at q = 0.9999 exp(-tail) alone overflows
    with pytest.raises(OverflowError, match=r"q-Pochhammer product is \(inf\+0j\) after 2070 factors "
                                            r"and its log-series tail"):
        qpochhammer(-0.99, 0.999)
    with pytest.raises(OverflowError, match=r"q-Pochhammer product: exp\(-tail\) = exp\(\(1\d{3}\.\d+[+-]0j\)\) "
                                            r"leaves the double range after 20694 factors"):
        qpochhammer(-0.99, 0.9999)
    # at a shallow nome the direct factors alone overflow: refused after the
    # stop rule, with every factor and tail term charged (386 and 8)
    with term_counter() as count:
        with pytest.raises(OverflowError, match=r"^q-Pochhammer product is \(nan\+nanj\) after 386 factors "
                                                r"and its log-series tail$"):
            qpochhammer(1e200, 0.3)
        assert count() == 394


@pytest.mark.parametrize("call, units", [
    # 20 direct factors and 16 tail terms (the factor-by-factor product took 371)
    (lambda: euler_product(0.9), 36),
    # 2,079 direct factors and 19 tail terms (it took 43,727)
    (lambda: euler_product(0.999), 2098),
    # 20 atanh terms and 8 odd tail terms (sum_series took 348)
    (lambda: angle_sum(0.9, 0.7), 28),
    # two products at q^5 = 0.995: 417 and 416 direct factors, 18 tail terms each (it took 16,848)
    (lambda: agile_minus(1, 5, 0.999), 869),
], ids=["euler_product(0.9)", "euler_product(0.999)", "angle_sum(0.9, 0.7)", "agile_minus(1, 5, 0.999)"])
def test_deep_products_and_the_angle_sum_end_on_the_log_series_tail(call, units):
    # a fall back to one factor or one term at a time fails these counts
    with term_counter() as count:
        call()
    assert count() == units


def _draws(rng, count, *ranges):
    """``count`` seeded uniform draws over the box ``ranges``, after every
    corner-or-zero point of it."""
    grid = [[lo, 0.0, hi] for lo, hi in ranges]
    points = [[]]
    for axis in grid:
        points = [p + [v] for p in points for v in axis]
    points += [[rng.uniform(lo, hi) for lo, hi in ranges] for _ in range(count)]
    return points


def test_qpochhammer_shift_property():
    # (z; q)_inf = (1 - z) (z q; q)_inf
    for z, q in _draws(random.Random(60), 60, (-2.0, 2.0), (-0.5, 0.5)):
        assert_close(
            qpochhammer(z, q), (1.0 - z) * qpochhammer(z * q, q), rtol=1e-12, atol=1e-12
        )


def test_euler_product_is_q_self_pochhammer():
    q = 0.37
    assert_close(euler_product(q), qpochhammer(q, q), rtol=1e-15)


def test_euler_product_factorization():
    # prod(1 - q^n) prod(1 + q^n) = prod(1 - q^{2n})
    q = 0.2
    plus = qpochhammer(-q, q)
    assert_close(euler_product(q) * plus, euler_product(q * q), rtol=1e-13)


# ---------------------------------------------------------------------------
# Lambert sums and the divisor-expansion dual
# ---------------------------------------------------------------------------


WEIGHTS = {
    "one": lambda n: 1.0,
    "linear": lambda n: float(n),
    "square": lambda n: float(n * n),
    "chi8": lambda n: float(dirichlet_chi8(n)),
}


def test_lambert_divisor_duality_real():
    for (q,) in _draws(random.Random(40), 40, (-0.5, 0.5)):
        for w in WEIGHTS.values():
            assert abs(lambert_sum(q, w) - divisor_expand(q, w)) <= 1e-10


def test_lambert_divisor_duality_complex():
    # the corners of the box have |q| = 0.495 < 0.5
    for re, im in _draws(random.Random(30), 30, (-0.35, 0.35), (-0.35, 0.35)):
        q = complex(re, im)
        for w in WEIGHTS.values():
            assert abs(lambert_sum(q, w) - divisor_expand(q, w)) <= 1e-10


def test_lambert_leading_term():
    q = 1e-8
    assert_close(lambert_sum(q, lambda n: 1.0), q, rtol=1e-7)


def test_lambert_rejects_big_nome():
    with pytest.raises(ValueError):
        lambert_sum(1.0, lambda n: 1.0)
    with pytest.raises(ValueError):
        divisor_expand(-1.2, lambda n: 1.0)


def test_lambert_power_series_coefficients_are_divisor_counts():
    # recover the coefficients of sum d(n) q^n by a root-of-unity average
    # on the circle |q| = 0.05 and compare against the divisor function
    rho, N = 0.05, 32
    samples = [
        lambert_sum(rho * cmath.exp(2j * math.pi * k / N), lambda n: 1.0)
        for k in range(N)
    ]
    for n in range(1, 9):
        # the samples' n-th discrete Fourier coefficient, over rho^n
        c = sum(s * cmath.exp(-2j * math.pi * k * n / N) for k, s in enumerate(samples)) / N / rho**n
        assert abs(c - divisor_count(n)) <= 1e-6


def test_odd_index_lambert_equals_odd_divisor_expansion():
    # sum_{n>=0} 1/(e^{2(2n+1) pi y} - 1) grouped by odd divisors, y = 1/2
    y = 0.5
    q = math.exp(-2.0 * math.pi * y)
    hyperbolic = 0.0
    n = 0
    while True:
        t = 1.0 / (math.exp(2.0 * (2 * n + 1) * math.pi * y) - 1.0)
        hyperbolic += t
        if t < 1e-30:
            break
        n += 1
    odd = lambda n: 1.0 if n % 2 else 0.0
    assert abs(hyperbolic - divisor_expand(q, odd)) <= 1e-10
    assert abs(hyperbolic - lambert_sum(q, odd)) <= 1e-10


def test_a_real_nome_gives_a_real_divisor_sum():
    # complex ** n past n = 100 goes through the polar form, which gives a
    # real negative nome's powers an imaginary part
    for q in (-0.99, complex(-0.99), 0.999):
        assert divisor_expand(q, lambda n: 1.0).imag == 0.0


def test_divisor_series_hands_each_m_its_divisor_pairs_in_order():
    pairs = []

    def coeff(d, e):
        pairs.append((d, e))
        return 1.0

    _divisor_series(0.99, coeff)  # about 3,400 terms
    expected = [(d, m // d) for m in range(1, 2001) for d in divisors(m)]
    assert pairs[:len(expected)] == expected


def _reference(q, coeff):
    """``sum_m q^m sum_{d | m} coeff(d, m // d)`` from ``divisors(m)``, and its term count."""
    def term(n):
        m = n + 1
        total = 0.0 + 0.0j
        for d in divisors(m):
            total += coeff(d, m // d)
        return total * q**m

    with term_counter() as count:
        value = sum_series(term)
    return value, count()


def _counted(call):
    with term_counter() as count:
        value = call()
    return value, count()


DIVISOR_NOMES = (0.3, 0.9, 0.3 + 0.4j)


@pytest.mark.parametrize("q", DIVISOR_NOMES)
@pytest.mark.parametrize("name", WEIGHTS)
def test_divisor_expand_is_the_sum_from_divisors(q, name):
    w = WEIGHTS[name]
    assert _counted(lambda: divisor_expand(q, w)) == _reference(q, lambda d, e: complex(w(d)))


@pytest.mark.parametrize("q", DIVISOR_NOMES)
@pytest.mark.parametrize("p, residues, odd_only, x", [
    (5, [1, 4], True, 1.0),
    (3, [1, 1], True, 1.0),  # a repeated class counts twice
    (4, [1, 3], False, 1.0),
    (5, [2, 3], True, -1.0),
    (6, [1, 5], False, -1.0),
])
def test_restricted_divisor_log_is_the_sum_from_divisors(q, p, residues, odd_only, x):
    def coeff(A, B):
        if odd_only and A % 2 == 0:
            return 0.0
        return residues.count(B % p) * x**A / A

    got = _counted(lambda: restricted_divisor_log(q, p, residues, odd_only=odd_only, x=x))
    assert got == _reference(q, coeff)


# ---------------------------------------------------------------------------
# divisor arithmetic
# ---------------------------------------------------------------------------


def test_divisors_sorted_complete():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    with pytest.raises(ValueError):
        divisors(0)


def test_divisors_returns_a_fresh_list_per_call():
    first = divisors(12)
    first.append(99)
    first[0] = -1
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(12) is not divisors(12)


def test_divisors_match_trial_division():
    for n in range(1, 501):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n


def test_divisors_take_any_integer_type():
    class Twelve:
        def __index__(self):
            return 12

    assert divisors(Twelve()) == divisors(12) == [1, 2, 3, 4, 6, 12]
    assert all(type(d) is int for d in divisors(Twelve()))


@pytest.mark.parametrize("call, text", [
    (lambda: divisors(12.0), "n = 12.0"),
    (lambda: divisors(math.inf), "n = inf"),
    (lambda: divisor_count(12.5), "n = 12.5"),
    (lambda: divisor_expand(-1.2, lambda n: 1.0), "q = -1.2"),
    (lambda: lambert_sum(1.5, lambda n: 1.0), "q = (1.5+0j)"),
    (lambda: restricted_divisor_log(0.2, math.nan, [1]), "p = nan"),
    (lambda: restricted_divisor_log(0.2, 2.5, [1]), "p = 2.5"),
    (lambda: restricted_divisor_log(0.2, 5, [1, 1.5]), "residues = [1, 1.5]"),
], ids=["divisors 12.0", "divisors inf", "divisor_count 12.5", "divisor_expand", "lambert_sum",
        "restricted_divisor_log NaN p", "restricted_divisor_log p 2.5",
        "restricted_divisor_log residue 1.5"])
def test_divisor_refusals_name_their_argument(call, text):
    with pytest.raises(ValueError, match=re.escape(text)):
        call()


def test_restricted_divisor_log_takes_integral_floats():
    # the CLI passes --p 2 and --a 1 as floats
    assert restricted_divisor_log(0.2, 5.0, [1.0, 4.0]) == restricted_divisor_log(0.2, 5, [1, 4])


def test_divisor_count_values():
    assert divisor_count(1) == 1
    assert divisor_count(4) == 3
    assert divisor_count(12) == 6


# ---------------------------------------------------------------------------
# Bernoulli, zeta, Fermi derivative constants
# ---------------------------------------------------------------------------


def test_bernoulli_exact_values():
    assert bernoulli(0) == Fraction(1)
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert bernoulli(7) == 0


def test_zeta_positive_arguments():
    assert_close(zeta_value(2), math.pi**2 / 6.0, rtol=1e-12)
    assert_close(zeta_value(4), math.pi**4 / 90.0, rtol=1e-12)
    assert_close(zeta_value(3), 1.2020569031595942854, rtol=1e-12)
    for s in (1.5, 2, 3, 5, 7.5, 20):
        assert_close(zeta_value(s), float(mpmath.zeta(s)), rtol=1e-14)
    for s in (0.5, -0.5):
        with pytest.raises(ValueError, match="s > 1 and for integers s <= 0"):
            zeta_value(s)


def test_zeta_nonpositive_integers():
    assert_close(zeta_value(0), -0.5, rtol=1e-15)
    assert_close(zeta_value(-1), -1.0 / 12.0, rtol=1e-15)
    assert zeta_value(-2) == 0.0


def test_zeta_pole():
    with pytest.raises(ValueError):
        zeta_value(1)


# ---------------------------------------------------------------------------
# Ghost Sum S(x) = sum_{n>=1} 1/(e^(n x) - 1)
# ---------------------------------------------------------------------------


def _ghost_fsum(x):
    # every term down to e^-45 of the first, summed exactly rounded
    return math.fsum(1.0 / math.expm1(n * x) for n in range(1, int(45.0 / x) + 2))


def _ghost_direct_rule(x):
    # the direct sum, the rule above x = 1, at any x
    return sum_series(lambda n: 1.0 / math.expm1((n + 1) * x)).real


@pytest.mark.parametrize("x", [1e-4, 1e-2, 0.5, 1.0, 2 * math.pi])
def test_ghost_sum_matches_a_direct_fsum(x):
    want = _ghost_fsum(x)
    assert abs(ghost_sum(x) - want) <= 2e-16 * want


def test_ghost_sum_matches_mpmath():
    # the expansion's head, S(x) = (gamma - log x)/x + 1/4 - x/144 - x^3/86400
    # + O(x^5), at 40 digits; mpmath's nsum is itself wrong below x = 0.01
    with mpmath.workdps(40):
        for literal in ("1e-3", "1e-6"):
            x = mpmath.mpf(literal)
            want = (mpmath.euler - mpmath.log(x)) / x + mpmath.mpf(1) / 4 - x / 144 - x**3 / 86400
            assert abs(ghost_sum(float(literal)) - complex(want)) <= 2e-16 * abs(want)


@pytest.mark.parametrize("x", [40, 100])
def test_ghost_sum_far_above_the_split_matches_mpmath(x):
    # past x = 36.85 the parent's 1/expm1(n x) overflowed on its way to the stop
    with mpmath.workdps(40):
        want = mpmath.nsum(lambda n: 1 / (mpmath.exp(n * x) - 1), [1, mpmath.inf])
    assert abs(ghost_sum(x) - complex(want)) <= 3e-16 * abs(want)


def test_ghost_sum_at_the_ends_of_the_double_range():
    assert ghost_sum(1e308) == 0.0
    assert ghost_sum(1e-300) == 6.913527435631152e+302
    with pytest.raises(OverflowError, match="ghost_sum"):
        ghost_sum(1e-308)


@pytest.mark.parametrize("x", [0.0, -0.0, -1.0, math.nan, -math.inf])
def test_ghost_sum_refuses_x_outside_its_domain(x):
    with term_counter() as count, pytest.raises(ValueError, match="ghost_sum requires x > 0"):
        ghost_sum(x)
    assert count() == 0


def test_ghost_sum_takes_a_few_dozen_terms_at_every_x():
    grid = [10.0**(k / 4) for k in range(-1200, 1233)]
    grid += [0.05 * k for k in range(1, 1200)] + [1.0000001, 37.15]
    for x in grid:
        with term_counter() as count:
            ghost_sum(x)
        assert count() <= (40 if x <= 36 else 100), x


def test_the_two_ghost_sum_rules_agree_across_the_split():
    for k in range(-20, 21):
        x = 1.0 + 0.001 * k
        want = _ghost_direct_rule(x)
        assert abs(ghost_sum(x) - want) <= 1e-15 * want, x
    above = ghost_sum(math.nextafter(1.0, 2.0))
    assert abs(ghost_sum(1.0) - above) <= 1e-15 * abs(above)


@pytest.mark.parametrize("x, used", [(0.5, 7), (2.0, 21)])
def test_ghost_sum_reads_the_cap_on_both_sides_of_the_split(x, used):
    with term_counter() as count:
        ghost_sum(x)
    assert count() == used
    with term_counter() as count, truncation(max_terms=3):
        with pytest.raises(NonConvergenceError, match="within 3 terms"):
            ghost_sum(x)
    assert count() == 3


def test_fermi_constants_small_orders():
    assert fermi_derivative_constant(0) == Fraction(1)
    assert fermi_derivative_constant(1) == Fraction(-1, 2)
    assert fermi_derivative_constant(2) == Fraction(0)
    assert fermi_derivative_constant(3) == Fraction(1, 4)
    assert fermi_derivative_constant(5) == Fraction(-1, 2)


def test_fermi_constants_match_symbolic_derivatives():
    # exact Taylor coefficients c of 2/(e^x + 1) by series division, with
    # e^x + 1 = 2 + sum_{k>=1} x^k/k!; then nu! c_nu is the nu-th derivative at 0
    den = [Fraction(2)] + [Fraction(1, math.factorial(k)) for k in range(1, 7)]
    c = [Fraction(1)]
    for n in range(1, 7):
        c.append(-sum(den[k] * c[n - k] for k in range(1, n + 1)) / den[0])
    for nu in range(7):
        assert math.factorial(nu) * c[nu] == fermi_derivative_constant(nu)


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


def test_chi8_character_table():
    # (-1) on 1, 3 and (+1) on 5, 7 modulo 8; zero on evens
    assert [dirichlet_chi8(n) for n in range(1, 9)] == [-1, 0, -1, 0, 1, 0, 1, 0]


def test_chi8_period():
    # negative n included: -1 = 7 (mod 8), so chi8(-1) = chi8(7) = 1
    assert [dirichlet_chi8(n) for n in range(-8, 0)] == [0, -1, 0, -1, 0, 1, 0, 1]
    for n in range(-40, 40):
        assert dirichlet_chi8(n) == dirichlet_chi8(n + 8)
