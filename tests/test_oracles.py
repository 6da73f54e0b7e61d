"""mpmath oracles over 330 seeded points of the disk |q| <= 0.9 and, for
the products and the angle sum, 150 more with 0.5 <= |q| <= 0.99, the odd
Lambert sum over 300 with |Q| <= 0.99, U's cayley image N/D over 300 with
|q| <= 0.97, the elliptic context over the real segment [-0.98, 0.98] and
the disk |q| <= 0.95, the theta nulls over the real segments +-[0.001, 0.999] and the disk
|q| <= 0.95, and the six Jacobi functions sn, cn, dn, cd, sd, nd over real
and complex nomes up to |q| = 0.95, on and off the strip (bounds and their
reasons in each test's docstring).

The continued fractions are checked against their product forms evaluated
by mpmath; the products, the angle sum, the odd Lambert sum and theta3
directly against mpmath.
Every bound was fixed before the stopping rules of ``sum_series``,
``qpochhammer`` and ``continued_fraction`` were last changed: 1e-14 for
the fractions (the backward-sweep fractions reached 1.3e-15), and for the
others the worst error of the code before that change, rounded up in the
second digit.  theta3's bound now covers the whole disk, the region near
q = -1 where its alternating sum cancels included (worst there 6.4e-15).
"""

import cmath
import math
import random
from functools import lru_cache

import mpmath as mp
import pytest

from qelliptic.angle import angle_sum
from qelliptic.elliptic import EllipticContext, theta2, theta3, theta4
from qelliptic.fourier import (
    eval_fourier, jacobi_cd, jacobi_cn, jacobi_dn, jacobi_nd, jacobi_sd, jacobi_sn,
)
from qelliptic.numutil import PoleError, principal_power
from qelliptic.qseries import euler_product, qpochhammer
from qelliptic.thetagen import (
    agile_minus, cayley_u_product, odd_lambert, rr_cf, theta3_two, u0_cf, u_cf,
)


def _phase(rng):
    return cmath.exp(1j * rng.choice([0.0, math.pi, rng.uniform(-math.pi, math.pi)]))


@lru_cache(maxsize=None)
def points():
    """(q, a, b, x): q positive, negative or complex in turn with
    0.02 <= |q| <= 0.9; 0.05 <= |a|, |b| <= 0.9; 0.2 <= x <= 2."""
    rng = random.Random(2026)
    out = []
    for i in range(330):
        r = rng.uniform(0.02, 0.9)
        if i % 3 == 0:
            q = r
        elif i % 3 == 1:
            q = -r
        else:
            q = r * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        a = rng.uniform(0.05, 0.9) * _phase(rng)
        b = rng.uniform(0.05, 0.9) * _phase(rng)
        out.append((q, a, b, rng.uniform(0.2, 2.0)))
    return out


def _rel(got, want) -> float:
    return abs(complex(got) - complex(want)) / abs(complex(want))


def _qp(a, q):
    """``(a; q)_inf`` at the working precision: every factor down to
    ``|a q^k| < 1e-23``."""
    factors = math.ceil(math.log(1e-23 / abs(a)) / math.log(abs(q)))
    prod = mp.mpc(1)
    t = mp.mpc(a)
    for _ in range(max(factors, 0) + 1):
        prod *= 1 - t
        t *= q
    return prod


def _atanh_sum(t, q):
    """``sum_n atanh(t q^n)``."""
    t = mp.mpc(t)
    total = mp.mpc(0)
    while abs(t) > 1e-5:
        total += mp.atanh(t)
        t *= q
    while abs(t) > 1e-24:  # atanh z = z + z^3/3 + z^5/5 + O(z^7)
        t2 = t * t
        total += t * (1 + t2 * (mp.mpf(1) / 3 + t2 / 5))
        t *= q
    return total


def _angle(q, x):
    """``2 sum_n atanh(q^(n+x))`` with ``q^(n+x) = exp(x Log q) q^n``."""
    return 2 * _atanh_sum(mp.exp(x * mp.log(q)), q)


@lru_cache(maxsize=None)
def worst_errors() -> dict[str, float]:
    worst: dict[str, float] = {}

    def note(name, err):
        worst[name] = max(worst.get(name, 0.0), err)

    with mp.workdps(20):
        for q, a, b, x in points():
            mq = mp.mpc(q)
            q5 = mq**5
            rr = (mp.exp(mp.log(mq) / 5) * _qp(mq, q5) * _qp(mq**4, q5)
                  / (_qp(mq**2, q5) * _qp(mq**3, q5)))
            note("rr_cf", _rel(rr_cf(q), rr))
            plus_a, minus_a = _qp(-a, mq), _qp(a, mq)
            num = plus_a * _qp(b, mq)
            den = minus_a * _qp(-b, mq)
            note("u_cf", _rel(u_cf(a, b, q), (num - den) / (num + den)))
            p = (plus_a / minus_a) ** 2
            note("u0_cf", _rel(u0_cf(a, q), (p - 1) / (p + 1)))
            note("euler_product", _rel(euler_product(q), _qp(mq, mq)))
            note("qpochhammer", _rel(qpochhammer(a, q), minus_a))
            note("angle_sum", _rel(angle_sum(q, x), _angle(mq, x)))
    with mp.workdps(40):  # theta3 cancels to ~1e-7 near q = -0.9
        for q, _, _, _ in points():
            note("theta3", _rel(theta3(q), mp.jtheta(3, 0, mp.mpc(q))))
    return worst


@pytest.mark.parametrize(
    "name, bound",
    [
        ("rr_cf", 1e-14),
        ("u_cf", 1e-14),
        ("u0_cf", 1e-14),
        ("euler_product", 3.9e-15),
        ("qpochhammer", 5.1e-15),
        ("angle_sum", 1.9e-15),
        ("theta3", 4.4e-13),
    ],
)
def test_worst_relative_error_over_the_disk(name, bound):
    assert worst_errors()[name] <= bound


# ---------------------------------------------------------------------------
# deep nomes: the products and the angle sum end on their log-series tail
# ---------------------------------------------------------------------------

# |a q^n| = (1 -+ _EDGE)/8: a direct factor or term just above 1/8, or the
# tail's y just below it
_EDGE = 1e-9


@lru_cache(maxsize=None)
def deep_points():
    """(q, a, x, a_ag, p): q positive, negative or complex in turn with
    0.5 <= |q| <= 0.99; 0.2 <= |a| <= 0.95 at any phase, x in [0.2, 2],
    p in {2, ..., 5} and 0.2 <= a_ag <= p - 0.2.  After the first 90 points,
    60 more put a and x where some |a q^n| and |q^(n+x)| lie a relative 1e-9
    above or below 1/8, where the direct loop hands over to the tail."""
    rng = random.Random(37)
    out = []
    for i in range(150):
        r = rng.uniform(0.5, 0.99)
        q = (r, -r, r * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))[i % 3]
        a = rng.uniform(0.2, 0.95) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        x = rng.uniform(0.2, 2.0)
        p = float(rng.randint(2, 5))
        if i >= 90:
            edge = 0.125 * (1.0 + _EDGE * (1 if i % 2 else -1))
            n = math.floor(math.log(8.0 * abs(a)) / -math.log(r))
            a *= edge / (abs(a) * r**n)
            power = math.log(edge) / math.log(r)  # r^power = edge
            x = power - max(0, math.floor(power - 0.2))
        out.append((q, a, x, rng.uniform(0.2, p - 0.2), p))
    return out


@lru_cache(maxsize=None)
def deep_errors() -> dict[str, float]:
    worst: dict[str, float] = {}

    def note(name, err):
        worst[name] = max(worst.get(name, 0.0), err)

    with mp.workdps(25):
        for q, a, x, a_ag, p in deep_points():
            mq = mp.mpc(q)
            note("euler_product", _rel(euler_product(q), _qp(mq, mq)))
            note("qpochhammer", _rel(qpochhammer(a, q), _qp(mp.mpc(a), mq)))
            # at the doubles q^a, q^(p - a) and q^p that agile_minus multiplies
            qa, qpa, qp = (mp.mpc(principal_power(q, s)) for s in (a_ag, p - a_ag, p))
            note("agile_minus", _rel(agile_minus(a_ag, p, q), _qp(qa, qp) * _qp(qpa, qp)))
            note("angle_sum", _rel(angle_sum(q, x), _angle(mq, x)))
    return worst


@pytest.mark.parametrize(
    "name, bound",
    [
        ("euler_product", 1.7e-14),
        ("qpochhammer", 8.3e-15),
        ("agile_minus", 6.3e-15),
        ("angle_sum", 3.3e-15),
    ],
)
def test_worst_relative_error_at_deep_nomes(name, bound):
    """The worst relative error over 150 seeded points with 0.5 <= |q| <= 0.99,
    60 of them where the direct factors or terms hand over to the tail.  Each
    bound is the worst error of the factor-by-factor product and term-by-term
    angle sum on the same points, rounded up in the second digit (the tail
    reads 1.3e-14, 4.3e-15, 3.6e-15 and 1.5e-15).  agile_minus is checked at
    the doubles q^a, q^(p - a) and q^p it forms: the rounding of q^a, the same
    on both routes, is amplified by the product up to about 2e-14 here and
    would drown the product's own error."""
    assert deep_errors()[name] <= bound


@lru_cache(maxsize=None)
def odd_lambert_errors() -> dict[str, float]:
    """Worst relative error of ``odd_lambert(z, Q)`` against
    ``sum_n atanh(z Q^n)`` over 300 seeded points: Q positive, negative or
    complex in turn, with 0.02 <= |Q| <= 0.5 for the first 150 (shallow) and
    0.5 <= |Q| <= 0.99 for the rest (deep); 0.05 <= |z| <= 0.95."""
    rng = random.Random(39)
    worst = {"shallow": 0.0, "deep": 0.0}
    with mp.workdps(30):
        for i in range(300):
            r = rng.uniform(0.02, 0.5) if i < 150 else rng.uniform(0.5, 0.99)
            q = (r, -r, r * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))[i % 3]
            z = rng.uniform(0.05, 0.95) * _phase(rng)
            depth = "shallow" if i < 150 else "deep"
            err = _rel(odd_lambert(z, q), _atanh_sum(z, mp.mpc(q)))
            worst[depth] = max(worst[depth], err)
    return worst


@pytest.mark.parametrize("depth, bound", [("shallow", 1.3e-15), ("deep", 1.8e-15)])
def test_odd_lambert_worst_relative_error(depth, bound):
    """Each bound is the worst error of the term-by-term sum of
    ``z^m / (m (1 - Q^m))`` on the same points, rounded up in the second digit
    (1.21e-15 and 1.71e-15); the atanh terms and odd log-series tail read
    5.9e-16 and 9.9e-16."""
    assert odd_lambert_errors()[depth] <= bound


def test_cayley_u_product_over_the_disk_to_097():
    """``N/D = (-a; q)(b; q) / ((a; q)(-b; q))`` over 300 seeded points, q
    positive, negative or complex in turn with 0.02 <= |q| <= 0.97 and
    0.05 <= |a|, |b| <= 0.9.  The quotient adds only its own roundings to
    those of its four products, so the bound is four times the deep
    qpochhammer bound above (the worst here is 8.4e-15).  Formed as
    ``cayley(u_product(a, b, q))``, through U = (N - D)/(N + D) and back,
    the same points read a relative error of 1.0 at the worst, and one of
    them a false ``PoleError``, since 1 - U has lost its digits."""
    rng = random.Random(38)
    worst = 0.0
    with mp.workdps(20):
        for i in range(300):
            r = rng.uniform(0.02, 0.97)
            q = (r, -r, r * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))[i % 3]
            a = rng.uniform(0.05, 0.9) * _phase(rng)
            b = rng.uniform(0.05, 0.9) * _phase(rng)
            mq, ma, mb = mp.mpc(q), mp.mpc(a), mp.mpc(b)
            want = _qp(-ma, mq) * _qp(mb, mq) / (_qp(ma, mq) * _qp(-mb, mq))
            worst = max(worst, _rel(cayley_u_product(a, b, q), want))
    assert worst <= 4 * 8.3e-15


# ---------------------------------------------------------------------------
# the elliptic context: k, k', K, E from theta quotients and Eisenstein E
# ---------------------------------------------------------------------------


def _context_points() -> list[complex]:
    """Seeded nomes: real q in [-0.98, 0.98] with both ends; complex
    |q| <= 0.8 at every phase; and 0.05 <= |q| <= 0.95 within 0.1 rad of the
    real axis on either side of it, where theta4 (Re q > 0) or theta3
    (Re q < 0) cancels."""
    rng = random.Random(2027)
    out = [-0.98, 0.98] + [rng.uniform(-0.98, 0.98) for _ in range(40)]
    out += [0.8 * math.sqrt(rng.random()) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            for _ in range(40)]
    for _ in range(24):
        phase = rng.uniform(-0.1, 0.1) + rng.choice((0.0, math.pi))
        out.append(rng.uniform(0.05, 0.95) * cmath.exp(1j * phase))
    return out


def _context_oracle(q: complex) -> tuple:
    """k, k', K, E at 60 digits.

    Real ``|q| > 0.9`` takes the cancelling null through Jacobi's imaginary
    transformation, ``theta4(x) = sqrt(pi/L) theta2(exp(-pi^2/L))`` with
    ``L = -log x`` and ``theta3(-x) = theta4(x)``: summed directly, even
    ``jtheta(4, 0, 0.99)`` at 40 digits comes out negative.  E is
    ``ellipe(k^2)`` on the real axis; off it ``ellipe`` picks its own branch,
    so E = k'^2 K + pi^2 q (dK/dq) / (2 K^2) with K = (pi/2) theta3^2.
    """
    with mp.workdps(60):
        mq = mp.mpc(q)
        t2, t3, t4 = (mp.jtheta(n, 0, mq) for n in (2, 3, 4))
        x = complex(q)
        if x.imag == 0.0 and abs(x.real) > 0.9:
            L = -mp.log(abs(x.real))
            dual = mp.sqrt(mp.pi / L) * mp.jtheta(2, 0, mp.exp(-mp.pi**2 / L))
            if x.real > 0:
                t4 = dual
            else:
                t3 = dual
        k, kp, K = (t2 / t3) ** 2, (t4 / t3) ** 2, mp.pi / 2 * t3**2
        if x.imag == 0.0:
            E = mp.ellipe(k**2)
        else:
            dt3 = mp.nsum(lambda n: 2 * n**2 * mq ** (n**2 - 1), [1, mp.inf])
            E = kp**2 * K + mp.pi**2 * mq * (mp.pi * t3 * dt3) / (2 * K**2)
        return k, kp, K, E


@lru_cache(maxsize=None)
def context_errors() -> list[tuple[complex, float]]:
    out = []
    for q in _context_points():
        c = EllipticContext.from_nome(q)
        want = _context_oracle(q)
        out.append((q, max(_rel(g, w) for g, w in zip((c.k, c.kprime, c.K, c.E), want))))
    return out


def test_context_matches_theta_quotients_over_the_disk():
    worst = max(context_errors(), key=lambda pair: pair[1])
    assert worst[1] <= 1e-12, worst


@pytest.mark.parametrize("q", [0.8, 0.9, 0.95, 0.5j, 0.6 + 0.3j, -0.95])
def test_context_regressions(q):
    # from_nome refused at 0.8 and 0.95 (PoleError) and was wrong at 0.9
    # (K by 60%), 0.5j (109%) and 0.6+0.3j (78%) when k' was sqrt(1 - k^2)
    c = EllipticContext.from_nome(q)
    for got, want in zip((c.k, c.kprime, c.K, c.E), _context_oracle(q)):
        assert _rel(got, want) <= 1e-12


def test_cancelling_nulls_near_one():
    # theta3(-0.95) was 2.8e4 and theta4(0.99) 1e30 relative off; the oracle
    # is the plain alternating sum at the same double, at enough digits to
    # survive its cancellation (theta4(0.99) ~ 8e-106)
    for got, x in ((theta3(-0.95), 0.95), (theta4(0.99), 0.99)):
        with mp.workdps(150):
            want = 1 + 2 * sum((-1) ** n * mp.mpf(x) ** (n * n) for n in range(1, 200))
        assert _rel(got, want) <= 1e-13


# ---------------------------------------------------------------------------
# the theta nulls on the real segments +-[0.001, 0.999] and the disk |q| <= 0.95
# ---------------------------------------------------------------------------

_U = 2.0**-53
_NULLS = {2: theta2, 3: theta3, 4: theta4}


def _cancels(n: int, q: complex) -> bool:
    """theta4 at real q > 0 and theta3 at real q < 0: the alternating nulls,
    which the code sums through Jacobi's imaginary transformation near 1."""
    return isinstance(q, float) and (n == 4 and q > 0 or n == 3 and q < 0)


def _mp_null(n: int, q: complex, dps: int):
    with mp.workdps(dps):
        if _cancels(n, q) and abs(q) > 0.5:
            # the S-transformed form; jtheta(4, 0, 0.99) is wrong at 60 digits
            L = -mp.log(abs(mp.mpf(q)))
            return mp.sqrt(mp.pi / L) * mp.jtheta(2, 0, mp.exp(-mp.pi**2 / L))
        return mp.jtheta(n, 0, mp.mpc(q))


@lru_cache(maxsize=None)
def _null_reference(n: int, q: complex):
    """theta_n(q) from the first precision 30, 60, 120 whose value the
    doubled precision confirms to 1e-20 relative."""
    for dps in (30, 60, 120):
        lo, hi = _mp_null(n, q, dps), _mp_null(n, q, 2 * dps)
        with mp.workdps(2 * dps):
            if abs(lo - hi) <= mp.mpf(10) ** -20 * abs(hi):
                return hi
    raise AssertionError(f"no two precisions agree on theta{n}({q})")


def _null_error(n: int, q: complex) -> float:
    with mp.workdps(40):
        want = _null_reference(n, q)
        return float(abs(mp.mpc(_NULLS[n](q)) - want) / abs(want))


def _real_nomes() -> list[float]:
    """Both signs of 0.001 .. 0.999: fixed points, where the S step's dual
    nome is subnormal (0.9862 .. 0.9868), and seeded ones."""
    rng = random.Random(2029)
    mags = [0.001, 0.01, 0.1, 0.5, 0.9, 0.95, 0.98, 0.9862, 0.9866, 0.9868, 0.99,
            0.995, 0.999] + [rng.uniform(0.001, 0.999) for _ in range(24)]
    return [s * m for m in mags for s in (1.0, -1.0)]


def _disk_nomes() -> list[complex]:
    """Seeded |q| <= 0.95: uniform over the disk, within 0.1 rad of the real
    axis (where theta4 or theta3 cancels) and within 0.2 rad of the imaginary
    axis at |q| >= 0.8 (where theta2's terms cancel), with 0.9i and 0.95i."""
    rng = random.Random(2030)
    out = [0.95 * math.sqrt(rng.random()) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
           for _ in range(60)]
    out += [rng.uniform(0.05, 0.95) * cmath.exp(1j * (rng.uniform(-0.1, 0.1) + rng.choice((0.0, math.pi))))
            for _ in range(16)]
    out += [rng.uniform(0.8, 0.95) * cmath.exp(1j * (rng.choice((1, -1)) * math.pi / 2 + rng.uniform(-0.2, 0.2)))
            for _ in range(12)]
    return out + [0.9j, 0.95j]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_theta_null_on_the_real_segments(n):
    """1e-14 relative, except for the alternating null past |q| = 0.95: its
    S step computes exp(-pi^2 / (4 L)) from L = -log|q|, whose rounding alone
    moves the value by up to pi^2 / (4 L) units of roundoff (1.1e-13 at
    0.995), and past 0.9967 the value is below the normal double range."""
    for q in _real_nomes():
        if _cancels(n, q) and abs(q) > 0.95:
            want = _null_reference(n, q)
            if abs(want) < 2.2250738585072014e-308:
                assert abs(_NULLS[n](q)) < 2.2250738585072014e-308, q
                continue
            exponent = math.pi**2 / (4.0 * -math.log(abs(q)))
            assert _null_error(n, q) <= 1e-14 + 4.0 * _U * exponent, q
        else:
            assert _null_error(n, q) <= 1e-14, q


@pytest.mark.parametrize("n", [2, 3, 4])
def test_theta_null_over_the_disk(n):
    """1.5e-14 relative.  The alternating null summed through Jacobi's
    imaginary transformation near the real axis reaches 1.1e-14 (theta3 at
    -0.873 + 0.050i; theta4 by a lone S step at -0.774 + 0.548i was 1.4e-14).
    theta2 near the imaginary axis at |q| -> 1 (the cusp tau = 1/2), a sum of
    terms of size ~1 that cancel to ~1e-4 at 0.95i when summed directly, is
    reduced by S T^2 S to a short sum; at 0.95i it is 9.9e-15 off (1.8e-12
    summed directly, which had a bound of one unit roundoff of theta2(|q|))."""
    for q in _disk_nomes():
        assert _null_error(n, q) <= 1.5e-14, q


@pytest.mark.parametrize("n, q, bound", [(2, 0.95j, 1e-13), (2, 0.999, 1e-15), (3, 0.999, 1e-15)])
def test_theta_null_regressions(n, q, bound):
    # theta2 at the cusp was 1.8e-12 off; near q = 1 the direct sum's
    # running products drifted, to 7.4e-15 (theta2) and 4.5e-15 (theta3)
    assert _null_error(n, q) <= bound


def test_theta_nulls_at_tiny_and_dual_subnormal_nomes():
    # R_1- = q^(a - b) = 1 as one power: formed as q * q^-1 it overflowed
    assert theta3_two(1, 1, 1e-310) == 2.0
    # theta2 = q^(1/4) theta3_two(1, 1, q); the quarter power exp(log(q) / 4)
    # carries the rounding of log q (-744 at 5e-324)
    for q in (1e-310, 5e-324):
        assert _null_error(2, q) <= 1e-14 + _U * abs(math.log(q)), q
    # theta4's dual nome exp(-pi^2 / L) is subnormal here; the summed dual
    # sum forms q'^(1 - 1) = 1, where q' * q'^-1 overflowed
    for q in (0.9862, 0.9866, 0.9868):
        exponent = math.pi**2 / (4.0 * -math.log(q))
        assert _null_error(4, q) <= 1e-14 + 4.0 * _U * exponent, q
        assert _null_error(3, -q) <= 1e-14 + 4.0 * _U * exponent, q


# ---------------------------------------------------------------------------
# sn and dn where their expansions cancel: theta quotients of reduced sums
# ---------------------------------------------------------------------------


def _ellipfun_reference(name: str, q: complex, u: complex):
    """``ellipfun`` at 40 digits where 80 digits confirm it to 1e-25, else None."""
    refs = []
    for dps in (40, 80):
        with mp.workdps(dps):
            refs.append(mp.ellipfun(name, mp.mpc(u), q=mp.mpc(q)))
    with mp.workdps(80):
        if abs(refs[0] - refs[1]) > mp.mpf(10) ** -25 * abs(refs[1]):
            return None
    return refs[1]


@pytest.mark.parametrize("q", [-0.8, -0.86, -0.9, -0.95])
def test_sn_at_negative_nomes(q):
    # summed as the sine expansion, whose terms cancel to sn ~ 1/|k|, sn was
    # off by 2e-10 (-0.8) to 4e12 (-0.95) at u = 0.3K and by 2e-8 to 2e24 at
    # u = 0.01K
    c = EllipticContext.from_nome(q)
    for share in (0.3, 0.01):
        u = share * c.K
        want = _ellipfun_reference("sn", q, u)
        with mp.workdps(80):
            assert abs(mp.mpc(jacobi_sn(c, u)) - want) <= 1e-12 * abs(want), share


@pytest.mark.parametrize("q", [-0.8, -0.9, -0.95])
def test_dn_at_negative_nomes(q):
    # as the quotient of the cn and cd cosine expansions, dn at u = 0.3K was
    # off by 4.2e-14 (-0.8), 3.1e-11 (-0.9) and 2.4e-5 (-0.95)
    c = EllipticContext.from_nome(q)
    for share in (0.3, 0.01):
        u = share * c.K
        want = _ellipfun_reference("dn", q, u)
        with mp.workdps(80):
            assert abs(mp.mpc(jacobi_dn(c, u)) - want) <= 1e-12 * abs(want), share


def test_sn_over_the_negative_half_disk():
    """2e-12 relative where |k| > 100, at seeded real and complex nomes within
    0.5 rad of the negative axis and u in [0.1, 0.9]K.  The worst, 5.0e-13 at
    q = -0.931, is the context's K error carried by sn's slope in w = pi u/(2K):
    given the library's w, sn is within 6e-14 (at -0.8645 - 0.028i)."""
    rng = random.Random(2034)
    checked = 0
    for i in range(60):
        r = rng.uniform(0.45, 0.95)
        q = -r if i % 2 else r * cmath.exp(1j * (math.pi + rng.uniform(-0.5, 0.5)))
        c = EllipticContext.from_nome(q)
        if abs(c.k) <= 100:
            continue
        u = rng.uniform(0.1, 0.9) * c.K
        want = _ellipfun_reference("sn", q, u)
        if want is None:
            continue
        checked += 1
        with mp.workdps(80):
            assert abs(mp.mpc(jacobi_sn(c, u)) - want) <= 2e-12 * abs(want), q
    assert checked >= 40



# ---------------------------------------------------------------------------
# the six Jacobi functions: one theta-quotient route
# ---------------------------------------------------------------------------

_JACOBI = {"sn": jacobi_sn, "cn": jacobi_cn, "dn": jacobi_dn,
           "cd": jacobi_cd, "sd": jacobi_sd, "nd": jacobi_nd}
_SWEEP_NOMES = [0.05, 0.5, 0.9, 0.95, -0.05, -0.5, -0.9, -0.95,
                0.5j, 0.85 * cmath.exp(1j * math.pi / 3), -0.85 + 0.08j]
# u = alpha K + beta iK': on the real axis, then off the strip |beta| < 1
_ON_AXIS = [(1e-13, 0.0), (1e-6, 0.0), (0.01, 0.0), (0.3, 0.0), (0.9, 0.0)]
_OFF_STRIP = [(0.3, 1.5), (2.6, -1.5), (0.4, 2.3), (5.3, 3.2), (1.7, -2.6)]


def _jacobi_references(q, alpha, beta):
    """sn, cn, dn at 120 digits and cd, sd, nd from them, at
    ``u = (alpha + beta tau) K``, ``q = e^(i pi tau)``, ``K = (pi/2) theta3(q)^2``:
    the same shares of the periods that the library's ``alpha K + beta iK'``
    takes of its own (its ``iK'/K`` is ``tau`` to rounding).  At 40 digits
    ``m = (theta2/theta3)^4`` loses ``1 - m ~ 4e-40`` at q = 0.9 and the
    reference itself is 6e-6 off."""
    with mp.workdps(120):
        qm = mp.mpc(q)
        tau = mp.log(qm) / (1j * mp.pi)
        u = (alpha + beta * tau) * mp.pi / 2 * mp.jtheta(3, 0, qm) ** 2
        sn, cn, dn = (mp.ellipfun(kind, u, q=qm) for kind in ("sn", "cn", "dn"))
        return {"sn": sn, "cn": cn, "dn": dn, "cd": cn / dn, "sd": sn / dn, "nd": 1 / dn}


def _jacobi_errors(q, alpha, beta):
    c = EllipticContext.from_nome(q)
    u = alpha * c.K + beta * 1j * c.Kprime
    refs = _jacobi_references(q, alpha, beta)
    with mp.workdps(120):
        return {name: float(abs(mp.mpc(f(c, u)) - refs[name]) / abs(refs[name]))
                for name, f in _JACOBI.items()}


@pytest.mark.parametrize("q", _SWEEP_NOMES)
def test_jacobi_functions_over_the_disk(q):
    """1e-12 relative for sn, cn, dn, cd, sd, nd at u in {1e-13, 1e-6, 0.01,
    0.3, 0.9}K and at five points off the strip (|Im u| up to 3.2K', Re u up
    to 5.3K).  The worst was 1.7e-13 (dn at q = -0.95, u = 5.3K + 3.2iK')."""
    for alpha, beta in _ON_AXIS + _OFF_STRIP:
        for name, err in _jacobi_errors(q, alpha, beta).items():
            assert err <= 1e-12, (name, alpha, beta, err)


@pytest.mark.parametrize("name, q, share, parent_error", [
    ("cn", 0.95, 0.9, 3.4e21),
    ("dn", 0.95, 0.9, 3.4e21),
    ("sd", 0.95, 0.01, 1.1e24),
    ("sd", 0.9, 0.01, 1.6e2),
    ("nd", 0.9, 0.9, 1.0),
    ("cd", -0.9, 0.9, 2.0e2),
    ("nd", -0.9, 0.9, 2.0e2),
])
def test_jacobi_regressions(name, q, share, parent_error):
    # summed as Fourier expansions (and cn/cd, cd/cn), these were off by
    # parent_error relative: the terms, of size ~1, cancel to a small value
    assert _jacobi_errors(q, share, 0.0)[name] <= 1e-12


@pytest.mark.parametrize("name, q, share", [
    ("nd", 0.995, 0.9),
    ("dn", 0.999, 0.3),
    ("cd", 0.999, 0.9),
    ("sd", 0.999, 0.3),
    ("sd", 0.999, 0.9),
    ("nd", 0.999, 0.3),
    ("nd", 0.999, 0.9),
])
def test_jacobi_quotients_past_the_double_range_raise_overflow(name, q, share):
    # theta4(q) (about 8e-213 at 0.995 and 1e-1069 at 0.999) or a denominator
    # sum underflows to 0: nd at 0.995 returned inf, the others raised a bare
    # ZeroDivisionError
    c = EllipticContext.from_nome(q)
    with pytest.raises(OverflowError, match=f"{name}: .* q = .*u = "):
        _JACOBI[name](c, share * c.K)


@pytest.mark.parametrize("q", [0.995, 0.999])
def test_jacobi_functions_near_one_are_finite_or_refused(q):
    # every refusal is an OverflowError: a value or a theta sum past the double
    # range, or the odd fold's head sinh(B/2) overflowing (an open defect: sn
    # and sd at 0.995 and 0.9 K, cd at 0.999 and 0.3 K)
    c = EllipticContext.from_nome(q)
    for share in (0.3, 0.9):
        for name, f in _JACOBI.items():
            try:
                value = f(c, share * c.K)
            except OverflowError:
                continue
            assert cmath.isfinite(value), (name, share, value)


@pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 0.5j])
def test_sine_expansion_at_tiny_u(q):
    # sn's sine expansion at u = 1e-13 K sums to ~1e-13; while sum_series cut
    # every sum below 1 at an absolute 1e-16 it was off by 3.0e-6 (0.05),
    # 4.1e-5 (0.5), 2.8e-6 (0.9) and 1.0e-4 (0.5i); worst now 1.0e-15 (0.9)
    c = EllipticContext.from_nome(q)
    u = 1e-13 * c.K
    with mp.workdps(60):
        want = mp.ellipfun("sn", mp.mpc(u), q=mp.mpc(q))
        assert abs(mp.mpc(eval_fourier("sn", c, u)) - want) <= 2e-15 * abs(want)


@pytest.mark.parametrize("q", [0.05, 0.9, -0.9])
def test_jacobi_functions_are_real_on_the_real_axis(q):
    # every value at real q and real u has imaginary part exactly 0
    c = EllipticContext.from_nome(q)
    for alpha, _ in _ON_AXIS:
        for name, f in _JACOBI.items():
            assert f(c, alpha * c.K.real).imag == 0.0, (name, alpha)


@pytest.mark.parametrize("q", [0.08, 0.9, -0.9, 0.5j])
def test_jacobi_lattice_poles_raise(q):
    # sn, cn, dn have poles at iK', cd, sd, nd at K + iK' (modulo 2K, 2iK')
    c = EllipticContext.from_nome(q)
    for names, pole in (("sn cn dn", 1j * c.Kprime), ("cd sd nd", c.K + 1j * c.Kprime)):
        for u in (pole, pole + 2.0 * c.K - 2j * c.Kprime):
            for name in names.split():
                with pytest.raises(PoleError):
                    _JACOBI[name](c, u)
