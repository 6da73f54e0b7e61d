"""mpmath oracles over 330 seeded points of the disk |q| <= 0.9, the
elliptic context over the real segment [-0.98, 0.98] and the disk |q| <= 0.95,
and the theta nulls over the real segments +-[0.001, 0.999] and the disk
|q| <= 0.95 (bounds and their reasons in each test's docstring).

The continued fractions are checked against their product forms evaluated
by mpmath; the products, the angle sum and theta3 directly against mpmath.
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
from qelliptic.qseries import euler_product, qpochhammer
from qelliptic.thetagen import rr_cf, theta3_two, u0_cf, u_cf


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


def _angle(q, x):
    """``2 sum_n atanh(q^(n+x))`` with ``q^(n+x) = exp(x Log q) q^n``."""
    t = mp.exp(x * mp.log(q))
    total = mp.mpc(0)
    while abs(t) > 1e-5:
        total += mp.atanh(t)
        t *= q
    while abs(t) > 1e-24:  # atanh z = z + z^3/3 + z^5/5 + O(z^7)
        t2 = t * t
        total += t * (1 + t2 * (mp.mpf(1) / 3 + t2 / 5))
        t *= q
    return 2 * total


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
    """1.5e-14 relative: theta4 by the S step at |tau| ~ 0.8, where the dual
    nome is hardly smaller, reaches 1.4e-14 (-0.774 + 0.548i, 1.43e-14 when
    the nulls were summed by ``sum_series``).  theta2 near the imaginary axis
    at |q| -> 1 (the cusp tau = 1/2) is a sum of terms of size ~1 that cancel
    to ~1e-4 at 0.95i, so there it is bounded by one unit roundoff of the sum
    of the terms' magnitudes, theta2(|q|); at 0.95i its relative error is
    1.8e-12 (1.4e-12 summed by ``sum_series``, in another order)."""
    for q in _disk_nomes():
        err = _null_error(n, q)
        if n == 2:
            with mp.workdps(40):
                spread = float(abs(theta2(abs(q))) / abs(_null_reference(2, q)))
            assert err <= 1.5e-14 + _U * spread, q
        else:
            assert err <= 1.5e-14, q


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
