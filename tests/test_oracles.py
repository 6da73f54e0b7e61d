"""mpmath oracles over 330 seeded points of the disk |q| <= 0.9.

The continued fractions are checked against their product forms evaluated
by mpmath; the products, the angle sum and theta3 directly against mpmath.
Every bound was fixed before the stopping rules of ``sum_series``,
``qpochhammer`` and ``continued_fraction`` were last changed: 1e-14 for
the fractions (the backward-sweep fractions reached 1.3e-15), and for the
others the worst error of the code before that change, rounded up in the
second digit.
"""

import cmath
import math
import random
from functools import lru_cache

import mpmath as mp
import pytest

from qelliptic.angle import angle_sum
from qelliptic.elliptic import theta3
from qelliptic.qseries import euler_product, qpochhammer
from qelliptic.thetagen import rr_cf, u0_cf, u_cf


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
            if complex(q).real > -0.8:  # theta3's known defect region is left out
                note("theta3", _rel(theta3(q), mp.jtheta(3, 0, mq)))
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
