"""Building blocks on the q-disk: Pochhammer products, Lambert sums,
divisor arithmetic, Bernoulli numbers, and small exact constants.

Everything here is elementary (no elliptic quantities); the elliptic and
theta layers are built on top of these primitives.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import TYPE_CHECKING, Callable

from .numutil import NonConvergenceError, _bump_terms, current_policy, sum_series

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "qpochhammer",
    "euler_product",
    "lambert_sum",
    "divisor_expand",
    "divisors",
    "divisor_count",
    "bernoulli",
    "zeta_value",
    "fermi_derivative_constant",
    "dirichlet_chi8",
]


def qpochhammer(a: complex, q: complex) -> complex:
    """Infinite q-shifted factorial ``(a; q)_inf = prod_{k>=0} (1 - a q^k)``,
    which converges for ``|q| < 1``.

    Raises ``ValueError``, before any factor is taken, where ``a`` is not
    finite or ``|q| < 1`` does not hold (NaN included).  It stops at the
    first factor with ``|a q^k| |q| / (1 - |q|)`` at most the active policy's
    ``rel_tail_cutoff``: that geometric series bounds the relative effect of
    every factor left out.  A product that is not finite
    there (it overflowed on the way, which no later factor undoes) raises
    ``OverflowError``, as a non-finite partial sum does; more than the
    policy's ``max_terms`` factors raise :class:`NonConvergenceError`.
    """
    a = complex(a)
    q = complex(q)
    rho = abs(q)
    if not rho < 1.0:
        raise ValueError(f"infinite q-Pochhammer requires |q| < 1, got q = {q}")
    if not cmath.isfinite(a):
        raise ValueError(f"infinite q-Pochhammer requires a finite a, got a = {a}")
    pol = current_policy()
    # a factor |a q^k| at most this leaves a tail of at most rel_tail_cutoff
    negligible = pol.rel_tail_cutoff * (1.0 - rho) / rho if rho > 0.0 else math.inf
    prod = 1.0 + 0.0j
    qk = 1.0 + 0.0j
    for used in range(1, pol.max_terms + 1):
        factor_dev = a * qk
        prod *= 1.0 - factor_dev
        if abs(factor_dev) <= negligible:
            _bump_terms(used)
            if not cmath.isfinite(prod):
                raise OverflowError(f"q-Pochhammer product is {prod} after {used} factors")
            return prod
        qk *= q
    raise NonConvergenceError(f"q-Pochhammer product did not converge in {pol.max_terms} factors")


def euler_product(q: complex) -> complex:
    """``prod_{n>=1} (1 - q^n)`` for ``|q| < 1``."""
    return qpochhammer(q, q)


def lambert_sum(q: complex, weight: Callable[[int], complex]) -> complex:
    """``sum_{n>=1} weight(n) q^n / (1 - q^n)`` for ``|q| < 1``, with ``q^n``
    carried from term to term as a running product."""
    q = complex(q)
    if not abs(q) < 1.0:
        raise ValueError("Lambert sum requires |q| < 1")
    qn = 1.0 + 0.0j

    def term(n: int) -> complex:
        nonlocal qn
        qn *= q
        return complex(weight(n + 1)) * qn / (1.0 - qn)

    return sum_series(term)


def divisor_expand(q: complex, weight: Callable[[int], complex]) -> complex:
    """``sum_{m>=1} (sum_{d | m} weight(d)) q^m``.

    Power-series dual of :func:`lambert_sum`: grouping the double sum
    ``sum_n weight(n) sum_k q^{nk}`` by the product ``m = nk`` turns the
    geometric denominators into divisor sums, so both evaluators must agree
    wherever both converge.
    """
    q = complex(q)
    if not abs(q) < 1.0:
        raise ValueError("divisor expansion requires |q| < 1")

    def term(n: int) -> complex:
        m = n + 1
        coeff = sum(complex(weight(d)) for d in divisors(m))
        return coeff * q**m

    return sum_series(term)


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of ``n >= 1``."""
    if n < 1:
        raise ValueError("divisors defined for n >= 1")
    return list(_divisors(n))


# the divisor sums ask for the same few n over and over (a registry pass
# makes about a thousand calls for n <= 39), so each n is divided out once;
# typed, so that a float n keeps its own (float) large divisors
@lru_cache(maxsize=1024, typed=True)
def _divisors(n: int) -> tuple[int, ...]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


def divisor_count(n: int) -> int:
    """Number of positive divisors ``d(n)``."""
    return len(divisors(n))


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number ``B_n`` (convention ``B_1 = -1/2``) as an exact fraction.

    Computed by the defining recurrence
    ``sum_{j=0}^{n} C(n+1, j) B_j = 0`` for ``n >= 1``.
    """
    from fractions import Fraction  # imported here: most processes never need it

    if n < 0:
        raise ValueError("Bernoulli numbers defined for n >= 0")
    if n == 0:
        return Fraction(1)
    if n > 1 and n % 2 == 1:
        return Fraction(0)
    acc = Fraction(0)
    for j in range(n):
        acc += math.comb(n + 1, j) * bernoulli(j)
    return -acc / (n + 1)


# zeta_value: the Euler-Maclaurin cut N and the number of Bernoulli
# corrections; the first omitted correction is below 1e-19 for every s > 1.
_ZETA_CUT = 10
_ZETA_ORDER = 10


def zeta_value(s: int | float) -> float:
    """Riemann zeta at real ``s > 1`` or at an integer ``s <= 0``.

    For ``s > 1`` the Euler-Maclaurin formula (DLMF 25.2.9) with cut ``N``:
    ``sum_{n<N} n^-s + N^(1-s)/(s-1) + N^-s/2
    + sum_k B_2k/(2k)! s(s+1)...(s+2k-2) N^(1-s-2k)``.  Zero and negative
    integers use the exact Bernoulli evaluation
    ``zeta(-n) = (-1)^n B_{n+1}/(n+1)`` with ``B_1 = -1/2``.
    """
    if s == 1:
        raise ValueError("zeta has a pole at s = 1")
    if s > 1:
        n = _ZETA_CUT
        parts = [k ** -s for k in range(1, n)]
        parts.append(n ** (1.0 - s) / (s - 1.0))
        parts.append(n ** -s / 2.0)
        # c = s(s+1)...(s+2k-2) N^(1-s-2k) / (2k)!, starting at k = 1
        c = s * n ** (-1.0 - s) / 2.0
        for k in range(1, _ZETA_ORDER + 1):
            parts.append(float(bernoulli(2 * k)) * c)
            c *= (s + 2 * k - 1) * (s + 2 * k) / ((2 * k + 1) * (2 * k + 2) * n * n)
        return math.fsum(parts)
    if float(s).is_integer():
        n = -int(s)
        return float((-1) ** n * bernoulli(n + 1) / (n + 1))
    raise ValueError("zeta_value is defined here for s > 1 and for integers s <= 0")


@lru_cache(maxsize=None)
def fermi_derivative_constant(nu: int) -> Fraction:
    """``2 * (d/dx)^nu [1 / (e^x + 1)]`` at ``x = 0``, as an exact fraction.

    Writing ``1/(e^x+1)`` through the generating function of
    ``2(1 - 2^n) B_n`` gives the closed form
    ``2 (1 - 2^(nu+1)) B_{nu+1} / (nu + 1)``; the value vanishes for every
    even ``nu > 0``.
    """
    if nu < 0:
        raise ValueError("derivative order must be >= 0")
    # exact: bernoulli returns a Fraction, and every other factor is an int
    return 2 * (1 - 2 ** (nu + 1)) * bernoulli(nu + 1) / (nu + 1)


_CHI8 = (0, -1, 0, -1, 0, 1, 0, 1)


def dirichlet_chi8(n: int) -> int:
    """Real character mod 8: 0 on evens, -1 for n = 1,3 (mod 8), +1 for n = 5,7 (mod 8).

    Equals the Kronecker symbol ``((n + 2) / 8)``.
    """
    return _CHI8[n % 8]
