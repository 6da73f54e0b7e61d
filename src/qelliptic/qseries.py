"""Building blocks on the q-disk: Pochhammer products, Lambert sums,
divisor arithmetic, the Ghost Sum, Bernoulli numbers, and small exact
constants.

Everything here is elementary (no elliptic quantities); the elliptic and
theta layers are built on top of these primitives.  The Ghost Sum
``S(x) = sum_{n>=1} 1/(e^(n x) - 1)``, the divisor Lambert sum at
``q = e^-x``, is owned here alone: the CLI's ``ghost-sum`` and the registry's
cases P1 and T7 call :func:`ghost_sum`.
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
    "ghost_sum",
    "fermi_derivative_constant",
    "dirichlet_chi8",
]


# qpochhammer takes its factors down to the first with |a q^n| <= 1/8 and sums
# the rest as a log series, about 15 terms at any |q| < 1; odd_lambert's head
# stops at the same 1/8 and sums its own odd tail.
_LOG_TAIL_Y = 0.125


def qpochhammer(a: complex, q: complex) -> complex:
    """Infinite q-shifted factorial ``(a; q)_inf = prod_{k>=0} (1 - a q^k)``,
    which converges for ``|q| < 1``.

    Raises ``ValueError``, before any factor is taken, where ``a`` is not
    finite or ``|q| < 1`` does not hold (NaN included).  One route at every
    nome: the factors, ``a q^k`` carried by its ratio, down to the first with
    ``|a q^k| <= 1/8``, times ``exp(-T)`` for the rest, where
    ``T = sum_{j>=1} y^j / (j (1 - q^j)) = -log (y; q)_inf`` at the next
    ``y = a q^k`` (Gasper & Rahman, *Basic Hypergeometric Series*, 2nd ed.,
    section 1.3).  ``T`` stops once the bound ``|y|^j / (j (1 - |q|) (1 - |y|))``
    on its terms from ``j`` on is at most ``rel_tail_cutoff``: an absolute
    bound on a logarithm, so a relative one on the product.  Factors and tail
    terms are charged to :func:`~qelliptic.numutil.term_counter`.  A product
    that is not finite (it overflowed on the way, which no later factor
    undoes, or ``exp(-T)`` alone leaves the double range) raises
    ``OverflowError``; more than the policy's ``max_terms`` factors and terms
    raise :class:`NonConvergenceError`.
    """
    a = complex(a)
    q = complex(q)
    rho = abs(q)
    if not rho < 1.0:
        raise ValueError(f"infinite q-Pochhammer requires |q| < 1, got q = {q}")
    if not cmath.isfinite(a):
        raise ValueError(f"infinite q-Pochhammer requires a finite a, got a = {a}")
    pol = current_policy()
    max_terms = pol.max_terms
    prod = 1.0 + 0.0j
    y = a  # a q^factors, the next factor's deviation from 1
    for factors in range(1, max_terms + 1):
        last = abs(y)
        prod *= 1.0 - y
        y *= q
        if last <= _LOG_TAIL_Y:
            break
    else:
        _bump_terms(max_terms)
        raise NonConvergenceError(f"q-Pochhammer product did not converge in {max_terms} factors")
    cutoff = pol.rel_tail_cutoff
    ry = abs(y)
    c = 1.0 / ((1.0 - rho) * (1.0 - ry))
    tail = 0j
    yk, qk, rk, k = y, q, ry, 1  # y^k, q^k and |y|^k carried
    for used in range(factors + 1, max_terms + 1):
        tail += yk / (k * (1.0 - qk))
        k += 1
        rk *= ry
        if rk * c <= k * cutoff:
            break
        yk *= y
        qk *= q
    else:
        _bump_terms(max_terms)
        raise NonConvergenceError(f"q-Pochhammer product: the log-series tail at y = {y} "
                                  f"did not converge within {max_terms} factors and terms")
    _bump_terms(used)
    try:
        prod *= cmath.exp(-tail)
    except OverflowError:
        raise OverflowError(
            f"q-Pochhammer product: exp(-tail) = exp({-tail}) leaves the double range "
            f"after {factors} factors"
        ) from None
    if not cmath.isfinite(prod):
        raise OverflowError(f"q-Pochhammer product is {prod} after {factors} factors and its log-series tail")
    return prod


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


# ghost_sum: Euler's constant; the exponent past which 1/(e^y - 1) is e^-y to
# the double (and expm1 nears its overflow at 709.78); the number of terms of
# the asymptotic expansion below x = 1.  Its coefficients shrink up to the
# 20th and grow from the 21st, so at x = 1 the 20th term is the smallest,
# and at every x <= 1 it is below 2^-52 of the value.
_EULER_GAMMA = 0.5772156649015329
_GHOST_EXP = 709.0
_GHOST_ORDER = 20


@lru_cache(maxsize=1)
def _ghost_coefficients() -> tuple[float, ...]:
    """``B_2j^2 / (2j (2j)!)`` for ``j = 1 .. 20``, built on first use."""
    return tuple(float(bernoulli(2 * j) ** 2 / (2 * j * math.factorial(2 * j)))
                 for j in range(1, _GHOST_ORDER + 1))


def ghost_sum(x: float) -> complex:
    """The Ghost Sum ``S(x) = sum_{n>=1} 1/(e^(n x) - 1)`` for real ``x > 0``,
    the divisor Lambert sum at ``q = e^-x``.

    Above ``x = 1`` it is summed directly by :func:`sum_series`, with the term
    ``1/expm1(n x)``, or ``e^(-n x)`` once ``n x`` passes 709.  At and below
    ``x = 1``, where the direct sum needs about ``35/x`` terms, it takes the
    expansion from the poles of the Mellin transform ``Gamma(s) zeta(s)^2``
    (Flajolet, Gourdon & Dumas, *Theoret. Comput. Sci.* 144, 1995)::

        S(x) = (gamma - log x)/x + 1/4 - sum_{j>=1} B_2j^2 x^(2j-1) / (2j (2j)!)

    whose error is ``O(e^(-4 pi^2 / x))``.  The series is asymptotic: it stops
    at the first term at most ``rel_tail_cutoff`` times the head, or at the
    20th, the smallest term at ``x = 1``.  Each rule is the accurate one
    on its own side of ``x = 1`` (at ``x = 2`` the expansion is 9.2e-9 off).
    The terms are charged to :func:`~qelliptic.numutil.term_counter`.

    Raises ``ValueError`` unless ``x > 0`` (NaN included),
    :class:`~qelliptic.numutil.NonConvergenceError` past the policy's
    ``max_terms`` and ``OverflowError`` where ``S(x)`` is not a finite double
    (``x`` below about 4e-306).
    """
    if not x > 0.0:
        raise ValueError(f"ghost_sum requires x > 0, got x = {x}")
    if x > 1.0:
        def term(n: int) -> float:
            y = (n + 1) * x
            return 1.0 / math.expm1(y) if y < _GHOST_EXP else math.exp(-y)

        return sum_series(term)
    head = (_EULER_GAMMA - math.log(x)) / x + 0.25
    if not head < math.inf:
        raise OverflowError(f"ghost_sum: (gamma - log x)/x is not finite at x = {x!r}")
    pol = current_policy()
    negligible = pol.rel_tail_cutoff * head
    x2 = x * x
    power = x  # x^(2j-1)
    tail = 0.0
    for used, c in enumerate(_ghost_coefficients(), 1):
        if used > pol.max_terms:
            _bump_terms(pol.max_terms)
            raise NonConvergenceError(f"ghost_sum did not converge within {pol.max_terms} terms")
        t = c * power
        tail += t
        if t <= negligible:
            break
        power *= x2
    _bump_terms(used)
    return complex(head - tail)


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
