"""Two-parameter theta sums, agile products, and Ramanujan-style q-machinery.

This module holds the q-series layer beneath the nome/modulus functions
(it imports only :mod:`~qelliptic.numutil` and :mod:`~qelliptic.qseries`,
and :mod:`~qelliptic.elliptic` sums its theta nulls with the kernel here):
bilateral theta sums with quadratic-plus-linear exponents,
restricted q-Pochhammer ("agile") products, the continued fractions
``U(a, b; q)`` and ``u0(q, a)`` together with their closed product forms,
Rogers--Ramanujan evaluators, and restricted divisor-sum logarithm series.

Conventions
-----------
* ``cayley(v) = -1 + 2/(1 - v)`` maps the fraction value ``v`` to the
  product quotient it represents; both continued fractions below have
  closed forms under this map.
* Restricted divisor sums run over factorizations ``A * B = n`` with
  ``A, B >= 1``.  Residue constraints apply to ``B`` modulo ``p``.  The
  ``multiset`` flag controls whether a divisor pair matching several of
  the requested residue classes is counted once (set semantics) or once
  per matching class (multiset semantics).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .numutil import (
    _POLICY,
    NonConvergenceError,
    PoleError,
    _bump_terms,
    continued_fraction,
    principal_power,
    sum_series,
)
from .qseries import divisors, qpochhammer

__all__ = [
    "theta3_two",
    "theta4_two",
    "agile_minus",
    "agile_plus",
    "ramanujan_quantity",
    "rr_G",
    "rr_H",
    "rr_product",
    "rr_sum",
    "rr_cf",
    "cayley",
    "u_cf",
    "u_product",
    "cayley_u_product",
    "u0_cf",
    "u0_product",
    "cayley_u0_product",
    "odd_lambert",
    "log_P",
    "odd_ratio_sum",
    "restricted_divisor_log",
]

# ---------------------------------------------------------------------------
# Bilateral two-parameter theta sums
# ---------------------------------------------------------------------------

def _theta_two(a, b, q, alternating: bool) -> complex:
    """Folded sum ``1 + sum_{n>=1} s^n (q^(a n^2 + b n) + q^(a n^2 - b n))``
    with ``s = -1`` when ``alternating``, else ``s = 1``.

    Term ``n`` is built from term ``n - 1`` by running products: with
    ``R_1 = s q^(a +- b)``, each formed as one power, ``T_n = T_(n-1) R_n``
    and ``R_(n+1) = R_n q^(2a)``, so a call takes three powers and each term
    four complex multiplies.  (Formed as ``q^a q^(-b)``, ``R_1-`` would
    overflow at a tiny nome even where ``q^(a-b) = 1``.)  Once both next
    ratios have ``rho = |R_(n+1)| < 1``, every later ratio is smaller
    (``|q^(2a)| < 1``), so the terms left out sum to at most
    ``|T_n+| rho+ / (1 - rho+) + |T_n-| rho- / (1 - rho-)``.  The sum stops
    at the first partial sum where that bound is at most the active policy's
    ``rel_tail_cutoff`` times ``max(1, |partial sum|)``.  The terms
    ``n >= 1`` are summed on their own and the ``n = 0`` term is added once,
    to the scale and to the result; the terms consumed, ``n = 0`` included,
    are charged to :func:`~qelliptic.numutil.term_counter`.

    Raises :class:`~qelliptic.numutil.NonConvergenceError` after the
    policy's ``max_terms`` terms, or at the first partial sum that is not
    finite.
    """
    name = "theta4_two" if alternating else "theta3_two"
    x = principal_power(q, a)
    if abs(x) >= 1.0:
        raise ValueError(f"{name} requires |q^a| < 1 for convergence")
    if q == 0:
        # Every term but n = 0 is 0^(n (a n + b)): 0 when each exponent has a
        # positive real part, 1 when it is 0 (b = a at n = -1, b = -a at n = 1).
        if complex(a).real > abs(complex(b).real):
            return 1.0 + 0.0j
        if b == a or b == -a:
            return 0j if alternating else 2.0 + 0.0j
        raise PoleError(f"{name}: q^(a n^2 + b n) has a pole at q = 0 when a < |b|")
    pol = _POLICY.get()
    cutoff = pol.rel_tail_cutoff
    max_terms = pol.max_terms
    x2 = x * x
    sign = -1.0 if alternating else 1.0
    r_plus = sign * principal_power(q, a + b)
    r_minus = sign * principal_power(q, a - b)
    t_plus = t_minus = 1.0 + 0.0j
    total = 0j  # the terms n >= 1
    used = 1
    while True:
        rho_plus = abs(r_plus)
        rho_minus = abs(r_minus)
        if rho_plus < 1.0 and rho_minus < 1.0:
            tail = abs(t_plus) * rho_plus / (1.0 - rho_plus) + abs(t_minus) * rho_minus / (1.0 - rho_minus)
            scale = abs(1.0 + total)
            if tail <= cutoff * (scale if scale > 1.0 else 1.0):
                _bump_terms(used)
                return 1.0 + total
        if used >= max_terms:
            _bump_terms(used)
            raise NonConvergenceError(f"{name} did not converge within {max_terms} terms")
        t_plus *= r_plus
        t_minus *= r_minus
        r_plus *= x2
        r_minus *= x2
        total += t_plus + t_minus
        used += 1
        if not abs(total) < math.inf:
            _bump_terms(used)
            raise NonConvergenceError(f"{name} partial sum is {1.0 + total} after {used} terms")


def theta3_two(a, b, q) -> complex:
    """Bilateral sum ``sum_{n in Z} q^(a n^2 + b n)``.

    Requires ``a > 0`` (more precisely ``|q^a| < 1``) for convergence.  The
    sum is folded into ``1 + sum_{n>=1} q^(a n^2) (q^(b n) + q^(-b n))``.
    """
    return _theta_two(a, b, q, alternating=False)


def theta4_two(a, b, q) -> complex:
    """Bilateral sum ``sum_{n in Z} (-1)^n q^(a n^2 + b n)``."""
    return _theta_two(a, b, q, alternating=True)


# ---------------------------------------------------------------------------
# Agile products and Ramanujan quantities
# ---------------------------------------------------------------------------

def agile_minus(a, p, q) -> complex:
    """Product ``prod_{n>=0} (1 - q^(p n + a)) (1 - q^(p n + p - a))``."""
    qp = principal_power(q, p)
    return qpochhammer(principal_power(q, a), qp) * qpochhammer(principal_power(q, p - a), qp)


def agile_plus(a, p, q) -> complex:
    """Product ``prod_{n>=0} (1 + q^(p n + a)) (1 + q^(p n + p - a))``."""
    qp = principal_power(q, p)
    return qpochhammer(-principal_power(q, a), qp) * qpochhammer(-principal_power(q, p - a), qp)


def ramanujan_quantity(a, b, p, q) -> complex:
    """Quotient ``agile_minus(a, p, q) / agile_minus(b, p, q)``."""
    den = agile_minus(b, p, q)
    if den == 0:
        raise PoleError("ramanujan_quantity: denominator agile product vanished")
    return agile_minus(a, p, q) / den


# ---------------------------------------------------------------------------
# Rogers--Ramanujan evaluators
# ---------------------------------------------------------------------------

def _rr_series(q, shift: int) -> complex:
    """Sum ``sum_{n>=0} q^(n^2 + shift n) / (q; q)_n`` with the term carried
    by its ratio ``q^(2n - 1 + shift) / (1 - q^n)``, so that neither the
    numerator nor ``(q; q)_n`` underflows on its own near ``q = 1``."""
    state = [1.0 + 0.0j]

    def term(n: int) -> complex:
        if n > 0:
            state[0] *= q ** (2 * n - 1 + shift) / (1.0 - q**n)
        return state[0]

    return sum_series(term)


def rr_G(q) -> complex:
    """Sum ``sum_{n>=0} q^(n^2) / (q; q)_n``."""
    return _rr_series(q, 0)


def rr_H(q) -> complex:
    """Sum ``sum_{n>=0} q^(n^2 + n) / (q; q)_n``.

    The ``n = 0`` term equals 1, so ``rr_H(0) = 1``, consistent with the
    agile-product form ``1 / agile_minus(2, 5, q)``.
    """
    return _rr_series(q, 1)


def rr_product(q) -> complex:
    """``q^(1/5) * agile_minus(1, 5, q) / agile_minus(2, 5, q)``."""
    return principal_power(q, 0.2) * ramanujan_quantity(1, 2, 5, q)


def rr_sum(q) -> complex:
    """``q^(1/5) * rr_H(q) / rr_G(q)``."""
    return principal_power(q, 0.2) * rr_H(q) / rr_G(q)


def rr_cf(q) -> complex:
    """Continued fraction ``q^(1/5) / (1 + q/(1 + q^2/(1 + ...)))``."""
    q15 = principal_power(q, 0.2)

    def a_k(k: int) -> complex:
        return 1.0

    def b_k(k: int) -> complex:
        if k == 1:
            return q15
        return q ** (k - 1)

    return continued_fraction(a_k, b_k)


# ---------------------------------------------------------------------------
# The continued fractions U(a, b; q) and u0(q, a)
# ---------------------------------------------------------------------------

def cayley(v) -> complex:
    """Map ``v -> -1 + 2/(1 - v)``; raises near the pole ``v = 1``."""
    d = 1.0 - v
    if abs(d) < 1e-14:
        raise PoleError("cayley transform evaluated at v = 1")
    return -1.0 + 2.0 / d


def u_cf(a, b, q) -> complex:
    """Continued fraction with partial numerators
    ``a - b, (a - b q)(a q - b), q (a - b q^2)(a q^2 - b), ...`` over
    partial denominators ``1 - q, 1 - q^3, 1 - q^5, ...``.
    """

    def a_k(k: int) -> complex:
        return 1.0 - q ** (2 * k - 1)

    def b_k(k: int) -> complex:
        if k == 1:
            return a - b
        return q ** (k - 2) * (a - b * q ** (k - 1)) * (a * q ** (k - 1) - b)

    return continued_fraction(a_k, b_k)


def u_product(a, b, q) -> complex:
    """Closed form ``(N - D)/(N + D)`` with ``N = (-a; q) (b; q)`` and
    ``D = (a; q) (-b; q)``."""
    num = qpochhammer(-a, q) * qpochhammer(b, q)
    den = qpochhammer(a, q) * qpochhammer(-b, q)
    s = num + den
    if abs(s) < 1e-300:
        raise PoleError("u_product: vanishing denominator N + D")
    return (num - den) / s


def cayley_u_product(a, b, q) -> complex:
    """Quotient ``(-a; q) (b; q) / ((a; q) (-b; q))``, the cayley image of
    the product form of ``U(a, b; q)`` computed without cancellation."""
    den = qpochhammer(a, q) * qpochhammer(-b, q)
    if abs(den) < 1e-300:
        raise PoleError("cayley_u_product: vanishing denominator")
    return qpochhammer(-a, q) * qpochhammer(b, q) / den


def u0_cf(a, q) -> complex:
    """Continued fraction ``2a/(1 - q +) a^2 (1+q)^2/(1 - q^3 +)
    a^2 q (1+q^2)^2/(1 - q^5 +) ...``; requires ``|q| < 1`` and ``|q/a| < 1``."""

    def a_k(k: int) -> complex:
        return 1.0 - q ** (2 * k - 1)

    def b_k(k: int) -> complex:
        if k == 1:
            return 2.0 * a
        return a * a * q ** (k - 2) * (1.0 + q ** (k - 1)) ** 2

    return continued_fraction(a_k, b_k)


def u0_product(a, q) -> complex:
    """Closed form ``(P - 1)/(P + 1)`` with ``P = ((-a; q)/(a; q))^2``."""
    p_val = cayley_u0_product(a, q)
    return (p_val - 1.0) / (p_val + 1.0)


def cayley_u0_product(a, q) -> complex:
    """Quotient ``P = ((-a; q)/(a; q))^2``, the cayley image of ``u0(q, a)``."""
    den = qpochhammer(a, q)
    if abs(den) < 1e-300:
        raise PoleError("cayley_u0_product: vanishing (a; q) product")
    r = qpochhammer(-a, q) / den
    return r * r


# ---------------------------------------------------------------------------
# Logarithm series
# ---------------------------------------------------------------------------

def odd_lambert(z, Q) -> complex:
    """Sum ``sum_{m odd >= 1} z^m / (m (1 - Q^m))``; needs ``|z| < 1``."""

    def term(n: int) -> complex:
        m = 2 * n + 1
        return z**m / (m * (1.0 - Q**m))

    return sum_series(term)


def log_P(A, q) -> complex:
    """Series ``4 sum_{n>=0} A^(2n+1) / ((2n+1)(1 - q^(2n+1)))``, the
    logarithm of ``cayley_u0_product(A, q)``."""
    return 4.0 * odd_lambert(A, q)


def odd_ratio_sum(A, q) -> complex:
    """Sum ``sum_{n>=0} A^(2n+1) / (1 - q^(2n+1))``."""

    def term(n: int) -> complex:
        m = 2 * n + 1
        return A**m / (1.0 - q**m)

    return sum_series(term)


# ---------------------------------------------------------------------------
# Restricted divisor-sum logarithm series
# ---------------------------------------------------------------------------

def restricted_divisor_log(
    q,
    p: int,
    residues: Sequence[int] | Iterable[int],
    *,
    odd_only: bool = True,
    alternating: bool = False,
    x: complex = 1.0,
    multiset: bool = False,
) -> complex:
    """Sum ``sum_{n>=1} q^n sum_{A B = n} w(A)`` restricted by residue class.

    The inner sum runs over factorizations ``A * B = n`` with ``A`` odd when
    ``odd_only`` and ``B mod p`` lying in ``residues``.  The weight is
    ``w(A) = (-1)^A / A`` when ``alternating`` (and then ``x`` must stay 1),
    otherwise ``w(A) = x^A / A``.

    With ``multiset=True`` a divisor pair is counted once per residue class
    it matches, so repeated classes in ``residues`` accumulate; the default
    counts each matching pair once regardless of how many classes agree.
    """
    if alternating and x != 1.0:
        raise ValueError("alternating weight does not take a power argument")
    res_list = [r % p for r in residues]
    res_set = frozenset(res_list)

    def inner(n: int) -> complex:
        total = 0.0 + 0.0j
        for A in divisors(n):
            if odd_only and A % 2 == 0:
                continue
            bmod = (n // A) % p
            if multiset:
                count = sum(1 for r in res_list if r == bmod)
            else:
                count = 1 if bmod in res_set else 0
            if not count:
                continue
            if alternating:
                w = (-1.0 if A % 2 else 1.0) / A
            else:
                w = x**A / A
            total += count * w
        return total

    def term(n_index: int) -> complex:
        n = n_index + 1
        return q**n * inner(n)

    return sum_series(term)
