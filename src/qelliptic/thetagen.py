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
  closed forms under this map.  Those images are formed from their products
  directly, ``cayley_u_product(a, b, q) = N/D`` and
  ``cayley_u0_product(a, q) = P``, not as ``cayley`` of a product form
  ``(N - D)/(N + D)``: as ``q -> 1`` that value nears 1 and ``1 - v`` loses
  its digits.
* Restricted divisor sums run over factorizations ``A * B = n`` with
  ``A, B >= 1``.  Residue constraints apply to ``B`` modulo ``p``, and a
  divisor pair counts once for each listed class it matches: the classes
  ``a`` and ``p - a`` of the agile brackets coincide at ``2a = p`` and then
  count twice.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, Sequence

from .numutil import (
    _SCALE_FLOOR,
    NonConvergenceError,
    PoleError,
    _bump_terms,
    continued_fraction,
    current_policy,
    principal_power,
    sum_series,
)
from .qseries import _LOG_TAIL_Y, _divisor_series, qpochhammer

__all__ = [
    "theta1_two",
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
    "u0_cf",
    "u0_product",
    "cayley_u_product",
    "cayley_u0_product",
    "odd_lambert",
    "log_P",
    "odd_ratio_sum",
    "restricted_divisor_log",
]

# ---------------------------------------------------------------------------
# Bilateral two-parameter theta sums
# ---------------------------------------------------------------------------

_PI = math.pi
_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi
_I_PI = 1j * math.pi
_MINUS_I_PI = -1j * math.pi


def _walk(A: complex, odd: bool) -> tuple:
    """``A``'s steps to the fundamental domain (see :func:`_reduce`), which do
    not depend on ``B``: each is ``(shift, A, h, c, after)``, the T step's
    shift ``pi m`` of ``Im B`` (``None`` where there is none, and for the odd
    sum), ``A`` after it, the S step's ``h = log(-pi/A) / 2``, the odd sum's
    constant ``c`` and the next ``A``; the last step, where ``A`` has
    arrived, has ``h = None`` and ``after = e^(2A')``."""
    steps = []
    while True:
        shift = None
        a_imag = A.imag
        if a_imag > _HALF_PI or a_imag < -_HALF_PI:
            m = round(a_imag / _PI)
            A = complex(A.real, a_imag - _PI * m)
            if not odd:
                shift = _PI * m
        # |tau| >= 1 up to rounding; the margin stops S steps that would
        # only swap tau with -1/tau on the unit circle
        if abs(A) >= 0.999 * _PI:
            steps.append((shift, A, None, None, cmath.exp(2.0 * A)))
            return tuple(steps)
        h = 0.5 * cmath.log(-_PI / A)
        after = _PI * _PI / A
        steps.append((shift, A, h, 0.25 * (after - A) - 0.5j * _PI if odd else None, after))
        A = after


def _reduce(path: tuple, B: complex, odd: bool) -> tuple[complex, complex, complex, complex]:
    """``(A', e^(2A'), B', log f)`` with ``sum_n e^(A n^2 + B n) = f sum_n e^(A' n^2 + B' n)``
    (``Re A < 0``), where ``path`` is ``_walk(A, odd)``, ``tau' = A' / (i pi)``
    lies in the fundamental domain (``|Re tau'| <= 1/2``, ``|tau'| >= 1``, so
    ``|e^A'| <= e^(-pi sqrt(3)/2)``), ``|Re B'| <= |Re A'|`` and ``|Im B'| <= pi``.

    * T step: ``(A, B) -> (A - i pi m, B + i pi m)``, since
      ``e^(i pi m n^2) = e^(i pi m n)``.
    * z-reduction: ``B`` modulo ``2 pi i`` (``e^(2 pi i k n) = 1``), before
      and after the shift ``n -> n + m``, which turns ``B`` into ``B + 2 A m``
      and multiplies the sum by ``e^(A m^2 + B m)``.
    * S step (Poisson summation, DLMF 20.7.32):
      ``sum e^(A n^2 + B n) = sqrt(-pi/A) e^(-B^2/(4A)) sum e^((pi^2/A) n^2 - (i pi B/A) n)``.

    With ``odd`` the sum is theta1's, ``sum_n (-1)^n e^(A n(n+1) + B(n + 1/2))``,
    which the same steps map to itself (DLMF 20.7.30) up to a constant: the T
    step leaves ``B`` alone, ``B - 2 pi i k`` gives ``(-1)^k``, the shift
    ``(-1)^m`` more, the S step ``-i e^((A' - A)/4)`` more.

    The factors' logarithms are summed, so ``f`` is formed once, by the caller.
    """
    log_f = 0j
    for shift, A, h, c, after in path:
        # bounds tested by comparison, not abs(), on this hot path; B is
        # reduced modulo 2 pi i inline, and the odd sum's signs (-1)^k and
        # (-1)^m are charged to log_f only when odd
        if shift is not None:
            B = complex(B.real, B.imag + shift)
        b_imag = B.imag
        if b_imag > _PI or b_imag < -_PI:
            k = round(b_imag / _TWO_PI)
            B = complex(B.real, b_imag - _TWO_PI * k)
            if odd:
                log_f += _I_PI * k
        a_real = A.real
        if B.real > -a_real or B.real < a_real:
            m = round(-B.real / (2.0 * a_real))
            log_f += (A * m + B) * m
            B += 2.0 * m * A
            k = round(B.imag / _TWO_PI)
            B = complex(B.real, B.imag - _TWO_PI * k)
            if odd:
                log_f += _I_PI * (m + k)
        if h is None:
            return A, after, B, log_f
        log_f += h - B * B / (4.0 * A)
        B = _MINUS_I_PI * B / A
        if odd:
            log_f += c


def _fold(x2: complex, r_plus: complex, r_minus: complex, name: str,
          odd_B: complex | None = None) -> complex:
    """Folded sum ``P_0 + sum_{n>=1} P_n`` with ``T_n+- = T_(n-1)+- R_n+-``,
    ``R_1+- = r_plus, r_minus``, ``R_(n+1)+- = R_n+- x2`` (``|x2| < 1``).  The
    even fold pairs the terms ``n`` and ``-n``: ``P_0 = 1``, ``T_0+- = 1`` and
    ``P_n = T_n+ + T_n-``.  The odd fold (``odd_B = B``, ``x2 = e^(2A)``,
    ``r_plus, r_minus = e^(2A +- B)``, ``T_0+- = e^(+-B/2)``) pairs the terms
    ``n`` and ``-1-n`` of theta1's sum into ``P_n = 2 (-1)^n e^(A n(n+1))
    sinh(B(n + 1/2))``, which does not cancel as ``B -> 0``; ``|P_n| <= |T_n+| + |T_n-|``.

    Once both next ratios have ``rho = |R_(n+1)| < 1``, the terms left out sum
    to at most ``|T_n+| rho+ / (1 - rho+) + |T_n-| rho- / (1 - rho-)``.  The sum
    stops at the first partial sum where that bound is at most the policy's
    ``rel_tail_cutoff`` times ``max(|partial sum|, 2^-52 max_n |P_n|)``, the
    scale of :func:`~qelliptic.numutil.sum_series` (one floor,
    ``numutil._SCALE_FLOOR``), which a power-of-two factor on every term does
    not move.  ``P_0`` is added to the terms ``n >= 1`` once; the terms asked
    for are charged to :func:`~qelliptic.numutil.term_counter`, also on a raise.

    Raises :class:`~qelliptic.numutil.NonConvergenceError` after the
    policy's ``max_terms`` terms, and ``OverflowError`` where the odd fold's
    head overflows or at the first partial sum that is not finite.
    """
    pol = current_policy()
    cutoff = pol.rel_tail_cutoff
    max_terms = pol.max_terms
    if odd_B is None:
        head = t_plus = t_minus = 1.0 + 0.0j
    else:
        try:
            head = 2.0 * cmath.sinh(0.5 * odd_B)
            t_plus, t_minus = cmath.exp(0.5 * odd_B), cmath.exp(-0.5 * odd_B)
        except OverflowError:
            raise OverflowError(f"the odd fold's head 2 sinh(B/2) overflows at B = {odd_B}") from None
        weight, step = 2.0 + 0.0j, x2  # 2 (-1)^n e^(A n(n+1)) and e^(2 A (n+1))
    largest = abs(head)
    total = 0j  # the terms n >= 1
    used = 1  # P_0 and the terms asked for, charged on every exit
    inf = math.inf
    try:
        while True:
            rho_plus = abs(r_plus)
            rho_minus = abs(r_minus)
            if rho_plus < 1.0 and rho_minus < 1.0:
                tail = abs(t_plus) * rho_plus / (1.0 - rho_plus) + abs(t_minus) * rho_minus / (1.0 - rho_minus)
                value = head + total
                scale = abs(value)
                floor = _SCALE_FLOOR * largest
                if tail <= cutoff * (floor if floor > scale else scale):
                    return value
            if used >= max_terms:
                raise NonConvergenceError(f"{name} did not converge within {max_terms} terms")
            used += 1
            t_plus *= r_plus
            t_minus *= r_minus
            r_plus *= x2
            r_minus *= x2
            if odd_B is None:
                term = t_plus + t_minus
            else:
                weight *= -step
                step *= x2
                term = weight * cmath.sinh((used - 0.5) * odd_B)
            total += term
            mag = abs(term)
            if mag > largest:
                largest = mag
            if not abs(total) < inf:
                raise OverflowError(f"partial sum is {head + total} after {used} terms")
    finally:
        _bump_terms(used)


# The last plan of the even sums (theta3 and theta4 share it) and of the odd
# one: what _theta_two needs of (a, q) and the parity alone, the tuple
# (q, a, x2, log_b, turn, path, real).  x2 = q^(2a) is set on the direct
# route only.  On the reduced one B = b log_b (+ i pi (s b + m) where
# turn = (s, m)), path is A's steps (_walk) and real whether a real b makes
# every term real once a +- b are integers or q > 0 (q and a real, the sum
# even).  A call finds its plan by the identity of its a and q, so equal keys
# that would pick other branches of Log q (-0.0 == 0.0) or other powers
# (1 == 1.0) never share one.  A nome's first call makes its plan whole,
# walking A once, and no call writes it after; the identity test and a plain
# tuple keep its bookkeeping near 2% of that call.
_plans: list[tuple | None] = [None, None]


def _theta_two(a, b, q, alternating: bool, odd: bool = False) -> complex:
    """Bilateral sum ``sum_n s^n q^(a n^2 + b n)`` with ``s = -1`` when
    ``alternating``, else ``s = 1``, folded by :func:`_fold`; with ``odd``,
    :func:`theta1_two`'s sum, always reduced.

    The sum is written as ``sum_n e^(A n^2 + B n)`` with ``L = Log q``,
    ``A = a L`` and ``B = b L (+ i pi when alternating)``, so that
    ``|q^a| = e^(Re A)``.  What depends on ``(a, q)`` and the parity alone,
    ``L``, the route, ``q^(2a)`` and ``A``'s path (:func:`_walk`), is a plan
    made by the first call at an ``a`` and ``q`` and kept for the next
    (``_plans``), so a quadrature over ``b`` at one nome forms it once.
    Where ``|q^a| <= e^(-pi/2)`` (``Im tau >= 1/2`` for
    ``tau = A / (i pi)``) it is summed directly: its
    ratios ``R_1+- = s q^(a +- b)`` and ``x2 = q^(2a)`` take three powers, two
    on a kept plan.  (Formed as ``q^a q^(-b)``, ``R_1-`` would overflow at a
    tiny nome even where ``q^(a-b) = 1``.)  The direct sum stays although the
    reduction would apply there too: at ``(a, b, q) = (0.5, 0.25, 0.01)`` the
    reduced sum is 1.6e-16 (theta3) and 1.9e-16 (theta4) from mpmath, the
    direct one exact to the double.  Elsewhere :func:`_reduce` carries ``tau``
    into the fundamental domain by Jacobi's imaginary transformation, and the
    reduced sum, at a nome of at most ``e^(-pi sqrt(3)/2) ~ 0.066``, takes at
    most five terms, with ratios ``e^(A' +- B')`` and ``e^(2A')``; it is
    multiplied by the transformation's factor.  Where every term is real
    (real ``a``, ``b`` and ``q > 0``, or ``q < 0`` with ``a +- b`` integers)
    the reduced sum's result is returned with imaginary part 0.

    Raises ``ValueError`` where ``|q^a| >= 1`` (with ``odd``, also at
    ``q = 0``), and one naming the argument where ``a`` or ``b`` is not finite
    at ``q = 0`` or where a step overflows and ``a`` or ``b`` is not finite (the
    type is decided on that refusal, so the direct route takes no extra test),
    :class:`~qelliptic.numutil.NonConvergenceError` where
    :func:`_fold` spends its cap, and ``OverflowError`` where ``b Log q``, the
    transformation's factor, the odd fold's head, a ratio, a partial sum or
    the value is not finite; its message names the sum and its ``(a, b, q)``,
    then the step that overflowed.
    """
    name = "theta1_two" if odd else "theta4_two" if alternating else "theta3_two"
    if q == 0:
        if odd:
            raise ValueError(f"{name} requires 0 < |q^a| < 1; q = 0 is outside it")
        _require_finite(name, a, b)
        if abs(principal_power(q, a)) >= 1.0:
            raise ValueError(f"{name} requires |q^a| < 1 for convergence")
        # Every term but n = 0 is 0^(n (a n + b)): 0 when each exponent has a
        # positive real part, 1 when it is 0 (b = a at n = -1, b = -a at n = 1).
        if complex(a).real > abs(complex(b).real):
            return 1.0 + 0.0j
        if b == a or b == -a:
            return 0j if alternating else 2.0 + 0.0j
        raise PoleError(f"{name}: q^(a n^2 + b n) has a pole at q = 0 when a < |b|")
    try:
        plan = _plans[odd]
        if plan is not None and plan[0] is q and plan[1] is a:
            _, _, x2, log_b, turn, path, real = plan
        else:
            log_q = cmath.log(q)
            A = a * log_q
            if not A.real < 0.0:  # NaN fails it too
                raise ValueError(f"{name} requires |q^a| < 1 for convergence")
            if not (odd or A.real > -0.5 * _PI):
                x = principal_power(q, a)
                x2 = x * x
                _plans[odd] = (q, a, x2, None, None, None, False)
            else:
                x2 = turn = path = None
                log_b = log_q
                if q.real < 0.0:
                    # L = Log(-q) + i pi s (s = +-1), whose multiple of i pi
                    # is split off as a T step by m = round(s Re a):
                    # A = a Log(-q) + i pi (s a - m), B = b Log(-q) + i pi (s b + m)
                    # (i pi s b for the odd sum, whose T step leaves B alone).
                    # Near the negative axis what is left of Im A then keeps
                    # the relative accuracy of Log(-q), where Im L carries an
                    # absolute error of u pi (theta3 at -0.8645 - 0.028i:
                    # 3.4e-15 off, 3.5e-14 from L)
                    s = 1.0 if log_q.imag > 0.0 else -1.0
                    log_b = cmath.log(-q)
                    m = round(s * a.real)
                    A = a * log_b + _I_PI * (s * a - m)
                    turn = (s, 0 if odd else m)
                real = not odd and q.imag == 0.0 and a.imag == 0.0
        if x2 is not None:
            sign = -1.0 if alternating else 1.0
            try:
                r_plus, r_minus = principal_power(q, a + b), principal_power(q, a - b)
            except OverflowError:
                raise OverflowError("a ratio power q^(a +- b) leaves the double range") from None
            return _fold(x2, sign * r_plus, sign * r_minus, name)
        if turn is None:
            B = b * log_b
        else:
            B = b * log_b + _I_PI * (turn[0] * b + turn[1])
        if alternating:
            B += _I_PI
        if not cmath.isfinite(B):
            raise OverflowError(f"b Log q = {B} is not finite")
        if path is None:
            path = _walk(A, odd)
            _plans[odd] = (q, a, None, log_b, turn, path, real)
        A, e2A, B, log_f = _reduce(path, B, odd)
        try:
            factor = cmath.exp(log_f)
        except OverflowError:
            raise OverflowError(f"the transformation factor e^{log_f} overflows") from None
        r = 2.0 * A if odd else A  # log of the ratio of term 1 to term 0, less B
        folded = _fold(e2A, cmath.exp(r + B), cmath.exp(r - B), name, B if odd else None)
        value = factor * folded
        if not cmath.isfinite(value):
            raise OverflowError("the value leaves the double range")
    except OverflowError as exc:
        _require_finite(name, a, b)
        raise OverflowError(f"{name}({a}, {b}; {q}): {exc}") from exc
    if value.imag and real:
        b = complex(b)
        if b.imag == 0.0 and (q.real > 0.0 or (a.real + b.real).is_integer() and (a.real - b.real).is_integer()):
            return complex(value.real, 0.0)
    return value


def _require_finite(name: str, a, b) -> None:
    """``ValueError`` naming the first of ``a`` and ``b`` that is not finite."""
    for label, v in (("a", a), ("b", b)):
        if not cmath.isfinite(v):
            raise ValueError(f"{name} requires a finite {label}, got {label} = {v}")


def theta1_two(a, b, q) -> complex:
    """Odd bilateral sum ``sum_{n in Z} (-1)^n q^(a n(n+1) + b(n + 1/2))``, so
    that ``theta1(w | q) = -i q^(1/4) theta1_two(1, 2 i w / Log q, q)``; the
    terms ``n`` and ``-1-n`` are summed as one, so the sum keeps its relative
    accuracy as ``b -> 0``.  Requires ``0 < |q^a| < 1``."""
    return _theta_two(a, b, q, alternating=False, odd=True)


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
    """Product ``prod_{n>=0} (1 - q^(p n + a)) (1 - q^(p n + p - a))``;
    ``OverflowError`` where it is not finite."""
    return _agile(a, p, q, False)


def agile_plus(a, p, q) -> complex:
    """Product ``prod_{n>=0} (1 + q^(p n + a)) (1 + q^(p n + p - a))``;
    ``OverflowError`` where it is not finite."""
    return _agile(a, p, q, True)


def _agile(a, p, q, plus: bool) -> complex:
    """``(-+q^a; q^p) (-+q^(p - a); q^p)``: two finite products whose product
    may still overflow, refused by the bracket's name."""
    qp = principal_power(q, p)
    x, y = principal_power(q, a), principal_power(q, p - a)
    if plus:
        x, y = -x, -y
    w = qpochhammer(x, qp) * qpochhammer(y, qp)
    if not cmath.isfinite(w):
        raise OverflowError(f"{'agile_plus' if plus else 'agile_minus'}({a}, {p}, {q}) is {w}")
    return w


def _quotient(num: complex, den: complex, name: str, *args, square: bool = False) -> complex:
    """``num / den``, squared when ``square``, for the product quotients of this module:
    :class:`~qelliptic.numutil.PoleError` only where ``den`` is exactly 0, and
    ``OverflowError`` where the result is not finite, naming ``name(*args)``."""
    if den == 0:
        raise PoleError(f"{name}({', '.join(map(str, args))}): the denominator is 0")
    w = num / den
    if square:
        w *= w
    if not cmath.isfinite(w):
        raise OverflowError(f"{name}({', '.join(map(str, args))}) is {w}")
    return w


def ramanujan_quantity(a, b, p, q) -> complex:
    """Quotient ``agile_minus(a, p, q) / agile_minus(b, p, q)``; ``PoleError``
    where the divisor is exactly 0, ``OverflowError`` where the quotient is not finite."""
    den = agile_minus(b, p, q)
    return _quotient(agile_minus(a, p, q), den, "ramanujan_quantity", a, b, p, q)


# ---------------------------------------------------------------------------
# Rogers--Ramanujan evaluators
# ---------------------------------------------------------------------------

def _rr_series(q, shift: int) -> complex:
    """Sum ``sum_{n>=0} q^(n^2 + shift n) / (q; q)_n`` with the term carried
    by its ratio ``q^(2n - 1 + shift) / (1 - q^n)``, so that neither the
    numerator nor ``(q; q)_n`` underflows on its own near ``q = 1``."""
    if not abs(q) < 1.0:  # NaN fails it too
        raise ValueError(f"Rogers-Ramanujan sum requires |q| < 1, got q = {q}")
    state = [1.0 + 0.0j]

    def term(n: int) -> complex:
        if n > 0:
            state[0] *= q ** (2 * n - 1 + shift) / (1.0 - q**n)
        return state[0]

    return sum_series(term)


def rr_G(q) -> complex:
    """Sum ``sum_{n>=0} q^(n^2) / (q; q)_n``; ``ValueError`` unless ``|q| < 1``
    (NaN included)."""
    return _rr_series(q, 0)


def rr_H(q) -> complex:
    """Sum ``sum_{n>=0} q^(n^2 + n) / (q; q)_n``.

    The ``n = 0`` term equals 1, so ``rr_H(0) = 1``, consistent with the
    agile-product form ``1 / agile_minus(2, 5, q)``.  ``ValueError`` unless
    ``|q| < 1`` (NaN included).
    """
    return _rr_series(q, 1)


def rr_product(q) -> complex:
    """``q^(1/5) * agile_minus(1, 5, q) / agile_minus(2, 5, q)``."""
    return principal_power(q, 0.2) * ramanujan_quantity(1, 2, 5, q)


def rr_sum(q) -> complex:
    """``q^(1/5) * rr_H(q) / rr_G(q)``."""
    return principal_power(q, 0.2) * rr_H(q) / rr_G(q)


def rr_cf(q) -> complex:
    """Continued fraction ``q^(1/5) / (1 + q/(1 + q^2/(1 + ...)))``;
    ``ValueError`` unless ``|q| < 1`` (NaN included)."""
    if not abs(q) < 1.0:
        raise ValueError(f"Rogers-Ramanujan fraction requires |q| < 1, got q = {q}")
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
    """Map ``v -> -1 + 2/(1 - v)``; ``PoleError`` only where ``1 - v`` is exactly 0,
    ``OverflowError`` where the image is not finite."""
    return -1.0 + _quotient(2.0, 1.0 - v, "cayley", v)


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
        qk = q ** (k - 1)
        return q ** (k - 2) * (a - b * qk) * (a * qk - b)

    return continued_fraction(a_k, b_k)


def u_product(a, b, q) -> complex:
    """Closed form ``(N - D)/(N + D)`` with ``N = (-a; q) (b; q)`` and
    ``D = (a; q) (-b; q)``; ``PoleError`` where ``N + D`` is exactly 0,
    ``OverflowError`` where the quotient is not finite."""
    num = qpochhammer(-a, q) * qpochhammer(b, q)
    den = qpochhammer(a, q) * qpochhammer(-b, q)
    return _quotient(num - den, num + den, "u_product", a, b, q)


def u0_cf(a, q) -> complex:
    """Continued fraction ``2a/(1 - q +) a^2 (1+q)^2/(1 - q^3 +) a^2 q (1+q^2)^2/(1 - q^5 +)
    ...``, :func:`u_cf` at ``b = -a``; requires ``|q| < 1`` and ``|q/a| < 1``."""
    return u_cf(a, -a, q)


def u0_product(a, q) -> complex:
    """Closed form ``(P - 1)/(P + 1)`` with ``P = ((-a; q)/(a; q))^2``;
    ``PoleError`` where ``P + 1`` is exactly 0, ``OverflowError`` where the
    quotient is not finite."""
    p_val = cayley_u0_product(a, q)
    return _quotient(p_val - 1.0, p_val + 1.0, "u0_product", a, q)


def cayley_u_product(a, b, q) -> complex:
    """Quotient ``N/D`` with ``N = (-a; q) (b; q)`` and ``D = (a; q) (-b; q)``,
    the cayley image of ``U(a, b; q)``, formed without ``U``; ``PoleError``
    where ``D`` is exactly 0, ``OverflowError`` where ``N/D`` is not finite."""
    den = qpochhammer(a, q) * qpochhammer(-b, q)
    return _quotient(qpochhammer(-a, q) * qpochhammer(b, q), den, "cayley_u_product", a, b, q)


def cayley_u0_product(a, q) -> complex:
    """Quotient ``P = ((-a; q)/(a; q))^2``, the cayley image of ``u0(q, a)``;
    ``PoleError`` where ``(a; q)`` is exactly 0, ``OverflowError`` where ``P``
    is not finite."""
    den = qpochhammer(a, q)
    return _quotient(qpochhammer(-a, q), den, "cayley_u0_product", a, q, square=True)


# ---------------------------------------------------------------------------
# Logarithm series
# ---------------------------------------------------------------------------

def odd_lambert(z, Q) -> complex:
    """Sum ``sum_{m odd >= 1} z^m / (m (1 - Q^m)) = sum_{n>=0} atanh(z Q^n)``.

    The terms ``atanh(z Q^n)`` are summed while ``|z Q^n| > 1/8``, ``z Q^n``
    carried by its ratio ``Q``, and the rest as the odd series itself at
    ``y = z Q^n``: its terms from ``m`` on sum to at most
    ``|y|^m / (m (1 - |Q|) (1 - |y|^2))``, which stops it on the scale of
    :func:`~qelliptic.numutil.sum_series`.  All terms, also on a raise, are
    charged to :func:`~qelliptic.numutil.term_counter` and counted against ``max_terms``.
    Raises ``ValueError`` naming ``z`` and ``Q`` unless ``|z| < 1`` and
    ``|Q| < 1`` (NaN included).
    """
    z = complex(z)
    Q = complex(Q)
    if not (abs(z) < 1.0 and abs(Q) < 1.0):
        raise ValueError(f"odd Lambert sum needs |z| < 1 and |Q| < 1, got z = {z}, Q = {Q}")
    pol = current_policy()
    max_terms = pol.max_terms
    total = 0j
    peak = 0.0
    used = 0  # the terms asked for, charged on every exit
    y = z  # z Q^used
    try:
        while abs(y) > _LOG_TAIL_Y and used < max_terms:  # a spent cap leaves no tail term
            used += 1
            t = cmath.atanh(y)
            total += t
            mag = abs(t)
            if mag > peak:
                peak = mag
            y *= Q
        cutoff = pol.rel_tail_cutoff
        floor = _SCALE_FLOOR * peak
        ry = abs(y)
        rs = ry * ry
        ys, qs = y * y, Q * Q
        c = 1.0 / ((1.0 - abs(Q)) * (1.0 - rs))
        yk, qk, rk, m = y, Q, ry, 1  # y^m, Q^m and |y|^m carried over odd m
        for used in range(used + 1, max_terms + 1):
            total += yk / (m * (1.0 - qk))
            m += 2
            rk *= rs
            if rk * c <= m * cutoff * max(abs(total), floor):
                return total
            yk *= ys
            qk *= qs
        raise NonConvergenceError(f"odd Lambert sum did not converge within {max_terms} terms")
    finally:
        _bump_terms(used)


def log_P(A, q) -> complex:
    """Series ``4 sum_{n>=0} A^(2n+1) / ((2n+1)(1 - q^(2n+1)))``, the
    logarithm of ``cayley_u0_product(A, q)``."""
    return 4.0 * odd_lambert(A, q)


def odd_ratio_sum(A, q) -> complex:
    """Sum ``sum_{n>=0} A^(2n+1) / (1 - q^(2n+1))``; ``ValueError`` naming ``A``
    and ``q`` unless ``|A| < 1`` and ``|q| < 1`` (NaN included)."""
    if not (abs(A) < 1.0 and abs(q) < 1.0):
        raise ValueError(f"odd ratio sum needs |A| < 1 and |q| < 1, got A = {A}, q = {q}")

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
    x: complex = 1.0,
) -> complex:
    """Sum ``sum_{n>=1} q^n sum_{A B = n} w(A)`` restricted by residue class.

    The inner sum runs over factorizations ``A * B = n`` with ``A`` odd when
    ``odd_only`` and ``B mod p`` lying in ``residues``.  The weight is
    ``w(A) = x^A / A``; ``x = -1`` gives the alternating ``(-1)^A / A``.

    A divisor pair counts once for each entry of ``residues`` that its class
    matches, so a repeated class counts with its multiplicity; a set of
    classes is passed as distinct entries.

    Raises ``ValueError`` unless ``|q| < 1`` (NaN included) and ``p >= 1`` and
    the residues are integer values (``2.0`` is one), naming the argument.
    """
    if not abs(q) < 1.0:
        raise ValueError(f"restricted divisor log needs |q| < 1, got q = {q}")
    if not (p >= 1 and p % 1 == 0):  # NaN and inf give p % 1 = NaN
        raise ValueError(f"restricted divisor log needs an integer modulus p >= 1, got p = {p!r}")
    res_list = list(residues)
    if any(r % 1 for r in res_list):
        raise ValueError(f"restricted divisor log needs integer residues, got residues = {res_list}")
    res_list = [r % p for r in res_list]

    def coeff(A: int, B: int) -> complex:
        count = 0 if odd_only and A % 2 == 0 else res_list.count(B % p)
        return count * x**A / A if count else 0.0

    return _divisor_series(q, coeff)
