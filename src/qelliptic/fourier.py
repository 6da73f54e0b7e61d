"""Trigonometric (Fourier-type) expansions of the Jacobi elliptic functions
and their companion series, and the Jacobi functions themselves.

Every entry of :data:`FOURIER_TABLE` has the shape

    prefactor(ctx) * sum_{n>=0} sign^n q^{n+1/2} trig((2n + offset) w) / (1 +- q^{2n +- 1})

with ``w = pi u / (2K)``.  The expansions converge in the horizontal strip
``|Im w| < pi Im z``; :func:`cd1_halfplane` extends ``cd1`` to the region
``|A| < 1``, ``A = i q^{1/2} e^{i w}``.  The registry checks each row of this,
the paper's table, against a route that does not sum it.

The Jacobi functions ``sn, cn, dn, cd, sd, nd`` take one route: each is a
quotient of theta nulls, kept on the context, and of two of ``theta1(w) ...
theta4(w)`` (DLMF 22.2), which :mod:`qelliptic.thetagen`'s kernel sums in the
fundamental domain.  The quotients are entire in ``w``, and ``theta1``'s odd
fold keeps them accurate as ``u -> 0``.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .elliptic import EllipticContext
from .numutil import PoleError, principal_power, sum_series
from .thetagen import theta1_two, theta3_two, theta4_two

__all__ = [
    "FOURIER_TABLE",
    "in_strip",
    "eval_fourier",
    "jacobi_sn",
    "jacobi_cn",
    "jacobi_dn",
    "jacobi_cd",
    "jacobi_sd",
    "jacobi_nd",
    "cd1_halfplane",
]


class _SeriesSpec(NamedTuple):
    """One row of the expansion table."""

    use_cos: bool  # cos((2n+offset) w) if True, else sin
    offset: int  # 1 or 3
    alternating: bool  # (-1)^n factor
    denom_sign: int  # denominator 1 + denom_sign * q^{2n + denom_shift}
    denom_shift: int  # +1 or -1
    with_kprime: bool = False  # prefactor 2 pi/(K k k') instead of 2 pi/(K k)


FOURIER_TABLE: dict[str, _SeriesSpec] = {
    "sn": _SeriesSpec(use_cos=False, offset=1, alternating=False, denom_sign=-1, denom_shift=1),
    "cn": _SeriesSpec(use_cos=True, offset=1, alternating=False, denom_sign=1, denom_shift=1),
    "cn1": _SeriesSpec(use_cos=True, offset=3, alternating=False, denom_sign=1, denom_shift=1),
    "sd": _SeriesSpec(
        use_cos=False, offset=1, alternating=True, denom_sign=1, denom_shift=1, with_kprime=True
    ),
    "cc": _SeriesSpec(use_cos=True, offset=1, alternating=False, denom_sign=1, denom_shift=-1),
    "cd": _SeriesSpec(use_cos=True, offset=1, alternating=True, denom_sign=-1, denom_shift=1),
    "dd": _SeriesSpec(use_cos=True, offset=1, alternating=True, denom_sign=-1, denom_shift=-1),
    "cd1": _SeriesSpec(use_cos=True, offset=3, alternating=True, denom_sign=-1, denom_shift=1),
    "ss": _SeriesSpec(use_cos=False, offset=1, alternating=False, denom_sign=1, denom_shift=1),
}


def in_strip(ctx: EllipticContext, u: complex) -> bool:
    """True when ``u`` lies inside the expansion strip ``|Im(pi u/(2K))| < pi Im z``."""
    w = ctx.half_period_w * complex(u)
    return abs(w.imag) < math.pi * ctx.z.imag


def _u_to_w(name: str, ctx: EllipticContext, u: complex) -> complex:
    """``w = pi u/(2K)``; ``ValueError`` where ``u`` is not finite and
    ``OverflowError`` where ``|u/K| = |2w/pi| >= 1e12``: a double does not
    resolve ``u/K`` modulo the periods there, so no value and no pole can be
    told apart."""
    if not cmath.isfinite(u):
        raise ValueError(f"{name}: u = {u} is not finite")
    w = ctx.half_period_w * u
    t = 2.0 * w / math.pi
    if not abs(t) < 1e12:
        raise OverflowError(f"{name}: u/K = {t} is not resolved in double precision")
    return w


def eval_fourier(name: str, ctx: EllipticContext, u: complex) -> complex:
    """Evaluate one expansion from :data:`FOURIER_TABLE` at argument ``u``.

    Raises ``ValueError`` where ``u`` is not finite or lies outside the
    convergence strip, and ``OverflowError`` where ``|u/K| >= 1e12``
    (:func:`_u_to_w`).
    """
    spec = FOURIER_TABLE[name]
    u = complex(u)
    w = _u_to_w(name, ctx, u)
    if not in_strip(ctx, u):
        raise ValueError(f"{name}: argument outside the convergence strip |Im(pi u/(2K))| < pi Im z")
    q = ctx.q
    qh = principal_power(q, 0.5)
    trig = cmath.cos if spec.use_cos else cmath.sin
    offset, alternating = spec.offset, spec.alternating
    denom_sign, denom_shift = spec.denom_sign, spec.denom_shift

    def term(n: int) -> complex:
        num = qh * q**n
        if alternating and n % 2:
            num = -num
        den = 1.0 + denom_sign * q ** (2 * n + denom_shift)
        if den == 0:
            raise PoleError(f"{name}: vanishing denominator at n={n}")
        return num * trig((2 * n + offset) * w) / den

    total = sum_series(term)
    pref = 2.0 * math.pi / (ctx.K * ctx.k)
    if spec.with_kprime:
        pref /= ctx.kprime
    return pref * total


def _theta_w(j: int, b: complex, q: complex, log_q: complex) -> complex:
    """``theta_j(w)`` for ``j = 3, 4``, ``q^(-1/4) theta_j(w)`` for ``j = 1, 2``, at
    ``b = 2 i w / Log q``: ``theta2(w) = theta1(w + pi/2)``, so the odd fold keeps
    the zero of ``theta2`` at ``w = pi/2`` as accurate as that of ``theta1`` at 0."""
    if j <= 2:
        return -1j * theta1_two(1, b if j == 1 else b + 1j * math.pi / log_q, q)
    return (theta3_two if j == 3 else theta4_two)(1, b, q)


def _theta_quotient(name: str, ctx: EllipticContext, u: complex, null_top: complex,
                    null_bottom: complex, top: int, bottom: int) -> complex:
    """``(null_top / null_bottom) theta_top(w) / theta_bottom(w)``, ``w = pi u/(2K)``,
    with the ``q^(1/4)`` of ``theta1(w)``, ``theta2(w)`` carried by the nulls
    (DLMF 22.2).  Real where ``q`` and ``u`` are.

    Raises ``ValueError`` where ``u`` is not finite and ``OverflowError``
    where ``|u/K| >= 1e12``, by :func:`_u_to_w`, the rule
    :func:`eval_fourier` shares.  Raises :class:`~qelliptic.numutil.PoleError`
    where ``u/K = 2w/pi = alpha + beta tau`` (``q = e^(i pi tau)``, real
    ``alpha``, ``beta``) is within ``1e-12 max(1, |u/K|)`` of a zero of
    ``theta_bottom(w)``: ``theta4(w)`` vanishes at even ``alpha`` and odd
    ``beta``, ``theta3(w)`` where both are odd.  Raises ``OverflowError``
    where the nulls' ratio, ``theta_bottom(w)`` or the value leaves the double
    range: the nulls have no zeros in the disk and the zeros of
    ``theta_bottom(w)`` are refused as poles, so a 0 there has underflowed
    (``theta4(0.999)`` is about 1e-1069).
    """
    u = complex(u)
    w = _u_to_w(name, ctx, u)
    q = ctx.q
    log_q = cmath.log(q)
    t, tau = 2.0 * w / math.pi, log_q / (1j * math.pi)
    beta = t.imag / tau.imag
    alpha = t.real - beta * tau.real - (bottom == 3)
    off = alpha - 2.0 * round(alpha / 2.0) + (beta - 1.0 - 2.0 * round((beta - 1.0) / 2.0)) * tau
    if abs(off) <= 1e-12 * max(1.0, abs(t)):
        raise PoleError(f"{name}: u = {u} is within 1e-12 |u/K| of a pole")
    b = 2j * w / log_q
    # a zero null or denominator sum is read as an infinite value
    nulls = null_top / null_bottom if null_bottom else 0j
    denom = _theta_w(bottom, b, q, log_q)
    value = nulls * _theta_w(top, b, q, log_q) / denom if nulls and denom else math.inf
    if not cmath.isfinite(value):
        raise OverflowError(f"{name}: theta quotient leaves the double range at q = {q}, u = {u}")
    if q.imag == 0.0 and u.imag == 0.0:
        return complex(value.real, 0.0)
    return value


def jacobi_sn(ctx: EllipticContext, u: complex) -> complex:
    """Jacobi sn = theta3 theta1(w) / (theta2 theta4(w)); PoleError at iK' (mod 2K, 2iK')."""
    return _theta_quotient("sn", ctx, u, ctx.theta3, ctx.theta2_scaled, 1, 4)


def jacobi_cn(ctx: EllipticContext, u: complex) -> complex:
    """Jacobi cn = theta4 theta2(w) / (theta2 theta4(w)); poles as sn's."""
    return _theta_quotient("cn", ctx, u, ctx.theta4, ctx.theta2_scaled, 2, 4)


def jacobi_dn(ctx: EllipticContext, u: complex) -> complex:
    """Jacobi dn = theta4 theta3(w) / (theta3 theta4(w)); poles as sn's."""
    return _theta_quotient("dn", ctx, u, ctx.theta4, ctx.theta3, 3, 4)


def jacobi_cd(ctx: EllipticContext, u: complex) -> complex:
    """Jacobi cd = cn/dn = theta3 theta2(w) / (theta2 theta3(w)); PoleError at K + iK'."""
    return _theta_quotient("cd", ctx, u, ctx.theta3, ctx.theta2_scaled, 2, 3)


def jacobi_sd(ctx: EllipticContext, u: complex) -> complex:
    """Jacobi sd = sn/dn = theta3^2 theta1(w) / (theta2 theta4 theta3(w)); poles as cd's."""
    return _theta_quotient("sd", ctx, u, ctx.theta3**2, ctx.theta2_scaled * ctx.theta4, 1, 3)


def jacobi_nd(ctx: EllipticContext, u: complex) -> complex:
    """Jacobi nd = 1/dn = theta3 theta4(w) / (theta4 theta3(w)); poles as cd's."""
    return _theta_quotient("nd", ctx, u, ctx.theta3, ctx.theta4, 4, 3)


def cd1_halfplane(ctx: EllipticContext, u: complex) -> complex:
    """The cd1 companion on the half-plane ``|A| < 1``, ``A = i q^{1/2} e^{i w}``.

    Uses the representation

        cd1(u) = cd(u) e^{-2 i w} - (2 i / k) sin(2 w) * (i pi A / (2K))
                 * sum_{n>=0} q^n [ 1/(1 + A q^n) + 1/(1 - A q^n) ]

    written out as cd*cos(2w) - i cd*sin(2w) - (2i/k) sin(2w) D(u), which only
    needs ``|A| < 1`` rather than the two-sided strip condition.

    Raises ``ValueError`` where ``u`` is not finite or ``|A| >= 1``, and
    ``OverflowError`` where ``|u/K| >= 1e12`` (:func:`_u_to_w`), before any sum.
    """
    u = complex(u)
    q = ctx.q
    w = _u_to_w("cd1_halfplane", ctx, u)
    # log|A| = log|q|/2 - Im w, tested before e^(i w) overflows at a large -Im w
    if not 0.5 * math.log(abs(q)) - w.imag < 0.0:
        raise ValueError("cd1 half-plane form needs |A| < 1")
    A = 1j * principal_power(q, 0.5) * cmath.exp(1j * w)

    def term(n: int) -> complex:
        qn = q**n
        return qn * (1.0 / (1.0 + A * qn) + 1.0 / (1.0 - A * qn))

    D = (1j * math.pi * A / (2.0 * ctx.K)) * sum_series(term)
    c = jacobi_cd(ctx, u)
    two_w = 2.0 * w
    return (
        c * cmath.cos(two_w)
        - 1j * c * cmath.sin(two_w)
        - 2.0j * cmath.sin(two_w) * D / ctx.k
    )
