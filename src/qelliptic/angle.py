"""The inverse-hyperbolic-tangent angle sum on the q-disk.

The central object is

    angle(q, x) = 2 sum_{n>=0} atanh(q^{n+x}),      |q^x| < 1,

together with its exact x-derivative and the affine frame functions that tie
a power ``q^a`` to a shifted argument of the elliptic expansions.  Powers of
complex ``q`` are principal throughout.  The angle has one route at every
nome: it is twice the odd Lambert sum ``sum_{m odd} z^m / (m (1 - q^m))`` at
``z = q^x``, summed by :func:`~qelliptic.thetagen.odd_lambert`, and its
slope is :func:`~qelliptic.thetagen.odd_ratio_sum`.
"""

from __future__ import annotations

import cmath

from .elliptic import EllipticContext
from .numutil import principal_power
from .thetagen import odd_lambert, odd_ratio_sum

__all__ = [
    "angle_sum",
    "angle_derivative",
    "frame_offset",
    "frame_offset_star",
    "frame_offset_star_scaled",
]


def angle_sum(q: complex, x: complex) -> complex:
    """``2 sum_{n>=0} atanh(q^{n+x})`` with the principal power ``q^x``: twice
    thetagen's :func:`~qelliptic.thetagen.odd_lambert` at ``z = q^x``,
    ``Q = q``, which sums the atanh terms and ends on their odd log series.

    Requires ``|q^x| < 1`` and ``|q| < 1`` so every atanh argument stays
    inside the unit disk (terms then decay like ``q^n``); ``odd_lambert``
    raises ``ValueError`` where that does not hold, a NaN ``q`` or ``x``
    included.
    """
    return 2.0 * odd_lambert(principal_power(q, x), q)


def angle_derivative(q: complex, a: complex) -> complex:
    """Exact x-derivative of the angle at ``x = a``:

    ``2 Log(q) sum_{j>=0} q^{a(2j+1)} / (1 - q^{2j+1})``.
    """
    q = complex(q)
    qa = principal_power(q, a)
    return 2.0 * cmath.log(q) * odd_ratio_sum(qa, q)


def frame_offset(ctx: EllipticContext, a: complex) -> complex:
    """Shift ``t0 = -K + (4a - 2) z K`` carrying ``q^a`` into the expansion frame:
    ``q^a = i q^{1/2} exp(i pi t0 / (2K))`` exactly."""
    return -ctx.K + (4.0 * a - 2.0) * ctx.z * ctx.K


def frame_offset_star(ctx: EllipticContext, a: complex) -> complex:
    """Negated-nome companion shift ``t0* = 2 K* ((a-1) + (2a-1) z)`` with
    ``K* = k' K``; satisfies ``e^{i pi a} q^a = -q^{1/2} exp(i pi t0*/(2K*))``."""
    return 2.0 * (ctx.kprime * ctx.K) * ((a - 1.0) + (2.0 * a - 1.0) * ctx.z)


def frame_offset_star_scaled(ctx: EllipticContext, a: complex) -> complex:
    """``t0*/k'`` in closed period form: ``2(a-1) K + i (2a-1) K'``."""
    return 2.0 * (a - 1.0) * ctx.K + 1j * (2.0 * a - 1.0) * ctx.Kprime
