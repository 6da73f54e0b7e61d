"""The inverse-hyperbolic-tangent angle sum on the q-disk.

The central object is

    angle(q, x) = 2 sum_{n>=0} atanh(q^{n+x}),      |q^x| < 1,

together with its exact x-derivative and the affine frame functions that tie
a power ``q^a`` to a shifted argument of the elliptic expansions.  Powers of
complex ``q`` are principal throughout.
"""

from __future__ import annotations

import cmath

from .elliptic import EllipticContext
from .numutil import (
    _SCALE_FLOOR, NonConvergenceError, _bump_terms, current_policy, principal_power, sum_series,
)
from .qseries import _LOG_TAIL_NOME, _LOG_TAIL_Y, _log_tail
from .thetagen import odd_ratio_sum

__all__ = [
    "angle_sum",
    "angle_derivative",
    "frame_offset",
    "frame_offset_star",
    "frame_offset_star_scaled",
]


def angle_sum(q: complex, x: complex) -> complex:
    """``2 sum_{n>=0} atanh(q^{n+x})`` with principal powers: ``q^x`` is
    formed once and each ``q^{n+x}`` from the one before it, times ``q``.

    Below ``|q| = 1/2`` the terms are summed by :func:`sum_series`.  From
    ``|q| = 1/2`` on they are summed one by one while ``|q^{n+x}| > 1/8``,
    and the rest as its odd log series ``sum_{k odd} y^k / (k (1 - q^k))``
    at ``y = q^{n+x}`` (:func:`~qelliptic.qseries._log_tail`), which stops on
    the scale of :func:`sum_series`; the terms of both are charged to
    :func:`~qelliptic.numutil.term_counter` and counted against ``max_terms``.

    Requires ``|q^x| < 1`` so every atanh argument stays inside the unit
    disk (terms then decay like ``q^n``); raises ``ValueError`` where that
    does not hold, a NaN ``q`` or ``x`` included.
    """
    q = complex(q)
    qx = principal_power(q, x)
    if not abs(qx) < 1.0:
        raise ValueError(f"angle sum needs |q^x| < 1, got q^x = {qx}")
    qnx = qx  # q^(n+x), carried by its ratio q
    if _LOG_TAIL_NOME <= abs(q) < 1.0:
        max_terms = current_policy().max_terms
        total = 0j
        peak = 0.0
        used = 0
        while abs(qnx) > _LOG_TAIL_Y:
            if used == max_terms:
                _bump_terms(used)
                raise NonConvergenceError(f"angle sum did not converge within {max_terms} terms")
            t = cmath.atanh(qnx)
            total += t
            mag = abs(t)
            if mag > peak:
                peak = mag
            qnx *= q
            used += 1
        _bump_terms(used)
        return 2.0 * _log_tail(qnx, q, True, max_terms - used, total, _SCALE_FLOOR * peak)

    def term(n: int) -> complex:
        nonlocal qnx
        if n > 0:
            qnx *= q
        return cmath.atanh(qnx)

    return 2.0 * sum_series(term)


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
