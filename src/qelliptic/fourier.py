"""Trigonometric (Fourier-type) expansions of the Jacobi elliptic functions
and their companion series.

Every entry has the shape

    prefactor(ctx) * sum_{n>=0} sign^n q^{n+1/2} trig((2n + offset) w) / (1 +- q^{2n +- 1})

with ``w = pi u / (2K)``.  The expansions converge in the horizontal strip
``|Im w| < pi Im z``; :func:`jacobi_cd_continued` extends the ``cd`` ratio to
the whole plane through its quasi-periods, and :func:`cd1_halfplane` extends
the ``cd1`` companion to the one-sided region where its auxiliary variable
``A = i q^{1/2} e^{i w}`` satisfies ``|A| < 1``.  Where ``|k| > 100`` the
sine expansion of ``sn`` cancels, and :func:`jacobi_sn` takes the theta
quotient of :mod:`qelliptic.thetagen`'s reduced sums instead.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .elliptic import EllipticContext
from .numutil import PoleError, principal_power, sum_series
from .thetagen import theta3_two, theta4_two

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
    "jacobi_cd_continued",
    "cd1_halfplane",
]


@dataclass(frozen=True)
class _SeriesSpec:
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


def _require_strip(name: str, ctx: EllipticContext, u: complex) -> None:
    if not in_strip(ctx, u):
        raise ValueError(
            f"{name}: argument outside the convergence strip "
            f"|Im(pi u/(2K))| < pi Im z; use the continued evaluators"
        )


def eval_fourier(
    name: str,
    ctx: EllipticContext,
    u: complex,
) -> complex:
    """Evaluate one expansion from :data:`FOURIER_TABLE` at argument ``u``.

    Raises
    ------
    ValueError
        If ``u`` is outside the convergence strip.
    """
    spec = FOURIER_TABLE[name]
    u = complex(u)
    _require_strip(name, ctx, u)
    q = ctx.q
    w = ctx.half_period_w * u
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


def _theta_argument(name: str, ctx: EllipticContext, u: complex) -> tuple[complex, complex]:
    """``w = pi u/(2K)`` and ``b = 2 i w / Log q``, so that ``q^(b n) = e^(2 i w n)``
    and ``theta3(w) = theta3_two(1, b, q)``, ``theta4(w) = theta4_two(1, b, q)``.

    Raises ``ValueError`` outside the strip ``|Im w| < pi Im z``.
    """
    u = complex(u)
    _require_strip(name, ctx, u)
    w = ctx.half_period_w * u
    return w, 2j * w / cmath.log(ctx.q)


def jacobi_sn(ctx: EllipticContext, u: complex) -> complex:
    """Jacobi sn via its sine expansion where ``|k| <= 100``.

    Beyond, sn is the theta quotient ``theta3 theta1(w) / (theta2 theta4(w))``,
    ``w = pi u/(2K)``, with
    ``theta1(w)/theta2 = -i e^(i w) theta4_two(1, 1 + b, q) / theta3_two(1, 1, q)``
    and ``theta4(w) = theta4_two(1, b, q)``, ``b = 2 i w / Log q``: four sums
    that thetagen's kernel takes into the fundamental domain.  The sine
    expansion's terms are of size ~1 while sn ~ 1/|k|, so they cancel
    (``|k| > 100`` from ``q ~ -0.45`` on along the negative axis; at
    ``q = -0.95`` the sum was 1e13 relative off).

    Raises ``ValueError`` outside the strip ``|Im w| < pi Im z``.
    """
    if abs(ctx.k) <= 100.0:
        return eval_fourier("sn", ctx, u)
    w, b = _theta_argument("sn", ctx, u)
    q = ctx.q
    theta1_over_theta2 = -1j * cmath.exp(1j * w) * theta4_two(1, 1 + b, q) / theta3_two(1, 1, q)
    return theta3_two(1, 0, q) * theta1_over_theta2 / theta4_two(1, b, q)


def jacobi_cn(ctx: EllipticContext, u: complex) -> complex:
    """Jacobi cn via its cosine expansion."""
    return eval_fourier("cn", ctx, u)


def jacobi_cd(ctx: EllipticContext, u: complex) -> complex:
    """Jacobi cd = cn/dn via its own cosine expansion."""
    return eval_fourier("cd", ctx, u)


def jacobi_sd(ctx: EllipticContext, u: complex) -> complex:
    """Jacobi sd = sn/dn via its own sine expansion."""
    return eval_fourier("sd", ctx, u)


def jacobi_dn(ctx: EllipticContext, u: complex) -> complex:
    """Jacobi dn as the ratio of the cn and cd expansions where ``|k| <= 100``.

    Beyond, where that ratio cancels as sn's sine expansion does (2e-5
    relative off at ``q = -0.95``), dn is the theta quotient
    ``theta4 theta3(w) / (theta3 theta4(w))`` of four reduced sums, with
    :func:`jacobi_sn`'s ``w`` and ``b``.

    Raises ``ValueError`` outside the strip ``|Im w| < pi Im z``.
    """
    if abs(ctx.k) <= 100.0:
        return eval_fourier("cn", ctx, u) / eval_fourier("cd", ctx, u)
    _, b = _theta_argument("dn", ctx, u)
    q = ctx.q
    return theta4_two(1, 0, q) * theta3_two(1, b, q) / (theta3_two(1, 0, q) * theta4_two(1, b, q))


def jacobi_nd(ctx: EllipticContext, u: complex) -> complex:
    """Reciprocal dn as the ratio of the cd and cn expansions."""
    return eval_fourier("cd", ctx, u) / eval_fourier("cn", ctx, u)


def jacobi_cd_continued(ctx: EllipticContext, u: complex) -> complex:
    """cd at arbitrary ``u`` by quasi-period reduction into the strip.

    Decomposes ``u = alpha K + beta iK'`` over the reals, pulls out
    ``cd(u + 2K) = -cd(u)`` and ``cd(u + iK') = 1/(k cd(u))``, and evaluates
    the series at the reduced argument.

    Raises
    ------
    PoleError
        If the reduced point sits at a zero of cd that an odd ``iK'`` shift
        would turn into a pole.
    """
    u = complex(u)
    K = ctx.K
    iKp = 1j * ctx.Kprime
    det = K.real * iKp.imag - K.imag * iKp.real
    if det == 0:
        raise ValueError("degenerate period lattice")
    alpha = (u.real * iKp.imag - u.imag * iKp.real) / det
    beta = (K.real * u.imag - K.imag * u.real) / det
    m = round(alpha / 2.0)
    n = round(beta)
    u0 = u - 2.0 * m * K - n * iKp
    val = eval_fourier("cd", ctx, u0)
    if n % 2:
        if abs(val) < 1e-12:
            raise PoleError("cd pole: odd iK' shift of a cd zero")
        val = 1.0 / (ctx.k * val)
    if m % 2:
        val = -val
    return val


def cd1_halfplane(ctx: EllipticContext, u: complex) -> complex:
    """The cd1 companion on the half-plane ``|A| < 1``, ``A = i q^{1/2} e^{i w}``.

    Uses the representation

        cd1(u) = cd(u) e^{-2 i w} - (2 i / k) sin(2 w) * (i pi A / (2K))
                 * sum_{n>=0} q^n [ 1/(1 + A q^n) + 1/(1 - A q^n) ]

    written out as cd*cos(2w) - i cd*sin(2w) - (2i/k) sin(2w) D(u), which only
    needs ``|A| < 1`` rather than the two-sided strip condition.
    """
    u = complex(u)
    q = ctx.q
    w = ctx.half_period_w * u
    A = 1j * principal_power(q, 0.5) * cmath.exp(1j * w)
    if abs(A) >= 1.0:
        raise ValueError("cd1 half-plane form needs |A| < 1")

    def term(n: int) -> complex:
        qn = q**n
        return qn * (1.0 / (1.0 + A * qn) + 1.0 / (1.0 - A * qn))

    D = (1j * math.pi * A / (2.0 * ctx.K)) * sum_series(term)
    c = jacobi_cd_continued(ctx, u)
    two_w = 2.0 * w
    return (
        c * cmath.cos(two_w)
        - 1j * c * cmath.sin(two_w)
        - 2.0j * cmath.sin(two_w) * D / ctx.k
    )
