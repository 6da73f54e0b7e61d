"""Elliptic context: theta nulls on the q-disk and the modulus pair and
integrals they induce, AGM evaluation of ``K(k)``, ``E(k)``, singular values.

The theta nulls are special cases of :mod:`qelliptic.thetagen`'s bilateral
kernel, which stops on its exact geometric tail bound: ``theta3(q)`` is
``theta3_two(1, 0, q)``, ``theta4(q)`` is ``theta4_two(1, 0, q)`` or, where
Jacobi's imaginary transformation shrinks the nome, ``theta2`` at the dual
nome, and ``theta2(q)`` is ``q^{1/4} theta3_two(1, 1, q)``.

A context bundles everything the series evaluators need at one nome:
``q``, the half-period ratio ``z`` (``q = exp(2 pi i z)``), modulus ``k``,
complement ``k'``, quarter periods ``K``, ``K'``, and the second integral
``E``.  Contexts are frozen; build a new one to move in ``q``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .numutil import NonConvergenceError, PoleError, principal_power
from .qseries import lambert_sum
from .thetagen import theta3_two, theta4_two

__all__ = [
    "theta2",
    "theta3",
    "theta4",
    "modulus_from_nome",
    "agm",
    "ellint_K",
    "ellint_E",
    "EllipticContext",
    "nome_from_r",
    "singular_alpha",
    "dK_dk",
    "dE_dk",
    "dk_dq",
]

_AGM_TOL = 1e-15
_AGM_MAX_ITER = 64
_SELF_DUAL = math.exp(-math.pi)  # only beyond this |q| can the S step shrink q


def theta2(q: complex) -> complex:
    """Theta null ``2 q^{1/4} sum_{n>=0} q^{n(n+1)}`` (principal ``q^{1/4}``),
    summed as ``q^{1/4} theta3_two(1, 1, q)``: the bilateral sum
    ``sum_{n in Z} q^{n^2 + n}`` counts each term twice.

    Raises ``ValueError`` where ``|q| >= 1``.
    """
    q = complex(q)
    return principal_power(q, 0.25) * theta3_two(1, 1, q)


def theta3(q: complex) -> complex:
    """Theta null ``1 + 2 sum_{n>=1} q^{n^2}``, summed as ``theta3_two(1, 0, q)``,
    or as ``theta4(-q)`` where ``Re q < 0``.

    Raises ``ValueError`` where ``|q| >= 1``.
    """
    q = complex(q)
    if q.real < 0.0:
        return theta4(-q)
    return theta3_two(1, 0, q)


def theta4(q: complex) -> complex:
    """Theta null ``1 + 2 sum_{n>=1} (-1)^n q^{n^2}``, summed as
    ``theta4_two(1, 0, q)``, a sum that cancels near the positive real axis.
    Where Jacobi's imaginary transformation shrinks the nome (``|tau| < 1``,
    ``q = exp(i pi tau)``) the S step is summed instead,
    ``theta4(q) = (-i tau)^{-1/2} theta2(exp(-i pi / tau))`` (DLMF 20.7(viii)),
    with ``theta2`` as ``q'^{1/4} theta3_two(1, 1, q')`` at the dual nome ``q'``.

    Raises ``ValueError`` where ``|q| >= 1``.
    """
    q = complex(q)
    if not abs(q) < 1.0:  # tau = 0 at q = 1
        raise ValueError(f"theta4 requires |q| < 1, got q = {q}")
    if abs(q) > _SELF_DUAL:
        tau = cmath.log(q) / (1j * math.pi)
        if abs(tau) < 1.0:
            dual = -1.0 / tau
            qd = cmath.exp(1j * math.pi * dual)
            # the dual nome's quarter power, formed directly: ``qd`` underflows first
            return cmath.exp(0.25j * math.pi * dual) * theta3_two(1, 1, qd) / cmath.sqrt(-1j * tau)
    return theta4_two(1, 0, q)


def modulus_from_nome(q: complex) -> complex:
    """Elliptic modulus ``k = theta2(q)^2 / theta3(q)^2``."""
    return (theta2(q) / theta3(q)) ** 2


def _agm(a: complex, b: complex, c: complex) -> tuple[complex, complex]:
    # The AGM chain from (a, b) and Legendre's companion sum
    # sum_{n>=0} 2^{n-1} c_n^2 with c_0 = c, c_{n+1} = (a_n - b_n)/2.  Each
    # square root takes the branch with |a_{n+1} - b_{n+1}| <= |a_{n+1} + b_{n+1}|.
    # A zero element makes every later geometric mean 0, so the mean is 0.
    csum = 0.5 * c * c
    power = 0.5
    for _ in range(_AGM_MAX_ITER):
        if a == 0 or b == 0:
            return 0j, csum
        if abs(a - b) <= _AGM_TOL * abs(a):
            return (a + b) / 2.0, csum
        a, b, c = (a + b) / 2.0, cmath.sqrt(a * b), (a - b) / 2.0
        if abs(a - b) > abs(a + b):
            b = -b
        power *= 2.0
        csum += power * c * c
    raise NonConvergenceError(f"AGM chain did not settle in {_AGM_MAX_ITER} steps (at {a}, {b})")


def agm(a: complex, b: complex) -> complex:
    """Arithmetic-geometric mean with the branch of each square root chosen
    so that ``|a_{n+1} - b_{n+1}| <= |a_{n+1} + b_{n+1}|`` (the convergent chain).

    A chain that reaches a zero element has mean exactly 0.

    Raises
    ------
    NonConvergenceError
        If the chain has not settled to 1e-15 relative after 64 steps.
    OverflowError
        Where ``|a|`` and ``|b|`` are too far apart for any common scaling.
    """
    a, b = complex(a), complex(b)
    # The mean is homogeneous: the chain runs on (a, b) / 2^e, with the larger
    # near 2^511 so that no a_n b_n (between a b and max^2) leaves the range.
    e = math.frexp(max(abs(a), abs(b)))[1] - 511
    sa, sb = (complex(math.ldexp(w.real, -e), math.ldexp(w.imag, -e)) for w in (a, b))
    if (sa == 0 or sb == 0) and a != 0 and b != 0:
        raise OverflowError(f"agm: {a} and {b} are too far apart to scale")
    m = _agm(sa, sb, 0j)[0]
    return complex(math.ldexp(m.real, e), math.ldexp(m.imag, e))


def ellint_K(k: complex) -> complex:
    """Complete elliptic integral ``K(k) = pi / (2 agm(1, sqrt(1 - k^2)))``.

    Raises
    ------
    PoleError
        Where the mean is 0: at ``k^2 = 1``, K's logarithmic singularity.
    """
    kp = cmath.sqrt(1.0 - complex(k) ** 2)
    m = agm(1.0, kp)
    if m == 0:
        raise PoleError(f"K(k) is singular at k = {k}")
    return math.pi / (2.0 * m)


def ellint_E(k: complex) -> complex:
    """Complete elliptic integral of the second kind,
    ``E = K (1 - sum_{n>=0} 2^{n-1} c_n^2)`` from the same AGM chain as ``K``;
    ``E = 1`` where ``k^2 = 1``."""
    k = complex(k)
    if k * k == 1.0:
        return 1.0 + 0.0j
    m, csum = _agm(1.0 + 0.0j, cmath.sqrt(1.0 - k * k), k)
    return math.pi / (2.0 * m) * (1.0 - csum)


@dataclass(frozen=True)
class EllipticContext:
    """All elliptic quantities attached to one nome, from its theta nulls.

    ``k = theta2^2/theta3^2``, ``k' = theta4^2/theta3^2``,
    ``K = (pi/2) theta3^2`` and ``K' = -2 i z K``, where ``z`` satisfies
    ``q = exp(2 pi i z)``; ``E = (K/3)(2 - k^2 + (pi/(2K))^2 P(q^2))`` is
    Ramanujan's Eisenstein form, ``P(q) = 1 - 24 sum n q^n/(1 - q^n)``
    (Borwein & Borwein, *Pi and the AGM*, ch. 2-4).  No AGM runs, no branch is chosen.
    """

    q: complex
    z: complex
    k: complex
    kprime: complex
    K: complex
    Kprime: complex
    E: complex

    @classmethod
    def from_nome(cls, q: complex, z: complex | None = None) -> "EllipticContext":
        """Build the context at nome ``q`` (``0 < |q| < 1``).

        ``z`` defaults to the principal ``log(q) / (2 pi i)``, which places
        ``Re z`` in ``(-1/2, 1/2]``; pass ``z`` to select another sheet.

        Raises
        ------
        OverflowError
            Where ``k^2`` is past the double range, as on the real axis from
            ``q = -0.987`` towards ``-1``.
        """
        q = complex(q)
        if q.imag == 0.0:
            # Canonicalize a signed-zero imaginary part: -(x + 0j) carries -0j,
            # which cmath.log reads as arg -pi and would place Re z at -1/2.
            q = complex(q.real, 0.0)
        if not 0.0 < abs(q) < 1.0:
            raise ValueError("nome must satisfy 0 < |q| < 1")
        if z is None:
            z = cmath.log(q) / (2.0j * math.pi)
        t2, t3, t4 = theta2(q), theta3(q), theta4(q)
        t3_4 = t3**4
        # theta3 -> 0 as q -> -1: k^2 leaves the double range from q = -0.987
        # on, and theta3^4 underflows to 0 from q = -0.988 on
        if t3_4 == 0.0 or not cmath.isfinite((t2 / t3) ** 4):
            raise OverflowError(
                f"k^2 = (theta2/theta3)^4 leaves the double range at nome q = {q}"
            )
        K = 0.5 * math.pi * t3 * t3
        k = (t2 / t3) ** 2
        # (pi/(2K))^2 P(q^2) with pi/(2K) = theta3^-2
        E = K / 3.0 * (2.0 - k * k + (1.0 - 24.0 * lambert_sum(q * q, float)) / t3_4)
        return cls(q=q, z=complex(z), k=k, kprime=(t4 / t3) ** 2, K=K,
                   Kprime=-2.0j * z * K, E=E)

    @classmethod
    def from_r(cls, r: float) -> "EllipticContext":
        """Context at the real nome ``q = exp(-pi sqrt(r))``, i.e. ``K'/K = sqrt(r)``."""
        return cls.from_nome(nome_from_r(r), z=0.5j * math.sqrt(r))

    @classmethod
    def from_modulus(cls, k: float) -> "EllipticContext":
        """Context from a real modulus ``0 < k < 1`` via ``q = exp(-pi K'/K)``."""
        if not 0.0 < k < 1.0:
            raise ValueError("modulus must lie in (0, 1)")
        kp = math.sqrt(1.0 - k * k)
        K = ellint_K(k).real
        Kp = ellint_K(kp).real
        return cls.from_nome(math.exp(-math.pi * Kp / K), z=0.5j * Kp / K)

    @property
    def half_period_w(self) -> complex:
        """Frequency scale ``pi / (2K)`` used by the trigonometric expansions."""
        return math.pi / (2.0 * self.K)


def nome_from_r(r: float) -> float:
    """``q = exp(-pi sqrt(r))`` for ``r > 0``."""
    if r <= 0:
        raise ValueError("r must be positive")
    return math.exp(-math.pi * math.sqrt(r))


def singular_alpha(r: float) -> float:
    """Elliptic alpha function ``alpha(r) = pi/(4 K^2) - sqrt(r) (E/K - 1)``
    evaluated at the singular modulus ``k_r`` (where ``K'/K = sqrt(r)``)."""
    ctx = EllipticContext.from_r(r)
    val = math.pi / (4.0 * ctx.K**2) - math.sqrt(r) * (ctx.E / ctx.K - 1.0)
    return complex(val).real


def dK_dk(ctx: EllipticContext) -> complex:
    """``dK/dk = (E - k'^2 K) / (k k'^2)``."""
    return (ctx.E - ctx.kprime**2 * ctx.K) / (ctx.k * ctx.kprime**2)


def dE_dk(ctx: EllipticContext) -> complex:
    """``dE/dk = (E - K) / k``."""
    return (ctx.E - ctx.K) / ctx.k


def dk_dq(ctx: EllipticContext) -> complex:
    """``dk/dq = 2 k k'^2 K^2 / (q pi^2)``.

    Positive: the modulus grows with the nome (``k ~ 4 sqrt(q)`` at small q,
    so ``d(k^2)/dq -> 16``), and the Legendre relation pins the constant.
    """
    return 2.0 * ctx.k * ctx.kprime**2 * ctx.K**2 / (ctx.q * math.pi**2)
