"""Elliptic context: theta nulls on the q-disk, the induced modulus pair,
AGM evaluation of the complete integrals, and singular-value machinery.

A context bundles everything the series evaluators need at one nome:
``q``, the half-period ratio ``z`` (``q = exp(2 pi i z)``), modulus ``k``,
complement ``k'``, quarter periods ``K``, ``K'``, and the second integral
``E``.  Contexts are frozen; build a new one to move in ``q``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .numutil import PoleError, principal_power, sum_series

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
_BRANCH_TOL = 1e-8


def theta2(q: complex) -> complex:
    """Theta null ``2 q^{1/4} sum_{n>=0} q^{n(n+1)}`` (principal ``q^{1/4}``)."""
    q = complex(q)
    s = sum_series(lambda n: q ** (n * (n + 1))).value
    return 2.0 * principal_power(q, 0.25) * s


def theta3(q: complex) -> complex:
    """Theta null ``1 + 2 sum_{n>=1} q^{n^2}``."""
    q = complex(q)
    return 1.0 + 2.0 * sum_series(lambda n: q ** (n * n), start=1).value


def theta4(q: complex) -> complex:
    """Theta null ``1 + 2 sum_{n>=1} (-1)^n q^{n^2}``."""
    q = complex(q)
    return 1.0 + 2.0 * sum_series(lambda n: (-1) ** n * q ** (n * n), start=1).value


def modulus_from_nome(q: complex) -> complex:
    """Elliptic modulus ``k = theta2(q)^2 / theta3(q)^2``."""
    return theta2(q) ** 2 / theta3(q) ** 2


def agm(a: complex, b: complex) -> complex:
    """Arithmetic-geometric mean with the branch of each square root chosen
    so that ``|a_{n+1} - b_{n+1}| <= |a_{n+1} + b_{n+1}|`` (the convergent chain)."""
    a = complex(a)
    b = complex(b)
    for _ in range(_AGM_MAX_ITER):
        if abs(a - b) <= _AGM_TOL * max(abs(a), 1e-300):
            break
        a, b = (a + b) / 2.0, cmath.sqrt(a * b)
        if abs(a - b) > abs(a + b):
            b = -b
    return (a + b) / 2.0


def ellint_K(k: complex) -> complex:
    """Complete elliptic integral ``K(k) = pi / (2 agm(1, sqrt(1 - k^2)))``."""
    kp = cmath.sqrt(1.0 - complex(k) ** 2)
    return math.pi / (2.0 * agm(1.0, kp))


def _K_and_E(k: complex, kprime: complex) -> tuple[complex, complex]:
    # One AGM sweep delivers both: K from the limit, E from the companion
    # sum  E = K (1 - sum_{n>=0} 2^{n-1} c_n^2)  with c_0 = k, c_{n+1} = (a_n - b_n)/2.
    k = complex(k)
    if k == 1.0:
        raise PoleError("K diverges at k = 1")
    a, b = 1.0 + 0.0j, complex(kprime)
    c = k
    csum = 0.5 * c * c
    power = 0.5
    for _ in range(_AGM_MAX_ITER):
        if abs(a - b) <= _AGM_TOL * max(abs(a), 1e-300):
            break
        a, b, c = (a + b) / 2.0, cmath.sqrt(a * b), (a - b) / 2.0
        if abs(a - b) > abs(a + b):
            b = -b
        power *= 2.0
        csum += power * c * c
    m = (a + b) / 2.0
    K = math.pi / (2.0 * m)
    return K, K * (1.0 - csum)


def ellint_E(k: complex) -> complex:
    """Complete elliptic integral of the second kind via the AGM companion sum."""
    k = complex(k)
    if k == 1.0:
        return 1.0 + 0.0j
    return _K_and_E(k, cmath.sqrt(1.0 - k * k))[1]


@dataclass(frozen=True)
class EllipticContext:
    """All elliptic quantities attached to one nome.

    ``z`` satisfies ``q = exp(2 pi i z)`` and fixes the branch of ``K'``
    through ``K' = -2 i z K``; the AGM value is kept when it already agrees,
    so real nomes keep their textbook real ``K'``.
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
        ``Re z`` in ``(-1/2, 1/2]``; pass ``z`` explicitly to select another
        sheet.
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
        k = modulus_from_nome(q)
        kprime = cmath.sqrt(1.0 - k * k)
        K, E = _K_and_E(k, kprime)
        Kp = math.pi / (2.0 * agm(1.0, k))
        expected = -2.0j * z * K
        on_cut = kprime.imag == 0.0 and kprime.real >= 1.0
        if on_cut or abs(Kp - expected) > _BRANCH_TOL * max(1.0, abs(expected)):
            Kp = expected
        return cls(q=q, z=complex(z), k=k, kprime=kprime, K=K, Kprime=Kp, E=E)

    @classmethod
    def from_r(cls, r: float) -> "EllipticContext":
        """Context at the real nome ``q = exp(-pi sqrt(r))``, i.e. ``K'/K = sqrt(r)``."""
        if r <= 0:
            raise ValueError("r must be positive")
        rt = math.sqrt(r)
        return cls.from_nome(math.exp(-math.pi * rt), z=0.5j * rt)

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
