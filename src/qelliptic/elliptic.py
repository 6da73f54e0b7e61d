"""Elliptic context: theta nulls on the q-disk and the modulus pair and
integrals they induce, AGM evaluation of ``K(k)``, ``E(k)``, singular values.

The theta nulls are special cases of :mod:`qelliptic.thetagen`'s bilateral
kernel, which carries the nome into the fundamental domain by Jacobi's
imaginary transformation and stops on its exact geometric tail bound:
``theta3(q)`` is ``theta3_two(1, 0, q)``, ``theta4(q)`` is
``theta4_two(1, 0, q)`` and ``theta2(q)`` is ``q^{1/4} theta3_two(1, 1, q)``.

A context bundles everything the series evaluators need at one nome:
``q``, the half-period ratio ``z`` (``q = exp(2 pi i z)``), modulus ``k``,
complement ``k'``, quarter periods ``K``, ``K'``, and the second integral
``E``.  Contexts are frozen; build a new one to move in ``q``.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .numutil import NonConvergenceError, PoleError, _bump_terms, current_policy, principal_power
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
    "dk_dq",
]

# The AGM chain has settled once its two means agree to this relative distance.
_AGM_TOL = 1e-15


def theta2(q: complex) -> complex:
    """Theta null ``2 q^{1/4} sum_{n>=0} q^{n(n+1)}`` (principal ``q^{1/4}``),
    summed as ``q^{1/4} theta3_two(1, 1, q)``: the bilateral sum
    ``sum_{n in Z} q^{n^2 + n}`` counts each term twice.  Near the cusp
    ``tau = 1/2`` (the imaginary axis as ``|q| -> 1``), where the terms cancel,
    the kernel's reduction takes ``S T^2 S`` to a sum of a few terms.

    Raises ``ValueError`` where ``|q| >= 1``.
    """
    q = complex(q)
    return principal_power(q, 0.25) * theta3_two(1, 1, q)


def theta3(q: complex) -> complex:
    """Theta null ``1 + 2 sum_{n>=1} q^{n^2}``, summed as ``theta3_two(1, 0, q)``:
    directly at ``|q| <= e^(-pi/2)``, elsewhere as at most five terms at the
    nome that Jacobi's imaginary transformation carries into the fundamental
    domain (so the sum near ``q = -1``, which cancels, is never summed).

    Raises ``ValueError`` where ``|q| >= 1``.
    """
    return theta3_two(1, 0, complex(q))


def theta4(q: complex) -> complex:
    """Theta null ``1 + 2 sum_{n>=1} (-1)^n q^{n^2}``, summed as
    ``theta4_two(1, 0, q)``, which reduces the nome as :func:`theta3` does
    (the sum near ``q = 1``, which cancels, is never summed).

    Raises ``ValueError`` where ``|q| >= 1``.
    """
    return theta4_two(1, 0, complex(q))


def modulus_from_nome(q: complex) -> complex:
    """Elliptic modulus ``k = theta2(q)^2 / theta3(q)^2``."""
    return (theta2(q) / theta3(q)) ** 2


def _agm(a: complex, b: complex, c: complex) -> tuple[complex, complex]:
    # The AGM chain from (a, b) and Legendre's companion sum
    # sum_{n>=0} 2^{n-1} c_n^2 with c_0 = c, c_{n+1} = (a_n - b_n)/2.  Each
    # square root takes the branch with |a_{n+1} - b_{n+1}| <= |a_{n+1} + b_{n+1}|.
    # A zero element makes every later geometric mean 0, so the mean is 0.
    # At most the policy's max_terms steps are taken, each charged to term_counter.
    max_terms = current_policy().max_terms
    csum = 0.5 * c * c
    power = 0.5
    steps = 0
    try:
        while True:
            if not (cmath.isfinite(a) and cmath.isfinite(b)):
                raise OverflowError(
                    f"AGM chain element is not finite after {steps} steps ({a}, {b})"
                )
            if a == 0 or b == 0:
                return 0j, csum
            if abs(a - b) <= _AGM_TOL * abs(a):
                return (a + b) / 2.0, csum
            if steps == max_terms:
                raise NonConvergenceError(
                    f"AGM chain did not settle in {max_terms} steps (at {a}, {b})"
                )
            a, b, c = (a + b) / 2.0, cmath.sqrt(a * b), (a - b) / 2.0
            if abs(a - b) > abs(a + b):
                b = -b
            power *= 2.0
            csum += power * c * c
            steps += 1
    finally:
        _bump_terms(steps)


def agm(a: complex, b: complex) -> complex:
    """Arithmetic-geometric mean with the branch of each square root chosen
    so that ``|a_{n+1} - b_{n+1}| <= |a_{n+1} + b_{n+1}|`` (the convergent chain).

    A chain that reaches a zero element has mean exactly 0.  The chain stops
    once its two means agree to 1e-15 relative; its steps are charged to
    :func:`~qelliptic.numutil.term_counter`.

    Raises
    ------
    NonConvergenceError
        If the chain has not settled within the active truncation policy's
        ``max_terms`` steps.
    OverflowError
        Where ``a`` or ``b`` is not finite (a finite pair keeps its chain
        finite), or ``|a|`` and ``|b|`` are too far apart to scale.
    """
    a, b = complex(a), complex(b)
    # The mean is homogeneous: the chain runs on (a, b) / 2^e, with the larger
    # near 2^511 so that no a_n b_n (between a b and max^2) leaves the range;
    # a pair that is not finite goes unscaled, so the refusal names it.
    finite = cmath.isfinite(a) and cmath.isfinite(b)
    e = math.frexp(max(abs(a), abs(b)))[1] - 511 if finite else 0
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
    OverflowError
        Where ``k^2`` is not finite, by the check :func:`ellint_E` shares.
    """
    k = complex(k)
    m = _agm(1.0 + 0.0j, cmath.sqrt(1.0 - k * k), 0j)[0]
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


class EllipticContext(NamedTuple):
    """All elliptic quantities attached to one nome, from its theta nulls
    (an immutable named tuple).

    ``k = theta2^2/theta3^2``, ``k' = theta4^2/theta3^2``,
    ``K = (pi/2) theta3^2`` and ``K' = -2 i z K``, where ``z`` satisfies
    ``q = exp(2 pi i z)``; ``E = (K/3)(2 - k^2 + (pi/(2K))^2 P(q^2))`` is
    Ramanujan's Eisenstein form, ``P(q) = 1 - 24 sum n q^n/(1 - q^n)``
    (Borwein & Borwein, *Pi and the AGM*, ch. 2-4).  No AGM runs, no branch is chosen.
    The Jacobi functions' theta quotients read the nulls ``theta3``, ``theta4``
    and ``theta2_scaled = theta2 / q^(1/4) = theta3_two(1, 1, q)`` off the context.
    """

    q: complex
    z: complex
    k: complex
    kprime: complex
    K: complex
    Kprime: complex
    E: complex
    theta2_scaled: complex
    theta3: complex
    theta4: complex

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
        s2, t3, t4 = theta3_two(1, 1, q), theta3(q), theta4(q)
        t2 = principal_power(q, 0.25) * s2  # theta2(q)
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
                   Kprime=-2.0j * z * K, E=E, theta2_scaled=s2, theta3=t3, theta4=t4)

    @classmethod
    def from_r(cls, r: float) -> "EllipticContext":
        """Context at the real nome ``q = exp(-pi sqrt(r))``, i.e. ``K'/K = sqrt(r)``."""
        return cls.from_nome(nome_from_r(r), z=0.5j * math.sqrt(r))

    @classmethod
    def from_modulus(cls, k: float) -> "EllipticContext":
        """Context from a real modulus ``0 < k < 1`` via ``q = exp(-pi K'/K)``."""
        if not 0.0 < k < 1.0:
            raise ValueError("modulus must lie in (0, 1)")
        # K'/K = agm(1, k') / agm(1, k), with k' formed once
        ratio = (agm(1.0, math.sqrt(1.0 - k * k)) / agm(1.0, k)).real
        return cls.from_nome(math.exp(-math.pi * ratio), z=0.5j * ratio)

    @property
    def half_period_w(self) -> complex:
        """Frequency scale ``pi / (2K)`` used by the trigonometric expansions."""
        return math.pi / (2.0 * self.K)


def nome_from_r(r: float) -> float:
    """``q = exp(-pi sqrt(r))`` for finite ``r > 0``."""
    if not 0.0 < r < math.inf:  # also refuses NaN; r = inf would give q = 0
        raise ValueError(f"r must be positive and finite, got {r!r}")
    return math.exp(-math.pi * math.sqrt(r))


def singular_alpha(r: float) -> float:
    """Elliptic alpha function ``alpha(r) = pi/(4 K^2) - sqrt(r) (E/K - 1)``
    evaluated at the singular modulus ``k_r`` (where ``K'/K = sqrt(r)``)."""
    ctx = EllipticContext.from_r(r)
    val = math.pi / (4.0 * ctx.K**2) - math.sqrt(r) * (ctx.E / ctx.K - 1.0)
    return complex(val).real


def dk_dq(ctx: EllipticContext) -> complex:
    """``dk/dq = 2 k k'^2 K^2 / (q pi^2)``.

    Positive: the modulus grows with the nome (``k ~ 4 sqrt(q)`` at small q,
    so ``d(k^2)/dq -> 16``), and the Legendre relation pins the constant.
    """
    return 2.0 * ctx.k * ctx.kprime**2 * ctx.K**2 / (ctx.q * math.pi**2)
