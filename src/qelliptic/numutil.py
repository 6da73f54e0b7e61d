"""Shared numerical machinery.

Truncated series summation with geometric tail estimates, continued-fraction
evaluation by the forward modified Lentz recurrence, Richardson-extrapolated
numerical derivatives, and complex line-segment quadrature by nested
Gauss-Kronrod pairs of doubling size for integrands analytic on the segment.
Only the standard library is used.  Most series in this package are summed by
:func:`sum_series`; the infinite q-Pochhammer products and the two-parameter
theta sums stop on their own exact tail bounds instead.  All of them read the
one truncation policy, scoped with :func:`truncation` and read at call time,
and charge their work to :func:`term_counter`.
"""

from __future__ import annotations

import cmath
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Iterator

__all__ = [
    "TruncationPolicy",
    "NonConvergenceError",
    "PoleError",
    "DEFAULT_POLICY",
    "current_policy",
    "truncation",
    "sum_series",
    "continued_fraction",
    "numeric_derivative",
    "complex_quad",
    "principal_power",
    "term_counter",
]


class NonConvergenceError(RuntimeError):
    """Raised when a series or continued fraction fails to stabilize."""


class PoleError(ZeroDivisionError):
    """Raised when an evaluation point sits on (or numerically at) a pole."""


@dataclass(frozen=True)
class TruncationPolicy:
    """Stopping rules for adaptive series, infinite products and continued
    fractions.

    Attributes
    ----------
    rel_tail_cutoff : float
        A series stops once its terms and estimated tail are below this
        fraction of the partial sum's scale (see :func:`sum_series`); an
        infinite product once its geometric tail bound is below it.
    max_terms : int
        Hard cap on the terms of a series, the factors of a product and the
        depth of a continued fraction; exceeding it raises
        :class:`NonConvergenceError`.
    """

    rel_tail_cutoff: float = 1e-16
    max_terms: int = 100_000


DEFAULT_POLICY = TruncationPolicy()

_POLICY: ContextVar[TruncationPolicy] = ContextVar("qelliptic_truncation", default=DEFAULT_POLICY)


def current_policy() -> TruncationPolicy:
    """The truncation policy in force in the current context."""
    return _POLICY.get()


@contextmanager
def truncation(**overrides) -> Iterator[TruncationPolicy]:
    """Scope a truncation policy, in the manner of ``decimal.localcontext``.

    Inside the ``with`` block every series, infinite product and continued
    fraction sees the active policy with ``overrides`` applied (field names
    of :class:`TruncationPolicy`); the previous policy is restored on exit,
    also when the block raises.  Scopes nest.
    """
    token = _POLICY.set(replace(_POLICY.get(), **overrides))
    try:
        yield _POLICY.get()
    finally:
        _POLICY.reset(token)


_WORK: ContextVar[list[int] | None] = ContextVar("qelliptic_work", default=None)


@contextmanager
def term_counter() -> Iterator[Callable[[], int]]:
    """Count the series terms, fraction depth and product factors evaluated
    in this context.

    Yields a zero-argument callable returning the running count; read after
    the block, it returns the block's final count.  Nested counters stack:
    each level sees only the work done inside it plus its nested levels
    (inner work bubbles up to the outer count on exit).  The count lives in
    a :class:`~contextvars.ContextVar`, so concurrent asyncio tasks keep
    separate counts.
    """
    cell = [0]
    token = _WORK.set(cell)
    try:
        yield lambda: cell[0]
    finally:
        _WORK.reset(token)
        outer = _WORK.get()
        if outer is not None:
            outer[0] += cell[0]


def _bump_terms(n: int) -> None:
    cell = _WORK.get()
    if cell is not None:
        cell[0] += n


# sum_series: the consecutive negligible nonzero terms that allow a stop; the
# run of exact zeros that ends a sum on its own (finite support), which is also
# the run of negligible terms that stands in for the trend guard when no
# non-negligible term has followed the largest one.
_WINDOW = 2
_RUN = 64


def sum_series(
    term: Callable[[int], complex],
    *,
    start: int = 0,
) -> complex:
    """Sum ``term(n)`` for ``n = start, start+1, ...`` until the tail is negligible.

    A term is negligible when its magnitude is at most ``rel_tail_cutoff``
    times ``max(1, |partial sum|)``.  The sum stops at the second
    consecutive negligible nonzero term if also

    * the geometric tail estimated from the last two nonzero terms is
      negligible, and
    * some non-negligible term came after the largest term, and the
      geometric trend from the largest term to the last non-negligible one,
      extrapolated to the next index, is negligible.  Two float-noise
      "zeros" in a row (``sin(k pi)``) therefore cannot end a sum whose
      decay has not set in.  Where no non-negligible term has followed the
      largest one (a lone leading term, or no non-negligible term at all),
      64 consecutive negligible terms take the place of this trend.

    Exact-zero terms neither count toward the run of negligible terms nor
    break it, so lacunary series run on through their gaps; 64 exact zeros
    in a row end the sum.  The terms consumed are charged to
    :func:`term_counter`.

    Returns
    -------
    complex
        The partial sum at the stop.

    Raises
    ------
    NonConvergenceError
        If the active policy's ``max_terms`` terms do not suffice, or at the
        first partial sum that is not finite (NaN or infinite).
    """
    pol = _POLICY.get()
    cutoff = pol.rel_tail_cutoff
    max_terms = pol.max_terms
    total = 0.0 + 0.0j
    last = before = 0.0  # magnitudes of the last two nonzero terms
    peak = 0.0  # largest term so far, at index peak_n
    big = 0.0  # last non-negligible term, at index big_n
    peak_n = big_n = start - 1
    small = zeros = 0
    for n in range(start, start + max_terms):
        t = complex(term(n))
        mag = abs(t)
        if mag == 0.0:
            zeros += 1
            if zeros >= _RUN:
                _bump_terms(n - start + 1)
                return total
            continue
        zeros = 0
        total += t
        before, last = last, mag
        scale = abs(total)
        if scale <= 1.0:  # scale = max(1.0, |total|)
            scale = 1.0
        elif not scale < math.inf:  # NaN or infinite partial sum
            used = n - start + 1
            _bump_terms(used)
            raise NonConvergenceError(f"series partial sum is {total} after {used} terms")
        bound = cutoff * scale
        if mag > bound:
            small = 0
            big, big_n = mag, n
            if mag > peak:
                peak, peak_n = mag, n
            continue
        small += 1
        if small >= _WINDOW and (
            big * (big / peak) ** ((n + 1 - big_n) / (big_n - peak_n)) <= bound
            if big_n > peak_n
            else small >= _RUN
        ):
            if _geometric_tail(last, before) <= bound:
                _bump_terms(n - start + 1)
                return total
    _bump_terms(max(max_terms, 0))
    raise NonConvergenceError(
        f"series did not converge within {max_terms} terms "
        f"(est_tail={_geometric_tail(last, before):.3g})"
    )


def _geometric_tail(last: float, before: float) -> float:
    """Tail ``last r / (1 - r)`` of a geometric series with ratio
    ``r = min(last / before, 0.999999)``; infinite without two nonzero terms."""
    if not before > 0.0:
        return math.inf
    ratio = last / before
    if ratio > 0.999999:
        ratio = 0.999999
    return last * ratio / (1.0 - ratio)


# continued_fraction: the relative change of the convergent that ends the
# evaluation, and the stand-in for an exact zero in Lentz's C_k or in the
# denominator of D_k (Numerical Recipes section 5.2).
_CF_TOL = 1e-14
_TINY = 1e-30


def continued_fraction(
    a: Callable[[int], complex],
    b: Callable[[int], complex],
) -> complex:
    """Evaluate ``b(1)/(a(1) + b(2)/(a(2) + ...))`` by forward modified Lentz.

    The convergents ``f_k = A_k/B_k`` are built front to back as products
    ``f_k = f_(k-1) C_k D_k`` of the ratios ``C_k = A_k/A_(k-1)`` and
    ``D_k = B_(k-1)/B_k`` of successive numerators and denominators
    (Thompson & Barnett, J. Comput. Phys. 64 (1986); Numerical Recipes
    section 5.2), so each coefficient ``a(k)``, ``b(k)`` is computed once.
    The evaluation stops at the first depth ``k`` where the relative change
    ``|C_k D_k - 1|`` of the convergent is at most 1e-14; ``b(1) == 0``
    gives exactly 0.  The deepest depth tried is the active policy's
    ``max_terms``.  The work charged to :func:`term_counter` is the final
    depth.

    An exact zero in ``C_k`` or in the denominator of ``D_k`` means one
    convergent is 0 or infinite, not that the fraction is: it is replaced
    by 1e-30, which carries the recurrence past that depth, and a depth
    where this happens never counts as settled.  If ``b(k+1) == 0`` ends
    the fraction right there, its value is exactly that convergent: 0, or
    a pole.

    Raises
    ------
    NonConvergenceError
        If the relative change is still above 1e-14 at depth ``max_terms``.
    PoleError
        If the fraction ends on an infinite convergent, or if it has not
        settled by depth ``max_terms`` after an exact zero.
    """
    max_terms = _POLICY.get().max_terms
    b1 = complex(b(1))
    if b1 == 0:
        _bump_terms(1)
        return 0j
    den = complex(a(1))
    zero_at = 0  # the first depth with an exact zero, replaced by _TINY
    d_zero = den == 0  # B_(k-1) == 0: the last convergent is infinite
    c_zero = False  # A_(k-1) == 0: the last convergent is 0
    if d_zero:
        den, zero_at = _TINY, 1
    d = 1.0 / den
    f = b1 * d
    c = complex(math.inf)  # C_1 = A_1/A_0 with A_0 = 0, so C_2 = a(2)
    for k in range(2, max_terms + 1):
        ak = complex(a(k))
        bk = complex(b(k))
        if (d_zero or c_zero) and bk == 0:
            # the fraction ends at depth k - 1, on a convergent that is 0 or infinite
            _bump_terms(k)
            if d_zero:
                raise PoleError(f"continued fraction ends on a zero denominator at depth {k - 1}")
            return 0j
        den = ak + bk * d
        c = ak + bk / c
        d_zero = den == 0
        c_zero = c == 0
        if d_zero or c_zero:
            zero_at = zero_at or k
            if d_zero:
                den = _TINY
            if c_zero:
                c = _TINY
            d = 1.0 / den
            f *= c * d
            continue
        d = 1.0 / den
        delta = c * d
        f *= delta
        if abs(delta - 1.0) <= _CF_TOL:
            _bump_terms(k)
            return f
    _bump_terms(max(max_terms, 1))
    if zero_at:
        raise PoleError(
            f"continued fraction hit a zero denominator at depth {zero_at} "
            f"and did not settle by depth {max_terms}"
        )
    raise NonConvergenceError(f"continued fraction did not stabilize by depth {max_terms}")


def numeric_derivative(
    f: Callable[[complex], complex],
    a: complex,
    *,
    h: float | None = None,
    steps: int = 1,
) -> complex:
    """Richardson-extrapolated central difference of ``f`` at ``a``.

    Builds the central-difference triangle over step sizes ``h, h/2, ...``
    and extrapolates ``steps`` times, cancelling error terms through
    O(h^(2*steps+2)) for smooth ``f``.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if h is not None:
        step = h
    else:
        # balance h^(2*steps+2) truncation against eps/h roundoff
        step = 10.0 ** (-16.0 / (2 * steps + 3)) * max(1.0, abs(a))
        if steps == 1:
            step = 1e-5 * max(1.0, abs(a))
    row = []
    for i in range(steps + 1):
        s = step / (2.0**i)
        row.append((complex(f(a + s)) - complex(f(a - s))) / (2.0 * s))
    # Richardson triangle: column j cancels the O(h^(2j)) term.
    for j in range(1, steps + 1):
        factor = 4.0**j
        row = [
            (factor * row[i + 1] - row[i]) / (factor - 1.0)
            for i in range(len(row) - 1)
        ]
    return row[0]


# complex_quad: the Gauss half of the first Gauss-Kronrod pair tried, the
# largest Kronrod rule tried, and the agreement a pair's two sums must reach,
# relative to max(1, |K|).
_QUAD_START_NODES = 12
_QUAD_MAX_NODES = 769
_QUAD_TOL = 1e-13


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes and weights of the ``n``-point Gauss-Legendre rule on [0, 1].

    Each root of ``P_n`` is found by Newton iteration from the estimate
    ``cos(pi (i - 1/4) / (n + 1/2))``, with ``P_n`` and ``P_n'`` from the
    three-term recurrence; the weight is ``2 / ((1 - z^2) P_n'(z)^2)`` on
    [-1, 1], halved for [0, 1].
    """
    nodes = [0.0] * n
    weights = [0.0] * n
    for i in range((n + 1) // 2):
        z = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(100):
            p1, p0 = z, 1.0
            for j in range(2, n + 1):
                p1, p0 = ((2 * j - 1) * z * p1 - (j - 1) * p0) / j, p1
            dp = n * (z * p1 - p0) / (z * z - 1.0)
            dz = p1 / dp
            z -= dz
            if abs(dz) <= 1e-16:
                break
        w = 1.0 / ((1.0 - z * z) * dp * dp)
        nodes[i], nodes[n - 1 - i] = (1.0 - z) / 2.0, (1.0 + z) / 2.0
        weights[i] = weights[n - 1 - i] = w
    return tuple(nodes), tuple(weights)


def _kronrod_jacobi(n: int) -> list[float]:
    """Off-diagonal recurrence coefficients ``b_0 .. b_2n`` of the Jacobi
    matrix of the (2n+1)-point Kronrod extension of the n-point
    Gauss-Legendre rule on [-1, 1].

    Laurie's algorithm (Math. Comp. 66 (1997) 1133-1145) starts from
    Legendre's coefficients ``a_k = 0``, ``b_0 = 2``,
    ``b_k = k^2 / (4k^2 - 1)`` for ``k <= ceil(3n/2)`` and fills in the rest
    from the mixed moments ``s``, ``t``.  The weight function is even, so
    every ``a_k`` of the Kronrod matrix is 0 too and only the ``b_k`` are
    carried.
    """
    b = [0.0] * (2 * n + 1)
    b[0] = 2.0
    for k in range(1, (3 * n + 1) // 2 + 1):
        b[k] = k * k / (4.0 * k * k - 1.0)
    s = [0.0] * (n // 2 + 2)
    t = [0.0] * (n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        acc = 0.0
        for k in range((m + 1) // 2, -1, -1):
            acc += b[k + n + 1] * s[k] - b[m - k] * s[k + 1]
            s[k + 1] = acc
        s, t = t, s
    for j in range(n // 2, -1, -1):
        s[j + 1] = s[j]
    for m in range(n - 1, 2 * n - 2):
        acc = 0.0
        for k in range(m + 1 - n, (m - 1) // 2 + 1):
            j = n - 1 - m + k
            acc += b[m - k] * s[j + 2] - b[k + n + 1] * s[j + 1]
            s[j + 1] = acc
        if m % 2:
            b[(m + 1) // 2 + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    return b


@lru_cache(maxsize=None)
def _gauss_kronrod(n: int) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
    """The Gauss-Kronrod pair G_n/K_(2n+1) on [0, 1], for even ``n``.

    Returns ``(nodes, kronrod_weights, gauss_weights)`` with the ``2n + 1``
    nodes in ascending order.  Every second node, ``nodes[1::2]``, is a
    node of :func:`_gauss_legendre`'s rule, whose weights are
    ``gauss_weights``; the other ``n + 1`` nodes are the zeros of the
    characteristic polynomial of :func:`_kronrod_jacobi`'s matrix that are
    not Gauss nodes.  The two sets interlace, so each new node is found by
    Newton iteration on the orthonormal recurrence started at the angle
    midpoint of its two Gauss neighbours (or of a Gauss node and an end).
    Every Kronrod weight is the Christoffel number ``1 / sum_k p_k(z)^2``
    over the orthonormal polynomials ``p_0 .. p_2n``, halved for [0, 1].
    The rule is symmetric about 1/2, so only the half ``z >= 0`` of [-1, 1]
    is computed; for even ``n`` its middle node ``z = 0`` is a new node.
    """
    gauss_nodes, gauss_weights = _gauss_legendre(n)
    root_b = [math.sqrt(v) for v in _kronrod_jacobi(n)]

    def recurrence(z: float) -> tuple[float, float, float]:
        """``(pi(z), pi'(z), sum_k p_k(z)^2)`` with ``pi`` proportional to
        the characteristic polynomial."""
        p0, p1 = 0.0, 1.0 / root_b[0]
        d0 = d1 = 0.0
        squares = p1 * p1
        for k in range(2 * n):
            p0, p1 = p1, (z * p1 - root_b[k] * p0) / root_b[k + 1]
            d0, d1 = d1, (p0 + z * d1 - root_b[k] * d0) / root_b[k + 1]
            squares += p1 * p1
        return z * p1 - root_b[2 * n] * p0, p1 + z * d1 - root_b[2 * n] * d0, squares

    # z = 1 - 2t recovers the Gauss roots z > 0: exactly for z >= 1/2, and
    # within 2^-54 below, where the Christoffel function is flat
    gauss_z = [1.0 - 2.0 * t for t in gauss_nodes[: n // 2]]
    angles = [0.0] + [math.acos(z) for z in gauss_z]
    new_z = []
    for lo, hi in zip(angles, angles[1:]):
        z = math.cos((lo + hi) / 2.0)
        for _ in range(100):
            value, slope = recurrence(z)[:2]
            dz = value / slope
            z -= dz
            if abs(dz) <= 1e-16:
                break
        new_z.append(z)
    new_z.append(0.0)  # the midpoint, a root of the odd polynomial
    gauss_w = [0.5 / recurrence(z)[2] for z in gauss_z]
    new_w = [0.5 / recurrence(z)[2] for z in new_z]
    nodes = [0.0] * (2 * n + 1)
    weights = [0.0] * (2 * n + 1)
    nodes[1::2] = gauss_nodes
    nodes[0::2] = [(1.0 - z) / 2.0 for z in new_z] + [(1.0 + z) / 2.0 for z in new_z[-2::-1]]
    weights[1::2] = gauss_w + gauss_w[::-1]
    weights[0::2] = new_w + new_w[-2::-1]
    return tuple(nodes), tuple(weights), gauss_weights


def complex_quad(f: Callable[[complex], complex], a: complex, b: complex) -> complex:
    """Integrate ``f`` along the straight segment from ``a`` to ``b``.

    Applies the Gauss-Kronrod pairs G_n/K_(2n+1) for n = 12, 24, 48, ...,
    384 (Kronrod 1965; nested as in QUADPACK), built by Laurie's algorithm.
    At each level the complex ``f`` is evaluated once at each of the
    ``2n + 1`` Kronrod nodes, of which the ``n`` Gauss nodes are a subset;
    the first pair whose two sums agree to ``1e-13 * max(1, |K|)`` returns
    the Kronrod sum.  The rules converge geometrically when ``f`` is
    analytic on (a neighbourhood of) the segment; a kink, pole or branch
    point on it stalls them.  Every Kronrod rule here has a node at the
    midpoint of the segment, so an integrand that raises there (a pole at
    the midpoint) raises out of this function.

    Raises
    ------
    NonConvergenceError
        At the first pair whose Gauss or Kronrod sum is not finite (NaN or
        infinite), or if no pair up to G384/K769 agrees.
    """
    a = complex(a)
    delta = complex(b) - a
    diff = math.inf
    n = _QUAD_START_NODES
    while 2 * n + 1 <= _QUAD_MAX_NODES:
        nodes, kronrod_weights, gauss_weights = _gauss_kronrod(n)
        values = [complex(f(a + t * delta)) for t in nodes]
        gauss = delta * sum(w * v for w, v in zip(gauss_weights, values[1::2]))
        kronrod = delta * sum(w * v for w, v in zip(kronrod_weights, values))
        if not (cmath.isfinite(gauss) and cmath.isfinite(kronrod)):
            raise NonConvergenceError(
                f"Gauss-Kronrod pair G{n}/K{2 * n + 1} sum is not finite "
                f"(G={gauss}, K={kronrod})"
            )
        diff = abs(kronrod - gauss)
        if diff <= _QUAD_TOL * max(1.0, abs(kronrod)):
            return kronrod
        n *= 2
    raise NonConvergenceError(
        f"Gauss-Kronrod pairs up to {_QUAD_MAX_NODES} nodes did not agree "
        f"(last difference {diff:.3g})"
    )


def principal_power(w: complex, s: complex) -> complex:
    """Principal branch of ``w**s``: exp(s Log w), with exact integer powers.

    Integer exponents bypass the log to avoid spurious branch noise and to
    keep real inputs exactly real.
    """
    sc = complex(s)
    if sc.imag == 0.0 and float(sc.real).is_integer():
        n = int(sc.real)
        if w == 0 and n < 0:
            raise PoleError("0 raised to a negative power")
        return complex(w) ** n
    if w == 0:
        if sc.real > 0:
            return 0.0 + 0.0j
        raise PoleError("0 raised to a non-positive power")
    return cmath.exp(sc * cmath.log(complex(w)))
