"""Shared numerical machinery.

Truncated series summation with geometric tail estimates, continued-fraction
evaluation by the forward modified Lentz recurrence, Richardson-extrapolated
numerical derivatives, and complex line-segment quadrature by adaptive
bisection on one Gauss-Kronrod pair, G12/K25, which stops once the pair's
disagreement summed over the intervals is below 1e-13 relative and refuses
what 1,475 integrand calls do not resolve.
Only the standard library is used.  Most series in this package are summed by
:func:`sum_series`; the infinite q-Pochhammer products and the two-parameter
theta sums, the theta nulls among them, stop on their own exact tail bounds
instead.  All of them read the one truncation policy, scoped with
:func:`truncation` and read at call time, and charge their work to
:func:`term_counter`.
"""

from __future__ import annotations

import cmath
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
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


# complex_quad's one rule: the 12-point Gauss-Legendre rule and its 25-point
# Kronrod extension (Kronrod 1965), as the halves of two symmetric tables
# that run from the left end to the midpoint.  Abscissa z on [-1, 1] is the
# node (1 - z)/2 of [0, 1], mirrored to (1 + z)/2; every second node is a
# Gauss node.  Weights are on [0, 1].
_KRONROD_Z = (
    0.9969339225295955, 0.9815606342467192, 0.9505377959431213,
    0.9041172563704748, 0.8435581241611533, 0.7699026741943047,
    0.6840598954700559, 0.5873179542866175, 0.48133945047815707,
    0.3678314989981802, 0.24850574832046923, 0.12523340851146894, 0.0,
)
_KRONROD_HALF = (
    0.0041288557165841625, 0.011518042019491099, 0.019457615234649693,
    0.026848508803878127, 0.03362545352541999, 0.039960137666800837,
    0.04577473414752466, 0.05082486613953014, 0.05501130248882209,
    0.058356026750878434, 0.06081315176197416, 0.062292082268078024,
    0.06277844695273722,
)
_GAUSS_HALF = (
    0.023587668193255917, 0.05346966299765909, 0.08003916427167317,
    0.10158371336153292, 0.11674626826917739, 0.12457352290670144,
)
_QUAD_NODES = tuple((1.0 - z) / 2.0 for z in _KRONROD_Z) + tuple(
    (1.0 + z) / 2.0 for z in _KRONROD_Z[-2::-1]
)
_QUAD_KRONROD = _KRONROD_HALF + _KRONROD_HALF[-2::-1]
_QUAD_GAUSS = _GAUSS_HALF + _GAUSS_HALF[::-1]

# complex_quad stops once the summed |K - G| of its intervals is at most
# _QUAD_TOL * max(1, |sum of K|), and raises when that needs more than
# _QUAD_MAX_INTERVALS intervals: 29 bisections, 25 + 29 * 50 = 1,475 calls.
_QUAD_TOL = 1e-13
_QUAD_MAX_INTERVALS = 30


def _kronrod_pair(f: Callable[[complex], complex], a: complex, delta: complex) -> tuple[complex, float]:
    """The Kronrod sum over ``[a, a + delta]`` and its distance from the
    Gauss sum; both sums run over the nodes in ascending order."""
    values = [complex(f(a + t * delta)) for t in _QUAD_NODES]
    gauss = delta * sum(w * v for w, v in zip(_QUAD_GAUSS, values[1::2]))
    kronrod = delta * sum(w * v for w, v in zip(_QUAD_KRONROD, values))
    if not (cmath.isfinite(gauss) and cmath.isfinite(kronrod)):
        raise NonConvergenceError(
            f"Gauss-Kronrod pair G12/K25 sum is not finite on [{a}, {a + delta}] "
            f"(G={gauss}, K={kronrod})"
        )
    return kronrod, abs(kronrod - gauss)


def complex_quad(f: Callable[[complex], complex], a: complex, b: complex) -> complex:
    """Integrate ``f`` along the straight segment from ``a`` to ``b``.

    Globally adaptive bisection on one Gauss-Kronrod pair, G12/K25 (QUADPACK's
    QAG, Piessens et al. 1983): the pair is applied to the whole segment,
    then the interval whose Kronrod and Gauss sums differ most is halved and
    the pair applied to both halves, until the differences summed over all
    intervals are at most ``1e-13 * max(1, |I|)``, where ``I``, the value
    returned, is the sum of the intervals' Kronrod sums in order along the
    segment.  The complex ``f`` is evaluated once per node: 25 calls for the
    segment and 50 per bisection, at most 1,475 in all.  Integrands analytic
    on the segment, also with poles or branch points close to it, and
    continuous ones with a kink or a ``sqrt(t)``-type endpoint are resolved.
    Refused, because the bisection stalls next to the singularity: a pole
    on the segment, where the integral does not exist and the pair's
    disagreement does not shrink with the interval, and a logarithmic
    singularity at an end, where it shrinks only in proportion to the
    interval's width and is still about 6e-12 after 29 halvings.  The pair
    has a node at the midpoint of every interval, so an integrand that
    raises there (a pole at the midpoint of the segment) raises out of this
    function.

    Raises
    ------
    NonConvergenceError
        At the first interval whose Gauss or Kronrod sum is not finite (NaN
        or infinite), or when the call budget is spent before the summed
        differences are small enough.
    """
    a = complex(a)
    delta = complex(b) - a
    # (start, width, Kronrod sum, |K - G|), in order along the segment
    intervals = [(a, delta, *_kronrod_pair(f, a, delta))]
    while True:
        # started from the first K, not 0, so that one interval returns its K
        # bit for bit (0 + K would turn a -0.0 part into 0.0)
        total = sum((piece[2] for piece in intervals[1:]), intervals[0][2])
        error = sum(piece[3] for piece in intervals)
        if error <= _QUAD_TOL * max(1.0, abs(total)):
            return total
        if len(intervals) == _QUAD_MAX_INTERVALS:
            raise NonConvergenceError(
                f"Gauss-Kronrod G12/K25 bisection did not converge on "
                f"{_QUAD_MAX_INTERVALS} intervals (summed |K - G| = {error:.3g})"
            )
        i = max(range(len(intervals)), key=lambda j: intervals[j][3])
        start, width = intervals[i][:2]
        half = width / 2.0
        intervals[i : i + 1] = [
            (start, half, *_kronrod_pair(f, start, half)),
            (start + half, half, *_kronrod_pair(f, start + half, half)),
        ]


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
