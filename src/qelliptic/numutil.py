"""Shared numerical machinery.

Truncated series summation from ``n = 0`` with geometric tail estimates,
continued-fraction evaluation by the forward modified Lentz recurrence,
numerical derivatives by one Richardson rule (central differences at three
steps, extrapolated twice), and complex line-segment quadrature by adaptive
bisection on one Gauss-Kronrod pair, G12/K25, which stops once the pair's
disagreement summed over the intervals is below 1e-13 relative and refuses
what 1,475 integrand calls do not resolve.
Only the standard library is used.  Most series in this package are summed by
:func:`sum_series`; the infinite q-Pochhammer products stop on their own tail
bound, the two-parameter theta sums on an exact tail bound held to the scale
of :func:`sum_series`.  All of them, and :mod:`qelliptic.elliptic`'s AGM
chain, read the one truncation policy, scoped with :func:`truncation` and read
at call time, and charge their work to :func:`term_counter`.  No primitive
takes a per-call option.
"""

from __future__ import annotations

import cmath
import math
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator, NamedTuple

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
    """Raised when the policy's ``max_terms``, or :func:`complex_quad`'s
    1,475-call budget, is spent; a non-finite value is an ``OverflowError``."""


class PoleError(ZeroDivisionError):
    """Raised when a denominator is exactly 0: the evaluation point sits on a pole."""


class TruncationPolicy(NamedTuple):
    """Stopping rules for adaptive series, infinite products and continued
    fractions (an immutable named tuple).

    Attributes
    ----------
    rel_tail_cutoff : float
        A series stops once its terms and tail are at most this fraction of
        ``max(|partial sum|, 2^-52 max |term|)`` (see :func:`sum_series`); an
        infinite product once the bound on its log-series tail is at most it.
    max_terms : int
        Hard cap on the terms of a series, the factors of a product, the
        depth of a continued fraction and the steps of an AGM chain;
        exceeding it raises :class:`NonConvergenceError`.
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
    also when the block raises.  Scopes nest.  An override that names no
    field raises ``TypeError``; one whose value is not a finite
    ``rel_tail_cutoff > 0`` or an int ``max_terms >= 0`` (a bool is
    neither) raises ``ValueError`` naming the field, before the scope opens.
    """
    for name in overrides:
        if name not in TruncationPolicy._fields:
            raise TypeError(f"truncation() got an unexpected keyword argument {name!r}")
    cutoff, cap = policy = _POLICY.get()._replace(**overrides)
    if not (isinstance(cutoff, (int, float)) and not isinstance(cutoff, bool)
            and 0 < cutoff < math.inf):
        raise ValueError(f"truncation() needs a finite rel_tail_cutoff > 0, got {cutoff!r}")
    if not (isinstance(cap, int) and not isinstance(cap, bool) and cap >= 0):
        raise ValueError(f"truncation() needs an int max_terms >= 0, got {cap!r}")
    token = _POLICY.set(policy)
    try:
        yield policy
    finally:
        _POLICY.reset(token)


_WORK: ContextVar[list[int] | None] = ContextVar("qelliptic_work", default=None)


class term_counter:
    """Count the series terms, fraction depth, product factors and AGM steps
    evaluated in this context.

    Each primitive charges its work once on every exit, a raising term or
    coefficient included; a refusal on entry, before any work, charges nothing.
    Used as ``with term_counter() as used:``, it yields a zero-argument
    callable returning the running count; read after the block, it returns
    the block's final count.  Nested counters stack: each level sees only
    the work done inside it plus its nested levels (inner work bubbles up to
    the outer count on exit, also when the block raises).  The count lives
    in a :class:`~contextvars.ContextVar`, so concurrent asyncio tasks keep
    separate counts.
    """

    __slots__ = ("_cell", "_token")

    def __enter__(self) -> Callable[[], int]:
        cell = self._cell = [0]
        self._token = _WORK.set(cell)
        return lambda: cell[0]

    def __exit__(self, *exc_info) -> None:
        _WORK.reset(self._token)
        outer = _WORK.get()
        if outer is not None:
            outer[0] += self._cell[0]


def _bump_terms(n: int) -> None:
    cell = _WORK.get()
    if cell is not None:
        cell[0] += n


# sum_series (and thetagen's folds): the floor of a series' scale as a share of
# its largest term; the consecutive negligible nonzero terms that allow a stop;
# the run of exact zeros that ends a sum on its own (finite support), which is
# also the run of negligible terms that stands in for the trend guard when no
# non-negligible term has followed the largest one.
_SCALE_FLOOR = 2.0**-52
_WINDOW = 2
_RUN = 64


def sum_series(term: Callable[[int], complex]) -> complex:
    """Sum ``term(n)`` for ``n = 0, 1, ...`` until the tail is negligible.

    A term is negligible when its magnitude is at most ``rel_tail_cutoff``
    times ``max(|partial sum|, 2^-52 max |term|)``, a scale no factor 2^k moves.
    The sum stops at the second consecutive negligible nonzero term if also

    * the geometric tail estimated from the last two nonzero terms is
      negligible, and
    * some non-negligible term came after the largest term, and the
      geometric trend from the largest term to the last non-negligible one,
      extrapolated to the next index, is negligible.  Two float-noise
      "zeros" in a row (``sin(k pi)``) therefore cannot end a sum whose
      decay has not set in.  Where none follows the largest term (a lone
      leading term), 64 consecutive negligible terms stand in for the trend.

    Exact-zero terms neither count toward the run of negligible terms nor
    break it, so lacunary series run on through their gaps; 64 exact zeros
    in a row end the sum.  The terms asked for, a raising one included, are
    charged to :func:`term_counter`.

    Returns
    -------
    complex
        The partial sum at the stop.

    Raises
    ------
    NonConvergenceError
        If the active policy's ``max_terms`` terms do not suffice.
    OverflowError
        At the first partial sum that is not finite (NaN or infinite).
    """
    pol = _POLICY.get()
    cutoff = pol.rel_tail_cutoff
    max_terms = pol.max_terms
    total = 0.0 + 0.0j
    last = before = 0.0  # magnitudes of the last two nonzero terms
    peak = floor = 0.0  # largest term so far, at index peak_n, and _SCALE_FLOOR * peak
    big = 0.0  # last non-negligible term, at index big_n
    peak_n = big_n = -1
    small = zeros = 0
    inf = math.inf
    n = -1  # the last index asked for: n + 1 terms are charged on every exit
    try:
        for n in range(max_terms):
            t = term(n)
            if type(t) is not complex:  # the test costs less than complex(t) does
                t = complex(t)
            mag = abs(t)
            if mag == 0.0:
                zeros += 1
                if zeros >= _RUN:
                    return total
                continue
            zeros = 0
            total += t
            before, last = last, mag
            if mag > peak:
                peak, peak_n = mag, n
                floor = _SCALE_FLOOR * peak
            scale = abs(total)
            if not scale < inf:  # NaN or infinite partial sum
                raise OverflowError(f"series partial sum is {total} after {n + 1} terms")
            bound = cutoff * (scale if scale > floor else floor)
            if mag > bound:
                small = 0
                big, big_n = mag, n
                continue
            small += 1
            if small >= _WINDOW and (
                big * (big / peak) ** ((n + 1 - big_n) / (big_n - peak_n)) <= bound
                if big_n > peak_n
                else small >= _RUN
            ):
                if _geometric_tail(last, before) <= bound:
                    return total
        raise NonConvergenceError(f"series did not converge within {max_terms} terms "
                                  f"(est_tail={_geometric_tail(last, before):.3g})")
    finally:
        _bump_terms(n + 1)


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
    depth, also where ``a(k)`` or ``b(k)`` raises.

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
    OverflowError
        At the first depth, past any exact zero, whose convergent is not
        finite; that depth is charged.
    PoleError
        If the fraction ends on an infinite convergent, or if it has not
        settled by depth ``max_terms`` after an exact zero.
    """
    max_terms = _POLICY.get().max_terms
    k = 1  # the depth asked for, charged on every exit
    try:
        b1 = complex(b(1))
        if b1 == 0:
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
            if not cmath.isfinite(f):  # a NaN or infinite ratio or convergent stays so
                raise OverflowError(f"continued fraction convergent is {f} at depth {k}")
            if abs(delta - 1.0) <= _CF_TOL:
                return f
        if zero_at:
            raise PoleError(f"continued fraction hit a zero denominator at depth {zero_at} "
                            f"and did not settle by depth {max_terms}")
        raise NonConvergenceError(f"continued fraction did not stabilize by depth {max_terms}")
    finally:
        _bump_terms(k)


# numeric_derivative's first step, scaled by max(1, |a|): it balances the
# O(h^6) error left after two extrapolations against the O(eps/h) roundoff
# of the differences, h = eps^(1/7) with eps = 1e-16.
_DIFF_STEP = 10.0 ** (-16.0 / 7)


def numeric_derivative(f: Callable[[complex], complex], a: complex) -> complex:
    """Richardson-extrapolated central difference of ``f`` at ``a``.

    One rule (Numerical Recipes section 5.7): central differences over the
    steps ``h, h/2, h/4`` with ``h = 10^(-16/7) max(1, |a|)``, extrapolated
    twice, which cancels the error terms through O(h^4) and leaves O(h^6)
    for smooth ``f``.  The rule does not see the domain of ``f``: ``f`` must
    be analytic on the disk ``|t - a| <= h``, or a stencil that crosses a
    branch point gives a wrong value without an error.  A derivative that is
    not finite raises ``OverflowError``.
    """
    step = _DIFF_STEP * max(1.0, abs(a))
    row = []
    for i in range(3):
        s = step / (2.0**i)
        row.append((complex(f(a + s)) - complex(f(a - s))) / (2.0 * s))
    # Richardson triangle: column j cancels the O(h^(2j)) term.
    for factor in (4.0, 16.0):
        row = [
            (factor * row[i + 1] - row[i]) / (factor - 1.0)
            for i in range(len(row) - 1)
        ]
    if not cmath.isfinite(row[0]):
        raise OverflowError(f"numeric derivative at {a} is {row[0]}")
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
        raise OverflowError(
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
        When the call budget is spent before the summed differences are
        small enough.
    OverflowError
        At the first interval whose Gauss or Kronrod sum is not finite.
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
    keep real inputs exactly real; an integer power that leaves the double
    range raises ``OverflowError`` naming ``w`` and ``n``, and one that
    underflows is 0, for a negative or complex ``w`` too.
    """
    sc = complex(s)
    if sc.imag == 0.0 and sc.real.is_integer():
        n = int(sc.real)
        if w == 0 and n < 0:
            raise PoleError("0 raised to a negative power")
        wc = complex(w)
        try:
            v = wc ** n
            # for |n| <= 100 CPython multiplies: NaN, not an error, where the
            # power of a finite w (or for n < 0 the power it inverts) overflows
            if not cmath.isnan(v) or not cmath.isfinite(wc):
                return v
        except (ZeroDivisionError, OverflowError):
            # CPython's phase n Arg w leaves the double range for a huge n and
            # a negative or complex w (a bare ZeroDivisionError), or its modulus
            pass
        # |w|^n decides between 0 and an overflow
        r = abs(wc)
        if (r < 1.0 and n > 0) or (r > 1.0 and n < 0):
            return 0j
        raise OverflowError(
            f"principal_power: w**n leaves the double range at w = {w}, n = {sc.real!r}"
        )
    if w == 0:
        if sc.real > 0:
            return 0.0 + 0.0j
        raise PoleError("0 raised to a non-positive power")
    return cmath.exp(sc * cmath.log(complex(w)))
