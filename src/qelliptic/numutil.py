"""Shared numerical machinery.

Truncated series summation with geometric tail estimates, continued-fraction
evaluation by backward recurrence with depth doubling, Richardson-extrapolated
numerical derivatives, and complex line-segment quadrature by Gauss-Legendre
rules of doubling size for integrands analytic on the segment.  Only the
standard library is used.  Every series-based evaluator in this package routes
through :func:`sum_series` so that term counts can be instrumented uniformly.
The one truncation policy is scoped with :func:`truncation` and read at call
time.
"""

from __future__ import annotations

import cmath
import math
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Iterator

__all__ = [
    "TruncationPolicy",
    "SeriesValue",
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
    """Stopping rules for adaptive series summation.

    Attributes
    ----------
    rel_tail_cutoff : float
        Summation stops once the estimated tail is below this fraction of
        the partial sum's scale.
    max_terms : int
        Hard cap; exceeding it raises :class:`NonConvergenceError`.
    stagnation_window : int
        Number of consecutive negligible terms required before stopping,
        so that structurally zero terms (e.g. odd-index gaps) do not end
        the sum prematurely.
    """

    rel_tail_cutoff: float = 1e-16
    max_terms: int = 100_000
    stagnation_window: int = 8


DEFAULT_POLICY = TruncationPolicy()

_POLICY: ContextVar[TruncationPolicy] = ContextVar("qelliptic_truncation", default=DEFAULT_POLICY)


def current_policy() -> TruncationPolicy:
    """The truncation policy in force in the current context."""
    return _POLICY.get()


@contextmanager
def truncation(**overrides) -> Iterator[TruncationPolicy]:
    """Scope a truncation policy, in the manner of ``decimal.localcontext``.

    Inside the ``with`` block every series and infinite product sees the
    active policy with ``overrides`` applied (field names of
    :class:`TruncationPolicy`); the previous policy is restored on exit,
    also when the block raises.  Scopes nest.
    """
    token = _POLICY.set(replace(_POLICY.get(), **overrides))
    try:
        yield _POLICY.get()
    finally:
        _POLICY.reset(token)


@dataclass(frozen=True)
class SeriesValue:
    """Value of a truncated series plus convergence diagnostics."""

    value: complex
    terms_used: int
    est_tail: float
    converged: bool


_tls = threading.local()


@contextmanager
def term_counter() -> Iterator[Callable[[], int]]:
    """Count series/fraction terms evaluated in this thread.

    Yields a zero-argument callable returning the running count.  Nested
    counters stack; each level sees only the work done inside it plus its
    nested levels (inner work bubbles up to the outer count).
    """
    prev = getattr(_tls, "count", None)
    _tls.count = 0
    try:
        yield lambda: _tls.count
    finally:
        inner = _tls.count
        if prev is None:
            _tls.count = None
        else:
            _tls.count = prev + inner


def _bump_terms(n: int) -> None:
    count = getattr(_tls, "count", None)
    if count is not None:
        _tls.count = count + n


def sum_series(
    term: Callable[[int], complex],
    *,
    start: int = 0,
) -> SeriesValue:
    """Sum ``term(n)`` for ``n = start, start+1, ...`` until the tail is negligible.

    The tail is estimated geometrically from the ratio of the last two
    nonzero terms.  Convergence requires ``stagnation_window`` consecutive
    terms that are individually negligible relative to the accumulated sum,
    which guards against lacunary series stopping on a structural zero.

    Returns
    -------
    SeriesValue
        Truncated value with the number of terms consumed and the final
        tail estimate.

    Raises
    ------
    NonConvergenceError
        If the active policy's ``max_terms`` terms do not suffice, or at the
        first partial sum that is not finite (NaN or infinite).
    """
    pol = _POLICY.get()
    cutoff = pol.rel_tail_cutoff
    window = pol.stagnation_window
    max_terms = pol.max_terms
    total = 0.0 + 0.0j
    last = before = 0.0  # magnitudes of the last two nonzero terms
    small = 0
    for n in range(start, start + max_terms):
        t = complex(term(n))
        total += t
        mag = abs(t)
        if mag > 0.0:
            before, last = last, mag
        scale = abs(total)
        if scale <= 1.0:  # scale = max(1.0, |total|)
            scale = 1.0
        elif not scale < math.inf:  # NaN or infinite partial sum
            used = n - start + 1
            _bump_terms(used)
            raise NonConvergenceError(f"series partial sum is {total} after {used} terms")
        if mag <= cutoff * scale:
            small += 1
            if small >= window:
                est_tail = _geometric_tail(last, before)
                if est_tail <= cutoff * scale or mag == 0.0:
                    used = n - start + 1
                    _bump_terms(used)
                    return SeriesValue(total, used, est_tail if est_tail != math.inf else mag, True)
        else:
            small = 0
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


def continued_fraction(
    a: Callable[[int], complex],
    b: Callable[[int], complex],
    *,
    tail_tol: float = 1e-13,
    max_depth: int = 102_400,
) -> complex:
    """Evaluate ``b(1)/(a(1) + b(2)/(a(2) + ...))`` by backward recurrence.

    Starts from a zero tail at depth 25 and doubles the depth until two
    successive evaluations agree to ``tail_tol`` (relative to the larger of
    1 and the value's magnitude).  The deepest sweep is the largest doubling
    of 25 not above ``max_depth`` (25 * 2**12 = 102,400 by default).
    Each coefficient ``a(k)``, ``b(k)`` is computed once, on the first sweep
    that reaches depth ``k``, and kept for the deeper sweeps.

    Raises
    ------
    NonConvergenceError
        If agreement is not reached by ``max_depth``.
    PoleError
        If a zero denominator is hit during the backward sweep.
    """
    a_seen: list[complex] = [0j]  # a_seen[k] == complex(a(k)); index 0 unused
    b_seen: list[complex] = [0j]

    def eval_depth(depth: int) -> complex:
        known = len(a_seen) - 1
        a_seen.extend([0j] * (depth - known))
        b_seen.extend([0j] * (depth - known))
        acc = 0.0 + 0.0j
        for k in range(depth, known, -1):
            ak = a_seen[k] = complex(a(k))
            den = ak + acc
            if den == 0:
                raise PoleError(f"continued fraction hit a zero denominator at depth {k}")
            bk = b_seen[k] = complex(b(k))
            acc = bk / den
        for k in range(known, 0, -1):
            den = a_seen[k] + acc
            if den == 0:
                raise PoleError(f"continued fraction hit a zero denominator at depth {k}")
            acc = b_seen[k] / den
        return acc

    depth = 25
    prev = eval_depth(depth)
    total_work = depth
    while 2 * depth <= max_depth:
        depth *= 2
        cur = eval_depth(depth)
        total_work += depth
        if abs(cur - prev) <= tail_tol * max(1.0, abs(cur)):
            _bump_terms(total_work)
            return cur
        prev = cur
    _bump_terms(total_work)
    raise NonConvergenceError(f"continued fraction did not stabilize by depth {max_depth}")


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


# complex_quad: the first Gauss-Legendre rule tried, the largest one tried,
# and the agreement two successive rules must reach, relative to max(1, |I|).
_QUAD_START_NODES = 12
_QUAD_MAX_NODES = 768
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


def complex_quad(f: Callable[[complex], complex], a: complex, b: complex) -> complex:
    """Integrate ``f`` along the straight segment from ``a`` to ``b``.

    Applies Gauss-Legendre rules of 12, 24, 48, ... nodes, evaluating the
    complex ``f`` once per node, until two successive rules agree to
    ``1e-13 * max(1, |I|)``, and returns the larger rule's value.  The rules
    converge geometrically when ``f`` is analytic on (a neighbourhood of)
    the segment; a kink, pole or branch point on it stalls them.

    Raises
    ------
    NonConvergenceError
        If no two successive rules up to 768 nodes agree.
    """
    a = complex(a)
    delta = complex(b) - a
    prev = None
    diff = float("inf")
    n = _QUAD_START_NODES
    while n <= _QUAD_MAX_NODES:
        nodes, weights = _gauss_legendre(n)
        cur = delta * sum(w * complex(f(a + t * delta)) for t, w in zip(nodes, weights))
        if prev is not None:
            diff = abs(cur - prev)
            if diff <= _QUAD_TOL * max(1.0, abs(cur)):
                return cur
        prev = cur
        n *= 2
    raise NonConvergenceError(
        f"Gauss-Legendre rules up to {_QUAD_MAX_NODES} nodes did not agree "
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
