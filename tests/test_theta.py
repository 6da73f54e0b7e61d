"""Two-parameter theta sums, agile products, Rogers-Ramanujan chain,
restricted divisor-sum logarithms."""

import cmath
import math
import random

import mpmath as mp
import pytest
from assertions import assert_close

from qelliptic import thetagen
from qelliptic.elliptic import theta3
from qelliptic.numutil import (
    NonConvergenceError,
    PoleError,
    principal_power,
    sum_series,
    term_counter,
    truncation,
)
from qelliptic.qseries import euler_product, qpochhammer
from qelliptic.thetagen import (
    agile_minus,
    agile_plus,
    cayley,
    cayley_u0_product,
    odd_lambert,
    odd_ratio_sum,
    ramanujan_quantity,
    restricted_divisor_log,
    rr_G,
    rr_H,
    rr_cf,
    rr_product,
    rr_sum,
    theta3_two,
    theta4_two,
    u_product,
)


# ---------------------------------------------------------------------------
# two-parameter theta sums
# ---------------------------------------------------------------------------


def test_theta3_two_reduces_to_theta_null():
    q = 0.2
    assert abs(theta3_two(1.0, 0.0, q) - theta3(q)) <= 1e-14


def test_theta4_two_reduces_to_negated_null():
    q = 0.1
    assert abs(theta4_two(1.0, 0.0, q) - theta3(-q)) <= 1e-14


def test_theta3_two_matches_bilateral_brute_force():
    a, b, q = 2.5, 1.5, 0.1
    direct = sum(q ** (a * n * n + b * n) for n in range(-30, 31))
    assert abs(theta3_two(a, b, q) - direct) <= 1e-14


def test_theta_two_linear_symmetry():
    # n -> -n flips the sign of the linear coefficient only
    a, b, q = 1.7, 0.6, 0.22
    assert abs(theta3_two(a, b, q) - theta3_two(a, -b, q)) <= 1e-14
    assert abs(theta4_two(a, b, q) - theta4_two(a, -b, q)) <= 1e-14


def test_theta_two_rejects_divergent_quadratic():
    with pytest.raises(ValueError):
        theta3_two(-1.0, 0.0, 0.3)


def test_theta_two_at_zero_nome():
    # every exponent n (a n +- b) with n != 0 is positive when a > |b|
    assert theta3_two(2.5, 1.5, 0) == 1.0
    assert theta4_two(2.5, 1.5, 0.0) == 1.0
    assert theta3_two(1, 0.4j, 0j) == 1.0
    # A-144's left side is 1 at q = 0
    assert theta4_two(2.5, 1.5, 0) / theta3_two(2.5, 1.5, 0) * rr_G(0.0) ** 2 == 1.0
    # a = |b|: the single q^0 term of n = -+1 counts
    for b in (1.0, -1.0):
        assert theta3_two(1.0, b, 0) == 2.0
        assert theta4_two(1.0, b, 0) == 0.0
    for f in (theta3_two, theta4_two):
        with pytest.raises(PoleError):
            f(1.0, 1.5, 0)


def test_theta_two_overflow_is_refused_fast():
    # q^(a n^2 - b n) overflows near n = 19 long before the sum would turn
    with term_counter() as used:
        with pytest.raises(OverflowError):
            theta3_two(0.5, 400, 0.9)
        assert used() < 100


def test_theta_two_overflow_names_the_sum_and_its_arguments():
    # cn at q = 0.995, u = 100: the odd fold's head 2 sinh(B/2) overflows
    with pytest.raises(OverflowError) as info:
        thetagen.theta1_two(1, complex(-0.0, -690.4083993480899), 0.995)
    assert str(info.value) == (
        "theta1_two(1, (-0-690.4083993480899j); 0.995): "
        "the odd fold's head 2 sinh(B/2) overflows at B = (1768.9819553686482+0j)"
    )
    # b = 200 at q = 0.3: the transformation's factor e^(log f) overflows
    for f, log_f in ((theta3_two, "(12040.207594822856+0j)"),
                     (thetagen.theta1_two, "(12038.459205270932-315.7300616857742j)")):
        with pytest.raises(OverflowError) as info:
            f(1, 200, 0.3)
        assert str(info.value) == f"{f.__name__}(1, 200; 0.3): the transformation factor e^{log_f} overflows"
    # b = +-551.7 at q = 0.05, on the direct route (jacobi_cd at u = 1000i):
    # the ratio power q^(a -+ b) overflows, which read "math range error"
    for b in (551.7365525161352, -551.7365525161352):
        with pytest.raises(OverflowError) as info:
            theta3_two(1, b, 0.05)
        assert str(info.value) == f"theta3_two(1, {b}; 0.05): a ratio power q^(a +- b) leaves the double range"


def _plan_cases(seed, count):
    """Seeded ``(f, a, b, q)``: theta1/3/4_two at positive, negative and
    complex nomes, complex ones with signed zero parts among them, on both
    routes, with refusals (``|q^a| >= 1``, non-finite or NaN arguments,
    ``q = 0``) and overflows (``b = 200``, ``b = 1e308``) mixed in; then the
    odd sums whose ``Im A`` is infinite at its first T step, where an
    infinite ``b Log q`` is refused first."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        r = rng.uniform(0.01, 0.99)
        q = rng.choice((
            r, -r, r * cmath.exp(1j * rng.uniform(-math.pi, math.pi)),
            complex(rng.choice((r, -r)), rng.choice((0.0, -0.0))),
            complex(rng.choice((0.0, -0.0)), rng.choice((r, -r))),
        ))
        a = rng.choice((1, 2, 0.5, 2.5, 16.0, rng.uniform(0.05, 4.0), complex(rng.uniform(0.2, 3.0), rng.uniform(-1.0, 1.0)),
                        complex(1, rng.choice((0.0, -0.0))), -1.0, 0.0))
        b = rng.choice((0, 1, 0.4, -1.0, rng.uniform(-3.0, 3.0), complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)),
                        2j * rng.random() / cmath.log(q), complex(0.0, rng.uniform(-700.0, 700.0)), 200, 1e308))
        if rng.random() < 0.03:
            q = rng.choice((0, 0j, 1.0, complex(0.5, math.nan)))
        if rng.random() < 0.03:
            a, b = rng.choice(((math.inf, b), (math.nan, b), (a, math.inf), (a, math.nan), (complex(1.0, 1e308), b)))
        cases.append((rng.choice((thetagen.theta1_two, theta3_two, theta4_two)), a, b, q))
    return cases + [(thetagen.theta1_two, complex(1.0, 1e308), b, q) for b in (0.5, 1e308) for q in (0.1, -0.1)]


def _outcome(f, a, b, q):
    """``repr`` of the value or the exception's type and text, with the terms charged."""
    with term_counter() as used:
        try:
            result = repr(f(a, b, q))
        except Exception as exc:  # the refusal is the outcome compared
            result = f"{type(exc).__name__}: {exc}"
    return result, used()


def _twin(z):
    """A number equal to ``z`` but another object: a complex ``z`` with the
    sign of each zero part turned, a float one as a complex."""
    if isinstance(z, complex):
        return complex(z.real if z.real else -z.real, z.imag if z.imag else -z.imag)
    return complex(z) if isinstance(z, float) else z


def _cold():
    """Drop the kernel's kept plans."""
    thetagen._plans[:] = [None, None]


def test_theta_two_plan_is_the_same_cold_warm_and_evicted():
    # the per-(a, q) plan changes no value, term count or refusal: a call
    # reads the same on a cold plan, on the plan and path its first call kept
    # (twice), after another nome's call evicted its plan, and after a call
    # at an equal twin (-0.0 == 0.0 and 0.5 == 0.5 + 0j, though Log(-q) of the
    # twins differ in a zero's sign)
    cases = _plan_cases(2036, 1500)
    cold = []
    for case in cases:
        _cold()
        cold.append(_outcome(*case))
    assert sum(text.startswith(("ValueError", "OverflowError")) for text, _ in cold) > 200
    # A's path meets an infinite Im A, refused after the steps before it:
    # after b Log q, where that is infinite too
    assert cold[-4][0] == "OverflowError: theta1_two((1+1e+308j), 0.5; 0.1): cannot convert float infinity to integer"
    assert cold[-2][0] == "OverflowError: theta1_two((1+1e+308j), 1e+308; 0.1): b Log q = (-inf+0j) is not finite"
    assert sum(not text.startswith(("ValueError", "OverflowError", "PoleError")) for text, _ in cold) > 600
    replayed = 0
    for case, want in zip(cases, cold):
        _cold()
        assert [_outcome(*case) for _ in range(3)] == [want] * 3, case
        plan = thetagen._plans[case[0] is thetagen.theta1_two]
        replayed += bool(plan and plan[5])  # the later calls replayed a path
    assert replayed > 400
    for case, want in zip(cases, cold):
        assert _outcome(*case) == want, case  # the case before evicted its plan
    for (f, a, b, q), want in zip(cases, cold):
        _outcome(f, _twin(a), b, _twin(q))
        assert _outcome(f, a, b, q) == want, (f, a, b, q)


def _per_term_power(q):
    """``s -> q^s`` as the per-term sum took it: exact integer powers,
    else ``exp(s Log q)``."""
    w = complex(q)
    log_w = cmath.log(w)

    def power(s):
        sc = complex(s)
        if sc.imag == 0.0 and float(sc.real).is_integer():
            return w ** int(sc.real)
        return cmath.exp(sc * log_w)

    return power


def _reference_theta_two(a, b, q, alternating):
    """The per-term sum these kernels replaced (q != 0), with each term's two
    exponents ``a n^2 +- b n`` formed as one power apiece and the ``n = 0``
    term added after the terms ``n >= 1``, as the kernel forms and adds them.
    Returns the sum and its term count, ``n = 0`` included."""
    power = _per_term_power(q)
    if abs(power(a)) >= 1.0:
        raise ValueError("|q^a| >= 1")

    def term(i):
        n = i + 1
        sign = -1.0 if alternating and n % 2 else 1.0
        return sign * (power(a * n * n + b * n) + power(a * n * n - b * n))

    with term_counter() as used:
        value = sum_series(term)
    return 1.0 + value, used() + 1


def _bilateral_mp(a, b, q, alternating):
    """``sum_{|n| <= 60} s^n q^(a n^2 + b n)`` at 40 digits, for real
    ``0 < q <= 0.05`` and real ``a >= 0.5``, where the terms at ``|n| = 60``
    are far below 1e-40."""
    with mp.workdps(40):
        qm, am, bm = mp.mpf(q), mp.mpf(a), mp.mpf(b)
        return sum((-1 if alternating and n % 2 else 1) * qm ** (am * n * n + bm * n)
                   for n in range(-60, 61))


def _tail_bound_stop(power, a, b, alternating, cutoff=1e-16):
    """Terms to the first partial sum ``S_m`` (``n = 0 .. m``) at which both
    next ratios ``rho = |power(a (2m + 1) +- b)|`` are below 1 and
    ``|T_m+| rho+ / (1 - rho+) + |T_m-| rho- / (1 - rho-)`` is at most
    ``cutoff * max(|S_m|, 2^-52 max_n |P_n|)``, with
    ``T_m+- = s^m power(a m^2 +- b m)``, ``P_0 = 1``, ``P_n = T_n+ + T_n-`` and
    every quantity from its own power."""
    total = 0.0
    largest = 1.0
    for m in range(10_000):
        sign = -1.0 if alternating and m % 2 else 1.0
        t_plus = sign * power(a * m * m + b * m)
        t_minus = sign * power(a * m * m - b * m)
        if m:
            total += t_plus + t_minus
            largest = max(largest, abs(t_plus + t_minus))
        else:
            total += 1.0
        rho_plus = abs(power(a * (2 * m + 1) + b))
        rho_minus = abs(power(a * (2 * m + 1) - b))
        if rho_plus < 1.0 and rho_minus < 1.0:
            tail = abs(t_plus) * rho_plus / (1.0 - rho_plus) + abs(t_minus) * rho_minus / (1.0 - rho_minus)
            if tail <= cutoff * max(abs(total), 2.0**-52 * largest):
                return m + 1
    raise AssertionError("no stop within 10,000 terms")


def _reduced(a, b, q, alternating):
    """``(A', B', log f)``: the kernel's reduction of ``sum s^n q^(a n^2 + b n)
    = sum e^(A n^2 + B n)``, ``B`` formed off the plan as the kernel forms it."""
    _cold()
    theta3_two(a, 0, q)
    _, _, _, log_b, turn, path, _ = thetagen._plans[0]
    B = b * log_b if turn is None else b * log_b + 1j * math.pi * (turn[0] * b + turn[1])
    if alternating:
        B += 1j * math.pi
    A, _, B, log_f = thetagen._reduce(path, B, False)
    return A, B, log_f


def _direct(a, q):
    """Whether the kernel sums ``q^(a n^2 + b n)`` directly: ``|q^a| <= e^(-pi/2)``."""
    return abs(principal_power(q, a)) <= math.exp(-math.pi / 2)


def _kernel_stop(a, b, q, alternating, cutoff=1e-16):
    """The kernel's term count: the tail-bound stop of the direct sum, or of
    the reduced sum ``sum e^(A' n^2 + B' n)`` where the kernel reduces."""
    if _direct(a, q):
        return _tail_bound_stop(_per_term_power(q), a, b, alternating, cutoff)
    A, B, _ = _reduced(a, b, q, alternating)
    return _tail_bound_stop(cmath.exp, A, B, False, cutoff)


_AB = [(1, 0), (1, 0.4), (2.5, 1.5), (2.5, 0.5), (0.5, 0.25), (1, 0.4j), (1.5, 0.3 + 0.2j), (0.7, -1.1)]
_SHALLOW_NOMES = [0.01, 0.05, -0.02, -0.05, 0.05j, 0.04 * cmath.exp(2j)]
_DEEP_NOMES = [0.5, 0.9, 0.95, -0.5, -0.9, -0.95, 0.3j, 0.6 * cmath.exp(1j),
               0.95 * cmath.exp(2.5j), 0.95 * cmath.exp(-0.7j), 0.9j]


@pytest.mark.parametrize("alternating", [False, True])
def test_theta_two_kernel_matches_per_term_sum(alternating):
    f = theta4_two if alternating else theta3_two
    for q in _SHALLOW_NOMES + _DEEP_NOMES:
        for a, b in _AB:
            want, want_used = _reference_theta_two(a, b, q, alternating)
            with term_counter() as used:
                got = f(a, b, q)
            assert used() <= want_used, (q, a, b)
            if abs(q) > 0.05:
                continue
            if isinstance(q, float) and q > 0 and isinstance(b, (int, float)):
                # the registry's class: shallow positive nomes, real exponents;
                # where the running products move the last bit (theta4_two at
                # q = 0.05, a = 0.7, b = -1.1) the kernel is the nearer one
                if got != want:
                    exact = _bilateral_mp(a, b, q, alternating)
                    assert abs(got - exact) <= abs(want - exact), (q, a, b)
            else:
                # the last bit moves; at q < 0 the per-term w**n (n > 100)
                # also carried an imaginary part of ~1e-220
                assert abs(got - want) <= 1e-15 * abs(want), (q, a, b)


@pytest.mark.parametrize("alternating", [False, True])
def test_theta_two_stops_at_its_first_negligible_tail_bound(alternating):
    f = theta4_two if alternating else theta3_two
    for q in _SHALLOW_NOMES + _DEEP_NOMES:
        for a, b in _AB:
            with term_counter() as used:
                f(a, b, q)
            assert used() == _kernel_stop(a, b, q, alternating), (q, a, b)


def test_theta_two_obeys_the_truncation_policy():
    # a direct sum and a reduced one: the cap reaches both
    for a, b, q in ((1, 0.5, 0.2), (2.5, 1.5, 0.9)):
        with term_counter() as used:
            want = theta3_two(a, b, q)
        needed = used()
        with truncation(max_terms=needed):
            assert theta3_two(a, b, q) == want
        with term_counter() as used:
            with truncation(max_terms=needed - 1):
                with pytest.raises(NonConvergenceError):
                    theta3_two(a, b, q)
        assert used() == needed - 1
        with term_counter() as used:
            with truncation(rel_tail_cutoff=1e-12):
                coarse = theta3_two(a, b, q)
        assert used() == _kernel_stop(a, b, q, False, cutoff=1e-12) < needed
        assert abs(coarse - want) <= 1e-12 * max(1.0, abs(want))


def _oracle_theta_two(a, b, q, alternating, dps=30):
    """Bilateral sum, sum of |terms| and the terms' sensitivity to the
    rounding of their exponents, ``sum |t_m| (|a Log q| m^2 + |b Log q| |m|)``,
    at ``dps`` digits, q^s = exp(s Log q)."""
    with mp.workdps(dps):
        log_q = mp.log(mp.mpc(q))
        a, b = mp.mpc(a), mp.mpc(b)
        # |term m| = exp(Re(a log q) m^2 + Re(b log q) m) falls for |m| past the vertex
        vertex = abs(mp.re(b * log_q) / (2 * mp.re(a * log_q)))
        total, abs_total, sensitivity, n = mp.mpc(0), mp.mpf(0), mp.mpf(0), 0
        while True:
            largest = mp.mpf(0)
            for m in (n, -n) if n else (0,):
                t = mp.exp((a * m * m + b * m) * log_q)
                if alternating and m % 2:
                    t = -t
                total += t
                abs_total += abs(t)
                sensitivity += abs(t) * (abs(a * log_q) * m * m + abs(b * log_q) * abs(m))
                largest = max(largest, abs(t))
            if n > vertex and largest < mp.mpf(10) ** -(dps + 4) * abs_total:
                return complex(total), float(abs_total), float(sensitivity)
            n += 1


def _agreed_theta_two(a, b, q, alternating):
    """``_oracle_theta_two`` at 40 digits where 80 digits confirm it to
    1e-25 relative, else ``None``."""
    lo = _oracle_theta_two(a, b, q, alternating, dps=40)
    hi = _oracle_theta_two(a, b, q, alternating, dps=80)
    if abs(lo[0] - hi[0]) > 1e-25 * abs(hi[0]):
        return None
    return hi


def test_theta_two_against_mpmath_over_the_disk():
    # bound fixed before the running products were written; the per-term
    # sum reached 2.1e-14 at q = -0.95, a = 1, b = 0.4i
    for q in _SHALLOW_NOMES + _DEEP_NOMES:
        for a, b in _AB:
            for f, alternating in ((theta3_two, False), (theta4_two, True)):
                want, abs_total, _ = _oracle_theta_two(a, b, q, alternating)
                assert abs(f(a, b, q) - want) <= 1e-14 * (1.0 + abs_total), (q, a, b, alternating)


def test_reduced_theta_two_against_mpmath_over_seeded_points():
    # the reduced path (|q^a| > e^(-pi/2)) at seeded real and complex nomes up
    # to |q| = 0.95, with real, complex and Fourier-argument b = 2 i t / Log q;
    # references where 40 and 80 digits agree (mpmath's own sums can cancel).
    # The bound above plus one unit roundoff of the terms' sensitivity to
    # their exponents a Log q and b Log q, whose rounding no summation undoes:
    # at q = -0.944, a = 1.38, b = -0.92 + 0.47i the terms peak near n = -9
    # and theta3_two is 1.8e-14 (1 + sum |T|) off (2.1e-14 summed directly)
    rng = random.Random(2032)
    checked = 0
    for i in range(120):
        r = rng.uniform(0.25, 0.95)
        q = (r, -r, r * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))[i % 3]
        a = rng.uniform(0.5, 2.0)
        b = (rng.uniform(-2.0, 2.0) * a, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
             2j * rng.uniform(0.0, 1.0) / cmath.log(q), 0.0)[i % 4]
        if _direct(a, q):
            continue
        for f, alternating in ((theta3_two, False), (theta4_two, True)):
            ref = _agreed_theta_two(a, b, q, alternating)
            if ref is None:
                continue
            checked += 1
            want, abs_total, sensitivity = ref
            bound = 1e-14 * (1.0 + abs_total) + 2.0**-53 * sensitivity
            assert abs(f(a, b, q) - want) <= bound, (q, a, b, alternating)
    assert checked >= 200


@pytest.mark.parametrize("a, b", [(1, 0), (0.5, 0.25)])
def test_deep_alternating_sums_are_relatively_accurate(a, b):
    # summed directly, theta4_two(1, 0, 0.9) = 7.4e-10 was 4.0e-7 off and
    # theta4_two(0.5, 0.25, 0.9) = 5.0e-20 came out as 0
    want = _agreed_theta_two(a, b, 0.9, True)[0]
    assert abs(theta4_two(a, b, 0.9) - want) <= 1e-14 * abs(want)


def test_real_sums_are_exactly_real():
    # real a, b and q > 0, or q < 0 with a +- b integers: every term is real,
    # and so is the result, on the direct and on the reduced path
    for q in (0.05, 0.3, 0.5, 0.9, 0.99):
        for a, b in ((1, 0), (1, 0.4), (2.5, -1.5), (0.5, 0.25)):
            for f in (theta3_two, theta4_two):
                assert f(a, b, q).imag == 0.0, (f, a, b, q)
    for q in (-0.05, -0.5, -0.9):
        for a, b in ((1, 0), (1, 1), (2, -1), (3, 2)):
            for f in (theta3_two, theta4_two):
                assert f(a, b, q).imag == 0.0, (f, a, b, q)


@pytest.mark.parametrize("q", [0.05, 0.9])
def test_theta_two_takes_three_powers_per_call(monkeypatch, q):
    # the direct sum, which runs where |q^a| <= e^(-pi/2): 0.9^16 = 0.185; a
    # cold plan forms q^(2a), then each call its ratios q^(a +- b), so a call
    # on a kept plan (theta3 and theta4 share it, at any b) takes two powers
    a = 2.5 if q < 0.5 else 16.0
    assert _direct(a, q)
    calls = []

    def counting_power(w, s):
        calls.append(s)
        return principal_power(w, s)

    monkeypatch.setattr(thetagen, "principal_power", counting_power)
    for f in (theta3_two, theta4_two):
        _cold()
        calls.clear()
        f(a, 1.5, q)
        assert calls == [a, a + 1.5, a - 1.5]
        for g, b in ((f, 1.5), (theta3_two, 0.5), (theta4_two, -0.25)):
            calls.clear()
            g(a, b, q)
            assert calls == [a + b, a - b], (g, b)


class _CountingCmath:
    """``cmath`` with its ``exp`` calls counted."""

    def __init__(self):
        self.exp_calls = 0

    def __getattr__(self, name):
        return getattr(cmath, name)

    def exp(self, z):
        self.exp_calls += 1
        return cmath.exp(z)


@pytest.mark.parametrize("q", [0.9, 0.5, -0.7, 0.6 + 0.3j, 0.95j])
def test_reduced_theta_two_forms_no_per_term_power(monkeypatch, q):
    # the reduced sum takes its ratios e^(A' +- B') and e^(2 A') and the
    # transformation's factor as four exponentials on a cold plan, however many
    # terms it sums; e^(2 A') is the path's, which that call walks and keeps,
    # so every later call at the nome (theta3 and theta4 share it, at any b)
    # replays it and takes three, and none writes it
    calls = []

    def counting_power(w, s):
        calls.append(s)
        return principal_power(w, s)

    counting_cmath = _CountingCmath()
    monkeypatch.setattr(thetagen, "principal_power", counting_power)
    monkeypatch.setattr(thetagen, "cmath", counting_cmath)
    for f in (theta3_two, theta4_two):
        for a, b in ((1, 0), (1, 0.4), (0.7, -1.1), (1, 0.4j)):
            assert not _direct(a, q)
            _cold()
            kept = None
            for g, b2, exps in ((f, b, 4), (f, b, 3), (f, b, 3), (theta3_two, 2 * b + 0.1, 3), (theta4_two, -b, 3)):
                counting_cmath.exp_calls = 0
                g(a, b2, q)
                assert calls == [] and counting_cmath.exp_calls == exps, (g, a, b2)
                kept = kept or thetagen._plans[0][5]
            assert thetagen._plans[0][5] is kept  # the first call's path, never replaced


def _gaussian_sum_mp(A, B):
    """``sum_n e^(A n^2 + B n)`` at the working precision, with its condition
    number ``sum |t_n| (|A| n^2 + |B| |n|) / |sum t_n|`` under relative
    perturbations of ``A`` and ``B``."""
    A, B = mp.mpc(A), mp.mpc(B)
    vertex = int(abs(mp.re(B) / (2 * mp.re(A)))) + 1
    width = vertex + int(mp.sqrt(100 / -mp.re(A))) + 2
    ns = range(-width, width + 1)
    terms = [mp.exp(A * n * n + B * n) for n in ns]
    total = mp.fsum(terms)
    kappa = mp.fsum(abs(t) * (abs(A) * n * n + abs(B) * abs(n)) for t, n in zip(terms, ns))
    return total, float(kappa / abs(total))


def test_reduction_lands_in_the_fundamental_domain_and_keeps_the_sum():
    # sum e^(A n^2 + B n) = f sum e^(A' n^2 + B' n), |Re tau'| <= 1/2,
    # |tau'| >= 1 (to the kernel's margin), |Re B'| <= |Re A'|, |Im B'| <= pi;
    # the identity holds to 4 units of roundoff times the sum's condition
    # number plus the size of log f (over 400 draws the worst was 0.58)
    rng = random.Random(2031)
    for _ in range(60):
        A = complex(rng.uniform(-1.5, -0.01), rng.uniform(-20.0, 20.0))
        B = complex(rng.uniform(-30.0, 30.0), rng.uniform(-30.0, 30.0))
        A2, _, B2, log_f = thetagen._reduce(thetagen._walk(A, False), B, False)
        tau = A2 / (1j * math.pi)
        assert abs(tau.real) <= 0.5 and abs(tau) >= 0.999 and tau.imag > 0.8, (A, B)
        assert abs(B2.real) <= abs(A2.real) and abs(B2.imag) <= math.pi, (A, B)
        with mp.workdps(40):
            want, kappa = _gaussian_sum_mp(A, B)
            got = mp.exp(mp.mpc(log_f)) * _gaussian_sum_mp(A2, B2)[0]
            assert abs(got - want) <= 4 * 2.0**-53 * (1 + abs(log_f) + kappa) * abs(want), (A, B)


# ---------------------------------------------------------------------------
# agile products
# ---------------------------------------------------------------------------


def test_agile_empty_product():
    assert_close(agile_minus(1.0, 3.0, 0.0), 1.0, rtol=1e-15)
    assert_close(agile_plus(1.0, 3.0, 0.0), 1.0, rtol=1e-15)


def test_agile_sign_split():
    # [a,p;q]^- [a,p;q]^+ = [2a,2p;q]^- = [a,p;q^2]^-
    a, p, q = 1.0, 3.0, 0.2
    prod = agile_minus(a, p, q) * agile_plus(a, p, q)
    assert abs(prod - agile_minus(2 * a, 2 * p, q)) <= 1e-12
    assert abs(prod - agile_minus(a, p, q * q)) <= 1e-12


def test_agile_ratio_is_theta_ratio():
    # [a,p;q]^-/[a,p;q]^+ = theta4(p/2,(p-2a)/2)/theta3(p/2,(p-2a)/2)
    a, p, q = 1.0, 4.0, 0.2
    lhs = agile_minus(a, p, q) / agile_plus(a, p, q)
    rhs = theta4_two(p / 2.0, (p - 2.0 * a) / 2.0, q) / theta3_two(
        p / 2.0, (p - 2.0 * a) / 2.0, q
    )
    assert abs(lhs - rhs) <= 1e-11


def test_agile_squaring_laws():
    # [a,p;q^2]^- = (theta3/theta4) ([a,p;q]^-)^2
    #             = (theta4/theta3) ([a,p;q]^+)^2
    for a, p in ((1.0, 3.0), (2.0, 5.0)):
        for q in (0.1, 0.2):
            b1, b2 = p / 2.0, (p - 2.0 * a) / 2.0
            ratio = theta3_two(b1, b2, q) / theta4_two(b1, b2, q)
            lhs = agile_minus(a, p, q * q)
            assert abs(lhs - ratio * agile_minus(a, p, q) ** 2) <= 1e-10
            assert abs(lhs - agile_plus(a, p, q) ** 2 / ratio) <= 1e-10


def test_agile_eta_normalizations():
    # [a,p;q]^+ = theta3(p/2,(p-2a)/2)/f(q^p), minus companion via theta4
    a, p, q = 1.0, 3.0, 0.15
    f = euler_product(q**p)
    assert abs(agile_plus(a, p, q) - theta3_two(p / 2.0, (p - 2.0 * a) / 2.0, q) / f) <= 1e-10
    assert abs(agile_minus(a, p, q) - theta4_two(p / 2.0, (p - 2.0 * a) / 2.0, q) / f) <= 1e-10


@pytest.mark.parametrize("fn, a, p, q", [(agile_plus, -50, 2, 0.999), (agile_plus, 50, 2, -0.999),
                                         (agile_minus, 1, 2, -0.999)])
def test_agile_brackets_refuse_a_product_past_the_double_range(fn, a, p, q):
    # each q-Pochhammer factor is finite; their product is not, and is refused
    # by the bracket's name rather than returned as inf
    with pytest.raises(OverflowError, match=rf"^{fn.__name__}\({a}, {p}, {q}\) is \(inf\+0j\)$"):
        fn(a, p, q)


# ---------------------------------------------------------------------------
# cayley transform and the theta quotient for U
# ---------------------------------------------------------------------------


def test_cayley_values():
    assert cayley(0.0) == 1.0 + 0.0j
    assert_close(cayley(-1.0), 0.0, atol=1e-15)
    with pytest.raises(PoleError):
        cayley(1.0)


def test_cayley_U_theta_quotient():
    # -1 + 2/(1 - U(q^{k+h}, -q^{k-h}; q^{2k})) = theta3(k,h;q)/theta4(k,h;q)
    k, h, q = 2.0, 1.0, 0.2
    lhs = cayley(u_product(q ** (k + h), -(q ** (k - h)), q ** (2 * k)))
    rhs = theta3_two(k, h, q) / theta4_two(k, h, q)
    assert abs(lhs - rhs) <= 1e-9


def test_cayley_U_square_splits_into_u0_factors():
    # cayley(U(q^a, -q^b; q^p))^2 = P(q^a) P(q^b) over the nome q^p
    a, b, p, q = 1.0, 2.0, 5.0, 0.2
    lhs = cayley(u_product(q**a, -(q**b), q**p)) ** 2
    rhs = cayley_u0_product(q**a, q**p) * cayley_u0_product(q**b, q**p)
    assert abs(lhs - rhs) <= 1e-10


# ---------------------------------------------------------------------------
# Rogers-Ramanujan chain
# ---------------------------------------------------------------------------


def test_G_and_H_are_agile_reciprocals():
    for q in (0.05, 0.1):
        assert abs(rr_G(q) - 1.0 / agile_minus(1, 5, q)) <= 1e-11
        assert abs(rr_H(q) - 1.0 / agile_minus(2, 5, q)) <= 1e-11


@pytest.mark.parametrize("q", [0.99, 0.998, 0.999])
def test_G_and_H_near_one_carry_the_ratio_term(q):
    # q^(n^2) and (q; q)_n underflow on their own near q = 1 (G(0.999) is
    # 3.5e285).  Against a 40-digit sum the series are within 3.6e-14; the
    # agile products (about 8,400 factors of q^5 each) are within 2.3e-12, hence
    # the bound of 5e-12 relative.
    for series, a in ((rr_G, 1), (rr_H, 2)):
        want = 1.0 / agile_minus(a, 5, q)
        assert abs(series(q) - want) <= 5e-12 * abs(want)


def test_H_small_nome_limit():
    # the n = 0 term is included, so H(0+) = 1
    assert_close(rr_H(1e-10), 1.0, rtol=1e-9)


def test_cf_equals_product_equals_sum():
    for q in (0.05, 0.2):
        cf = rr_cf(q)
        assert abs(cf - rr_product(q)) <= 1e-11
        assert abs(cf - rr_sum(q)) <= 1e-11


@pytest.mark.parametrize("fn", [rr_G, rr_H, rr_cf])
@pytest.mark.parametrize("q", [1.0, -1.0, 1.5, 1.0000001, math.nan])
def test_rogers_ramanujan_evaluators_refuse_q_off_the_disk(fn, q):
    # off the disk the sums divide by 1 - q^n = 0 (q = +-1) and the fraction
    # can settle on a wrong value (0.618 at q = 1.0000001)
    with pytest.raises(ValueError, match=r"requires \|q\| < 1"):
        fn(q)


def test_cf_golden_point():
    assert_close(rr_cf(0.05), 0.5231861892435733, rtol=1e-12)


def test_G_H_squaring_laws():
    # G(q^2) = (theta4(5/2,3/2)/theta3(5/2,3/2)) G(q)^2, H likewise at b=1/2
    q = 0.15
    gl = theta4_two(2.5, 1.5, q) / theta3_two(2.5, 1.5, q)
    assert abs(rr_G(q * q) - gl * rr_G(q) ** 2) <= 1e-9
    hl = theta4_two(2.5, 0.5, q) / theta3_two(2.5, 0.5, q)
    assert abs(rr_H(q * q) - hl * rr_H(q) ** 2) <= 1e-9


def test_theta_quotient_measures_cf_doubling():
    # theta3(5/2,3/2)/theta3(5/2,1/2) = q^{-1/5} R(q^2)/R(q)
    for q in (0.1, 0.15):
        lhs = theta3_two(2.5, 1.5, q) / theta3_two(2.5, 0.5, q)
        rhs = q ** (-0.2) * rr_cf(q * q) / rr_cf(q)
        assert abs(lhs - rhs) <= 1e-9


def test_ramanujan_quantity_trivial_diagonal():
    assert_close(ramanujan_quantity(1, 1, 5, 0.15), 1.0, rtol=1e-14)


def test_ramanujan_quantity_negated_nome_theta3():
    # R(a,b,p;-q) = theta3-quotient at odd a,b and even p
    a, b, p, q = 1.0, 3.0, 6.0, 0.2
    lhs = ramanujan_quantity(a, b, p, -q)
    rhs = theta3_two(p / 2.0, (p - 2.0 * a) / 2.0, q) / theta3_two(
        p / 2.0, (p - 2.0 * b) / 2.0, q
    )
    assert abs(lhs - rhs) <= 1e-9


def test_ramanujan_quantity_theta4_form():
    # R(a,b,p;q) = theta4-quotient under the same parity demands
    a, b, p, q = 1.0, 3.0, 6.0, 0.2
    lhs = ramanujan_quantity(a, b, p, q)
    rhs = theta4_two(p / 2.0, (p - 2.0 * a) / 2.0, q) / theta4_two(
        p / 2.0, (p - 2.0 * b) / 2.0, q
    )
    assert abs(lhs - rhs) <= 1e-9


def test_ramanujan_quantity_nome_splitting():
    # R(a,b,p;q^2) = R(a,b,p;q) R(a,b,p;-q)
    a, b, p, q = 1.0, 3.0, 6.0, 0.2
    lhs = ramanujan_quantity(a, b, p, q * q)
    rhs = ramanujan_quantity(a, b, p, q) * ramanujan_quantity(a, b, p, -q)
    assert abs(lhs - rhs) <= 1e-9


# ---------------------------------------------------------------------------
# restricted divisor-sum logarithms
# ---------------------------------------------------------------------------


def brute_restricted_log(q, p, residues, *, odd_only=True, x=1.0, nmax=120):
    res_list = [r % p for r in residues]
    total = 0.0
    for A in range(1, nmax + 1):
        if odd_only and A % 2 == 0:
            continue
        for B in range(1, nmax // A + 1):
            count = res_list.count(B % p)
            if not count:
                continue
            total += count * x**A / A * q ** (A * B)
    return total


def test_restricted_log_matches_brute_force():
    q = 0.2
    for kwargs in (
        dict(p=2, residues=[1]),
        dict(p=5, residues=[1, 4]),
        dict(p=2, residues=[1, 1], odd_only=False),
        dict(p=3, residues=[1], odd_only=False, x=-1.0),
        dict(p=4, residues=[1], x=0.7),
    ):
        got = restricted_divisor_log(q, **kwargs)
        want = brute_restricted_log(q, **kwargs)
        assert abs(got - want) <= 1e-12


def test_theta_ratio_log_series():
    # log(theta3/theta4) = 2 sum q^n sum_{AB=n, A odd, B=+-a (p)} 1/A
    a, p, q = 1.0, 4.0, 0.2
    b1, b2 = p / 2.0, (p - 2.0 * a) / 2.0
    lhs = cmath.log(theta3_two(b1, b2, q)) - cmath.log(theta4_two(b1, b2, q))
    rhs = 2.0 * restricted_divisor_log(q, int(p), [1, 3])
    assert abs(lhs - rhs) <= 1e-10


def test_agile_log_series_exponentiated():
    # [a,p;q]^- = exp(-sum q^n sum_{AB=n, B=+-a (p)} 1/A), all A
    a, p, q = 1.0, 3.0, 0.2
    want = cmath.exp(-restricted_divisor_log(q, int(p), [1, 2], odd_only=False))
    assert abs(agile_minus(a, p, q) - want) <= 1e-10


def test_agile_plus_log_series_exponentiated():
    # [a,p;q]^+ = exp(-sum q^n sum (-1)^A/A) over the same residue pairs
    a, p, q = 1.0, 3.0, 0.2
    want = cmath.exp(
        -restricted_divisor_log(q, int(p), [1, 2], odd_only=False, x=-1.0)
    )
    assert abs(agile_plus(a, p, q) - want) <= 1e-10


def test_theta3_log_series_exponentiated():
    # theta3(p/2, p/2-a) = f(q^p) exp(-alternating unrestricted-parity series)
    a, p, q = 1.0, 4.0, 0.2
    want = euler_product(q ** int(p)) * cmath.exp(
        -restricted_divisor_log(q, int(p), [1, 3], odd_only=False, x=-1.0)
    )
    assert abs(theta3_two(p / 2.0, p / 2.0 - a, q) - want) <= 1e-10


def test_symmetric_cayley_log_series_exponentiated():
    # cayley(U(w, -w; q^p)) = exp(4 sum q^n sum_{AB=n, A odd, B=a (p)} 1/A)
    a, p, q = 1.0, 3.0, 0.2
    w = q**a
    lhs = cayley(u_product(w, -w, q ** int(p)))
    want = cmath.exp(4.0 * restricted_divisor_log(q, int(p), [1]))
    assert abs(lhs - want) <= 1e-10


def test_pochhammer_log_series_exponentiated():
    # (+-q^a; q^p) = exp(-restricted series), alternating for the + sign
    a, p, q = 1.0, 3.0, 0.2
    got_plus = qpochhammer(q**a, q ** int(p))
    want_plus = cmath.exp(-restricted_divisor_log(q, int(p), [1], odd_only=False))
    assert abs(got_plus - want_plus) <= 1e-10
    got_minus = qpochhammer(-(q**a), q ** int(p))
    want_minus = cmath.exp(
        -restricted_divisor_log(q, int(p), [1], odd_only=False, x=-1.0)
    )
    assert abs(got_minus - want_minus) <= 1e-10


def test_pochhammer_ratio_log_series():
    # log((-w; q^p)/(w; q^p)) = 2 sum q^n sum_{AB=n, A odd, B=a (p)} w-powers
    a, p, q, x = 1.0, 3.0, 0.2, 0.6
    w = x * q**a
    lhs = cmath.log(qpochhammer(-w, q ** int(p)) / qpochhammer(w, q ** int(p)))
    rhs = 2.0 * restricted_divisor_log(q, int(p), [1], x=x)
    assert abs(lhs - rhs) <= 1e-10


def test_two_sided_residue_split():
    # log cayley(U(q^a, -q^{p-a}; q^p)) counts classes a and p-a as a multiset
    a, p, q = 1.0, 2.0, 0.2
    lhs = cmath.log(cayley(u_product(q**a, -(q ** (p - a)), q ** int(p))))
    rhs = 2.0 * restricted_divisor_log(q, int(p), [1, 1])
    assert abs(lhs - rhs) <= 1e-9


def test_coincident_classes_count_twice():
    # at 2a = p the classes a and p - a of the brackets and of the theta3/theta4
    # quotient are one class, which counts twice
    a, p, q = 1, 2, 0.2
    b1, b2 = p / 2.0, (p - 2.0 * a) / 2.0
    for lhs, rhs in (
        (cmath.log(agile_minus(a, p, q)), -restricted_divisor_log(q, p, [1, 1], odd_only=False)),
        (cmath.log(agile_plus(a, p, q)), -restricted_divisor_log(q, p, [1, 1], odd_only=False, x=-1.0)),
        (cmath.log(theta3_two(b1, b2, q) / theta4_two(b1, b2, q)), 2.0 * restricted_divisor_log(q, p, [1, 1])),
    ):
        assert abs(lhs - rhs) <= 1e-14 * abs(lhs)


def test_restricted_log_has_one_counting_rule():
    with pytest.raises(TypeError):
        restricted_divisor_log(0.2, 2, [1, 1], multiset=True)


def test_epsilon_sign_law():
    # log cayley(U(q^a, eps q^b; q^p)) = 2 S_a - 2 eps S_b
    a, b, p, q = 1.0, 2.0, 5.0, 0.15
    for eps in (1.0, -1.0):
        lhs = cmath.log(cayley(u_product(q**a, eps * q**b, q ** int(p))))
        rhs = 2.0 * restricted_divisor_log(q, int(p), [1]) - 2.0 * eps * (
            restricted_divisor_log(q, int(p), [2])
        )
        assert abs(lhs - rhs) <= 1e-10


def test_epsilon_complementary_combination():
    # the (a,b) and (p-a,p-b) contributions combine into theta-ratio logs
    a, b, p, q = 1.0, 2.0, 5.0, 0.15

    def theta_ratio_log(cc):
        b1, b2 = p / 2.0, (p - 2.0 * cc) / 2.0
        return cmath.log(theta3_two(b1, b2, q) / theta4_two(b1, b2, q))

    for eps in (1.0, -1.0):
        lhs = cmath.log(cayley(u_product(q**a, eps * q**b, q**p))) + cmath.log(
            cayley(u_product(q ** (p - a), eps * q ** (p - b), q**p))
        )
        rhs = theta_ratio_log(a) - eps * theta_ratio_log(b)
        assert abs(lhs - rhs) <= 1e-9


def test_scaled_arguments_log_series():
    # log cayley(U(x q^a, -y q^b; q^p)) = 2 S_a(x) + 2 S_b(y)
    a, b, p, q = 1.0, 2.0, 3.0, 0.2
    x, y = 0.5, 0.3
    lhs = cmath.log(cayley(u_product(x * q**a, -y * q**b, q ** int(p))))
    rhs = 2.0 * restricted_divisor_log(q, int(p), [1], x=x) + 2.0 * (
        restricted_divisor_log(q, int(p), [2], x=y)
    )
    assert abs(lhs - rhs) <= 1e-9


def test_unrestricted_odd_lambert_form():
    # log cayley(U(x q, y q; q)) = 2 L(x q) - 2 L(y q),
    # L(z) = sum z^{2n+1}/((2n+1)(1 - q^{2n+1}))
    for x, y, q in ((0.4, 0.2, 0.25), (0.1, 0.7, 0.3)):
        lhs = cmath.log(cayley(u_product(x * q, y * q, q)))
        rhs = 2.0 * odd_lambert(x * q, q) - 2.0 * odd_lambert(y * q, q)
        assert abs(lhs - rhs) <= 1e-9


def test_odd_lambert_charges_a_spent_cap():
    # |0.99 (0.9)^n| > 1/8 for n < 20: a cap of 3 ends the atanh terms
    with truncation(max_terms=3), term_counter() as used:
        with pytest.raises(NonConvergenceError, match="within 3 terms"):
            odd_lambert(0.99, 0.9)
        assert used() == 3


@pytest.mark.parametrize("z, Q", [
    (1.0, 0.3), (0.6 + 0.8j, 0.3), (0.5, 1.5), (0.5, -1.0), (0.5, 0.99 + 0.2j),
    (math.nan, 0.3), (0.5, math.nan), (complex(0.2, math.nan), 0.3),
])
def test_odd_lambert_refuses_outside_the_disk_by_name(z, Q):
    # |z| >= 1, |Q| >= 1 or NaN: a ValueError naming both
    with pytest.raises(ValueError, match=r"^odd Lambert sum needs \|z\| < 1 and \|Q\| < 1, "
                                         r"got z = .*, Q = "):
        odd_lambert(z, Q)


@pytest.mark.parametrize("A, q", [
    (0.5, 2.0), (1.0, 0.3), (0.6 + 0.8j, 0.3), (0.5, -1.0), (4.0 + 0j, 0.5 + 0j),
    (math.nan, 0.3), (0.5, math.nan), (complex(0.2, math.nan), 0.3),
])
def test_odd_ratio_sum_refuses_outside_the_disk_by_name(A, q):
    # |A| >= 1, |q| >= 1 or NaN: a ValueError naming both, where (0.5, 2.0)
    # summed to a value and (4, 0.5), angle_derivative(0.5, -2)'s, overflowed
    with pytest.raises(ValueError, match=r"^odd ratio sum needs \|A\| < 1 and \|q\| < 1, "
                                         r"got A = .*, q = "):
        odd_ratio_sum(A, q)


# ---------------------------------------------------------------------------
# the odd sum: theta1's fold
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", _SHALLOW_NOMES + _DEEP_NOMES)
def test_theta1_two_matches_jtheta(q):
    # theta1(w | q) = -i q^(1/4) theta1_two(1, 2 i w / Log q, q); the odd fold
    # keeps the relative accuracy down to w = 1e-13, where the pair n, -1-n
    # of the bilateral sum cancels to ~w
    log_q = cmath.log(q)
    for w in (1e-13, 1e-6, 0.3, 1.2, 0.3 + 0.4j, 2.0 - 1.1j):
        got = -1j * cmath.exp(log_q / 4) * thetagen.theta1_two(1, 2j * w / log_q, q)
        with mp.workdps(120):
            want = mp.jtheta(1, mp.mpc(w), mp.mpc(q))
            assert abs(mp.mpc(got) - want) <= 1e-13 * abs(want), w


def test_theta1_two_is_odd_in_b():
    for q in (0.05, 0.5, -0.9, 0.3j):
        for b in (0.4, 0.3 + 0.2j, 1e-9j):
            assert thetagen.theta1_two(1, -b, q) == pytest.approx(-thetagen.theta1_two(1, b, q), rel=1e-14)
        assert thetagen.theta1_two(1, 0, q) == 0
    with pytest.raises(ValueError, match=r"theta1_two requires 0 < \|q\^a\| < 1"):
        thetagen.theta1_two(1, 0.5, 0)
