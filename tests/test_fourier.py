"""Trigonometric q-series for the elliptic ratios and their transformations.

Every grid invariant runs over nomes {0.03, 0.08, e^{-pi}} and five interior
points of the convergence strip, at tolerance 1e-9 unless stated otherwise.
"""

import cmath
import math

import mpmath
import pytest
from assertions import assert_close

from qelliptic.elliptic import EllipticContext
from qelliptic.fourier import (
    FOURIER_TABLE,
    cd1_halfplane,
    eval_fourier,
    in_strip,
    jacobi_cd,
    jacobi_cn,
    jacobi_dn,
    jacobi_nd,
    jacobi_sd,
    jacobi_sn,
)
from qelliptic.numutil import PoleError, complex_quad, principal_power, sum_series, term_counter
from qelliptic.thetagen import odd_ratio_sum

PI = math.pi
Q_GRID = (0.03, 0.08, math.exp(-PI))
X_GRID = (0.12, 0.31, 0.50, 0.68, 0.87)  # in units of K, clear of 0 and K


def ctx(q):
    return EllipticContext.from_nome(q)


def neg_ctx(q):
    return EllipticContext.from_nome(complex(-q, 0.0))


def u_points(c):
    return [x * c.K.real for x in X_GRID]


# ---------------------------------------------------------------------------
# trivial values and cross-checks
# ---------------------------------------------------------------------------


def test_values_at_zero_argument():
    c = ctx(0.05)
    assert abs(jacobi_sn(c, 0.0)) <= 1e-15
    assert_close(jacobi_cn(c, 0.0), 1.0, rtol=1e-12)
    assert_close(jacobi_dn(c, 0.0), 1.0, rtol=1e-12)
    assert_close(jacobi_cd(c, 0.0), 1.0, rtol=1e-12)
    assert_close(eval_fourier("cd1", c, 0.0), 1.0, rtol=1e-10)


def test_cn_matches_brute_force_sum():
    c = ctx(0.05)
    u = 0.4
    q, w = c.q.real, (PI * u / (2.0 * c.K)).real
    direct = (
        2.0
        * PI
        / (c.K * c.k)
        * sum(
            math.sqrt(q) * q**n * math.cos((2 * n + 1) * w) / (1.0 + q ** (2 * n + 1))
            for n in range(500)
        )
    )
    assert abs(jacobi_cn(c, u) - direct) <= 1e-13


def test_matches_mpmath_ellipfun():
    for q in Q_GRID:
        c = ctx(q)
        m = (c.k**2).real
        for u in u_points(c):
            sn, cn, dn = (float(mpmath.ellipfun(kind, u, m=m)) for kind in ("sn", "cn", "dn"))
            assert abs(jacobi_sn(c, u) - sn) <= 1e-9
            assert abs(jacobi_cn(c, u) - cn) <= 1e-9
            assert abs(jacobi_dn(c, u) - dn) <= 1e-9


def test_pythagorean_relations():
    for q in Q_GRID:
        c = ctx(q)
        for u in u_points(c):
            sn, cn, dn = jacobi_sn(c, u), jacobi_cn(c, u), jacobi_dn(c, u)
            assert abs(sn * sn + cn * cn - 1.0) <= 1e-10
            assert abs(dn * dn + (c.k * sn) ** 2 - 1.0) <= 1e-10


def test_nd_is_reciprocal_dn():
    c = ctx(0.05)
    assert abs(jacobi_nd(c, 0.3) - 1.0 / jacobi_dn(c, 0.3)) <= 1e-12


# ---------------------------------------------------------------------------
# negated-nome transformations
# ---------------------------------------------------------------------------


def test_sn_negated_nome():
    # sn(-q, u) = k' sd(q, u/k')
    for q in Q_GRID:
        c, s = ctx(q), neg_ctx(q)
        kp = c.kprime.real
        for u in u_points(c):
            assert abs(jacobi_sn(s, u) - kp * jacobi_sd(c, u / kp)) <= 1e-9


def test_cn_negated_nome():
    # cn(-q, u) = cd(q, u/k')
    for q in Q_GRID:
        c, s = ctx(q), neg_ctx(q)
        kp = c.kprime.real
        for u in u_points(c):
            assert abs(jacobi_cn(s, u) - jacobi_cd(c, u / kp)) <= 1e-9


def test_cn1_negated_nome():
    # cn1(-q, u) = cd1(q, u/k')
    for q in Q_GRID:
        c, s = ctx(q), neg_ctx(q)
        kp = c.kprime.real
        for u in u_points(c):
            got = eval_fourier("cn1", s, u)
            want = eval_fourier("cd1", c, u / kp)
            assert abs(got - want) <= 1e-9


def test_cd_negated_nome():
    # cd(-q, u) = cn(q, u/k')
    for q in Q_GRID:
        c, s = ctx(q), neg_ctx(q)
        kp = c.kprime.real
        for u in u_points(c):
            assert abs(jacobi_cd(s, u) - jacobi_cn(c, u / kp)) <= 1e-9


# ---------------------------------------------------------------------------
# the ss expansion against its two decompositions
# ---------------------------------------------------------------------------


def test_ss_decomposition():
    # ss = cn cot(pi u/K) - cn1 csc(pi u/K)
    for q in Q_GRID:
        c = ctx(q)
        for u in u_points(c):
            w2 = PI * u / c.K.real
            want = jacobi_cn(c, u) / math.tan(w2) - eval_fourier(
                "cn1", c, u
            ) / math.sin(w2)
            assert abs(eval_fourier("ss", c, u) - want) <= 1e-9


def test_ss_negated_nome_decomposition():
    # ss(-q, u) = cd(q, u/k') cot(pi u/(k' K)) - cd1(q, u/k') csc(pi u/(k' K))
    for q in Q_GRID:
        c, s = ctx(q), neg_ctx(q)
        kp = c.kprime.real
        for u in u_points(c):
            arg = PI * u / (kp * c.K.real)
            want = jacobi_cd(c, u / kp) / cmath.tan(arg) - eval_fourier(
                "cd1", c, u / kp
            ) / cmath.sin(arg)
            assert abs(eval_fourier("ss", s, u) - want) <= 1e-9


def test_ss_mixed_nome_decomposition():
    # ss(q, u) = cd(-q, k'u) cot(pi u/K) - cd1(-q, k'u) csc(pi u/K)
    for q in Q_GRID:
        c, s = ctx(q), neg_ctx(q)
        kp = c.kprime.real
        for u in u_points(c):
            arg = PI * u / c.K.real
            want = jacobi_cd(s, kp * u) / cmath.tan(arg) - eval_fourier(
                "cd1", s, kp * u
            ) / cmath.sin(arg)
            assert abs(eval_fourier("ss", c, u) - want) <= 1e-9


# ---------------------------------------------------------------------------
# quarter- and half-period shifts
# ---------------------------------------------------------------------------


def test_quarter_period_shifts():
    # cd(w+K) = -sn(w); cn(w+K) = -k' sn/dn; dn(w+K) = k'/dn
    for q in Q_GRID:
        c = ctx(q)
        kp = c.kprime.real
        for w in u_points(c):
            u = w + c.K.real
            assert abs(jacobi_cd(c, u) + jacobi_sn(c, w)) <= 1e-9
            assert abs(
                jacobi_cn(c, u) + kp * jacobi_sn(c, w) / jacobi_dn(c, w)
            ) <= 1e-9
            assert abs(jacobi_dn(c, u) - kp / jacobi_dn(c, w)) <= 1e-9


def test_half_period_antisymmetry():
    # sn(w+2K) = -sn(w); cd1(u+2K) = -cd1(u)
    for q in Q_GRID:
        c = ctx(q)
        for w in u_points(c):
            assert abs(jacobi_sn(c, w + 2.0 * c.K.real) + jacobi_sn(c, w)) <= 1e-9
            got = eval_fourier("cd1", c, w + 2.0 * c.K.real)
            assert abs(got + eval_fourier("cd1", c, w)) <= 1e-9


def test_special_values_at_quarter_K():
    # cn(K/2) = sqrt(k'/(1+k')), dn(K/2) = sqrt(k'), cd(K/2) = 1/sqrt(1+k')
    c = ctx(math.exp(-PI))
    u = c.K.real / 2.0
    kp = c.kprime.real
    assert abs(jacobi_dn(c, u) - math.sqrt(kp)) <= 1e-9
    assert abs(jacobi_cn(c, u) - math.sqrt(kp / (1.0 + kp))) <= 1e-9
    assert abs(jacobi_cd(c, u) - 1.0 / math.sqrt(1.0 + kp)) <= 1e-9


def test_cd1_lattice_values():
    for q in (0.05, math.exp(-PI)):
        c = ctx(q)
        K = c.K.real
        assert abs(eval_fourier("cd1", c, K)) <= 1e-12
        assert abs(eval_fourier("cd1", c, 2.0 * K) + 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# the odd-frame power sum
# ---------------------------------------------------------------------------


def frame_A(c, u):
    return 1j * cmath.sqrt(c.q) * cmath.exp(1j * PI * u / (2.0 * c.K))


def test_odd_power_sum_decomposition():
    # (2 pi/(K k)) sum A^{2n+1}/(1-q^{2n+1})
    #   = -cd cot(pi u/K) + cd1 csc(pi u/K) + i cd
    for q in Q_GRID:
        c = ctx(q)
        for u in u_points(c):
            lhs = (
                2.0
                * PI
                / (c.K * c.k)
                * odd_ratio_sum(frame_A(c, u), c.q.real)
            )
            cd = jacobi_cd(c, u)
            cd1 = eval_fourier("cd1", c, u)
            arg = PI * u / c.K.real
            rhs = -cd / cmath.tan(arg) + cd1 / cmath.sin(arg) + 1j * cd
            assert abs(lhs - rhs) <= 1e-9


def test_odd_power_sum_complex_argument():
    c = ctx(math.exp(-PI))
    u = 0.3 * c.K.real + 0.25j * c.Kprime.real
    lhs = 2.0 * PI / (c.K * c.k) * odd_ratio_sum(frame_A(c, u), c.q.real)
    cd = jacobi_cd(c, u)
    cd1 = eval_fourier("cd1", c, u)
    rhs = -cd / cmath.tan(PI * u / c.K) + cd1 / cmath.sin(PI * u / c.K) + 1j * cd
    assert abs(lhs - rhs) <= 1e-9


def test_cd1_difference_quotient_limit():
    # cd1(q, y)/(y - K) near y = K approaches
    # 1 + (2 pi^2/(K^2 k)) sum q^{n/2}/(1 - q^n) over odd n, checked at 1e-3
    for q in Q_GRID:
        c = ctx(q)
        K = c.K.real
        want = 1.0 + 2.0 * PI**2 / (c.K**2 * c.k) * sum_series(
            lambda j: c.q.real ** (j + 0.5) / (1.0 - c.q.real ** (2 * j + 1))
        )
        for y in (K - 1e-4, K + 1e-4):
            quotient = eval_fourier("cd1", c, y) / (y - K)
            assert abs(quotient - want) <= 1e-3


# ---------------------------------------------------------------------------
# convergence strip discipline
# ---------------------------------------------------------------------------


def test_strip_predicate():
    c = ctx(0.08)
    assert in_strip(c, 0.5 * c.K.real)
    assert in_strip(c, 0.9j * c.Kprime.real)
    assert not in_strip(c, 1.1j * c.Kprime.real)


def test_outside_strip_raises():
    c = ctx(0.08)
    with pytest.raises(ValueError):
        eval_fourier("sn", c, 1.1j * c.Kprime.real)


JACOBI = (jacobi_sn, jacobi_cn, jacobi_dn, jacobi_cd, jacobi_sd, jacobi_nd)


@pytest.mark.parametrize("u", [math.nan, complex(0.4, math.nan), math.inf])
def test_non_finite_u_is_refused_on_both_routes(u):
    # one rule for u, shared by the expansions and the theta quotients
    c = ctx(0.05)
    for name in FOURIER_TABLE:
        with pytest.raises(ValueError, match=f"^{name}: u = .* is not finite$"):
            eval_fourier(name, c, u)
    for fn in JACOBI:
        with pytest.raises(ValueError, match="is not finite$"):
            fn(c, u)


def test_unresolved_u_over_K_is_refused_on_both_routes():
    # u/K ~ 5e299: a double does not resolve u modulo the periods, so the
    # expansion's value would be noise
    c = ctx(0.05)
    with pytest.raises(OverflowError, match="^ss: u/K = .* is not resolved in double precision$"):
        eval_fourier("ss", c, 1e300)
    for fn in JACOBI:
        with pytest.raises(OverflowError, match="is not resolved in double precision$"):
            fn(c, 1e300)


# ---------------------------------------------------------------------------
# beyond the strip: the theta quotients are entire in w
# ---------------------------------------------------------------------------


def test_cd_agrees_with_its_expansion_inside_the_strip():
    c = ctx(0.08)
    for u in u_points(c) + [0.3 * c.K.real + 0.6j * c.Kprime.real]:
        assert abs(jacobi_cd(c, u) - eval_fourier("cd", c, u)) <= 1e-12


def test_cd_lattice_maps():
    c = ctx(0.08)
    u = 0.37 * c.K.real
    base = jacobi_cd(c, u)
    assert abs(jacobi_cd(c, u + 2.0 * c.K.real) + base) <= 1e-9
    shifted = jacobi_cd(c, u + 1j * c.Kprime.real)
    assert abs(shifted - 1.0 / (c.k * base)) <= 1e-9


def test_cd_pole():
    c = ctx(0.08)
    with pytest.raises(PoleError):
        jacobi_cd(c, c.K.real + 1j * c.Kprime.real)


def test_cd1_halfplane_matches_series():
    c = ctx(0.05)
    assert abs(cd1_halfplane(c, 0.0) - 1.0) <= 1e-10
    assert abs(cd1_halfplane(c, 0.3) - eval_fourier("cd1", c, 0.3)) <= 1e-10


def test_cd1_halfplane_at_imaginary_quarter_period():
    # cd1(iK') = 1/(q k) - sinh(pi)(1 - pi/(2K))/k at the symmetric nome
    c = ctx(math.exp(-PI))
    q = c.q.real
    got = cd1_halfplane(c, 1j * c.Kprime.real)
    want = 1.0 / (q * c.k) - math.sinh(PI) * (1.0 - PI / (2.0 * c.K)) / c.k
    assert abs(got - want) <= 1e-8


def test_cd1_halfplane_domain():
    c = ctx(0.05)
    with pytest.raises(ValueError):
        cd1_halfplane(c, -1.2j * c.Kprime.real)


def test_cd1_halfplane_refuses_a_far_half_plane_before_e_iw():
    # |A| = |q|^(1/2) e^(-Im w) is far past 1 at u = -1000i, where e^(i w)
    # itself overflows: it read CPython's bare "math range error"
    with pytest.raises(ValueError, match=r"needs \|A\| < 1"):
        cd1_halfplane(ctx(0.05), -1000j)


@pytest.mark.parametrize("u, exc", [
    (math.inf, ValueError), (complex(0.0, math.inf), ValueError), (math.nan, ValueError),
    (1e13, OverflowError),
])
def test_cd1_halfplane_refuses_u_by_its_own_name_before_any_sum(u, exc):
    # w = pi u/(2K) by _u_to_w, the rule eval_fourier and the quotients share:
    # u = inf read "needs |A| < 1", and u = 1e13 summed D before cd refused it
    c = ctx(0.05)
    with term_counter() as used:
        with pytest.raises(exc, match=r"^cd1_halfplane: u"):
            cd1_halfplane(c, u)
    assert used() == 0


def test_cd1_outer_lattice_closed_form():
    # cd1 at 2K + 2iK': sign (-1)^{m/2} against exp/sinh closed form
    c = ctx(math.exp(-PI))
    q = c.q.real
    got = cd1_halfplane(c, 2.0 * c.K.real + 2.0j * c.Kprime.real)
    head = q**0.5 / (1.0 + q)
    rt = 2.0 * PI  # 2 pi sqrt(r) at r = 1
    want = -math.exp(rt) + math.sinh(rt) * (
        1.0 - 2.0 * PI / (c.K * c.k) * head
    )
    assert abs(got - want) <= 1e-9


# ---------------------------------------------------------------------------
# antiderivative of cd
# ---------------------------------------------------------------------------


def test_cd_antiderivative():
    # k int_0^u cd = log(nd + k sd)
    c = ctx(0.05)
    u = 0.5
    integral = complex_quad(lambda t: jacobi_cd(c, t), 0.0, u)
    want = cmath.log(jacobi_nd(c, u) + c.k * jacobi_sd(c, u)) / c.k
    assert abs(integral - want) <= 1e-9

    c1 = ctx(math.exp(-PI))
    u1 = c1.K.real / 2.0
    integral1 = complex_quad(lambda t: jacobi_cd(c1, t), 0.0, u1)
    want1 = cmath.log(jacobi_nd(c1, u1) + c1.k * jacobi_sd(c1, u1)) / c1.k
    assert abs(integral1 - want1) <= 1e-8
