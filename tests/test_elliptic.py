"""Theta nulls, AGM integrals, the elliptic context, singular moduli, alpha."""

import cmath
import math

import mpmath
import pytest
from assertions import assert_close

from qelliptic.elliptic import (
    EllipticContext,
    agm,
    dE_dk,
    dK_dk,
    dk_dq,
    ellint_E,
    ellint_K,
    modulus_from_nome,
    nome_from_r,
    singular_alpha,
    theta2,
    theta3,
    theta4,
)
from qelliptic.numutil import NonConvergenceError, PoleError, numeric_derivative, term_counter
from qelliptic.qseries import qpochhammer, euler_product
from qelliptic.registry import _eq10_1_rhs

PI = math.pi


def quad_K(k: float) -> float:
    return float(mpmath.quad(lambda t: 1 / mpmath.sqrt(1 - (k * mpmath.sin(t)) ** 2), [0, mpmath.pi / 2]))


def quad_E(k: float) -> float:
    return float(mpmath.quad(lambda t: mpmath.sqrt(1 - (k * mpmath.sin(t)) ** 2), [0, mpmath.pi / 2]))


# ---------------------------------------------------------------------------
# complete integrals by AGM
# ---------------------------------------------------------------------------


def test_K_at_zero():
    assert_close(ellint_K(0.0), PI / 2.0, rtol=1e-15)


def test_E_degenerate_endpoints():
    assert_close(ellint_E(0.0), PI / 2.0, rtol=1e-15)
    assert_close(ellint_E(1.0), 1.0, rtol=1e-12)


def test_K_matches_quadrature():
    for k in [0.1 * j for j in range(1, 10)]:
        assert abs(ellint_K(k) - quad_K(k)) <= 1e-12


def test_E_matches_quadrature():
    for k in (0.3, 0.6, 0.9):
        assert abs(ellint_E(k) - quad_E(k)) <= 1e-12


def test_registry_hypergeometric_route_matches_mpmath():
    # EQ10.1's right-hand side: K, E = (pi/2) 2F1(+-1/2, 1/2; 1; x^2)
    for x in (0.3, 0.8, 0.95):
        assert_close(_eq10_1_rhs(x, "K"), float(mpmath.ellipk(x * x)), rtol=1e-14)
        assert_close(_eq10_1_rhs(x, "E"), float(mpmath.ellipe(x * x)), rtol=1e-14)


# agm, ellint_K and ellint_E at moduli real and complex, inside and beyond
# (0, 1), and at k = 1: repr of the values before the three shared one AGM loop
_AGM_LITERALS = [
    (0.0, "(1.5707963267948966+0j)", "(1.5707963267948966+0j)"),
    (0.1, "(1.574745561517356+0j)", "(1.5668619420216683+0j)"),
    (0.5, "(1.685750354812596+0j)", "(1.4674622093394272+0j)"),
    (0.8, "(1.9953027776647299+0j)", "(1.2763499431699066+0j)"),
    (0.99, "(3.3566005233611915+0j)", "(1.0284758090288038+0j)"),
    (1.0, None, "(1+0j)"),
    (0.3 + 0.4j, "(1.5335767112151648+0.08565924129639449j)",
     "(1.6017871055114894-0.09151728599134284j)"),
    (2j, "(1.0094529099892116+0j)", "(2.6351835815956304+0j)"),
    (1.5, "(1.2064449969910587-1.2694942779633327j)",
     "(0.5590996606111507+0.7136856706979906j)"),
    (-0.7 + 0.2j, "(1.761046524329961-0.19561052272830112j)",
     "(1.3868169793360658+0.13414940760194277j)"),
]


@pytest.mark.parametrize("k, K, E", _AGM_LITERALS)
def test_complete_integrals_are_bit_identical_to_literals(k, K, E):
    if K is not None:
        assert repr(ellint_K(k)) == K
    assert repr(ellint_E(k)) == E


def test_agm_is_bit_identical_to_literals():
    assert repr(agm(1.0, 0.25)) == "(0.5607571450719007+0j)"
    assert repr(agm(1.0, 0.5 + 0.5j)) == "(0.7636581374104707+0.2855023913223095j)"
    assert repr(agm(3.0, -1.0 + 0.1j)) == "(0.7314986219273667+0.9174590519582424j)"
    assert repr(agm(2.0, 1e-8)) == "(0.15324750798153153+0j)"


@pytest.mark.parametrize("scale", [1e-200, 1e200])
@pytest.mark.parametrize("a, b", [(1.0, 2.0), (1.0, 0.5 + 0.5j), (3.0, -1.0 + 0.1j)])
def test_agm_keeps_tiny_and_huge_arguments(a, b, scale):
    # the mean is homogeneous; unscaled, a*b underflows to 0 or overflows
    with mpmath.workdps(30):
        want = complex(mpmath.agm(mpmath.mpc(a) * scale, mpmath.mpc(b) * scale))
    assert abs(agm(a * scale, b * scale) - want) <= 1e-15 * abs(want)


def test_agm_refuses_arguments_beyond_a_common_scaling():
    with pytest.raises(OverflowError, match="too far apart"):
        agm(1e-300, 1e300)


def test_agm_fixed_point_and_symmetry():
    assert_close(agm(3.0, 3.0), 3.0, rtol=1e-15)
    assert_close(agm(1.0, 0.25), agm(0.25, 1.0), rtol=1e-15)


def test_agm_zero_element_gives_a_pole_of_K():
    # a chain that reaches 0 has mean exactly 0 (a_1 = 0 for agm(1, -1))
    assert agm(1.0, 0.0) == 0
    assert agm(1.0, -1.0) == 0
    assert agm(0.0, 0.0) == 0
    for k in (1.0, -1.0, 1.0 + 0j):
        with pytest.raises(PoleError, match="singular"):
            ellint_K(k)
        # E is even in k, E(+-1) = 1
        assert ellint_E(k) == 1.0


def test_agm_refuses_a_chain_that_does_not_settle():
    with pytest.raises(NonConvergenceError, match="did not settle in 64 steps"):
        agm(math.nan, 1.0)
    with pytest.raises(NonConvergenceError):
        ellint_K(complex(0.5, math.nan))


def test_legendre_relation():
    # E K' + E' K - K K' = pi/2
    for k in (0.2, 0.5, 0.8):
        kp = math.sqrt(1.0 - k * k)
        total = (
            ellint_E(k) * ellint_K(kp)
            + ellint_E(kp) * ellint_K(k)
            - ellint_K(k) * ellint_K(kp)
        )
        assert abs(total - PI / 2.0) <= 1e-12


# ---------------------------------------------------------------------------
# theta null values
# ---------------------------------------------------------------------------


def test_theta_trivial_points():
    assert_close(theta3(0.0), 1.0, rtol=1e-15)
    assert_close(theta2(0.0), 0.0, atol=1e-15)


def test_theta3_matches_direct_sum():
    q = 0.1
    direct = 1.0 + 2.0 * sum(q ** (n * n) for n in range(1, 20))
    assert_close(theta3(q), direct, rtol=1e-14)


def test_theta4_is_theta3_at_negated_nome():
    q = 0.23
    assert_close(theta4(q), theta3(-q), rtol=1e-14)


def test_theta2_matches_direct_sum():
    q = 0.15
    direct = 2.0 * sum(q ** ((n + 0.5) ** 2) for n in range(20))
    assert_close(theta2(q), direct, rtol=1e-14)


@pytest.mark.parametrize("q", [1.0, -1.0, 1j, 1.5])
@pytest.mark.parametrize("null", [theta2, theta3, theta4])
def test_theta_nulls_refuse_nomes_off_the_disk(null, q):
    # theta4(1) and theta3(-1) divided by tau = 0, theta2(1j) and theta4(-1)
    # summed 100,000 terms before NonConvergenceError, and every null
    # overflowed at 1.5
    with term_counter() as used:
        with pytest.raises(ValueError, match=r"\|q"):
            null(q)
    assert used() == 0


@pytest.mark.parametrize("null, q", [(theta4, 0.9), (theta3, -0.9)])
def test_cancelling_null_near_one_takes_a_short_dual_sum(null, q):
    # the S step's dual nome is ~1e-41 here: its sum ends after the terms
    # n = 0, 1 (the summed theta3(1, 1, q') counts its leading term twice);
    # summed as a lone leading term it ran on to 64 exact zeros, 67 terms
    with term_counter() as used:
        null(q)
    assert used() <= 3


def test_jacobi_quartic_identity():
    # theta2^4 + theta4^4 = theta3^4
    for q in (0.1, 0.3):
        assert_close(
            theta2(q) ** 4 + theta4(q) ** 4, theta3(q) ** 4, rtol=1e-12
        )


# ---------------------------------------------------------------------------
# nome -> modulus map
# ---------------------------------------------------------------------------


def test_modulus_at_zero_nome():
    assert_close(modulus_from_nome(0.0), 0.0, atol=1e-15)


def test_modulus_at_symmetric_point():
    # K'/K = 1 forces k = k' = 1/sqrt(2)
    assert abs(modulus_from_nome(math.exp(-PI)) - 1.0 / math.sqrt(2.0)) <= 1e-10


def test_modulus_negative_nome_rotation():
    # m(-q) = i m(q)/m'(q)
    q = math.exp(-PI * math.sqrt(2.0))
    c = EllipticContext.from_nome(q)
    got = modulus_from_nome(complex(-q, 0.0))
    want = 1j * c.k / c.kprime
    assert abs(got - want) <= 1e-10


def test_modulus_signed_zero_regression():
    # negating a complex-typed positive real must land on the same branch
    # as an explicitly constructed negative real
    q = 0.1 + 0.0j
    a = EllipticContext.from_nome(-q)
    b = EllipticContext.from_nome(complex(-0.1, 0.0))
    assert a.k == b.k
    assert a.K == b.K


# ---------------------------------------------------------------------------
# the assembled context
# ---------------------------------------------------------------------------


def test_context_pythagorean_invariant():
    for q in (0.05, 0.2, 0.1 + 0.05j, -0.17):
        c = EllipticContext.from_nome(q)
        assert abs(c.k**2 + c.kprime**2 - 1.0) <= 1e-12


def test_context_period_ratio_invariant():
    # i K'/K = 2z with q = e^{2 pi i z}, Im z > 0; the context's K' is -2 i z K
    # by definition, so the ratio is taken from the AGM at the context's k, k'
    for q in (0.05, 0.2, 0.1 + 0.05j):
        c = EllipticContext.from_nome(q)
        assert abs(cmath.exp(2j * PI * c.z) - complex(q)) <= 1e-14
        assert abs(1j * ellint_K(c.kprime) / ellint_K(c.k) - 2.0 * c.z) <= 1e-10


def test_context_singular_ratio():
    # K'/K = sqrt(r) by the AGM at the singular modulus k_r and its complement
    for r in (1.0, 2.0, 3.0, 4.0):
        c = EllipticContext.from_r(r)
        assert abs(ellint_K(c.kprime) / ellint_K(c.k) - math.sqrt(r)) <= 1e-10


def test_context_from_modulus_round_trip():
    c = EllipticContext.from_modulus(0.6)
    d = EllipticContext.from_nome(c.q)
    assert abs(d.k - 0.6) <= 1e-12


def test_context_half_period():
    c = EllipticContext.from_r(2.0)
    assert_close(c.half_period_w, PI / (2.0 * c.K), rtol=1e-15)


def test_context_rejects_bad_nome():
    with pytest.raises(ValueError):
        EllipticContext.from_nome(1.0)
    with pytest.raises(ValueError):
        EllipticContext.from_nome(0.0)
    with pytest.raises(ValueError):
        EllipticContext.from_r(-1.0)


@pytest.mark.parametrize("q", [-0.988, -0.99])
def test_context_past_the_double_range_raises_overflow(q):
    # theta3(q)^4 underflows to 0 here and k^2 (7e353 at -0.988) is past the
    # double range; the division by theta3^4 raised ZeroDivisionError
    with pytest.raises(OverflowError, match=f"q = \\({q}") as info:
        EllipticContext.from_nome(q)
    assert not isinstance(info.value, ZeroDivisionError)


def test_nome_from_r():
    assert_close(nome_from_r(2.0), math.exp(-PI * math.sqrt(2.0)), rtol=1e-15)


# ---------------------------------------------------------------------------
# singular values
# ---------------------------------------------------------------------------


def test_singular_moduli_closed_forms():
    # k_1 = 1/sqrt(2), k_2 = sqrt(2) - 1, k_3^2 = (2 - sqrt(3))/4,
    # k_4 = 3 - 2 sqrt(2)
    assert abs(EllipticContext.from_r(1.0).k - 1.0 / math.sqrt(2.0)) <= 1e-9
    assert abs(EllipticContext.from_r(2.0).k - (math.sqrt(2.0) - 1.0)) <= 1e-9
    assert abs(
        EllipticContext.from_r(3.0).k - math.sqrt((2.0 - math.sqrt(3.0)) / 4.0)
    ) <= 1e-9
    assert abs(EllipticContext.from_r(4.0).k - (3.0 - 2.0 * math.sqrt(2.0))) <= 1e-9


def test_alpha_known_values():
    assert abs(singular_alpha(1.0) - 0.5) <= 1e-9
    assert abs(singular_alpha(2.0) - (math.sqrt(2.0) - 1.0)) <= 1e-9
    assert abs(singular_alpha(4.0) - (6.0 - 4.0 * math.sqrt(2.0))) <= 1e-9


def test_alpha_reflection():
    # alpha(1/r) = 1/sqrt(r) - alpha(r)/r
    for r in (2.0, 3.0, 4.0):
        lhs = singular_alpha(1.0 / r)
        rhs = 1.0 / math.sqrt(r) - singular_alpha(r) / r
        assert abs(lhs - rhs) <= 1e-9


def test_alpha_quadrupling():
    # alpha(4r) = (1 + k_{4r})^2 alpha(r) - 2 sqrt(r) k_{4r}
    for r in (1.0, 2.0):
        k4 = EllipticContext.from_r(4.0 * r).k.real
        lhs = singular_alpha(4.0 * r)
        rhs = (1.0 + k4) ** 2 * singular_alpha(r) - 2.0 * math.sqrt(r) * k4
        assert abs(lhs - rhs) <= 1e-9


def test_E_reconstruction_from_alpha():
    # E = pi/(4 sqrt(r) K) + K (1 - alpha(r)/sqrt(r))
    for r in (1.0, 2.0, 3.0, 4.0):
        c = EllipticContext.from_r(r)
        rt = math.sqrt(r)
        want = PI / (4.0 * rt * c.K) + c.K * (1.0 - singular_alpha(r) / rt)
        assert abs(c.E - want) <= 1e-10


# ---------------------------------------------------------------------------
# modular transformations
# ---------------------------------------------------------------------------


def test_imaginary_modulus_transformation():
    # K(x) = K(sqrt(x/(x-1)))/sqrt(1-x) in the squared-modulus argument
    for x in (0.1, 0.2, 0.3, 0.4, 0.5):
        lhs = ellint_K(cmath.sqrt(x / (x - 1.0))) / cmath.sqrt(1.0 - x)
        assert abs(lhs - ellint_K(math.sqrt(x))) <= 1e-10


def test_negated_nome_K_ratio():
    # K(m(-q))/K(m(q)) = m'(q) at q = e^{-pi sqrt(r)}
    for r in (1.0, 2.0, 3.0):
        q = nome_from_r(r)
        c = EllipticContext.from_nome(q)
        ratio = ellint_K(modulus_from_nome(complex(-q, 0.0))) / c.K
        assert abs(ratio - c.kprime) <= 1e-10


def test_modulus_weighted_period_rotation():
    # i K k / (K* k*) = 1 against the negated-nome starred context
    for r in (1.0, 2.0):
        q = nome_from_r(r)
        c = EllipticContext.from_nome(q)
        s = EllipticContext.from_nome(complex(-q, 0.0))
        assert abs(1j * c.K * c.k / (s.K * s.k) - 1.0) <= 1e-10


# ---------------------------------------------------------------------------
# derivatives of the modulus
# ---------------------------------------------------------------------------


def test_dk_dq_matches_central_difference():
    for q in (math.exp(-PI), math.exp(-2.0 * PI)):
        c = EllipticContext.from_nome(q)
        # keep the stencil well inside (0, 1): the default step exceeds
        # q itself at q = e^{-2 pi}
        numeric = numeric_derivative(
            lambda t: modulus_from_nome(t), q, h=q / 8.0, steps=2
        )
        assert abs(dk_dq(c) - numeric) / abs(numeric) <= 1e-6


def test_k_squared_slope_at_origin():
    # k ~ 4 sqrt(q) as q -> 0, so d(k^2)/dq -> 16
    q, h = 1e-5, 1e-6
    slope = (
        modulus_from_nome(q + h) ** 2 - modulus_from_nome(q - h) ** 2
    ) / (2.0 * h)
    assert_close(slope, 16.0, rtol=1e-3)


def test_dK_dk_and_dE_dk_match_central_differences():
    c = EllipticContext.from_modulus(0.4)
    dK = numeric_derivative(lambda k: ellint_K(k), 0.4, steps=2)
    dE = numeric_derivative(lambda k: ellint_E(k), 0.4, steps=2)
    assert abs(dK_dk(c) - dK) <= 1e-8
    assert abs(dE_dk(c) - dE) <= 1e-8


# ---------------------------------------------------------------------------
# eta-type products with elliptic closed forms
# ---------------------------------------------------------------------------


def test_euler_product_closed_form():
    # prod(1-q^n) = 2^{1/3} pi^{-1/2} q^{-1/24} k^{1/12} k'^{1/3} K^{1/2}
    c = EllipticContext.from_r(1.0)
    q = c.q.real
    want = (
        2.0 ** (1.0 / 3.0)
        * PI ** (-0.5)
        * q ** (-1.0 / 24.0)
        * c.k ** (1.0 / 12.0)
        * c.kprime ** (1.0 / 3.0)
        * c.K**0.5
    )
    assert abs(euler_product(q) - want) <= 1e-10


def test_plus_product_closed_form():
    # prod(1+q^n) = 2^{-1/6} q^{-1/24} k^{1/12} k'^{-1/6}
    c = EllipticContext.from_r(1.0)
    q = c.q.real
    want = (
        2.0 ** (-1.0 / 6.0)
        * q ** (-1.0 / 24.0)
        * c.k ** (1.0 / 12.0)
        * c.kprime ** (-1.0 / 6.0)
    )
    assert abs(qpochhammer(-q, q) - want) <= 1e-10
