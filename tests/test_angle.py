"""Modular angle, its derivative, the u0/U continued fractions, frames."""

import cmath
import math

import pytest

from qelliptic.angle import (
    angle_derivative,
    angle_sum,
    frame_offset,
    frame_offset_star,
    frame_offset_star_scaled,
)
from qelliptic.elliptic import EllipticContext, modulus_from_nome
from qelliptic.fourier import (
    eval_fourier,
    jacobi_cd,
    jacobi_nd,
    jacobi_sd,
    jacobi_sn,
)
from qelliptic.numutil import numeric_derivative, principal_power, sum_series
from qelliptic.qseries import qpochhammer
from qelliptic.thetagen import (
    cayley,
    cayley_u0_product,
    u0_cf,
    u0_product,
    u_cf,
    u_product,
)

PI = math.pi


# ---------------------------------------------------------------------------
# the angle itself
# ---------------------------------------------------------------------------


def test_angle_single_term_tail():
    # at x = 50 the whole sum is its first term to far below double precision
    q = 0.3
    assert abs(angle_sum(q, 50.0) - 2.0 * math.atanh(q**50)) <= 1e-20


def test_angle_monotone_decay():
    q = 0.3
    values = [angle_sum(q, x).real for x in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(a > b > 0.0 for a, b in zip(values, values[1:]))


# repr of angle_sum and of angle_derivative at negative, complex and deep
# nomes.  Each literal's relative distance from 50-digit mpmath at the same
# double q and x, angle then slope, in row order: 0 and 1.0e-15, 4.1e-17 and
# 2.7e-16, 2.4e-16 and 1.4e-16; 1.7e-16 and 1.3e-16, 0 and 4.0e-17, 1.3e-16 and
# 0; 2.2e-16 and 1.5e-15, 0 and 7.9e-16, 3.2e-16 and 1.9e-16.
_ANGLE_LITERALS = [
    (-0.6, 0.3, (0.3546526746116786+0.8514541132647058j), (-2.0985667380347817-0.4889438739206031j)),
    (-0.6, 0.5, (3.1818666216897854e-17+0.7852706509495064j), (-1.6324917209374816-0.2654445351747986j)),
    (-0.6, 1.7, (0.2703304335743908-0.4322975850716809j), (1.2809053850122933+0.8417281146934464j)),
    (0.5 * cmath.exp(0.7j), 0.3, (2.0808633474952276+1.9389614445180174j),
     (-4.210750005556171-0.7938226794898717j)),
    (0.5 * cmath.exp(0.7j), 0.5, (1.415770405505859+1.7797667873296883j),
     (-2.6718475003835684-0.7970468085126579j)),
    (0.5 * cmath.exp(0.7j), 1.7, (-0.10291424119424464+0.8698659058445982j),
     (-0.5048370795907964-0.680790767624064j)),
    (0.85, 0.3, (15.86108843057704+0j), (-6.012536782860645+0j)),
    (0.85, 0.5, (14.835664613584894+0j), (-4.473434482844373+0j)),
    (0.85, 1.7, (11.1543155398649+0j), (-2.3045414863752964+0j)),
]


@pytest.mark.parametrize("q, x, angle, slope", _ANGLE_LITERALS)
def test_angle_lambert_and_slope_are_bit_identical_to_literals(q, x, angle, slope):
    assert angle_sum(q, x) == angle
    assert angle_derivative(q, x) == slope


def test_angle_sum_equals_lambert_form():
    # 2 sum_{m odd} q^{xm} / (m (1 - q^m)), summed inline over 40 terms
    q, x = 0.2, 0.7
    qx = q**x
    want = 2.0 * sum(qx**m / (m * (1.0 - q**m)) for m in range(1, 80, 2))
    assert abs(angle_sum(q, x) - want) <= 4e-16 * abs(want)


def test_angle_log_product_form():
    # theta(q, x) = log((-q^x; q)/(q^x; q))
    q, x = 0.2, 0.7
    w = principal_power(q, x)
    want = cmath.log(qpochhammer(-w, q) / qpochhammer(w, q))
    assert abs(angle_sum(q, x) - want) <= 1e-12


def test_angle_half_argument_closed_form():
    # theta(q, 1/2) = -(1/2) log(k'/(1 + k))
    for q in (math.exp(-2.0 * PI), 0.2):
        k = modulus_from_nome(q)
        kp = cmath.sqrt(1.0 - k * k)
        want = -0.5 * cmath.log(kp / (1.0 + k))
        assert abs(angle_sum(q, 0.5) - want) <= 1e-10


def test_angle_domain():
    with pytest.raises(ValueError):
        angle_sum(0.5, -1.0)  # |q^x| = 2
    # |q^x| = 1/2 but |q| = 2: the terms q^(n+x) grow, and the refusal names
    # z = q^x and Q = q
    with pytest.raises(ValueError, match=r"got z = \(0\.5\+0j\), Q = \(2\+0j\)"):
        angle_sum(2.0, -1.0)
    # the slope's |q^a| = 4 is refused by odd_ratio_sum by name, not by an
    # overflowing power
    with pytest.raises(ValueError, match=r"got A = \(4\+0j\), q = \(0\.5\+0j\)"):
        angle_derivative(0.5, -2.0)


def test_angle_integer_argument_closed_form():
    # e^{-theta(q, a)} = e^{-2 atanh(q^a)} sqrt(2 K k'/pi)
    #                    prod_{j<=a} (1+q^j)/(1-q^j) for integer a
    c = EllipticContext.from_r(2.0)
    q = c.q.real
    for a in (1, 2, 3):
        prod = 1.0
        for j in range(1, a + 1):
            prod *= (1.0 + q**j) / (1.0 - q**j)
        want = (
            math.exp(-2.0 * math.atanh(q**a))
            * cmath.sqrt(2.0 * c.K * c.kprime / PI)
            * prod
        )
        assert abs(cmath.exp(-angle_sum(q, a)) - want) <= 1e-10


# ---------------------------------------------------------------------------
# angle derivative
# ---------------------------------------------------------------------------


def test_angle_derivative_matches_numeric():
    q, a = 0.2, 0.9
    numeric = numeric_derivative(lambda t: angle_sum(q, t), a)
    assert abs(angle_derivative(q, a) - numeric) <= 1e-8


def test_angle_derivative_unit_shift():
    # theta'(q, a+1) - theta'(q, a) = -2 q^a log(q)/(1 - q^{2a})
    q, a = 0.15, 0.7
    lhs = angle_derivative(q, a + 1.0) - angle_derivative(q, a)
    rhs = -2.0 * q**a * math.log(q) / (1.0 - q ** (2 * a))
    assert abs(lhs - rhs) <= 1e-12


def test_scaled_derivative_at_one_is_even_exponential_sum():
    # -(1/(4 pi y)) theta'(q, a)|_{a=1} = sum 1/(e^{2(2n+1) pi y} - 1), y = 1
    y = 1.0
    q = math.exp(-2.0 * PI * y)
    lhs = -angle_derivative(q, 1.0) / (4.0 * PI * y)
    rhs = sum_series(lambda n: 1.0 / (math.exp(2.0 * (2 * n + 1) * PI * y) - 1.0))
    assert abs(lhs - rhs) <= 1e-10


def test_scaled_derivative_with_sinh_correction():
    # theta'(q, a)/(2 pi y) = sum_{n<a} 1/sinh(2 pi n y)
    #                         - 2 sum 1/(e^{2 pi (2n+1) y} - 1) at integer a
    y, a = 1.0, 2
    q = math.exp(-2.0 * PI * y)
    lhs = angle_derivative(q, float(a)) / (2.0 * PI * y)
    head = sum(1.0 / math.sinh(2.0 * PI * n * y) for n in range(1, a))
    rhs = head - 2.0 * sum_series(lambda n: 1.0 / (math.exp(2.0 * PI * (2 * n + 1) * y) - 1.0))
    assert abs(lhs - rhs) <= 1e-10


def test_scaled_derivative_at_half():
    # sum q^{n+1/2}/(1 - q^{2n+1}) = -(1/(4 pi y)) theta'(q, a)|_{a=1/2}
    y = 1.0
    q = math.exp(-2.0 * PI * y)
    lhs = sum_series(lambda n: q ** (n + 0.5) / (1.0 - q ** (2 * n + 1)))
    rhs = -angle_derivative(q, 0.5) / (4.0 * PI * y)
    assert abs(lhs - rhs) <= 1e-9


def test_scaled_derivative_half_plus_one():
    # -4 pi y sum q^{n/2}/(1 - q^n) = theta'(1/2) + theta'(1)
    y = 1.0
    q = math.exp(-2.0 * PI * y)
    lhs = -4.0 * PI * y * sum_series(lambda n: q ** ((n + 1) / 2.0) / (1.0 - q ** (n + 1)))
    rhs = angle_derivative(q, 0.5) + angle_derivative(q, 1.0)
    assert abs(lhs - rhs) <= 1e-9


def test_shifted_hyperbolic_reduction():
    # the a = 2, r = 4 instance reduces to a single sinh correction
    y = 1.0  # 2 pi y = pi sqrt(r) at r = 4
    q = math.exp(-2.0 * PI * y)
    lhs = angle_derivative(q, 2.0) / (2.0 * PI * y)
    rhs = 1.0 / math.sinh(2.0 * PI) - 2.0 * sum_series(
        lambda n: 1.0 / (math.exp((2 * n + 1) * 2.0 * PI) - 1.0)
    )
    assert abs(lhs - rhs) <= 1e-10


# ---------------------------------------------------------------------------
# continued fractions against product forms
# ---------------------------------------------------------------------------


def test_u0_trivial():
    assert abs(u0_product(0.0, 0.3)) <= 1e-15


def test_u0_cf_matches_product():
    assert abs(u0_cf(0.3, 0.1) - u0_product(0.3, 0.1)) <= 1e-11


def test_u0_log_series():
    # log P = 4 sum A^{2n+1}/((2n+1)(1 - q^{2n+1})), P the squared quotient
    from qelliptic.thetagen import log_P

    q = 0.15
    A = q**0.6
    assert abs(cmath.log(cayley_u0_product(A, q)) - log_P(A, q)) <= 1e-11


def test_U_antisymmetric_diagonal():
    assert abs(u_product(0.25, 0.25, 0.2)) <= 1e-15


def test_U_cf_matches_product():
    assert abs(u_cf(0.3, 0.1, 0.2) - u_product(0.3, 0.1, 0.2)) <= 1e-10


def test_U_square_law():
    # (-1 + 2/(1-U))^2 = P(a)/P(b)
    a, b, q = 0.3, 0.1, 0.2
    lhs = cayley(u_product(a, b, q)) ** 2
    rhs = cayley_u0_product(a, q) / cayley_u0_product(b, q)
    assert abs(lhs - rhs) <= 1e-9


def test_angle_is_half_log_cayley_u0():
    # log(-1 + 2/(1 - u0(q, q^a))) = 2 theta(q, a), compared exponentiated
    for q in (0.1, math.exp(-PI)):
        for a in (0.5, 1.0, 1.7):
            lhs = cayley_u0_product(principal_power(q, a), q)
            rhs = cmath.exp(2.0 * angle_sum(q, a))
            assert abs(lhs - rhs) / abs(rhs) <= 1e-10


def test_angle_difference_is_log_cayley_U():
    # theta(q, a) - theta(q, b) = log(-1 + 2/(1 - U(q^a, q^b; q)))
    q, a, b = 0.2, 0.6, 1.3
    lhs = angle_sum(q, a) - angle_sum(q, b)
    rhs = cmath.log(cayley(u_product(q**a, q**b, q)))
    assert abs(lhs - rhs) <= 1e-11


# ---------------------------------------------------------------------------
# the odd-frame decomposition of log P
# ---------------------------------------------------------------------------


def frame_A(c, u):
    return 1j * cmath.sqrt(c.q) * cmath.exp(1j * PI * u / (2.0 * c.K))


def test_log_P_decomposition_exponentiated():
    # log P(A) = -log(nd + k sd) + 4i sum (-1)^n q^{n+1/2}
    #            cos((2n+1) pi u/(2K)) / ((2n+1)(1 - q^{2n+1}))
    c = EllipticContext.from_r(2.0)
    q = c.q.real
    for x in (0.2, 0.45, 0.7):
        u = x * c.K.real
        lhs = cmath.log(cayley_u0_product(frame_A(c, u), q))
        tail = sum_series(
            lambda n: (-1) ** n
            * q ** (n + 0.5)
            * math.cos((2 * n + 1) * PI * u / (2.0 * c.K.real))
            / ((2 * n + 1) * (1.0 - q ** (2 * n + 1)))
        )
        rhs = -cmath.log(jacobi_nd(c, u) + c.k * jacobi_sd(c, u)) + 4j * tail
        assert abs(cmath.exp(lhs) - cmath.exp(rhs)) <= 1e-10


def test_log_P_real_part():
    # Re log P(A) = -log(nd + k sd) on the real axis
    c = EllipticContext.from_r(1.0)
    for x in (0.2, 0.45, 0.7):
        u = x * c.K.real
        lhs = cmath.log(cayley_u0_product(frame_A(c, u), c.q.real)).real
        rhs = -cmath.log(jacobi_nd(c, u) + c.k * jacobi_sd(c, u)).real
        assert abs(lhs - rhs) <= 1e-9


def log_poch_ratio(c, t):
    A = frame_A(c, t)
    return cmath.log(qpochhammer(-A, c.q.real) / qpochhammer(A, c.q.real))


def test_cd1_reconstruction_from_pochhammer_derivative():
    # cd1 = cd cos(pi u/K) + (2/k) sin(pi u/K) Im d/du log((-A;q)/(A;q))
    c = EllipticContext.from_r(1.0)
    for x in (0.2, 0.45, 0.7):
        u = x * c.K.real
        dlog = numeric_derivative(lambda t: log_poch_ratio(c, t), u)
        want = (
            jacobi_cd(c, u) * math.cos(PI * u / c.K.real)
            + 2.0 / c.k.real * math.sin(PI * u / c.K.real) * dlog.imag
        )
        assert abs(eval_fourier("cd1", c, u) - want) <= 1e-9


def test_cd1_reconstruction_cf_vs_pochhammer():
    # the same reconstruction through the continued fraction for u0 and
    # through the Pochhammer quotient agree
    c = EllipticContext.from_r(1.0)
    for x in (0.3, 0.6):
        u = x * c.K.real
        base = jacobi_cd(c, u) * cmath.exp(-1j * PI * u / c.K.real)
        d_cf = numeric_derivative(
            lambda t: cmath.log(cayley(u0_cf(frame_A(c, t), c.q.real))),
            u,
        )
        d_poch = numeric_derivative(lambda t: log_poch_ratio(c, t), u)
        got_cf = base - 1j / c.k * math.sin(PI * u / c.K.real) * d_cf
        got_poch = base - 2j / c.k * math.sin(PI * u / c.K.real) * d_poch
        assert abs(got_cf - got_poch) <= 1e-8
        assert abs(got_cf - eval_fourier("cd1", c, u)) <= 1e-8


# ---------------------------------------------------------------------------
# hyperbolic-sum identities on imaginary offsets
# ---------------------------------------------------------------------------


def test_lambda_parameterized_hyperbolic_sum():
    # pi/(K k) sum (-1)^n e^{-pi sqrt(r)(n+1/2) x} / sinh((n+1/2) pi sqrt(r))
    #   = cd coth(t) - cd1 csch(t) + cd at u = i x K', t = pi sqrt(r) x
    x = 0.3
    for r in (1.0, 2.0):
        c = EllipticContext.from_r(r)
        rt = math.sqrt(r)
        lhs = (
            PI
            / (c.K * c.k)
            * sum_series(
                lambda n: (-1) ** n
                * math.exp(-PI * rt * (n + 0.5) * x)
                / math.sinh((n + 0.5) * PI * rt)
            )
        )
        u = x * 1j * c.Kprime.real
        t = x * PI * rt
        cd = jacobi_cd(c, u)
        cd1 = eval_fourier("cd1", c, u)
        rhs = cd / cmath.tanh(t) - cd1 / cmath.sinh(t) + cd
        assert abs(lhs - rhs) <= 1e-8


def test_nu_parameterized_hyperbolic_sum():
    # 2 pi/(K k) sum q^{(2n+1)(1/2 + 1/nu)}/(1 - q^{2n+1})
    #   = i sn coth(t) + i cd1(. - K) csch(t) + i sn at u = 2iK'/nu
    nu = 3.0
    for r in (1.0, 2.0):
        c = EllipticContext.from_r(r)
        q = c.q.real
        lhs = (
            2.0
            * PI
            / (c.K * c.k)
            * sum_series(lambda n: q ** ((2 * n + 1) * (0.5 + 1.0 / nu)) / (1.0 - q ** (2 * n + 1)))
        )
        u = 2j * c.Kprime.real / nu
        t = 2.0 * PI * math.sqrt(r) / nu
        sn = jacobi_sn(c, u)
        cd1 = eval_fourier("cd1", c, -c.K.real + u)
        rhs = 1j * sn / cmath.tanh(t) + 1j * cd1 / cmath.sinh(t) + 1j * sn
        assert abs(lhs - rhs) <= 1e-8


def test_alternating_tail_finite_reduction():
    # sum (-1)^n q^{(2n+1)(l+1/2)}/(1-q^{2n+1})
    #   = K k/(2 pi) - sum_{i<l} q^{i+1/2}/(1+q^{2i+1}) for integer l
    for r in (1.0, 2.0):
        c = EllipticContext.from_r(r)
        q = c.q.real
        for l in (1, 2, 3):
            lhs = sum_series(
                lambda n: (-1) ** n
                * q ** ((2 * n + 1) * (l + 0.5))
                / (1.0 - q ** (2 * n + 1))
            )
            head = sum(q ** (i + 0.5) / (1.0 + q ** (2 * i + 1)) for i in range(l))
            rhs = c.K * c.k / (2.0 * PI) - head
            assert abs(lhs - rhs) <= 1e-11


# ---------------------------------------------------------------------------
# expansion frames
# ---------------------------------------------------------------------------


def test_frame_offset_at_half():
    c = EllipticContext.from_r(1.0)
    assert abs(frame_offset(c, 0.5) + c.K) <= 1e-14
    assert abs(frame_offset_star(c, 0.5) + c.kprime * c.K) <= 1e-14


def test_frame_nome_relation():
    # q^a = i q^{1/2} e^{i pi t0/(2K)}
    z = 0.1 + 0.4j
    q = cmath.exp(2j * PI * z)
    c = EllipticContext.from_nome(q)
    for a in (0.3, 0.5, 0.8):
        t0 = frame_offset(c, a)
        got = 1j * principal_power(q, 0.5) * cmath.exp(1j * PI * t0 / (2.0 * c.K))
        assert abs(got - principal_power(q, a)) <= 1e-10


def test_frame_star_nome_relation():
    # e^{i pi a} q^a = -q^{1/2} e^{i pi t0*/(2 K*)} with K* = k' K
    c = EllipticContext.from_r(2.0)
    q = c.q.real
    for a in (0.3, 0.7):
        t0s = frame_offset_star(c, a)
        Ks = c.kprime * c.K
        got = -principal_power(q, 0.5) * cmath.exp(1j * PI * t0s / (2.0 * Ks))
        want = cmath.exp(1j * PI * a) * principal_power(q, a)
        assert abs(got - want) <= 1e-10


def test_frame_offset_slope():
    # d t0/da = 4 z K = 2i K'
    c = EllipticContext.from_r(3.0)
    slope = (frame_offset(c, 0.7) - frame_offset(c, 0.2)) / 0.5
    assert abs(slope - 2j * c.Kprime) <= 1e-12
    assert abs(slope - 4.0 * c.z * c.K) <= 1e-12


def test_frame_star_scaled_period_form():
    # t0*/k' = 2(a-1)K + i(2a-1)K'
    c = EllipticContext.from_r(2.0)
    for a in (0.25, 0.6):
        got = frame_offset_star(c, a) / c.kprime
        want = frame_offset_star_scaled(c, a)
        assert abs(got - want) <= 1e-12


def test_frame_normalized_offsets_differ_by_linear_term():
    # t0*/K* - t0/K = 2a - 1
    c = EllipticContext.from_r(2.0)
    for a in (0.3, 0.8):
        lhs = frame_offset_star(c, a) / (c.kprime * c.K) - frame_offset(c, a) / c.K
        assert abs(lhs - (2.0 * a - 1.0)) <= 1e-12


def test_frame_angle_decomposition():
    # sum (-1)^n q^{n+1/2} cos((2n+1) pi t0/(2K)) / ((2n+1)(1-q^{2n+1}))
    #   = theta(q, a)/(2i) + log(nd(t0) + k sd(t0))/(4i)
    for r in (1.0, 2.0):
        c = EllipticContext.from_r(r)
        q = c.q.real
        for a in (0.3, 0.45):
            t0 = frame_offset(c, a)
            lhs = sum_series(
                lambda n: (-1) ** n
                * q ** (n + 0.5)
                * cmath.cos((2 * n + 1) * PI * t0 / (2.0 * c.K))
                / ((2 * n + 1) * (1.0 - q ** (2 * n + 1)))
            )
            rhs = angle_sum(q, a) / 2j + cmath.log(
                jacobi_nd(c, t0) + c.k * jacobi_sd(c, t0)
            ) / 4j
            assert abs(lhs - rhs) <= 1e-9
