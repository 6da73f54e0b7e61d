"""The case definitions behind :func:`qelliptic.registry.registry`.

Private: :mod:`qelliptic.registry` imports this module on the first call of
``registry()``, so a process that never reads the case list (``qelliptic
eval``, ``qelliptic table``) neither imports these definitions nor, without
cached bytecode, compiles them.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache, wraps
from math import pi

from .angle import (
    angle_derivative,
    angle_sum,
    frame_offset,
    frame_offset_star,
    frame_offset_star_scaled,
)
from .elliptic import (
    EllipticContext,
    agm,
    dk_dq,
    ellint_E,
    ellint_K,
    modulus_from_nome,
    nome_from_r,
    singular_alpha,
)
from .fourier import (
    cd1_halfplane,
    eval_fourier,
    jacobi_cd,
    jacobi_cn,
    jacobi_dn,
    jacobi_nd,
    jacobi_sd,
    jacobi_sn,
)
from .harness import IdentityCase
from .numutil import complex_quad, current_policy, numeric_derivative, principal_power, sum_series
from .qseries import (
    bernoulli,
    dirichlet_chi8,
    divisor_count,
    divisor_expand,
    divisors,
    euler_product,
    fermi_derivative_constant,
    ghost_sum,
    lambert_sum,
    qpochhammer,
    zeta_value,
)
from .thetagen import (
    agile_minus,
    agile_plus,
    cayley,
    cayley_u_product,
    cayley_u0_product,
    log_P,
    odd_lambert,
    odd_ratio_sum,
    theta3_two,
    theta4_two,
    ramanujan_quantity,
    restricted_divisor_log,
    rr_G,
    rr_H,
    rr_cf,
    rr_product,
    rr_sum,
    u0_cf,
    u0_product,
    u_cf,
    u_product,
)


# --------------------------------------------------------------------------
# shared context cache and small helpers
# --------------------------------------------------------------------------

def _per_policy(build):
    """Cache ``build(x)`` keyed by ``x`` and the active truncation policy, so
    a context built under one ``truncation`` scope is never reused in another."""
    cached = lru_cache(maxsize=None)(lambda x, _policy: build(x))
    wrapper = wraps(build)(lambda x: cached(x, current_policy()))
    wrapper.cache_clear = cached.cache_clear
    return wrapper


@_per_policy
def _cr(r: float) -> EllipticContext:
    return EllipticContext.from_r(r)


@_per_policy
def _cneg(r: float) -> EllipticContext:
    """Context at the negated nome of ``_cr(r)`` (principal sheet)."""
    return EllipticContext.from_nome(-_cr(r).q)


def _cy(y: float) -> EllipticContext:
    """Context at the nome ``e^(-2 pi y)``: the r-context at ``r = 4 y^2``.
    ``y`` must be positive, since ``4 y^2`` reads ``-y`` as ``y``."""
    if not y > 0.0:
        raise ValueError(f"y must be positive, got {y!r}")
    return _cr(4.0 * y * y)


def _weight(kind: str):
    if kind == "one":
        return lambda n: 1.0
    if kind == "id":
        return float
    if kind == "chi8":
        return lambda n: float(dirichlet_chi8(n))
    raise ValueError(f"unknown weight kind {kind!r}")


_ALPHA_KNOWN = {1.0: 0.5, 2.0: math.sqrt(2) - 1.0, 4.0: 6.0 - 4.0 * math.sqrt(2)}
# squared singular moduli with algebraic closed forms
_K2_KNOWN = {
    1.0: 0.5,
    2.0: 3.0 - 2.0 * math.sqrt(2),
    3.0: (2.0 - math.sqrt(3)) / 4.0,
    4.0: (3.0 - 2.0 * math.sqrt(2)) ** 2,
}


def _tabulated(table: dict[float, float], r) -> float:
    """``table[r]``; ValueError naming the tabulated r where r is not one of them."""
    try:
        return table[float(r)]
    except KeyError:
        raise ValueError(f"closed form tabulated only at r in {sorted(table)}, not {r}") from None


def _odd_frame_A(ctx: EllipticContext, u: complex) -> complex:
    """Half-nome rotation ``A = i sqrt(q) e^{i pi u / (2K)}``."""
    return 1j * cmath.sqrt(ctx.q) * cmath.exp(1j * pi * u / (2.0 * ctx.K))


# --------------------------------------------------------------------------
# hyperbolic series, Bernoulli/Fermi closed forms, singular values
# --------------------------------------------------------------------------

def _eq2_lhs(nu):
    return sum_series(lambda n: (n + 1.0) ** (4 * nu + 1) / (math.exp(2 * pi * (n + 1)) - 1.0))


def _eq2_rhs(nu):
    return float(bernoulli(4 * nu + 2)) / (8 * nu + 4)


def _eq3_lhs(nu):
    return sum_series(lambda j: (2 * j + 1.0) ** (4 * nu + 1) / (math.exp((2 * j + 1) * pi) + 1.0))


def _eq3_rhs(nu):
    return (-float(fermi_derivative_constant(4 * nu + 1)) / 4.0
            - 2.0 ** (4 * nu - 1) * float(bernoulli(4 * nu + 2)) / (2 * nu + 1))


def _eq4_lhs(nu):
    # Cauchy derivative on the unit circle: f(w) = 1/(e^w + 1)
    val = complex_quad(
        lambda t: cmath.exp(-1j * nu * t) / (cmath.exp(cmath.exp(1j * t)) + 1.0),
        0.0, 2.0 * pi)
    return 2.0 * math.factorial(nu) / (2.0 * pi) * val


def _eq4_rhs(nu):
    return float(fermi_derivative_constant(nu))


def _t1_bracket(nu, x):
    """``zeta(2 nu + 1)/2 + sum_{n >= 1} n^(-2 nu - 1)/(e^(2 x n) - 1)``."""
    return 0.5 * zeta_value(2 * nu + 1) + sum_series(
        lambda n: (n + 1.0) ** (-2 * nu - 1) / (math.exp(2 * x * (n + 1)) - 1.0))


def _t1_lhs(nu, a):
    return a ** (-nu) * _t1_bracket(nu, a)


def _t1_rhs(nu, a):
    # stated as A = B + C, not A - B = C: at (nu, a) = (2, pi) and (-2, 2)
    # A - B is 0 (for nu <= -2 the Bernoulli sum C is empty), which no
    # relative residual can check
    b = pi * pi / a
    total = 0.0
    for n in range(0, nu + 2):
        total += ((-1) ** n
                  * float(bernoulli(2 * n)) / math.factorial(2 * n)
                  * float(bernoulli(2 * nu + 2 - 2 * n)) / math.factorial(2 * nu + 2 - 2 * n)
                  * a ** (nu + 1 - n) * b ** n)
    return (-1.0) ** (-nu) * b ** (-nu) * _t1_bracket(nu, b) - 2.0 ** (2 * nu) * total


def _eq9_lhs(q):
    return sum_series(lambda n: q ** (n + 1) / ((n + 1) * (1.0 - q ** (n + 1))))


def _eq10_lhs(r):
    return euler_product(_cr(r).q)


def _eq10_rhs(r):
    c = _cr(r)
    return (2.0 ** (1.0 / 3.0) * pi ** -0.5 * c.q ** (-1.0 / 24.0)
            * c.k ** (1.0 / 12.0) * c.kprime ** (1.0 / 3.0) * cmath.sqrt(c.K))


def _eq10_1_lhs(x, fn):
    return ellint_K(x) if fn == "K" else ellint_E(x)


def _hyp2f1_half(a: float, z: float) -> float:
    """Gauss series ``2F1(a, 1/2; 1; z)`` for ``|z| < 1``.

    Summed through :func:`sum_series` with the running term ratio
    ``(a + n)(1/2 + n) z / (n + 1)^2``.
    """
    state = {"term": 1.0}

    def term(n: int) -> float:
        if n > 0:
            state["term"] *= (a + n - 1) * (n - 0.5) * z / (n * n)
        return state["term"]

    return sum_series(term).real


def _eq10_1_rhs(x, fn):
    # K = (pi/2) 2F1(1/2, 1/2; 1; x^2), E = (pi/2) 2F1(-1/2, 1/2; 1; x^2)
    return pi / 2.0 * _hyp2f1_half(0.5 if fn == "K" else -0.5, x * x)


def _eq11_lhs(q):
    return numeric_derivative(_eq9_lhs, q)


def _eq11_rhs(q):
    x = -cmath.log(q) / 2.0
    return cmath.exp(2 * x) / 4.0 * sum_series(lambda n: 1.0 / cmath.sinh((n + 1) * x) ** 2)


def _neg_nome(q: complex) -> complex:
    """Negate a nome, keeping arg(-q) = +pi when q is real positive."""
    q = complex(q)
    if q.imag == 0.0:
        return complex(-q.real, 0.0)
    return -q


def _eq11_1_lhs(q):
    return numeric_derivative(lambda t: modulus_from_nome(t), q)


def _eq11_1_rhs(q):
    return dk_dq(EllipticContext.from_nome(q))


def _eq12_lhs(x):
    return sum_series(lambda n: 1.0 / math.sinh((n + 1) * x) ** 2)


def _eq12_rhs(x):
    q = math.exp(-2.0 * x)
    return -4.0 * q * numeric_derivative(
        lambda t: cmath.log(euler_product(t)), q)


def _eq13_lhs(r):
    rt = math.sqrt(r)
    return sum_series(lambda n: (-1) ** (n + 1) * (n + 1) / (math.exp(2 * pi * (n + 1) / rt) - 1.0))


def _eq13_rhs(r):
    c = _cr(r)
    return 0.125 - math.sqrt(r) / (4 * pi) + r * c.K * (c.E - c.K) / (2 * pi * pi)


def _eq15_rhs(r):
    c = _cr(r)
    rt = math.sqrt(r)
    return pi / (4 * rt * c.K) + c.K * (1.0 - _tabulated(_ALPHA_KNOWN, r) / rt)


def _eq16_lhs(r):
    rt = math.sqrt(r)

    def inv_expm1(x):  # 1/(e^x - 1), 0 where e^x would overflow
        return math.exp(-x) / -math.expm1(-x)

    return (2 * sum_series(lambda n: (n + 1) * inv_expm1(4 * pi * (n + 1) / rt))
            - sum_series(lambda j: (2 * j + 1) * inv_expm1(2 * pi * (2 * j + 1) / rt)))


def _eq16_rhs(r):
    c = _cr(r)
    rt = math.sqrt(r)
    return 0.125 - rt / (8 * pi) - singular_alpha(r) * rt * c.K ** 2 / (2 * pi * pi)


def _eq17_lhs(r):
    # the half-rate odd sum; the registered domain point r = 4 makes it
    # sum_{n odd} n / (e^{pi n} - 1)
    rate = pi * math.sqrt(r) / 2.0
    return sum_series(lambda j: (2 * j + 1) / (math.exp((2 * j + 1) * rate) - 1.0))


def _eq17_rhs(r):
    return -1.0 / 24.0 + 16.0 * pi / math.gamma(-0.25) ** 4


def _t2_lhs(r):
    return 1.0 - 24.0 * sum_series(
        lambda n: (n + 1) / (math.exp(pi * (n + 1) * math.sqrt(r)) - 1.0))


def _t2_rhs(r):
    c = _cr(r)
    rt = math.sqrt(r)
    return 6.0 / (pi * rt) + (1.0 + c.k ** 2 - 6.0 * singular_alpha(r) / rt) * 4.0 * c.K ** 2 / pi ** 2


def _eq19_lhs(r):
    return singular_alpha(4.0 * r)


def _eq19_rhs(r):
    k4 = _cr(4.0 * r).k.real
    return (1.0 + k4) ** 2 * singular_alpha(r) - 2.0 * math.sqrt(r) * k4


def _t3_lhs(r):
    return 1.0 + 24.0 * sum_series(
        lambda j: (2 * j + 1) / (math.exp(pi * (2 * j + 1) * math.sqrt(r)) - 1.0))


def _t3_rhs(r):
    c = _cr(r)
    return 4.0 * (1.0 + c.k ** 2) * c.K ** 2 / pi ** 2


def _t4_lhs(r):
    y = pi * math.sqrt(r)
    return 1.0 - 24.0 * sum_series(lambda j: (2 * j + 1) / (math.exp((2 * j + 1) * y) + 1.0))


def _t4_rhs(r):
    c = _cr(r)
    return (2.0 * c.K / pi) ** 2 * (1.0 - 2.0 * c.k ** 2)


def _t5_lhs(r):
    return sum_series(lambda j: 1.0 / math.cosh((2 * j + 1) * pi * math.sqrt(r) / 2.0))


def _t6_lhs(r):
    return sum_series(lambda n: (-1) ** n / (math.exp((2 * n + 1) * pi * math.sqrt(r)) + 1.0))


def _t6_rhs(r):
    c = _cr(r)
    return 0.25 - c.K * c.kprime / (2.0 * pi)


def _eq24_lhs(r, x):
    c = _cr(r)
    u = x * c.K.real
    return jacobi_sn(c, u) / (jacobi_cn(c, u) * jacobi_dn(c, u))


def _eq24_rhs(r, x):
    c = _cr(r)
    u = x * c.K.real
    w = pi * u / (2.0 * c.K.real)
    q = c.q.real
    tail = sum_series(lambda j: (-1) ** (j + 1) * q ** (j + 1) * math.sin(2 * (j + 1) * w)
              / (1.0 + q ** (j + 1)))
    return (pi / (2.0 * c.kprime ** 2 * c.K) * math.tan(w)
            + 2.0 * pi / (c.kprime ** 2 * c.K) * tail)


# --------------------------------------------------------------------------
# divisor duality, secant expansion, sign-flip transformations
# --------------------------------------------------------------------------

def _p2_lhs(r, x):
    c = _cr(r)
    th = pi * x / 2.0  # theta = pi u / (2K) with u = x K
    y = pi * math.sqrt(r)
    return (1.0 / math.cos(th)
            + 4.0 * sum_series(lambda n: (-1) ** n * math.cos((2 * n + 1) * th)
                       / (math.exp((2 * n + 1) * y) - 1.0)))


def _p2_rhs(r, x):
    c = _cr(r)
    u = x * c.K.real
    phi = cmath.asin(eval_fourier("sn", c, u))  # amplitude angle
    return (2.0 * c.K / pi) / cmath.cos(phi) * cmath.sqrt(1.0 - c.k ** 2 * cmath.sin(phi) ** 2)


def _cor1_lhs(r, form):
    rt = math.sqrt(r)
    if form == "alt":
        return 1.0 + 4.0 * sum_series(lambda n: (-1) ** n / (math.exp((2 * n + 1) * pi * rt) - 1.0))
    return (1.0 + 4.0 * sum_series(lambda j: 1.0 / (math.exp((4 * j + 1) * pi * rt) - 1.0))
            - 4.0 * sum_series(lambda j: 1.0 / (math.exp((4 * j + 3) * pi * rt) - 1.0)))


def _t7_lhs(x):
    return sum_series(lambda n: (n + 1) / math.sinh((n + 1) * x) ** 2)


def _t7_rhs(x):
    return -2.0 * numeric_derivative(lambda t: ghost_sum(2.0 * t), x)


def _eq32_1_lhs(r, u):
    return jacobi_sn(_cneg(r), u)


def _eq32_1_rhs(r, u):
    c, cn = _cr(r), _cneg(r)
    return 1j * (c.K * c.k * c.kprime) / (cn.K * cn.k) * jacobi_sd(c, u * c.K.real / cn.K)


def _eq33_lhs(x):
    return ellint_K(cmath.sqrt(x / (x - 1.0))) / cmath.sqrt(1.0 - x)


def _eq36_lhs(r):
    q = _cr(r).q.real
    return 2.0 * sum_series(lambda j: q ** (j + 0.5) / (1.0 + q ** (2 * j + 1)))


def _t8_lhs(r, form):
    if form == "sinh":
        return sum_series(lambda n: (-1) ** n / math.sinh((n + 0.5) * pi * math.sqrt(r)))
    q = _cr(r).q.real
    return 2.0 * sum_series(lambda j: (-1) ** j * q ** (j + 0.5) / (1.0 - q ** (2 * j + 1)))


def _kk_over_pi(r):
    c = _cr(r)
    return c.K * c.k / pi


def _p4_lhs(r, x):
    c = _cr(r)
    return eval_fourier("ss", c, x * c.K.real)


def _p4_rhs(r, x):
    c = _cr(r)
    u = x * c.K.real
    w2 = pi * u / c.K.real  # twice the half-angle
    return jacobi_cn(c, u) / math.tan(w2) - eval_fourier("cn1", c, u) / math.sin(w2)


def _shift_lhs(r, x, fn):
    # the cn and cd expansions against the theta quotients on the right
    c = _cr(r)
    u = x * c.K.real + c.K.real
    return jacobi_dn(c, u) if fn == "dn" else eval_fourier(fn, c, u)


def _shift_rhs(r, x, fn):
    c = _cr(r)
    w = x * c.K.real
    if fn == "cn":
        return -c.kprime * jacobi_sn(c, w) / jacobi_dn(c, w)
    if fn == "dn":
        return c.kprime / jacobi_dn(c, w)
    return -jacobi_sn(c, w)


def _cc_split_lhs(r, x):
    c = _cr(r)
    return eval_fourier("cc", c, x * c.K.real)


def _cc_split_rhs(r, x):
    c = _cr(r)
    q = c.q.real
    w = pi * x / 2.0
    head = 2.0 * pi / (c.K * c.k) * math.sqrt(q) * math.cos(w) / (1.0 + 1.0 / q)
    return head + q * eval_fourier("cn1", c, x * c.K.real)


def _dd_split_lhs(r, x):
    c = _cr(r)
    return eval_fourier("dd", c, x * c.K.real)


def _dd_split_rhs(r, x):
    c = _cr(r)
    q = c.q.real
    w = pi * x / 2.0
    head = 2.0 * pi / (c.K * c.k) * math.sqrt(q) * math.cos(w) / (1.0 - 1.0 / q)
    return head - q * eval_fourier("cd1", c, x * c.K.real)


# --------------------------------------------------------------------------
# the shifted cosine expansion cd1: continuation, special values
# --------------------------------------------------------------------------

def _t9_lhs(r, x, y):
    c = _cr(r)
    u = x * c.K.real + 1j * y * c.Kprime.real
    return 2.0 * pi / (c.K * c.k) * odd_ratio_sum(_odd_frame_A(c, u), c.q.real)


def _t9_rhs(r, x, y):
    c = _cr(r)
    u = x * c.K.real + 1j * y * c.Kprime.real
    cd = jacobi_cd(c, u)
    cd1 = eval_fourier("cd1", c, u)
    return (-cd / cmath.tan(pi * u / c.K) + cd1 / cmath.sin(pi * u / c.K) + 1j * cd)


def _eq42_1_lhs(r, x):
    c = _cr(r)
    u = x * c.K.real
    return 2.0 * pi / (c.K * c.k) * odd_ratio_sum(_odd_frame_A(c, u), c.q.real)


def _eq42_1_rhs(r, x):
    c = _cr(r)
    u = x * c.K.real
    return 1j * jacobi_cd(c, u) - eval_fourier("ss", _cneg(r), u * c.kprime.real)


def _eq43_lhs(r, u):
    return eval_fourier("cn1", _cneg(r), u)


def _eq43_rhs(r, u):
    c = _cr(r)
    return eval_fourier("cd1", c, u / c.kprime.real)


def _eq44_lhs(r, u):
    return eval_fourier("ss", _cneg(r), u)


def _eq44_rhs(r, u):
    c = _cr(r)
    arg = pi * u / (c.kprime.real * c.K.real)
    return (jacobi_cd(c, u / c.kprime.real) / cmath.tan(arg)
            - eval_fourier("cd1", c, u / c.kprime.real) / cmath.sin(arg))


def _t10_lhs(r, x):
    c = _cr(r)
    rt = math.sqrt(r)
    return pi / (c.K * c.k) * sum_series(lambda n: (-1) ** n * math.exp(-pi * rt * (n + 0.5) * x)
                                 / math.sinh((n + 0.5) * pi * rt))


def _t10_rhs(r, x):
    c = _cr(r)
    u = x * 1j * c.Kprime.real
    t = x * pi * math.sqrt(r)
    cd = jacobi_cd(c, u)
    cd1 = eval_fourier("cd1", c, u)
    return cd / cmath.tanh(t) - cd1 / cmath.sinh(t) + cd


def _t11_lhs(r, nu):
    c = _cr(r)
    q = c.q.real
    return 2.0 * pi / (c.K * c.k) * sum_series(
        lambda n: q ** ((2 * n + 1) * (0.5 + 1.0 / nu)) / (1.0 - q ** (2 * n + 1)))


def _t11_rhs(r, nu):
    c = _cr(r)
    u = 2j * c.Kprime.real / nu
    t = 2.0 * pi * math.sqrt(r) / nu
    sn = jacobi_sn(c, u)
    cd1 = eval_fourier("cd1", c, -c.K.real + u)
    return 1j * sn / cmath.tanh(t) + 1j * cd1 / cmath.sinh(t) + 1j * sn


def _cor2_lhs(r):
    c = _cr(r)
    return numeric_derivative(lambda v: eval_fourier("cd1", c, v), c.K.real)


def _cor2_rhs(r):
    c = _cr(r)
    q = c.q.real
    return 1.0 + 2.0 * pi ** 2 / (c.K ** 2 * c.k) * sum_series(
        lambda j: q ** (j + 0.5) / (1.0 - q ** (2 * j + 1)))


def _t12_lhs(r):
    c = _cr(r)
    return cd1_halfplane(c, 1j * c.Kprime.real)


def _t12_rhs(r):
    c = _cr(r)
    q = c.q.real
    return 1.0 / (q * c.k) - math.sinh(pi * math.sqrt(r)) * (1.0 - pi / (2.0 * c.K)) / c.k


def _cor3_lhs(r):
    c = _cr(r)
    return eval_fourier("cd1", c, 0.5j * c.Kprime.real)


def _cor3_rhs(r):
    c = _cr(r)
    q = c.q.real
    rt = math.sqrt(r)
    tail = sum_series(lambda n: (-1) ** n * math.exp(-(n + 0.5) * pi * rt / 2.0)
              / math.sinh((n + 0.5) * pi * rt))
    return 1.0 / math.sqrt(q * c.k.real) - pi * math.sinh(pi * rt / 2.0) / (c.K * c.k) * tail


def _s1(q):
    return sum_series(lambda j: (-1) ** j * q ** ((4 * j + 1) / 2.0) / (1.0 - q ** (4 * j + 1)))


def _s3(q):
    return sum_series(lambda j: (-1) ** j * q ** ((4 * j + 3) / 2.0) / (1.0 - q ** (4 * j + 3)))


def _cd1_half(r):
    c = _cr(r)
    return eval_fourier("cd1", c, c.K.real / 2.0)


def _cor4_rhs(r):
    c = _cr(r)
    return (1.0 / math.sqrt(1.0 + c.kprime.real)
            - pi * math.sqrt(8.0) / (c.K * c.k) * _s1(c.q.real))


def _eq55_lhs(r):
    q = _cr(r).q.real
    return -sum_series(
        lambda n: dirichlet_chi8(n + 1) * q ** ((n + 1) / 2.0) / (1.0 - q ** (n + 1)))


def _eq55_rhs(r):
    c = _cr(r)
    return c.K * c.k / (math.sqrt(2.0) * pi * cmath.sqrt(1.0 + c.kprime))


def _eq56_lhs(r, fn):
    c = _cr(r)
    u = c.K.real / 2.0
    return jacobi_cn(c, u) if fn == "cn" else jacobi_dn(c, u)


def _eq56_rhs(r, fn):
    c = _cr(r)
    if fn == "cn":
        return cmath.sqrt(c.kprime) / cmath.sqrt(1.0 + c.kprime)
    return cmath.sqrt(c.kprime)


def _eq57_lhs(r):
    c = _cr(r)
    return jacobi_cd(c, c.K.real / 2.0)


def _eq57_rhs(r):
    return 1.0 / cmath.sqrt(1.0 + _cr(r).kprime)


def _eq58_rhs(r):
    c = _cr(r)
    q = c.q.real
    tail = sum_series(lambda n: q ** (n + 0.5) * (-1j) ** n / (1.0 - q ** (2 * n + 1)))
    return (cmath.exp(3j * pi / 4.0) * 2.0 * pi / (c.K * c.k) * tail
            - 1j * jacobi_cd(c, c.K.real / 2.0))


def _eq59_lhs(r):
    q = _cr(r).q.real
    return _s1(q) + _s3(q)


def _eq59_rhs(r):
    c = _cr(r)
    return math.sqrt(2.0) * c.K * c.k / (2.0 * pi * cmath.sqrt(1.0 + c.kprime))


def _eq60_lhs(r):
    c = _cr(r)
    q = c.q.real
    return pi * math.sqrt(2.0) / (c.K * c.k) * (_s3(q) - _s1(q))


# --------------------------------------------------------------------------
# the two-variable continued fraction U, the one-variable u0, the angle
# --------------------------------------------------------------------------

# The Cayley square laws C(U)^2 = W (EQ63, A-136, A-137, A-170) take U from its
# continued fraction, W from u0's Cayley images, and compare (W - 1)/(W + 1):
# 2U/(1 + U^2) at W = C(U)^2.  C(U) itself takes 1 - U, which loses its digits
# as U -> 1 (A-170 read 0.19 off at q = 0.95).
def _square_law_u(u):
    return 2.0 * u / (1.0 + u * u)


def _square_law_w(num, den):  # at W = num/den
    return (num - den) / (num + den)


def _eq63_lhs(a, b, q):
    return _square_law_u(u_cf(a, b, q))


def _eq63_rhs(a, b, q):
    return _square_law_w(cayley_u0_product(a, q), cayley_u0_product(b, q))


def _eq66_lhs(a, q):
    return cayley(u0_cf(a, q))


def _eq67_lhs(a, q):
    return log_P(a, q)


def _eq67_rhs(a, q):
    return cmath.log(cayley_u0_product(a, q))


def _eq68_lhs(r, x):
    c = _cr(r)
    q = c.q.real
    return numeric_derivative(
        lambda t: cmath.log(cayley_u0_product(_odd_frame_A(c, t), q)),
        x * c.K.real)


def _eq68_rhs(r, x):
    c = _cr(r)
    return 2j * pi / c.K * odd_ratio_sum(_odd_frame_A(c, x * c.K.real), c.q.real)


def _eq69_rhs(r, x):
    c = _cr(r)
    u = x * c.K.real
    return -c.k * jacobi_cd(c, u) - 1j * c.k * eval_fourier("ss", _cneg(r), c.kprime.real * u)


def _t14_lhs(r, x):
    c = _cr(r)
    return cmath.log(cayley_u0_product(_odd_frame_A(c, x * c.K.real), c.q.real))


def _t14_rhs(r, x):
    c = _cr(r)
    q = c.q.real
    u = x * c.K.real
    tail = sum_series(lambda n: (-1) ** n * q ** (n + 0.5)
              * math.cos((2 * n + 1) * pi * u / (2.0 * c.K.real))
              / ((2 * n + 1) * (1.0 - q ** (2 * n + 1))))
    return -cmath.log(jacobi_nd(c, u) + c.k * jacobi_sd(c, u)) + 4j * tail


def _eq71_1_lhs(r, x):
    c = _cr(r)
    return eval_fourier("ss", _cneg(r), c.kprime.real * x * c.K.real)


def _eq71_1_rhs(r, x):
    c = _cr(r)
    q = c.q.real
    u = x * c.K.real
    return 2.0 * pi / (c.K * c.k) * sum_series(
        lambda n: (-1) ** n * q ** (n + 0.5)
        * math.sin((2 * n + 1) * pi * u / (2.0 * c.K.real)) / (1.0 - q ** (2 * n + 1)))


def _eq72_lhs(r, x):
    c = _cr(r)
    return complex_quad(lambda t: jacobi_cd(c, t), 0.0, x * c.K.real)


def _eq72_rhs(r, x):
    c = _cr(r)
    u = x * c.K.real
    return cmath.log(jacobi_nd(c, u) + c.k * jacobi_sd(c, u)) / c.k


def _eq72_printed_rhs(r, x):
    c = _cr(r)
    u = x * c.K.real
    return cmath.log(jacobi_nd(c, u) + c.k * jacobi_sd(c, u))


def _t15a_lhs(r, x):
    return _t14_lhs(r, x).real


def _t15a_rhs(r, x):
    c = _cr(r)
    u = x * c.K.real
    return -cmath.log(jacobi_nd(c, u) + c.k * jacobi_sd(c, u)).real


def _log_poch_ratio(c: EllipticContext, t: float) -> complex:
    A = _odd_frame_A(c, t)
    return cmath.log(qpochhammer(-A, c.q.real) / qpochhammer(A, c.q.real))


def _t15b_lhs(r, x):
    c = _cr(r)
    return eval_fourier("cd1", c, x * c.K.real)


def _t15b_rhs(r, x):
    c = _cr(r)
    u = x * c.K.real
    dlog = numeric_derivative(lambda t: _log_poch_ratio(c, t), u)
    return (jacobi_cd(c, u) * math.cos(pi * u / c.K.real)
            + 2.0 / c.k.real * math.sin(pi * u / c.K.real) * dlog.imag)


def _t16_base(c: EllipticContext, u: float) -> complex:
    cd = jacobi_cd(c, u)
    return cd * math.cos(pi * u / c.K.real) - 1j * cd * math.sin(pi * u / c.K.real)


def _t16a_rhs(r, x):
    c = _cr(r)
    u = x * c.K.real
    dlog = numeric_derivative(
        lambda t: cmath.log(cayley(u0_cf(_odd_frame_A(c, t), c.q.real))),
        u)
    return _t16_base(c, u) - 1j / c.k * math.sin(pi * u / c.K.real) * dlog


def _t16b_rhs(r, x):
    c = _cr(r)
    u = x * c.K.real
    dlog = numeric_derivative(lambda t: _log_poch_ratio(c, t), u)
    return _t16_base(c, u) - 2j / c.k * math.sin(pi * u / c.K.real) * dlog


def _t17a_lhs(r, m, j):
    c = _cr(r)
    return cd1_halfplane(c, m * c.K.real + 2.0 * j * 1j * c.Kprime.real)


def _t17a_rhs(r, m, j):
    c = _cr(r)
    q = c.q.real
    rt = math.sqrt(r)
    head = sum(q ** (i + 0.5) / (1.0 + q ** (2 * i + 1)) for i in range(j))
    sign = (-1.0) ** (m // 2)
    return (sign * math.exp(2 * j * pi * rt)
            - sign * math.sinh(2 * j * pi * rt) * (1.0 - 2.0 * pi / (c.K * c.k) * head))


def _eq79_lhs(r, l):
    q = _cr(r).q.real
    return sum_series(
        lambda n: (-1) ** n * q ** ((2 * n + 1) * (l + 0.5)) / (1.0 - q ** (2 * n + 1)))


def _eq79_rhs(r, l):
    c = _cr(r)
    q = c.q.real
    return (-sum(q ** (i + 0.5) / (1.0 + q ** (2 * i + 1)) for i in range(l))
            + c.K * c.k / (2.0 * pi))


def _eq80_lhs(r, m, n):
    c = _cr(r)
    return jacobi_cd(c, m * c.K.real + n * 1j * c.Kprime.real)


def _eq82_lhs(q, x):
    return angle_sum(q, x)


def _eq82_rhs(q, x):
    w = principal_power(q, x)
    return cmath.log(qpochhammer(-w, q) / qpochhammer(w, q))


def _eq83_lhs(q, a, b):
    return angle_sum(q, a) - angle_sum(q, b)


def _eq83_rhs(q, a, b):
    return cmath.log(cayley_u_product(q ** a, q ** b, q))


def _t17b_lhs(q, a):
    return cmath.log(cayley_u0_product(q ** a, q))


def _t17b_rhs(q, a):
    return 2.0 * angle_sum(q, a)


def _eq85_lhs(r):
    c = _cr(r)
    return qpochhammer(-c.q.real, c.q.real)


def _eq85_rhs(r):
    c = _cr(r)
    return (2.0 ** (-1.0 / 6.0) * c.q ** (-1.0 / 24.0)
            * c.k ** (1.0 / 12.0) * c.kprime ** (-1.0 / 6.0))


def _eq86_lhs(r, a):
    return cmath.exp(-angle_sum(_cr(r).q.real, a))


def _eq86_rhs(r, a):
    c = _cr(r)
    q = c.q.real
    prod = 1.0
    for j in range(1, int(a) + 1):
        prod *= (1.0 + q ** j) / (1.0 - q ** j)
    return math.exp(-2.0 * math.atanh(q ** a)) * cmath.sqrt(2.0 * c.K * c.kprime / pi) * prod


def _t18_lhs(r, a):
    c = _cr(r)
    q = c.q.real
    th0 = frame_offset(c, a)
    return sum_series(lambda n: (-1) ** n * q ** (n + 0.5)
              * cmath.cos((2 * n + 1) * pi * th0 / (2.0 * c.K))
              / ((2 * n + 1) * (1.0 - q ** (2 * n + 1))))


def _t18_rhs(r, a):
    c = _cr(r)
    th0 = frame_offset(c, a)
    return (angle_sum(c.q.real, a) / 2j
            + cmath.log(jacobi_dn(c, th0) / (1 - c.k * jacobi_sn(c, th0))) / 4j)


def _eq88_lhs(r):
    return _cr(r).k ** 2


def _eq88_rhs(r):
    return _tabulated(_K2_KNOWN, r)


def _eq89_1_lhs(r):
    return _cneg(r).k


def _eq89_1_rhs(r):
    # k' by Jacobi's product ((q; q^2)/(-q; q^2))^4 (DLMF 20.5): no 1 - k^2, no theta4
    q = _cr(r).q
    return 1j * _cr(r).k / (qpochhammer(q, q * q) / qpochhammer(-q, q * q)) ** 4


def _eq89_2_lhs(x, y):
    c = EllipticContext.from_nome(cmath.exp(2j * pi * complex(x, y)))
    return 1j * ellint_K(c.kprime) / ellint_K(c.k)


def _eq41_lhs(r):
    # K* by the AGM at the negated-nome modulus, not the context's theta3(-q)^2
    c, cn = _cr(r), _cneg(r)
    return 1j * c.K * c.k / (ellint_K(cn.k) * cn.k)


# --------------------------------------------------------------------------
# modular-angle frames: theorems 18-24 and their application forms
# --------------------------------------------------------------------------

def _eq90_lhs(r, a):
    c = _cr(r)
    th0 = frame_offset(c, a)
    return complex_quad(lambda t: eval_fourier("ss", _cneg(r), c.kprime.real * t), 0.0, th0)


def _eq90_rhs(r, a):
    c = _cr(r)
    q = c.q.real
    th0 = frame_offset(c, a)
    return 4.0 / c.k * sum_series(
        lambda n: (-1) ** n * q ** (n + 0.5)
        * (1.0 - cmath.cos((2 * n + 1) * pi * th0 / (2.0 * c.K)))
        / ((2 * n + 1) * (1.0 - q ** (2 * n + 1))))


def _t19a_rhs(r, a):
    c = _cr(r)
    q = c.q.real
    th0 = frame_offset(c, a)
    tail = sum_series(
        lambda n: (-1) ** n * q ** (n + 0.5) / ((2 * n + 1) * (1.0 - q ** (2 * n + 1))))
    return (1j / c.k * cmath.log(cmath.exp(2.0 * angle_sum(q, a))
                                 * (jacobi_dn(c, th0) / (1 - c.k * jacobi_sn(c, th0))))
            + 4.0 / c.k * tail)


def _t19b_lhs(r, a):
    c = _cr(r)
    return eval_fourier("ss", _cneg(r), c.kprime.real * frame_offset(c, a))


def _t19b_rhs(r, a):
    c = _cr(r)
    q = c.q.real
    th0 = frame_offset(c, a)
    return (-2.0 * pi / (c.k * c.K)
            * sum_series(lambda n: q ** (a * (2 * n + 1)) / (1.0 - q ** (2 * n + 1)))
            + 1j * jacobi_cd(c, th0))


def _t20_lhs(r, a):
    c = _cr(r)
    q = c.q.real
    th0 = frame_offset(c, a)
    return 4j * pi * c.z * sum_series(
        lambda n: (-1) ** n * q ** (n + 0.5)
        * cmath.sin((2 * n + 1) * pi * th0 / (2.0 * c.K)) / (1.0 - q ** (2 * n + 1)))


def _t20_rhs(r, a):
    c = _cr(r)
    th0 = frame_offset(c, a)
    dth = numeric_derivative(lambda t: angle_sum(c.q.real, t), a)
    return -dth - 2.0 * c.z * c.K * c.k * jacobi_cd(c, th0)


def _eq94_lhs(r, a):
    c = _cr(r)
    q = c.q.real
    th0p = frame_offset_star_scaled(c, a)
    return 4j * pi * (c.z + 0.5) * sum_series(
        lambda n: q ** (n + 0.5)
        * cmath.sin((2 * n + 1) * pi * th0p / (2.0 * c.K)) / (1.0 + q ** (2 * n + 1)))


def _eq94_rhs(r, a):
    c = _cr(r)
    th0p = frame_offset_star_scaled(c, a)
    return (1j * angle_derivative(-c.q.real, a)
            - 2.0 * (c.z + 0.5) * c.K * c.k * jacobi_cn(c, th0p))


def _t20_1_lhs(r, a):
    c = _cr(r)
    return eval_fourier("ss", c, frame_offset_star_scaled(c, a))


def _t20_1_rhs(r, a):
    c = _cr(r)
    th0p = frame_offset_star_scaled(c, a)
    return (angle_derivative(-c.q.real, a) / ((2.0 * c.z + 1.0) * c.k * c.K)
            + 1j * jacobi_cn(c, th0p))


def _eq96_lhs(r, a):
    c = _cr(r)
    q = c.q.real
    return 1j * pi / c.K * sum_series(lambda n: q ** (n + a) / (1.0 - q ** (2 * (n + a))))


def _eq96_rhs(r, a):
    c = _cr(r)
    return angle_derivative(c.q.real, a) / (4.0 * c.z * c.K)


def _eq97_lhs(r, a):
    c = _cr(r)
    return numeric_derivative(lambda t: frame_offset(c, t), a)


def _eq97_rhs(r, a):
    # K' by the AGM at the complementary modulus, not the context's -2 i z K
    return 2j * ellint_K(_cr(r).kprime)


def _eq98_lhs(r, a):
    # the atanh sum's termwise x-derivative, Lambert dual of the slope's odd series
    q = _cr(r).q.real
    return sum_series(lambda n: q ** (n + a) / (1.0 - q ** (2 * (n + a))))


def _eq98_rhs(r, a):
    c = _cr(r)
    return angle_derivative(c.q.real, a) / (4j * pi * c.z)


def _eq99_lhs(r, a):
    return principal_power(_cr(r).q.real, a)


def _eq99_rhs(r, a):
    c = _cr(r)
    return 1j * cmath.sqrt(c.q) * cmath.exp(1j * pi * frame_offset(c, a) / (2.0 * c.K))


def _t21a_lhs(r, a):
    c = _cr(r)
    return eval_fourier("cd1", c, frame_offset(c, a))


def _t21a_rhs(r, a):
    c = _cr(r)
    th0 = frame_offset(c, a)
    return (cmath.exp(-1j * pi * th0 / c.K) * jacobi_cd(c, th0)
            - cmath.sin(pi * th0 / c.K) / (c.k * c.Kprime) * angle_derivative(c.q.real, a))


def _t21b_rhs(r, a):
    c = _cr(r)
    return (angle_derivative(c.q.real, a) / (c.k * c.Kprime)
            + 1j * jacobi_cd(c, frame_offset(c, a)))


def _eq102_lhs(r, a):
    c = _cr(r)
    return cmath.exp(1j * pi * a) * principal_power(c.q.real, a)


def _eq102_rhs(r, a):
    c = _cr(r)
    Ks = c.kprime * c.K
    return -cmath.sqrt(c.q) * cmath.exp(1j * pi * frame_offset_star(c, a) / (2.0 * Ks))


def _star_sum(c: EllipticContext, a: float) -> complex:
    q = c.q.real
    return sum_series(lambda n: q ** (a * (2 * n + 1)) * cmath.exp(1j * pi * a * (2 * n + 1))
              / (1.0 + q ** (2 * n + 1)))


def _eq103_lhs(r, a):
    c = _cr(r)
    return eval_fourier("cd1", _cneg(r), frame_offset_star(c, a))


def _eq103_rhs(r, a):
    c = _cr(r)
    th0s = frame_offset_star(c, a)
    Ks = c.kprime * c.K
    return (cmath.exp(-1j * pi * th0s / Ks) * jacobi_cn(c, th0s / c.kprime)
            - 2j * pi / (c.K * c.k) * cmath.sin(pi * th0s / Ks) * _star_sum(c, a))


def _eq104_lhs(r, u):
    return jacobi_cd(_cneg(r), u)


def _eq104_rhs(r, u):
    c = _cr(r)
    return jacobi_cn(c, u / c.kprime.real)


def _eq105_rhs(r, x):
    c = _cr(r)
    u = x * c.K.real
    arg = pi * u / c.K.real
    return (jacobi_cd(_cneg(r), c.kprime.real * u) / cmath.tan(arg)
            - eval_fourier("cd1", _cneg(r), c.kprime.real * u) / cmath.sin(arg))


def _t22_lhs(r, a):
    c = _cr(r)
    return eval_fourier("ss", c, frame_offset_star(c, a) / c.kprime.real)


def _t22_rhs(r, a):
    c = _cr(r)
    th0s = frame_offset_star(c, a)
    return (1j * jacobi_cn(c, th0s / c.kprime.real)
            + 2j * pi / (c.k * c.K) * _star_sum(c, a))


def _negq_ratio_sum(q: complex, a: float) -> complex:
    nq = _neg_nome(q)
    return sum_series(lambda n: principal_power(nq, a * (2 * n + 1)) / (1.0 + q ** (2 * n + 1)))


def _t23_lhs(x, y, a):
    q = cmath.exp(2j * pi * complex(x, y))
    return angle_derivative(_neg_nome(q), a)


def _t23_rhs(x, y, a):
    z = complex(x, y)
    q = cmath.exp(2j * pi * z)
    return 2j * pi * (2.0 * z - 1.0) * _negq_ratio_sum(q, a)


def _eq121_rhs(x, y, a):
    z = complex(x, y)
    q = cmath.exp(2j * pi * z)
    return 2j * pi * (1.0 + 2.0 * z) * _negq_ratio_sum(q, a)


def _eq108_lhs(r, a):
    # K* by the AGM at the negated-nome modulus, not frame_offset_star's k'K
    c = _cr(r)
    return frame_offset_star(c, a) / ellint_K(_cneg(r).k) - frame_offset(c, a) / c.K


def _eq109_lhs(r, a):
    c = _cr(r)
    return numeric_derivative(lambda t: frame_offset_star(c, t), a)


def _eq109_rhs(r, a):
    c = _cr(r)
    Ks = ellint_K(_cneg(r).k)
    return 2.0 * Ks + 4.0 * c.z * Ks


def _eq110_lhs(y, a):
    q = math.exp(-2.0 * pi * y)
    return sum_series(lambda n: q ** (a * (2 * n + 1)) * cmath.exp(1j * pi * a * (2 * n + 1))
              / (1.0 + q ** (2 * n + 1)))


def _eq110_rhs(y, a):
    return _negq_ratio_sum(math.exp(-2.0 * pi * y), a)


def _eq120_lhs(r, a):
    c = _cr(r)
    return frame_offset_star(c, a) / c.kprime


def _eq120_rhs(r, a):
    # K' by the AGM at the complementary modulus, not the context's -2 i z K
    c = _cr(r)
    return 2.0 * (a - 1.0) * c.K + 1j * (2.0 * a - 1.0) * ellint_K(c.kprime)


def _t24_lhs(y, a):
    c = _cy(y)
    return eval_fourier("ss", c, frame_offset_star_scaled(c, a))


def _t24_rhs(y, a):
    c = _cy(y)
    th = frame_offset_star_scaled(c, a)
    return (1j * jacobi_cn(c, th)
            + angle_derivative(-c.q.real, a) / ((1.0 + 2j * y) * c.k * c.K))


# --------------------------------------------------------------------------
# half-argument and integer-argument applications of the angle derivative
# --------------------------------------------------------------------------

def _eq112_lhs(y):
    # divisor form q^{1/2} sum_N d(2N+1) q^N of the slope's odd series at a = 1/2
    q = math.exp(-2.0 * pi * y)
    return math.sqrt(q) * sum_series(lambda n: divisor_count(2 * n + 1) * q**n)


def _eq112_rhs(y):
    return -angle_derivative(math.exp(-2.0 * pi * y), 0.5) / (4.0 * pi * y)


def _eq113_lhs(y):
    c = _cy(y)
    return numeric_derivative(lambda v: eval_fourier("cd1", c, v), c.K.real)


def _eq113_rhs(y):
    c = _cy(y)
    return 1.0 - pi / (2.0 * c.k * y * c.K ** 2) * angle_derivative(c.q.real, 0.5)


def _eq114_lhs(y):
    return sum_series(lambda n: 1.0 / (math.exp(2.0 * (2 * n + 1) * pi * y) - 1.0))


def _eq114_rhs(y):
    return -angle_derivative(math.exp(-2.0 * pi * y), 1.0) / (4.0 * pi * y)


def _eq115_lhs(y):
    c = _cy(y)
    return eval_fourier("ss", c, -c.K.real)


def _eq115_rhs(y):
    c = _cy(y)
    cn_ = _cneg(4.0 * y * y)
    return (1j * jacobi_cn(c, c.K.real)
            + angle_derivative(-c.q.real, 0.5) / (cn_.k * ellint_K(cn_.kprime)))


def _eq116_lhs(y):
    c = _cy(y)
    return eval_fourier("ss", c, c.K.real)


def _eq116_rhs(y):
    c = _cy(y)
    return -angle_derivative(-c.q.real, 0.5) / ((1.0 + 2j * y) * c.k * c.K)


def _eq117_lhs(y):
    # divisor form q^{1/2} sum_N chi_{-4}(2N+1) d(2N+1) q^N of the alternating series
    q = math.exp(-2.0 * pi * y)
    return math.sqrt(q) * sum_series(lambda n: (-1) ** n * divisor_count(2 * n + 1) * q**n)


def _eq117_rhs(y):
    return -angle_derivative(-math.exp(-2.0 * pi * y), 0.5) / (2.0 * pi * (1.0 + 2j * y))


def _odd_quotient_count(n: int, a: float) -> int:
    return sum(1 for d in divisors(n) if d > a and (n // d) % 2 == 1)


def _eq122_lhs(q, a):
    return numeric_derivative(lambda t: angle_sum(q, t), a)


def _eq122_rhs(q, a):
    lg = cmath.log(q)
    return (2.0 * q ** a * lg / (1.0 - q ** (2 * a))
            + 2.0 * lg * sum_series(lambda n: q ** (n + 1) * _odd_quotient_count(n + 1, a)))


def _eq123_rhs(y):
    q = math.exp(-2.0 * pi * y)
    return (q / (1.0 - q * q)
            + sum_series(lambda n: q ** (n + 1) * _odd_quotient_count(n + 1, 1)))


def _eq124_lhs(q, a):
    return angle_derivative(q, a + 1.0) - angle_derivative(q, a)


def _eq124_rhs(q, a):
    return -2.0 * q ** a * cmath.log(q) / (1.0 - q ** (2 * a))


def _eq125_lhs(q, a):
    return angle_derivative(q, a)


def _eq125_rhs(q, a):
    lg = cmath.log(q)
    head = sum(q ** n / (1.0 - q ** (2 * n)) for n in range(1, int(a)))
    return -2.0 * lg * head + 2.0 * lg * sum_series(
        lambda n: q ** (n + 1) / (1.0 - q ** (2 * (n + 1))))


def _eq126_lhs(y, a):
    q = math.exp(-2.0 * pi * y)
    return angle_derivative(q, a) / (2.0 * pi * y)


def _eq126_rhs(y, a):
    head = sum(1.0 / math.sinh(2.0 * pi * n * y) for n in range(1, int(a)))
    return (head
            - sum_series(lambda n: 1.0 / (math.exp(2.0 * pi * (n + 1) * y) - 1.0))
            - sum_series(lambda n: 1.0 / (math.exp(2.0 * pi * (n + 1) * y) + 1.0)))


def _eq127_rhs(y, a):
    head = sum(1.0 / math.sinh(2.0 * pi * n * y) for n in range(1, int(a)))
    return head - 2.0 * sum_series(lambda n: 1.0 / (math.exp(2.0 * pi * (2 * n + 1) * y) - 1.0))


def _eq128_lhs(q):
    return angle_sum(q, 0.5)


def _eq128_rhs(q):
    c = EllipticContext.from_nome(q)
    return -0.5 * cmath.log(c.kprime / (1.0 + c.k))


def _eq128_1_lhs(r, a):
    rt = math.sqrt(r)
    lam = (2.0 * a - 1.0) + 1j / rt
    return sum_series(lambda n: (-1) ** n * cmath.exp(-pi * (n + 0.5) * lam * rt)
              / math.sinh((n + 0.5) * pi * rt))


def _eq128_1_rhs(r, a):
    rt = math.sqrt(r)
    return 1j * angle_derivative(nome_from_r(r), a) / (pi * rt)


def _eq128_1_printed_rhs(r, a):
    rt = math.sqrt(r)
    return 1j * (1.0 / rt) * angle_derivative(nome_from_r(r), a) / (pi * rt)


def _eq129_lhs(r, a):
    rt = math.sqrt(r)
    return sum_series(lambda n: math.exp(-pi * (n + 0.5) * (2.0 * a - 1.0) * rt)
              / math.sinh((n + 0.5) * pi * rt))


def _eq129_rhs(r, a):
    return -angle_derivative(nome_from_r(r), a) / (pi * math.sqrt(r))


def _eq129_1_rhs(r, a):
    rt = math.sqrt(r)
    head = sum(1.0 / math.sinh(pi * n * rt) for n in range(1, int(a)))
    return -head + 2.0 * sum_series(lambda n: 1.0 / (math.exp(pi * (2 * n + 1) * rt) - 1.0))


def _eq130_lhs(y):
    q = math.exp(-2.0 * pi * y)
    return -4.0 * pi * y * sum_series(lambda n: q ** ((n + 1) / 2.0) / (1.0 - q ** (n + 1)))


def _eq130_rhs(y):
    q = math.exp(-2.0 * pi * y)
    return angle_derivative(q, 0.5) + angle_derivative(q, 1.0)


# --------------------------------------------------------------------------
# generalized theta quotients, agile brackets, Rogers-Ramanujan chain
# --------------------------------------------------------------------------

def _a131_lhs(k, h, q):
    return cayley_u_product(q ** (k + h), -q ** (k - h), q ** (2 * k))


def _a131_rhs(k, h, q):
    return theta3_two(k, h, q) / theta4_two(k, h, q)


def _a132_lhs(a, p, q):
    b1, b2 = p / 2.0, (p - 2.0 * a) / 2.0
    return theta3_two(b1, b2, q) / theta4_two(b1, b2, q)


def _a132_rhs(a, p, q):
    return cayley_u_product(q ** a, -q ** (p - a), q ** p)


def _a135_lhs(a, p, q, form):
    if form == "split":
        return agile_minus(a, p, q) * agile_plus(a, p, q)
    return agile_minus(2 * a, 2 * p, q)


def _a135_rhs(a, p, q, form):
    if form == "split":
        return agile_minus(2 * a, 2 * p, q)
    return agile_minus(a, p, q * q)


def _a136_lhs(a, b, p, q):
    return _square_law_u(u_cf(q ** a, -q ** b, q ** p))


def _a136_rhs(a, b, p, q):
    return _square_law_w(cayley_u0_product(q ** a, q ** p) * cayley_u0_product(q ** b, q ** p), 1.0)


def _a137_lhs(a, p, q):  # (agile_minus/agile_plus)^2 = C(U)^-2
    return _square_law_w(agile_plus(a, p, q) ** 2, agile_minus(a, p, q) ** 2)


def _a137_rhs(a, p, q):
    return _square_law_u(u_cf(q ** a, -q ** (p - a), q ** p))


def _a140_lhs(a, p, q):
    return agile_minus(a, p, q) / agile_plus(a, p, q)


def _a140_rhs(a, p, q):
    b1, b2 = p / 2.0, (p - 2.0 * a) / 2.0
    return theta4_two(b1, b2, q) / theta3_two(b1, b2, q)


def _a141_lhs(a, p, q):
    return agile_minus(a, p, q * q)


def _a141_rhs(a, p, q):
    b1, b2 = p / 2.0, (p - 2.0 * a) / 2.0
    return theta3_two(b1, b2, q) / theta4_two(b1, b2, q) * agile_minus(a, p, q) ** 2


def _a142_rhs(a, p, q):
    b1, b2 = p / 2.0, (p - 2.0 * a) / 2.0
    return theta4_two(b1, b2, q) / theta3_two(b1, b2, q) * agile_plus(a, p, q) ** 2


def _a143_lhs(q):
    return rr_G(q)


def _a143_rhs(q):
    return 1.0 / agile_minus(1, 5, q)


def _a144_lhs(q):
    return rr_G(q * q)


def _a144_rhs(q):
    return theta4_two(2.5, 1.5, q) / theta3_two(2.5, 1.5, q) * rr_G(q) ** 2


def _a145_lhs(q):
    return rr_H(q)


def _a145_rhs(q):
    return 1.0 / agile_minus(2, 5, q)


def _a145_printed_lhs(q):
    return rr_H(q) - 1.0  # summation started one term late


def _a146_lhs(q):
    return rr_H(q * q)


def _a146_rhs(q):
    return theta4_two(2.5, 0.5, q) / theta3_two(2.5, 0.5, q) * rr_H(q) ** 2


def _a147_lhs(q, form):
    return rr_cf(q)


def _a147_rhs(q, form):
    if form == "quotient":
        return rr_sum(q)
    return rr_product(q)


def _a150_lhs(q):
    return theta3_two(2.5, 1.5, q) / theta3_two(2.5, 0.5, q)


def _a150_rhs(q):
    return q ** (-0.2) * rr_cf(q * q) / rr_cf(q)


def _a151_lhs(a, b, p, q):
    return ramanujan_quantity(a, b, p, -q)


def _a151_rhs(a, b, p, q):
    return theta3_two(p / 2.0, (p - 2.0 * a) / 2.0, q) / theta3_two(p / 2.0, (p - 2.0 * b) / 2.0, q)


def _a152_lhs(a, b, p, q):
    return ramanujan_quantity(a, b, p, q * q)


def _a152_rhs(a, b, p, q):
    return ramanujan_quantity(a, b, p, q) * ramanujan_quantity(a, b, p, -q)


def _a153_lhs(a, b, p, q):
    return ramanujan_quantity(a, b, p, q)


def _a153_rhs(a, b, p, q):
    return theta4_two(p / 2.0, (p - 2.0 * a) / 2.0, q) / theta4_two(p / 2.0, (p - 2.0 * b) / 2.0, q)


def _a155_lhs(a, p, q):
    return agile_plus(a, p, q)


def _a155_rhs(a, p, q):
    return theta3_two(p / 2.0, (p - 2.0 * a) / 2.0, q) / euler_product(q ** p)


def _a156_lhs(a, p, q):
    return agile_minus(a, p, q)


def _a156_rhs(a, p, q):
    return theta4_two(p / 2.0, (p - 2.0 * a) / 2.0, q) / euler_product(q ** p)


def _a157_lhs(a, p, q):
    return theta4_two(p / 2.0, p / 2.0 - a, q) / theta3_two(p / 2.0, p / 2.0 - a, q)


def _a157_rhs(a, p, q):
    return cayley_u_product(q ** a, -q ** (p - a), q ** p) ** (-1.0)


def _a158_lhs(a, p, q):
    return cmath.log(cayley_u_product(q ** a, -q ** (p - a), q ** p))


def _a158_rhs(a, p, q):
    return 2.0 * restricted_divisor_log(q, p, [a, p - a])


def _a158_printed_rhs(a, p, q):
    return 4.0 * restricted_divisor_log(q, p, sorted({a % p, (p - a) % p}))


def _a159_lhs(a, b, p, q, eps):
    return cmath.log(cayley_u_product(q ** a, eps * q ** b, q ** p))


def _a159_rhs(a, b, p, q, eps):
    return (2.0 * restricted_divisor_log(q, p, [a])
            - 2.0 * eps * restricted_divisor_log(q, p, [b]))


def _a160_lhs(a, p, q):
    b1, b2 = p / 2.0, (p - 2.0 * a) / 2.0
    return cmath.log(theta3_two(b1, b2, q)) - cmath.log(theta4_two(b1, b2, q))


def _a161_lhs(a, p, q):
    return cmath.log(theta3_two(p / 2.0, p / 2.0 - a, q))


def _a161_rhs(a, p, q):
    return (cmath.log(euler_product(q ** p))
            - restricted_divisor_log(q, p, [a, p - a], odd_only=False, x=-1.0))


def _a161_printed_rhs(a, p, q):
    return -(_a161_rhs(a, p, q))


def _a162_lhs(a, p, q):
    return cmath.log(agile_minus(a, p, q))


def _a162_rhs(a, p, q):
    return -restricted_divisor_log(q, p, [a, p - a], odd_only=False)


def _a163_lhs(a, p, q):
    return cmath.log(agile_plus(a, p, q))


def _a163_rhs(a, p, q):
    return -restricted_divisor_log(q, p, [a, p - a], odd_only=False, x=-1.0)


def _a164_lhs(a, p, q):
    w = q ** a
    return cmath.log(cayley_u_product(w, -w, q ** p))


def _a164_rhs(a, p, q):
    return 4.0 * restricted_divisor_log(q, p, [a])


def _a165_lhs(a, p, q, eps):
    return cmath.log(qpochhammer(eps * q ** a, q ** p))


def _a165_rhs(a, p, q, eps):
    if eps > 0:
        return -restricted_divisor_log(q, p, [a], odd_only=False)
    return -restricted_divisor_log(q, p, [a], odd_only=False, x=-1.0)


def _a166_lhs(a, b, p, q, eps):
    return (cmath.log(cayley_u_product(q ** a, eps * q ** b, q ** p))
            + cmath.log(cayley_u_product(q ** (p - a), eps * q ** (p - b), q ** p)))


def _a166_rhs(a, b, p, q, eps):
    def theta_ratio(c):
        b1, b2 = p / 2.0, (p - 2.0 * c) / 2.0
        return cmath.log(theta3_two(b1, b2, q) / theta4_two(b1, b2, q))

    return theta_ratio(a) - eps * theta_ratio(b)


def _a167_lhs(a, b, p, q, x):
    return cmath.log(cayley_u_product(x * q ** a, -x * q ** b, q ** p))


def _a167_rhs(a, b, p, q, x):
    return (2.0 * restricted_divisor_log(q, p, [a], x=x)
            + 2.0 * restricted_divisor_log(q, p, [b], x=x))


def _a167_printed_rhs(a, b, p, q, x):
    return (restricted_divisor_log(q, p, [a], x=x)
            + restricted_divisor_log(q, p, [b], x=x))


def _a168_lhs(a, b, p, q, x, y):
    return cmath.log(cayley_u_product(x * q ** a, -y * q ** b, q ** p))


def _a168_rhs(a, b, p, q, x, y):
    return (2.0 * restricted_divisor_log(q, p, [a], x=x)
            + 2.0 * restricted_divisor_log(q, p, [b], x=y))


def _a168_printed_rhs(a, b, p, q, x, y):
    return (restricted_divisor_log(q, p, [a], x=x)
            + restricted_divisor_log(q, p, [b], x=y))


def _a169_lhs(a, p, q, x):
    w = x * q ** a
    return cmath.log(qpochhammer(-w, q ** p) / qpochhammer(w, q ** p))


def _a169_rhs(a, p, q, x):
    return 2.0 * restricted_divisor_log(q, p, [a], x=x)


def _a170_lhs(a, b, q):
    return _square_law_u(u_cf(a, -b, q))


def _a170_rhs(a, b, q):
    return _square_law_w(cayley_u0_product(a, q) * cayley_u0_product(b, q), 1.0)


def _main_a1_lhs(x, y, q):
    return cmath.log(cayley_u_product(x * q, y * q, q))


def _main_a1_rhs(x, y, q):
    return 2.0 * odd_lambert(x * q, q) - 2.0 * odd_lambert(y * q, q)


# --------------------------------------------------------------------------
# the registry itself
# --------------------------------------------------------------------------

def _build() -> tuple[IdentityCase, ...]:
    C = IdentityCase
    cases: list[IdentityCase] = [
        # ---- hyperbolic series with Bernoulli/Fermi closed forms ----
        C("EQ2", "power-weighted Lambert sum at nome e^{-2 pi} equals a Bernoulli quotient",
          "qelliptic.qseries.bernoulli", _eq2_lhs, _eq2_rhs,
          ({"nu": 1}, {"nu": 2}), param_domain="nu >= 1 integer"),
        C("EQ3", "odd power-weighted Fermi sum equals a derivative-constant/Bernoulli combination",
          "qelliptic.qseries.fermi_derivative_constant", _eq3_lhs, _eq3_rhs,
          ({"nu": 0}, {"nu": 1}, {"nu": 2}), param_domain="nu >= 0 integer"),
        C("EQ4", "Fermi derivative constants match the Cauchy-integral derivative of 1/(e^x+1)",
          "qelliptic.qseries.fermi_derivative_constant", _eq4_lhs, _eq4_rhs,
          ({"nu": 1}, {"nu": 3}, {"nu": 5})),
        C("T1", "two-point zeta/Bernoulli reciprocity for conjugate rates a b = pi^2",
          "qelliptic.qseries.zeta_value", _t1_lhs, _t1_rhs,
          ({"nu": 1, "a": pi}, {"nu": 1, "a": 2.0}, {"nu": 2, "a": pi},
           {"nu": -1, "a": pi}, {"nu": -1, "a": 2.0}, {"nu": -2, "a": 2.0}),
          param_domain="integer nu != 0, a > 0, b = pi^2/a"),
        C("EQ7", "weight-n Lambert sum at nome e^{-2 pi} equals 1/24 - 1/(8 pi)",
          "qelliptic.qseries.lambert_sum",
          lambda q: lambert_sum(q, float),
          lambda q: 1.0 / 24.0 - 1.0 / (8.0 * pi),
          ({"q": math.exp(-2.0 * pi)},), tol=1e-10),
        C("EQ9", "logarithm of the Euler product equals the n-averaged Lambert sum",
          "qelliptic.qseries.euler_product", _eq9_lhs,
          lambda q: -cmath.log(euler_product(q)),
          ({"q": nome_from_r(2.0)}, {"q": 0.3})),
        C("EQ10", "Euler product in terms of nome, modulus, and complete integral",
          "qelliptic.qseries.euler_product", _eq10_lhs, _eq10_rhs,
          ({"r": 1.0}, {"r": 3.0})),
        C("EQ10.1", "AGM route for K and E matches the hypergeometric series",
          "qelliptic.elliptic.ellint_K", _eq10_1_lhs, _eq10_1_rhs,
          ({"x": 0.3, "fn": "K"}, {"x": 0.3, "fn": "E"},
           {"x": 0.8, "fn": "K"}, {"x": 0.8, "fn": "E"})),
        C("EQ10.2", "quarter-period ratio at the nome e^{-pi sqrt(r)} is sqrt(r)",
          "qelliptic.elliptic.EllipticContext.from_r",
          lambda r: agm(1.0, _cr(r).kprime) / agm(1.0, _cr(r).k),
          lambda r: math.sqrt(r),
          ({"r": 1.0}, {"r": 2.0}, {"r": 3.0}, {"r": 4.0})),
        C("EQ11", "nome-derivative of the averaged Lambert sum equals a csch^2 series",
          "qelliptic.numutil.numeric_derivative", _eq11_lhs, _eq11_rhs,
          ({"q": 0.1},), compare="derivative", tol=1e-12,
          param_domain="0 < |q| < 1, principal Log q"),
        C("EQ11.1", "modulus grows with the nome at rate 2 k k'^2 K^2/(q pi^2)",
          "qelliptic.elliptic.dk_dq", _eq11_1_lhs, _eq11_1_rhs,
          ({"q": 0.05}, {"q": 0.1}), compare="derivative", tol=1e-8),
        C("EQ11.1-PRINTED", "sign variant of EQ11.1 kept for the record",
          "qelliptic.elliptic.dk_dq", _eq11_1_lhs,
          lambda q: -_eq11_1_rhs(q),
          ({"q": 0.05}, {"q": 0.1}), compare="derivative", status="QUARANTINED"),
        C("EQ12", "csch^2 series equals the logarithmic nome-derivative of the Euler product",
          "qelliptic.qseries.euler_product", _eq12_lhs, _eq12_rhs,
          ({"x": 0.9},), compare="derivative", tol=1e-12),
        C("EQ13", "alternating weight-n Lambert sum in terms of K and E",
          "qelliptic.elliptic.EllipticContext.from_r", _eq13_lhs, _eq13_rhs,
          ({"r": 1.0}, {"r": 2.0}, {"r": 4.0})),
        C("EQ14", "singular alpha values at r = 1, 2, 4 match their algebraic closed forms",
          "qelliptic.elliptic.singular_alpha",
          lambda r: singular_alpha(r),
          lambda r: _tabulated(_ALPHA_KNOWN, r),
          ({"r": 1.0}, {"r": 2.0}, {"r": 4.0}), tol=1e-9,
          param_domain="r in {1, 2, 4} (the tabulated closed forms)"),
        C("EQ15", "second complete integral in terms of K and the alpha value",
          "qelliptic.elliptic.EllipticContext.from_r",
          lambda r: _cr(r).E, _eq15_rhs,
          ({"r": 1.0}, {"r": 2.0}, {"r": 4.0}),
          param_domain="r in {1, 2, 4} (the tabulated alpha values)"),
        C("EQ16", "even/odd Lambert combination in terms of alpha and K",
          "qelliptic.elliptic.singular_alpha", _eq16_lhs, _eq16_rhs,
          ({"r": 1.0}, {"r": 4.0})),
        C("EQ17", "odd weight-n sum at unit rate equals -1/24 + 16 pi/Gamma(-1/4)^4",
          "qelliptic.numutil.sum_series", _eq17_lhs, _eq17_rhs,
          ({"r": 4.0},), tol=1e-8,
          param_domain="r = 4 (the modular route fixing the Gamma closed form)"),
        C("T2", "weight-n Lambert sum against modulus and alpha data",
          "qelliptic.elliptic.singular_alpha", _t2_lhs, _t2_rhs,
          ({"r": 1.0}, {"r": 2.0}, {"r": 3.0})),
        C("EQ19", "alpha duplication rule through the modulus at 4r",
          "qelliptic.elliptic.singular_alpha", _eq19_lhs, _eq19_rhs,
          ({"r": 1.0}, {"r": 2.0}), tol=1e-9),
        C("T3", "odd weight-n Lambert sum equals 4(1+k^2)K^2/pi^2",
          "qelliptic.elliptic.EllipticContext.from_r", _t3_lhs, _t3_rhs,
          ({"r": 1.0}, {"r": 2.0}, {"r": 3.0})),
        C("EQ21", "alpha reflection r -> 1/r",
          "qelliptic.elliptic.singular_alpha",
          lambda r: singular_alpha(1.0 / r),
          lambda r: 1.0 / math.sqrt(r) - singular_alpha(r) / r,
          ({"r": 2.0}, {"r": 3.0}, {"r": 4.0}), tol=1e-9),
        C("T4", "odd weight-n Fermi sum equals z^2 (1 - 2x)",
          "qelliptic.elliptic.EllipticContext.from_r", _t4_lhs, _t4_rhs,
          ({"r": 2.0}, {"r": 3.0})),
        C("T5", "odd sech sum at half rate equals K k/pi",
          "qelliptic.elliptic.EllipticContext.from_r", _t5_lhs, _kk_over_pi,
          ({"r": 1.0}, {"r": 2.0}, {"r": 3.0}), tol=1e-10),
        C("T6", "alternating odd Fermi sum equals 1/4 - K k'/(2 pi)",
          "qelliptic.elliptic.EllipticContext.from_r", _t6_lhs, _t6_rhs,
          ({"r": 1.0}, {"r": 3.0})),
        C("EQ24", "tangent-plus-Lambert expansion of sn/(cn dn)",
          "qelliptic.fourier.jacobi_sn", _eq24_lhs, _eq24_rhs,
          ({"r": 2.0, "x": 0.37}, {"r": 1.0, "x": 0.25}),
          param_domain="0 < x < 1 (u = x K inside the strip)"),

        # ---- divisor duality and elementary transformations ----
        C("EQ26", "Lambert series with multiplicative weight equals its divisor expansion",
          "qelliptic.qseries.divisor_expand",
          lambda q, kind: lambert_sum(q, _weight(kind)),
          lambda q, kind: divisor_expand(q, _weight(kind)),
          ({"q": 0.1, "kind": "one"}, {"q": 0.3, "kind": "one"},
           {"q": 0.1, "kind": "id"}, {"q": 0.3, "kind": "id"},
           {"q": 0.1, "kind": "chi8"}, {"q": 0.3, "kind": "chi8"}),
          tol=1e-10),
        C("P1", "hyperbolic Fermi-free sum generates the divisor-count coefficients",
          "qelliptic.qseries.divisor_expand", ghost_sum,
          lambda x: divisor_expand(math.exp(-x), lambda n: 1.0),
          ({"x": pi}, {"x": 0.5})),
        C("P2", "secant-cosine expansion equals the amplitude-angle elliptic form",
          "qelliptic.fourier.eval_fourier", _p2_lhs, _p2_rhs,
          ({"r": 1.0, "x": 0.3}, {"r": 2.0, "x": 0.55}),
          param_domain="0 < x < 1 (u = x K)"),
        C("COR1", "two exponential-sum routes to 2K/pi",
          "qelliptic.elliptic.EllipticContext.from_r", _cor1_lhs,
          lambda r, form: 2.0 * _cr(r).K / pi,
          ({"r": 1.0, "form": "alt"}, {"r": 2.0, "form": "alt"},
           {"r": 1.0, "form": "res4"}, {"r": 2.0, "form": "res4"})),
        C("T7", "n csch^2 series equals the rate-derivative of the Fermi-free sum",
          "qelliptic.numutil.numeric_derivative", _t7_lhs, _t7_rhs,
          ({"x": 0.8}, {"x": 0.3}), compare="derivative", tol=1e-11),
        C("EQ32.1", "negated-nome sn as a rescaled sd",
          "qelliptic.fourier.jacobi_sn", _eq32_1_lhs, _eq32_1_rhs,
          ({"r": 2.0, "u": 0.3}, {"r": 1.0, "u": 0.5})),
        C("EQ33", "parameter-negation transformation of the complete integral",
          "qelliptic.elliptic.ellint_K", _eq33_lhs,
          lambda x: pi / 2.0 * _hyp2f1_half(0.5, x),
          ({"x": 0.3}, {"x": 0.62})),
        C("EQ34", "quarter-period ratio between negated and plain nome is k'",
          "qelliptic.elliptic.EllipticContext.from_nome",
          lambda r: agm(1.0, _cr(r).kprime) / agm(1.0, _cneg(r).kprime),
          lambda r: _cr(r).kprime,
          ({"r": 1.0}, {"r": 2.0})),
        C("P3", "negated-nome sn equals k' times an argument-scaled sd",
          "qelliptic.fourier.eval_fourier",
          lambda r, u: jacobi_sn(_cneg(r), u),
          lambda r, u: _cr(r).kprime * eval_fourier("sd", _cr(r), u / _cr(r).kprime.real),
          ({"r": 2.0, "u": 0.3}, {"r": 1.0, "u": 0.45})),
        C("EQ36", "half-nome odd Lambert sum equals K k/pi",
          "qelliptic.elliptic.EllipticContext.from_r", _eq36_lhs, _kk_over_pi,
          ({"r": 1.0}, {"r": 2.0})),
        C("T8", "alternating csch sum and its q-series form both equal K k/pi",
          "qelliptic.elliptic.EllipticContext.from_r", _t8_lhs,
          lambda r, form: _kk_over_pi(r),
          ({"r": 1.0, "form": "sinh"}, {"r": 2.0, "form": "sinh"},
           {"r": 1.0, "form": "qform"}, {"r": 2.0, "form": "qform"})),
        C("P4", "ss as a cotangent/cosecant combination of cn and its shifted series",
          "qelliptic.fourier.eval_fourier", _p4_lhs, _p4_rhs,
          ({"r": 2.0, "x": 0.3}, {"r": 1.0, "x": 0.45})),
        C("P5", "negated-nome cn equals an argument-scaled cd",
          "qelliptic.fourier.jacobi_cd",
          lambda r, u: jacobi_cn(_cneg(r), u),
          lambda r, u: jacobi_cd(_cr(r), u / _cr(r).kprime.real),
          ({"r": 2.0, "u": 0.3}, {"r": 1.0, "u": 0.45})),
        C("EQ41", "product of quarter-period and modulus ratios across nome negation",
          "qelliptic.elliptic.EllipticContext.from_nome", _eq41_lhs,
          lambda r: 1.0,
          ({"r": 1.0}, {"r": 2.0})),
        C("EQ48", "quarter-period shift of cn",
          "qelliptic.fourier.eval_fourier", _shift_lhs, _shift_rhs,
          ({"r": 2.0, "x": 0.3, "fn": "cn"}, {"r": 1.0, "x": 0.4, "fn": "cn"})),
        C("EQ49", "quarter-period shift of dn",
          "qelliptic.fourier.jacobi_dn", _shift_lhs, _shift_rhs,
          ({"r": 2.0, "x": 0.3, "fn": "dn"}, {"r": 1.0, "x": 0.4, "fn": "dn"})),
        C("EQ50", "quarter-period shift of cd",
          "qelliptic.fourier.eval_fourier", _shift_lhs, _shift_rhs,
          ({"r": 2.0, "x": 0.3, "fn": "cd"}, {"r": 1.0, "x": 0.4, "fn": "cd"})),
        C("CC-SPLIT", "the auxiliary cosine series splits into its first term plus q cn1",
          "qelliptic.fourier.eval_fourier", _cc_split_lhs, _cc_split_rhs,
          ({"r": 2.0, "x": 0.3},)),
        C("DD-SPLIT", "the alternating auxiliary cosine series splits into its first term minus q cd1",
          "qelliptic.fourier.eval_fourier", _dd_split_lhs, _dd_split_rhs,
          ({"r": 2.0, "x": 0.3},)),

        # ---- the shifted cosine expansion cd1 ----
        C("T9", "odd-power ratio sum as a cd/cd1 cotangent-cosecant combination",
          "qelliptic.thetagen.odd_ratio_sum", _t9_lhs, _t9_rhs,
          ({"r": 2.0, "x": 0.3, "y": 0.0}, {"r": 2.0, "x": 0.2, "y": 0.3}),
          param_domain="|A| < 1 and u inside the strip"),
        C("EQ42.1", "odd-power ratio sum equals i cd minus the negated-nome ss",
          "qelliptic.thetagen.odd_ratio_sum", _eq42_1_lhs, _eq42_1_rhs,
          ({"r": 2.0, "x": 0.3}, {"r": 1.0, "x": 0.5})),
        C("EQ43", "negated-nome cn1 equals argument-scaled cd1",
          "qelliptic.fourier.eval_fourier", _eq43_lhs, _eq43_rhs,
          ({"r": 2.0, "u": 0.3}, {"r": 1.0, "u": 0.4})),
        C("EQ44", "negated-nome ss as a cd/cd1 combination at scaled argument",
          "qelliptic.fourier.eval_fourier", _eq44_lhs, _eq44_rhs,
          ({"r": 2.0, "u": 0.3}, {"r": 1.0, "u": 0.4})),
        C("T10", "exponentially damped csch sum as a hyperbolic cd/cd1 combination",
          "qelliptic.fourier.eval_fourier", _t10_lhs, _t10_rhs,
          ({"r": 2.0, "x": 0.5}, {"r": 1.0, "x": 0.3}),
          param_domain="0 < x < 1"),
        C("T11", "fractional-exponent Lambert sum as an sn/cd1 hyperbolic combination",
          "qelliptic.fourier.eval_fourier", _t11_lhs, _t11_rhs,
          ({"r": 2.0, "nu": 3.0}, {"r": 1.0, "nu": 5.0}, {"r": 2.0, "nu": 4.0}),
          param_domain="nu > 2 with 2/nu not an integer"),
        C("COR2", "slope of cd1 at the quarter period",
          "qelliptic.fourier.eval_fourier", _cor2_lhs, _cor2_rhs,
          ({"r": 2.0},), compare="limit", tol=1e-11),
        C("T12", "cd1 at the imaginary quarter period",
          "qelliptic.fourier.cd1_halfplane", _t12_lhs, _t12_rhs,
          ({"r": 1.0}, {"r": 2.0})),
        C("COR3", "cd1 at half the imaginary quarter period",
          "qelliptic.fourier.eval_fourier", _cor3_lhs, _cor3_rhs,
          ({"r": 1.0}, {"r": 2.0})),
        C("COR4", "cd1 at half the real quarter period via the residue-class sum S1",
          "qelliptic.fourier.eval_fourier", _cd1_half, _cor4_rhs,
          ({"r": 1.0}, {"r": 2.0}), tol=1e-10),
        C("EQ55", "character-weighted Lambert sum equals K k/(sqrt(2) pi sqrt(1+k'))",
          "qelliptic.qseries.dirichlet_chi8", _eq55_lhs, _eq55_rhs,
          ({"r": 1.0}, {"r": 2.0})),
        C("EQ56", "cn and dn at half the quarter period",
          "qelliptic.fourier.jacobi_cn", _eq56_lhs, _eq56_rhs,
          ({"r": 1.0, "fn": "cn"}, {"r": 1.0, "fn": "dn"},
           {"r": 2.0, "fn": "cn"}, {"r": 2.0, "fn": "dn"})),
        C("EQ57", "cd at half the quarter period",
          "qelliptic.fourier.jacobi_cd", _eq57_lhs, _eq57_rhs,
          ({"r": 1.0}, {"r": 2.0})),
        C("EQ58", "cd1 at half the quarter period as a rotated quarter-nome series",
          "qelliptic.fourier.eval_fourier", _cd1_half, _eq58_rhs,
          ({"r": 1.0}, {"r": 2.0}), tol=1e-10),
        C("EQ59", "sum of the two residue-class series S1 + S3",
          "qelliptic.elliptic.EllipticContext.from_r", _eq59_lhs, _eq59_rhs,
          ({"r": 1.0}, {"r": 2.0})),
        C("EQ60", "difference of the residue-class series recovers cd1 at K/2",
          "qelliptic.fourier.eval_fourier", _eq60_lhs, _cd1_half,
          ({"r": 1.0}, {"r": 2.0}), tol=1e-10),

        # ---- continued fractions U and u0, the modular angle ----
        C("T13", "two-variable continued fraction equals its product form",
          "qelliptic.thetagen.u_cf",
          lambda a, b, q: u_cf(a, b, q),
          lambda a, b, q: u_product(a, b, q),
          ({"a": 0.3, "b": 0.5, "q": 0.2}, {"a": 0.3 + 0.1j, "b": 0.5, "q": 0.2},
           {"a": -0.2, "b": 0.6, "q": 0.2}, {"a": 0.25, "b": 0.4, "q": 0.35}),
          tol=1e-10, param_domain="|a|, |b| < 1, 0 < |q| < 1"),
        C("EQ63", "Cayley square law relating U to the two u0 factors",
          "qelliptic.thetagen.cayley_u0_product", _eq63_lhs, _eq63_rhs,
          ({"a": 0.3, "b": 0.1, "q": 0.2}, {"a": 0.3, "b": 0.5, "q": 0.2}),
          tol=1e-10),
        C("EQ66", "the Moebius form -1 + 2/(1-u0) of the continued fraction u0 equals P",
          "qelliptic.thetagen.u0_cf", _eq66_lhs,
          lambda a, q: cayley_u0_product(a, q),
          ({"a": 0.3, "q": 0.2}, {"a": -0.25, "q": 0.3})),
        C("EQ67", "odd Lambert logarithm of the Cayley-transformed u0",
          "qelliptic.thetagen.log_P", _eq67_lhs, _eq67_rhs,
          ({"a": 0.32, "q": 0.15}, {"a": 0.5, "q": 0.25})),
        C("EQ68", "frame derivative of the log-Cayley u0 equals the odd ratio sum",
          "qelliptic.thetagen.odd_ratio_sum", _eq68_lhs, _eq68_rhs,
          ({"r": 2.0, "x": 0.3},), compare="derivative", tol=1e-10),
        C("EQ69", "frame derivative of the log-Cayley u0 equals -k cd - i k ss(-q)",
          "qelliptic.fourier.eval_fourier", _eq68_lhs, _eq69_rhs,
          ({"r": 2.0, "x": 0.3},), compare="derivative", tol=1e-10),
        C("T14", "log-Cayley u0 splits into -log(nd + k sd) plus an odd cosine series",
          "qelliptic.thetagen.cayley_u0_product", _t14_lhs, _t14_rhs,
          ({"r": 2.0, "x": 0.35}, {"r": 1.0, "x": 0.3}), compare="exponentiated"),
        C("EQ71.1", "negated-nome ss at scaled argument as an alternating sine series",
          "qelliptic.fourier.eval_fourier", _eq71_1_lhs, _eq71_1_rhs,
          ({"r": 2.0, "x": 0.35}, {"r": 1.0, "x": 0.6})),
        C("EQ72", "integral of cd equals log(nd + k sd)/k",
          "qelliptic.numutil.complex_quad", _eq72_lhs, _eq72_rhs,
          ({"r": 2.0, "x": 0.4},)),
        C("EQ72-PRINTED", "variant of EQ72 without the 1/k factor, kept for the record",
          "qelliptic.numutil.complex_quad", _eq72_lhs, _eq72_printed_rhs,
          ({"r": 2.0, "x": 0.4},), status="QUARANTINED"),
        C("T15a", "real part of the log-Cayley u0 on the real axis",
          "qelliptic.thetagen.cayley_u0_product", _t15a_lhs, _t15a_rhs,
          ({"r": 2.0, "x": 0.35}, {"r": 1.0, "x": 0.3})),
        C("T15b", "cd1 recovered from the imaginary part of the product-ratio log-derivative",
          "qelliptic.fourier.eval_fourier", _t15b_lhs, _t15b_rhs,
          ({"r": 2.0, "x": 0.3},), compare="derivative", tol=1e-10),
        C("EQ75", "one-variable continued fraction equals its product form",
          "qelliptic.thetagen.u0_cf",
          lambda a, q: u0_cf(a, q),
          lambda a, q: u0_product(a, q),
          ({"a": 0.3, "q": 0.2}, {"a": 0.2 + 0.1j, "q": 0.15}, {"a": -0.4, "q": 0.3},
           {"a": 0.45, "q": 0.35}),
          tol=1e-10),
        C("T16a", "cd1 from the continued-fraction route of the Moebius log-derivative",
          "qelliptic.thetagen.u0_cf", _t15b_lhs, _t16a_rhs,
          ({"r": 2.0, "x": 0.3},), compare="derivative", tol=1e-10),
        C("T16b", "cd1 from the product-ratio route of the Moebius log-derivative",
          "qelliptic.fourier.eval_fourier", _t15b_lhs, _t16b_rhs,
          ({"r": 2.0, "x": 0.3},), compare="derivative", tol=1e-9),
        C("T17a", "cd1 at even lattice translates of the imaginary quarter period",
          "qelliptic.fourier.cd1_halfplane", _t17a_lhs, _t17a_rhs,
          ({"r": 1.0, "m": 2, "j": 1}, {"r": 1.0, "m": 2, "j": 2},
           {"r": 2.0, "m": 4, "j": 3}),
          param_domain="m even, j >= 1 integer"),
        C("EQ79", "tail of the alternating fractional Lambert sum telescopes to K k/(2 pi)",
          "qelliptic.elliptic.EllipticContext.from_r", _eq79_lhs, _eq79_rhs,
          ({"r": 2.0, "l": 1}, {"r": 2.0, "l": 2}, {"r": 2.0, "l": 3})),
        C("EQ80", "cd at even lattice points is a sign",
          "qelliptic.fourier.jacobi_cd", _eq80_lhs,
          lambda r, m, n: (-1.0) ** (m // 2),
          ({"r": 2.0, "m": 2, "n": 2}, {"r": 2.0, "m": 4, "n": 6})),
        C("EQ82", "arctanh series for the angle equals the log product ratio",
          "qelliptic.angle.angle_sum", _eq82_lhs, _eq82_rhs,
          ({"q": 0.3, "x": 0.7}, {"q": 0.3, "x": 0.5 + 0.2j}, {"q": 0.2 + 0.1j, "x": 0.6})),
        C("EQ83", "angle difference equals the log-Cayley of the two-variable fraction",
          "qelliptic.angle.angle_sum", _eq83_lhs, _eq83_rhs,
          ({"q": 0.25, "a": 0.4, "b": 0.7}, {"q": 0.1, "a": 0.5, "b": 1.0})),
        C("EQ83-PRINTED", "doubled-angle variant of EQ83, kept for the record",
          "qelliptic.angle.angle_sum",
          lambda q, a, b: 2.0 * _eq83_lhs(q, a, b), _eq83_rhs,
          ({"q": 0.25, "a": 0.4, "b": 0.7},), status="QUARANTINED"),
        C("T17b", "log-Cayley of u0 at q^a equals twice the angle",
          "qelliptic.angle.angle_sum", _t17b_lhs, _t17b_rhs,
          ({"q": 0.1, "a": 0.5}, {"q": 0.1, "a": 1.0}, {"q": 0.1, "a": 1.7},
           {"q": math.exp(-pi), "a": 0.5}, {"q": math.exp(-pi), "a": 1.0},
           {"q": math.exp(-pi), "a": 1.7}),
          compare="exponentiated", tol=1e-10),
        C("EQ85", "product over 1 + q^n in terms of nome and modulus",
          "qelliptic.qseries.qpochhammer", _eq85_lhs, _eq85_rhs,
          ({"r": 1.0}, {"r": 2.0})),
        C("EQ86", "exponentiated angle at integer argument via a finite product",
          "qelliptic.angle.angle_sum", _eq86_lhs, _eq86_rhs,
          ({"r": 2.0, "a": 1}, {"r": 2.0, "a": 2}),
          param_domain="a positive integer"),
        C("T18", "odd cosine series at the frame offset equals angle plus log data",
          "qelliptic.angle.frame_offset", _t18_lhs, _t18_rhs,
          ({"r": 2.0, "a": 0.7}, {"r": 1.0, "a": 0.6}, {"r": 3.0, "a": 0.9}),
          param_domain="0 < a < 1 (strip)"),
        C("EQ88", "squared singular moduli match their algebraic values",
          "qelliptic.elliptic.theta3", _eq88_lhs, _eq88_rhs,
          ({"r": 1.0}, {"r": 2.0}, {"r": 3.0}, {"r": 4.0}),
          param_domain="r in {1, 2, 3, 4} (the tabulated closed forms)"),
        C("EQ89.1", "modulus at the negated nome is i k/k'",
          "qelliptic.numutil.principal_power", _eq89_1_lhs, _eq89_1_rhs,
          ({"r": 1.0}, {"r": 2.0})),
        C("EQ89.2", "complementary-to-plain quarter-period ratio reads off 2z",
          "qelliptic.elliptic.ellint_K", _eq89_2_lhs,
          lambda x, y: 2.0 * complex(x, y),
          ({"x": 0.1, "y": 0.4}, {"x": -0.2, "y": 0.35}), tol=1e-9),

        # ---- modular-angle frames ----
        C("EQ90", "integral of the negated-nome ss as a one-minus-cosine series",
          "qelliptic.numutil.complex_quad", _eq90_lhs, _eq90_rhs,
          ({"r": 2.0, "a": 0.7},), tol=1e-8,
          param_domain="0 < a < 1"),
        C("T19a", "integral of the negated-nome ss via the angle and log data",
          "qelliptic.numutil.complex_quad", _eq90_lhs, _t19a_rhs,
          ({"r": 2.0, "a": 0.7},), tol=1e-8,
          param_domain="0 < a < 1"),
        C("T19b", "negated-nome ss at the scaled frame offset via a fractional Lambert sum",
          "qelliptic.angle.frame_offset", _t19b_lhs, _t19b_rhs,
          ({"r": 2.0, "a": 0.7}, {"r": 1.0, "a": 0.6}),
          param_domain="0 < a < 1"),
        C("T20", "weighted sine series at the frame offset equals minus the angle slope",
          "qelliptic.angle.angle_sum", _t20_lhs, _t20_rhs,
          ({"r": 2.0, "a": 0.7}, {"r": 1.0, "a": 0.6}),
          compare="derivative", tol=1e-11, param_domain="0 < a < 1"),
        C("EQ94", "star-frame counterpart of T20 with the shifted half period",
          "qelliptic.angle.angle_derivative", _eq94_lhs, _eq94_rhs,
          ({"r": 2.0, "a": 0.7},), param_domain="0 < a < 1", tol=1e-9),
        C("T20.1", "ss at the scaled star frame via the negated-nome angle slope",
          "qelliptic.angle.frame_offset_star_scaled", _t20_1_lhs, _t20_1_rhs,
          ({"r": 2.0, "a": 0.7}, {"r": 2.0, "a": 0.4}),
          param_domain="0 < a < 1", tol=1e-9),
        C("EQ96", "fractional Lambert sum equals the angle slope over 4 z K",
          "qelliptic.angle.angle_derivative", _eq96_lhs, _eq96_rhs,
          ({"r": 2.0, "a": 0.7},)),
        C("EQ97", "frame offset moves at rate 2 i K' in the angle parameter",
          "qelliptic.angle.frame_offset", _eq97_lhs, _eq97_rhs,
          ({"r": 2.0, "a": 0.5},), compare="derivative", tol=1e-12),
        C("EQ98", "fractional Lambert sum equals the angle slope over 4 pi i z",
          "qelliptic.angle.angle_derivative", _eq98_lhs, _eq98_rhs,
          ({"r": 2.0, "a": 0.7}, {"r": 2.0, "a": 0.4})),
        C("EQ99", "principal power q^a matches the rotated frame exponential",
          "qelliptic.angle.frame_offset", _eq99_lhs, _eq99_rhs,
          ({"r": 2.0, "a": 0.7}, {"r": 1.0, "a": 0.3})),
        C("T21a", "cd1 at the frame offset via cd and the angle slope",
          "qelliptic.angle.frame_offset", _t21a_lhs, _t21a_rhs,
          ({"r": 2.0, "a": 0.7}, {"r": 1.0, "a": 0.55}),
          param_domain="0 < a < 1", tol=1e-9),
        C("T21b", "negated-nome ss at the scaled frame via the angle slope",
          "qelliptic.angle.frame_offset", _t19b_lhs, _t21b_rhs,
          ({"r": 2.0, "a": 0.7}, {"r": 1.0, "a": 0.55}),
          param_domain="0 < a < 1", tol=1e-9),
        C("EQ102", "star-frame exponential identity for e^{i pi a} q^a",
          "qelliptic.angle.frame_offset_star", _eq102_lhs, _eq102_rhs,
          ({"r": 2.0, "a": 0.7}, {"r": 1.0, "a": 0.55})),
        C("EQ103", "negated-nome cd1 at the star frame via cn and a twisted sum",
          "qelliptic.angle.frame_offset_star", _eq103_lhs, _eq103_rhs,
          ({"r": 2.0, "a": 0.7},), tol=1e-9, param_domain="0 < a < 1"),
        C("EQ104", "negated-nome cd equals argument-scaled cn",
          "qelliptic.fourier.jacobi_cd", _eq104_lhs, _eq104_rhs,
          ({"r": 2.0, "u": 0.3}, {"r": 1.0, "u": 0.45})),
        C("EQ105", "ss as a cotangent/cosecant combination of negated-nome cd and cd1",
          "qelliptic.fourier.eval_fourier", _p4_lhs, _eq105_rhs,
          ({"r": 2.0, "x": 0.3}, {"r": 1.0, "x": 0.45})),
        C("T22", "ss at the star frame via cn and the twisted fractional sum",
          "qelliptic.angle.frame_offset_star", _t22_lhs, _t22_rhs,
          ({"r": 2.0, "a": 0.7}, {"r": 1.0, "a": 0.6}),
          param_domain="0 < a < 1", tol=1e-9),
        C("T23", "negated-nome angle slope with the (2z - 1) prefactor, kept for the record",
          "qelliptic.angle.angle_derivative", _t23_lhs, _t23_rhs,
          ({"x": 0.0, "y": 0.35, "a": 0.7}, {"x": -0.2, "y": 0.35, "a": 0.7}),
          status="QUARANTINED"),
        C("EQ108", "normalized difference of star and plain frame offsets is 2a - 1",
          "qelliptic.angle.frame_offset_star", _eq108_lhs,
          lambda r, a: 2.0 * a - 1.0,
          ({"r": 2.0, "a": 0.7}, {"r": 1.0, "a": 0.2})),
        C("EQ109", "star frame offset moves at rate 2K* + 4zK*",
          "qelliptic.angle.frame_offset_star", _eq109_lhs, _eq109_rhs,
          ({"r": 2.0, "a": 0.5},), compare="derivative", tol=1e-11),
        C("EQ110", "twisted fractional sum equals its principal-power negated-nome form",
          "qelliptic.numutil.principal_power", _eq110_lhs, _eq110_rhs,
          ({"y": 0.35, "a": 0.7},)),
        C("T24", "ss at the scaled star frame on the imaginary axis",
          "qelliptic.angle.frame_offset_star_scaled", _t24_lhs, _t24_rhs,
          ({"y": 0.35, "a": 0.7}, {"y": 0.35, "a": 0.4}),
          param_domain="0 < a < 1, purely imaginary z = iy", tol=1e-9),
        C("EQ120", "scaled star frame in closed quarter-period form",
          "qelliptic.angle.frame_offset_star", _eq120_lhs, _eq120_rhs,
          ({"r": 2.0, "a": 0.7}, {"r": 1.0, "a": 0.3})),
        C("EQ121", "negated-nome angle slope with the (1 + 2z) prefactor",
          "qelliptic.angle.angle_derivative", _t23_lhs, _eq121_rhs,
          ({"x": 0.0, "y": 0.35, "a": 0.7}, {"x": -0.2, "y": 0.35, "a": 0.7}),
          tol=1e-10, param_domain="-1 < Re z <= 0"),

        # ---- half- and integer-argument applications ----
        C("EQ112", "half-nome Lambert sum equals minus the angle slope at one half",
          "qelliptic.angle.angle_derivative", _eq112_lhs, _eq112_rhs,
          ({"y": 0.35},)),
        C("EQ113", "slope of cd1 at the quarter period via the angle slope at one half",
          "qelliptic.angle.angle_derivative", _eq113_lhs, _eq113_rhs,
          ({"y": 0.35},), compare="limit", tol=1e-12),
        C("EQ114", "odd exponential sum equals minus the angle slope at one",
          "qelliptic.angle.angle_derivative", _eq114_lhs, _eq114_rhs,
          ({"y": 0.35},)),
        C("EQ115", "ss at minus the quarter period via the negated-nome modulus branch",
          "qelliptic.elliptic.ellint_K", _eq115_lhs, _eq115_rhs,
          ({"y": 0.35}, {"y": 0.3})),
        C("EQ116", "ss at the quarter period equals minus the negated-nome angle slope form",
          "qelliptic.angle.angle_derivative", _eq116_lhs, _eq116_rhs,
          ({"y": 0.35}, {"y": 0.5}), tol=1e-10),
        C("EQ117", "alternating half-nome sum via the negated-nome angle slope",
          "qelliptic.angle.angle_derivative", _eq117_lhs, _eq117_rhs,
          ({"y": 0.35}, {"y": 0.5})),
        C("EQ122", "angle slope at integer argument via restricted divisor counts",
          "qelliptic.angle.angle_sum", _eq122_lhs, _eq122_rhs,
          ({"q": 0.3, "a": 2}, {"q": 0.15, "a": 3}),
          compare="derivative", tol=1e-11,
          param_domain="a positive integer, 0 < |q| < 1, principal Log q"),
        C("EQ123", "odd exponential sum via restricted divisor counts",
          "qelliptic.qseries.divisors", _eq114_lhs, _eq123_rhs,
          ({"y": 0.35},), tol=1e-10),
        C("EQ124", "unit shift of the angle slope",
          "qelliptic.angle.angle_derivative", _eq124_lhs, _eq124_rhs,
          ({"q": 0.3, "a": 1.0}, {"q": 0.3, "a": 0.6}, {"q": 0.15, "a": 2.0}),
          param_domain="0 < |q| < 1, |q^a| < 1, principal powers and Log q"),
        C("EQ125", "angle slope at integer argument telescopes to a finite sum plus a tail",
          "qelliptic.angle.angle_derivative", _eq125_lhs, _eq125_rhs,
          ({"q": 0.2, "a": 3}, {"q": 0.3, "a": 2}),
          param_domain="a positive integer, 0 < |q| < 1, principal Log q"),
        C("EQ126", "angle slope as csch head minus both exponential tails",
          "qelliptic.angle.angle_derivative", _eq126_lhs, _eq126_rhs,
          ({"y": 0.3, "a": 3},), param_domain="a positive integer"),
        C("EQ127", "angle slope as csch head minus the doubled odd tail",
          "qelliptic.angle.angle_derivative", _eq126_lhs, _eq127_rhs,
          ({"y": 0.3, "a": 3}, {"y": 0.35, "a": 2}),
          param_domain="a positive integer"),
        C("EQ128", "angle at one half equals -log(k'/(1+k))/2",
          "qelliptic.angle.angle_sum", _eq128_lhs, _eq128_rhs,
          ({"q": nome_from_r(2.0)}, {"q": 0.2 + 0.1j})),
        C("EQ128.1", "alternating damped csch sum equals i times the angle slope over pi sqrt(r)",
          "qelliptic.angle.angle_derivative", _eq128_1_lhs, _eq128_1_rhs,
          ({"r": 4.0, "a": 0.8},), param_domain="(2a-1)^2 + 1/r < 1"),
        C("EQ128.1-PRINTED", "variant of EQ128.1 with an extra 1/sqrt(r), kept for the record",
          "qelliptic.angle.angle_derivative", _eq128_1_lhs, _eq128_1_printed_rhs,
          ({"r": 4.0, "a": 0.8},), status="QUARANTINED"),
        C("EQ129", "damped csch sum equals minus the angle slope over pi sqrt(r)",
          "qelliptic.angle.angle_derivative", _eq129_lhs, _eq129_rhs,
          ({"r": 4.0, "a": 0.8}, {"r": 9.0, "a": 0.6}),
          param_domain="(2a-1)^2 + 1/r < 1"),
        C("EQ129.1", "damped csch sum at integer argument via a csch head and odd tail",
          "qelliptic.numutil.sum_series", _eq129_lhs, _eq129_1_rhs,
          ({"r": 1.0, "a": 1}, {"r": 2.0, "a": 2}, {"r": 1.0, "a": 3}),
          param_domain="a positive integer"),
        C("EQ130", "half-integer Lambert sum equals the sum of two angle slopes",
          "qelliptic.angle.angle_derivative", _eq130_lhs, _eq130_rhs,
          ({"y": 0.35},)),

        # ---- generalized theta quotients and the Rogers-Ramanujan chain ----
        C("A1-131", "Cayley of the two-variable fraction as a two-parameter theta quotient",
          "qelliptic.thetagen.theta3_two", _a131_lhs, _a131_rhs,
          ({"k": 1.0, "h": 0.3, "q": 0.2}, {"k": 1.5, "h": 0.5, "q": 0.2}),
          tol=1e-10),
        C("A1-132", "theta quotient at (p/2, (p-2a)/2) as a Cayley value",
          "qelliptic.thetagen.theta3_two", _a132_lhs, _a132_rhs,
          ({"a": 1, "p": 5, "q": 0.15},), tol=1e-10),
        C("A-135", "product of the two brackets doubles the parameters",
          "qelliptic.thetagen.agile_minus", _a135_lhs, _a135_rhs,
          ({"a": 1, "p": 3, "q": 0.25, "form": "split"},
           {"a": 1, "p": 3, "q": 0.25, "form": "square"})),
        C("A-136", "Cayley square law with a negated second argument",
          "qelliptic.thetagen.cayley_u0_product", _a136_lhs, _a136_rhs,
          ({"a": 1, "b": 2, "p": 5, "q": 0.2},), tol=1e-10),
        C("A-137", "squared bracket ratio equals the inverse-squared Cayley value",
          "qelliptic.thetagen.agile_minus", _a137_lhs, _a137_rhs,
          ({"a": 1, "p": 5, "q": 0.2},), tol=1e-10),
        C("A-140", "bracket ratio equals the theta4/theta3 quotient",
          "qelliptic.thetagen.agile_plus", _a140_lhs, _a140_rhs,
          ({"a": 1, "p": 5, "q": 0.2},), tol=1e-10),
        C("A2-141", "squared minus-bracket doubling through the theta quotient",
          "qelliptic.thetagen.agile_minus", _a141_lhs, _a141_rhs,
          ({"a": 1, "p": 5, "q": 0.15},), tol=1e-10),
        C("A2-142", "squared plus-bracket doubling through the inverted theta quotient",
          "qelliptic.thetagen.agile_plus", _a141_lhs, _a142_rhs,
          ({"a": 1, "p": 5, "q": 0.15},), tol=1e-10),
        C("A-143", "first Rogers-Ramanujan sum equals the reciprocal (1,5) bracket",
          "qelliptic.thetagen.rr_G", _a143_lhs, _a143_rhs,
          ({"q": 0.3}, {"q": 0.1}), tol=1e-10),
        C("A-144", "doubling rule for the first Rogers-Ramanujan function",
          "qelliptic.thetagen.rr_G", _a144_lhs, _a144_rhs,
          ({"q": 0.1}, {"q": 0.3}), tol=1e-10),
        C("A-145", "second Rogers-Ramanujan sum equals the reciprocal (2,5) bracket",
          "qelliptic.thetagen.rr_H", _a145_lhs, _a145_rhs,
          ({"q": 0.3}, {"q": 0.1}), tol=1e-10),
        C("A-145-PRINTED", "variant of A-145 starting the sum one term late, kept for the record",
          "qelliptic.thetagen.rr_H", _a145_printed_lhs, _a145_rhs,
          ({"q": 0.3},), status="QUARANTINED"),
        C("A-146", "doubling rule for the second Rogers-Ramanujan function",
          "qelliptic.thetagen.rr_H", _a146_lhs, _a146_rhs,
          ({"q": 0.1}, {"q": 0.3}), tol=1e-10),
        C("A-147", "continued fraction equals q^{1/5} H/G and the alternating-block product",
          "qelliptic.thetagen.rr_cf", _a147_lhs, _a147_rhs,
          ({"q": 0.05, "form": "quotient"}, {"q": 0.1, "form": "quotient"},
           {"q": 0.15, "form": "quotient"}, {"q": 0.05, "form": "product"},
           {"q": 0.1, "form": "product"}, {"q": 0.15, "form": "product"}),
          tol=1e-11),
        C("A-150", "theta quotient equals q^{-1/5} R(q^2)/R(q)",
          "qelliptic.thetagen.rr_cf", _a150_lhs, _a150_rhs,
          ({"q": 0.05}, {"q": 0.1}), tol=1e-9),
        C("A3-151", "doubling quantity at the negated nome as a theta3 quotient",
          "qelliptic.thetagen.ramanujan_quantity", _a151_lhs, _a151_rhs,
          ({"a": 1, "b": 3, "p": 6, "q": 0.2}, {"a": 3, "b": 5, "p": 10, "q": 0.15}),
          tol=1e-10, param_domain="a < b < a + b < p, a b odd, p even"),
        C("A-152", "multiplicative doubling of the bracket-ratio quantity",
          "qelliptic.thetagen.ramanujan_quantity", _a152_lhs, _a152_rhs,
          ({"a": 1, "b": 3, "p": 6, "q": 0.2},), tol=1e-10),
        C("A-153", "bracket-ratio quantity as a theta4 quotient",
          "qelliptic.thetagen.ramanujan_quantity", _a153_lhs, _a153_rhs,
          ({"a": 1, "b": 3, "p": 6, "q": 0.2}, {"a": 3, "b": 5, "p": 10, "q": 0.15}),
          tol=1e-10),
        C("A4-155", "plus-bracket as theta3 over the Euler product at q^p",
          "qelliptic.thetagen.agile_plus", _a155_lhs, _a155_rhs,
          ({"a": 1, "p": 5, "q": 0.2}, {"a": 3, "p": 8, "q": 0.15}), tol=1e-10),
        C("A4-156", "minus-bracket as theta4 over the Euler product at q^p",
          "qelliptic.thetagen.agile_minus", _a156_lhs, _a156_rhs,
          ({"a": 1, "p": 5, "q": 0.2}, {"a": 3, "p": 8, "q": 0.15}), tol=1e-10),
        C("A5-157", "theta4/theta3 quotient equals the inverse Cayley value",
          "qelliptic.thetagen.theta4_two", _a157_lhs, _a157_rhs,
          ({"a": 1, "p": 5, "q": 0.2}, {"a": 1, "p": 3, "q": 0.25}), tol=1e-10),
        C("A5-157-PRINTED", "inverse-squared variant of A5-157, kept for the record",
          "qelliptic.thetagen.theta4_two", _a157_lhs, lambda a, p, q: _a157_rhs(a, p, q) ** 2,
          ({"a": 1, "p": 5, "q": 0.2},), status="QUARANTINED"),
        C("A5-158", "log-Cayley value as twice the multiset restricted divisor log",
          "qelliptic.thetagen.restricted_divisor_log", _a158_lhs, _a158_rhs,
          ({"a": 1, "p": 5, "q": 0.2}, {"a": 1, "p": 2, "q": 0.2},
           {"a": 2, "p": 5, "q": 0.3}),
          tol=1e-10),
        C("A5-158-PRINTED", "four-times set-form variant of A5-158, kept for the record",
          "qelliptic.thetagen.restricted_divisor_log", _a158_lhs, _a158_printed_rhs,
          ({"a": 1, "p": 5, "q": 0.2},), status="QUARANTINED"),
        C("A6-159", "log-Cayley value as a two-class restricted divisor log",
          "qelliptic.thetagen.restricted_divisor_log", _a159_lhs, _a159_rhs,
          ({"a": 1, "b": 2, "p": 5, "q": 0.2, "eps": 1},
           {"a": 1, "b": 2, "p": 5, "q": 0.2, "eps": -1}),
          tol=1e-10),
        C("A-160", "log of the theta3/theta4 quotient as a restricted divisor log",
          "qelliptic.thetagen.restricted_divisor_log", _a160_lhs, _a158_rhs,
          ({"a": 1, "p": 5, "q": 0.2}, {"a": 1, "p": 2, "q": 0.2}), tol=1e-10),
        C("A-161", "log theta3 as the Euler-product log minus an alternating multiset log",
          "qelliptic.thetagen.restricted_divisor_log", _a161_lhs, _a161_rhs,
          ({"a": 1, "p": 5, "q": 0.2}, {"a": 1, "p": 3, "q": 0.25}), tol=1e-10),
        C("A-161-PRINTED", "sign-flipped variant of A-161, kept for the record",
          "qelliptic.thetagen.restricted_divisor_log", _a161_lhs, _a161_printed_rhs,
          ({"a": 1, "p": 5, "q": 0.2},), status="QUARANTINED"),
        C("A-162", "log of the minus-bracket as a restricted divisor log",
          "qelliptic.thetagen.restricted_divisor_log", _a162_lhs, _a162_rhs,
          ({"a": 1, "p": 5, "q": 0.2}, {"a": 2, "p": 5, "q": 0.2}, {"a": 1, "p": 2, "q": 0.2}),
          tol=1e-10),
        C("A-163", "log of the plus-bracket as an alternating restricted divisor log",
          "qelliptic.thetagen.restricted_divisor_log", _a163_lhs, _a163_rhs,
          ({"a": 1, "p": 5, "q": 0.2}, {"a": 2, "p": 5, "q": 0.2}, {"a": 1, "p": 2, "q": 0.2}),
          tol=1e-10),
        C("A-164", "log-Cayley at equal arguments as four times the one-class divisor log",
          "qelliptic.thetagen.restricted_divisor_log", _a164_lhs, _a164_rhs,
          ({"a": 1, "p": 3, "q": 0.2},), tol=1e-10,
          param_domain="equal residue classes only"),
        C("A-165", "log q-Pochhammer as a signed one-class restricted divisor log",
          "qelliptic.thetagen.restricted_divisor_log", _a165_lhs, _a165_rhs,
          ({"a": 1, "p": 5, "q": 0.2, "eps": 1}, {"a": 1, "p": 5, "q": 0.2, "eps": -1},
           {"a": 2, "p": 3, "q": 0.25, "eps": 1}),
          tol=1e-10),
        C("A7-166", "reflection-paired log-Cayley sum equals signed theta-quotient logs",
          "qelliptic.thetagen.theta3_two", _a166_lhs, _a166_rhs,
          ({"a": 1, "b": 2, "p": 5, "q": 0.2, "eps": 1},
           {"a": 1, "b": 2, "p": 5, "q": 0.2, "eps": -1}),
          tol=1e-10),
        C("A8-167", "log-Cayley with equal scale factors as twice two divisor logs",
          "qelliptic.thetagen.restricted_divisor_log", _a167_lhs, _a167_rhs,
          ({"a": 1, "b": 2, "p": 5, "q": 0.2, "x": 0.6},), tol=1e-10),
        C("A8-167-PRINTED", "half-coefficient variant of A8-167, kept for the record",
          "qelliptic.thetagen.restricted_divisor_log", _a167_lhs, _a167_printed_rhs,
          ({"a": 1, "b": 2, "p": 5, "q": 0.2, "x": 0.6},), status="QUARANTINED"),
        C("A8-168", "log-Cayley with independent scale factors as twice two divisor logs",
          "qelliptic.thetagen.restricted_divisor_log", _a168_lhs, _a168_rhs,
          ({"a": 1, "b": 2, "p": 5, "q": 0.2, "x": 0.5, "y": 0.3},), tol=1e-10),
        C("A8-168-PRINTED", "half-coefficient variant of A8-168, kept for the record",
          "qelliptic.thetagen.restricted_divisor_log", _a168_lhs, _a168_printed_rhs,
          ({"a": 1, "b": 2, "p": 5, "q": 0.2, "x": 0.5, "y": 0.3},),
          status="QUARANTINED"),
        C("A-169", "log ratio of scaled q-Pochhammers as twice a one-class divisor log",
          "qelliptic.thetagen.restricted_divisor_log", _a169_lhs, _a169_rhs,
          ({"a": 1, "p": 5, "q": 0.2, "x": 0.6}, {"a": 2, "p": 3, "q": 0.3, "x": 0.4}),
          tol=1e-10),
        C("A-170", "Cayley square law for the minus-signed two-variable fraction",
          "qelliptic.thetagen.cayley_u0_product", _a170_lhs, _a170_rhs,
          ({"a": 0.3, "b": 0.5, "q": 0.25}, {"a": 0.2 + 0.1j, "b": 0.4, "q": 0.25}),
          tol=1e-10),
        C("MAIN-A1", "log-Cayley of the scaled fraction as a difference of odd Lambert logs",
          "qelliptic.thetagen.odd_lambert", _main_a1_lhs, _main_a1_rhs,
          ({"x": 0.4, "y": 0.2, "q": 0.25}, {"x": 0.1, "y": 0.7, "q": 0.3}),
          tol=1e-9, param_domain="|x q| < 1, |y q| < 1"),
    ]
    return tuple(cases)
