"""Numerical evaluation and cross-verification of q-series, Jacobi
elliptic-function expansions, theta products, modular angles, and
Ramanujan-style continued fractions.

The library layers are: :mod:`~qelliptic.numutil` (adaptive summation,
differentiation, quadrature), :mod:`~qelliptic.qseries` (q-products,
Lambert/divisor series, the Ghost Sum, Bernoulli data),
:mod:`~qelliptic.elliptic` (theta nulls, AGM integrals, elliptic
contexts, singular values),
:mod:`~qelliptic.fourier` (trigonometric expansions of the Jacobi
functions and their nonstandard companions), :mod:`~qelliptic.angle`
(the modular angle and its frames), :mod:`~qelliptic.thetagen`
(generalized theta quotients, agile brackets, continued fractions), and
:mod:`~qelliptic.registry`/:mod:`~qelliptic.harness` (the dual-route
identity checks behind ``qelliptic verify``).
"""

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
    ellint_E,
    ellint_K,
    modulus_from_nome,
    nome_from_r,
    singular_alpha,
    theta2,
    theta3,
    theta4,
)
from .fourier import (
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
from .harness import (
    IdentityCase,
    RegistryReport,
    run_case,
    run_registry,
)
from .numutil import (
    DEFAULT_POLICY,
    NonConvergenceError,
    PoleError,
    TruncationPolicy,
    complex_quad,
    continued_fraction,
    current_policy,
    numeric_derivative,
    principal_power,
    sum_series,
    truncation,
)
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
from .registry import registry
from .thetagen import (
    agile_minus,
    agile_plus,
    cayley,
    cayley_u_product,
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
    theta1_two,
    theta3_two,
    theta4_two,
    u0_cf,
    u0_product,
    u_cf,
    u_product,
)

__version__ = "0.1.0"
