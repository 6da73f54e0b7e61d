"""The ``nome_sweep`` workload: seeded points on the q-disk, one call per
compute layer at each point, and an mpmath oracle at 30 digits.

Points are stratified so that every seed sees the same mix of depths and
phases: three phase classes (positive real, negative real, complex with a
seeded argument) each cover ``|q|`` in [0.05, 0.9] in equal strata, with the
position inside each stratum drawn from the seed.

The range deliberately includes the region where the library is known to
refuse or to return wrong values: ``EllipticContext.from_nome`` (``PoleError``
at q >= 0.8, wrong k' and K from q ~ 0.55 and at complex q from |q| ~ 0.2),
``jacobi_sn``, which builds on it, and ``theta3`` at negative real q near -1,
where theta3(-|q|) = theta4(|q|) cancels to ~1e-9.  :func:`known_defect` names
those operations by a fixed rule on the point's class and stratum, never by
their outcome: they form the defect probe, checked against the oracle and
counted per layer as refused or wrong.  Every other operation is timed and
must match the oracle.
"""

from __future__ import annotations

import cmath
import math
import random

LO, HI = 0.05, 0.9
STRATA = 16  # per phase class
REL_TOL = 1e-9  # an op is wrong beyond this relative error against the oracle
# complex_quad integrates theta3(t|q) over [0, QUAD_X]: a fixed length keeps the
# quadrature's node count, most of a cycle's time, a function of q alone.
QUAD_X = 1.0
ORACLE_DPS = 30
# from_nome and jacobi_sn are timed in the lower half of the real strata,
# |q| < 0.475, where k' is accurate to ~1e-11 (ROADMAP item 3).
CTX_STRATA = STRATA // 2

# (op name, layer it exercises)
OPS = (
    ("theta3", "elliptic"),
    ("from_nome", "elliptic"),
    ("jacobi_sn", "fourier"),
    ("euler_product", "qseries"),
    ("qpochhammer", "qseries"),
    ("rr_cf", "thetagen"),
    ("u0_cf", "thetagen"),
    ("angle_sum", "angle"),
    ("agile_minus", "thetagen"),
    ("theta3_two", "thetagen"),
    ("complex_quad", "numutil"),
)


def points(seed: int) -> list[dict]:
    """Sweep points and per-op parameters, a pure function of ``seed``."""
    rng = random.Random(seed)
    out = []
    for cls in ("real+", "real-", "complex"):
        for j in range(STRATA):
            r = LO + (HI - LO) * (j + rng.random()) / STRATA
            if cls == "real+":
                q = complex(r, 0.0)
            elif cls == "real-":
                q = complex(-r, 0.0)
            else:
                q = r * cmath.exp(1j * rng.uniform(0.05, math.pi - 0.05) * rng.choice((1, -1)))
            # sn argument: a share t of K = (pi/2) theta3(q)^2, with theta3
            # summed here in double precision so the input needs no oracle
            th3 = 1.0 + 2.0 * sum(q ** (n * n) for n in range(1, 40))
            u_sn = rng.uniform(0.1, 0.9) * math.pi / 2 * th3 * th3
            p = float(rng.randint(2, 5))
            a_share = rng.uniform(-1.0, 1.0)
            A = rng.uniform(0.5, 2.0)
            out.append({
                "cls": cls,
                "stratum": j,
                "q": q,
                "u_sn": u_sn,
                "a_qp": rng.uniform(0.2, 0.9) * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi)),
                # u0_cf needs |q| < |a| < 1: |a| = |q|^s with s in (0.3, 0.7)
                "a_u0": r ** rng.uniform(0.3, 0.7) * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi)),
                "x": rng.uniform(0.2, 1.5),
                "a_ag": rng.uniform(0.2, p - 0.2),
                "p_ag": p,
                "A": A,
                "B": a_share * A,
            })
    return out


def known_defect(op_name: str, point: dict) -> bool:
    """True for an operation in the region of a known library defect.

    The rule depends on the point's class and stratum only, so every seed has
    the same number of probe operations (65 of 528).
    """
    if op_name in ("from_nome", "jacobi_sn"):
        return point["cls"] == "complex" or point["stratum"] >= CTX_STRATA
    if op_name == "theta3":
        return point["cls"] == "real-" and point["stratum"] == STRATA - 1
    return False


def bind_ops(point: dict, lib) -> list:
    """Zero-argument callables, one per entry of :data:`OPS`.

    ``lib`` is the ``qelliptic`` package; every call goes through its module
    attributes, so a traced run sees the wrapped bindings.
    """
    q = point["q"]
    el, fo, qs, tg, an, nu = (lib.elliptic, lib.fourier, lib.qseries,
                              lib.thetagen, lib.angle, lib.numutil)
    logq = cmath.log(q)

    def from_nome():
        ctx = el.EllipticContext.from_nome(q)
        return (ctx.k, ctx.kprime, ctx.K)

    def theta_t(t):
        return tg.theta3_two(1, 2j * t / logq, q)

    return [
        lambda: el.theta3(q),
        from_nome,
        lambda: fo.jacobi_sn(el.EllipticContext.from_nome(q), point["u_sn"]),
        lambda: qs.euler_product(q),
        lambda: qs.qpochhammer(point["a_qp"], q),
        lambda: tg.rr_cf(q),
        lambda: tg.u0_cf(point["a_u0"], q),
        lambda: an.angle_sum(q, point["x"]),
        lambda: tg.agile_minus(point["a_ag"], point["p_ag"], q),
        lambda: tg.theta3_two(point["A"], point["B"], q),
        lambda: nu.complex_quad(theta_t, 0.0, QUAD_X),
    ]


def oracle(point: dict) -> list:
    """Reference value per op at ``ORACLE_DPS`` digits."""
    import mpmath as mp

    mp.mp.dps = ORACLE_DPS
    q = point["q"]
    mq = mp.mpc(q.real, q.imag)
    L = mp.log(mq)
    eps = mp.mpf(10) ** -(ORACLE_DPS + 5)

    def ppow(s):
        return mp.exp(s * L)

    def tail_sum(term, start):
        total, n = mp.mpf(0), start
        while True:
            t = term(n)
            total += t
            n += 1
            if abs(t) < eps * max(1, abs(total)) and n > start + 4:
                return total

    t2, t3, t4 = (mp.jtheta(i, 0, mq) for i in (2, 3, 4))
    K = mp.pi / 2 * t3 ** 2
    u = point["u_sn"]
    a_qp = mp.mpc(point["a_qp"].real, point["a_qp"].imag)
    ma = mp.mpc(point["a_u0"].real, point["a_u0"].imag)
    P = (mp.qp(-ma, mq) / mp.qp(ma, mq)) ** 2
    q5 = mq ** 5
    x = point["x"]
    a, p = point["a_ag"], point["p_ag"]
    A, B = point["A"], point["B"]
    X = QUAD_X
    refs = [
        t3,
        (t2 ** 2 / t3 ** 2, t4 ** 2 / t3 ** 2, K),
        mp.ellipfun("sn", mp.mpc(u.real, u.imag), q=mq),
        mp.qp(mq),
        mp.qp(a_qp, mq),
        ppow(mp.mpf(1) / 5) * mp.qp(mq, q5) * mp.qp(mq ** 4, q5)
        / (mp.qp(mq ** 2, q5) * mp.qp(mq ** 3, q5)),
        (P - 1) / (P + 1),
        2 * tail_sum(lambda n: mp.atanh(ppow(n + x)), 0),
        mp.qp(ppow(a), ppow(p)) * mp.qp(ppow(p - a), ppow(p)),
        1 + tail_sum(lambda n: ppow(A * n * n + B * n) + ppow(A * n * n - B * n), 1),
        X + tail_sum(lambda n: mp.exp(n * n * L) * mp.sin(2 * n * X) / n, 1),
    ]
    return [_to_complex(r) for r in refs]


def _to_complex(ref):
    if isinstance(ref, tuple):
        return tuple(complex(r) for r in ref)
    return complex(ref)


def classify(value, ref) -> bool:
    """True when ``value`` matches ``ref`` to :data:`REL_TOL` (all parts)."""
    if isinstance(ref, tuple):
        return all(classify(v, r) for v, r in zip(value, ref))
    v = complex(value)
    if not (math.isfinite(v.real) and math.isfinite(v.imag)):
        return False
    return abs(v - ref) <= REL_TOL * abs(ref)
