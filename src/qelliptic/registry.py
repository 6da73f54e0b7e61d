"""Registry of dual-route identity checks.

Every case pairs two independent evaluations of the same quantity: a direct
series/product/integral route on the left and a closed form or transformed
route on the right.  Cases are ``ACTIVE`` when both routes agree at the
registered samples; the handful of ``QUARANTINED`` cases record variant
statements (sign, prefactor, or exponent alternatives) whose measured
residuals document why the active twin carries the corrected form.

Identifier families: ``EQ*`` plain identities, ``T*`` theorem-level results
(``a``/``b`` suffixes split multi-part statements), ``P*`` propositions,
``COR*`` corollaries, ``A*`` the generalized-theta appendix, ``MAIN-A1`` the
log-Cayley main result, ``CC-SPLIT``/``DD-SPLIT`` the reindexing splits of
the auxiliary cosine expansions.
"""

from __future__ import annotations

from .harness import IdentityCase

__all__ = ["registry", "UNREGISTERED"]

_REGISTRY: tuple[IdentityCase, ...] | None = None


def registry() -> tuple[IdentityCase, ...]:
    """The full case list, built once per process.

    The definitions live in the private module ``_cases``, which is imported
    (and, without cached bytecode, compiled) here on the first call rather
    than with this module.  A list whose ids are not unique is refused on
    every call and never cached.
    """
    global _REGISTRY
    if _REGISTRY is None:
        from . import _cases

        cases = _cases._build()
        ids = [c.id for c in cases]
        if len(ids) != len(set(ids)):
            raise RuntimeError("registry ids must be unique")
        _REGISTRY = cases
    return _REGISTRY


# Displays that are definitions, restatements, or non-numeric claims map here
# instead of to a case, so that the case list plus this table is exhaustive.
UNREGISTERED: tuple[tuple[str, str], ...] = (
    ("definitional-displays",
     "series or product definitions (the trigonometric expansions behind sn, cn,"
     " cd, sd, cc, dd, cd1, ss, the q-Pochhammer, u0 and U, the angle product,"
     " theta nulls, bracket products, the weight-one eta-like product) are"
     " exercised by every case that evaluates them rather than restated as"
     " identities"),
    ("restatements",
     "displays that repeat another entry in different notation map to that"
     " entry: the eta-like product form appears twice (EQ10), the negated-nome"
     " modulus value twice (EQ89.1), the frame exponential twice (EQ99), the"
     " scaled star frame twice (EQ120, T24), and the doubling quotient twice"
     " (A-150)"),
    ("algebraicity-claims",
     "assertions that a value is an algebraic number carry no finite numerical"
     " test; the underlying series identities are registered instead (T11)"),
    ("gamma-closed-forms",
     "closed forms of the complete integral at general singular values are"
     " outside scope; the single reflection-formula instance is EQ17"),
    ("exact-arithmetic",
     "no symbolic manipulation is provided; all checks are floating point with"
     " explicit error control"),
)
