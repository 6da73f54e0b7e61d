"""Gate sensitivity: every ACTIVE case must be able to fail.

The anchor audit runs each ACTIVE case once with its anchor (the evaluator
the case names as under test) replaced, on every ``qelliptic`` module that
holds it, by a wrapper that counts its calls and multiplies its value by
``1 + 100 tol``.  A case that still passes cannot see a relative error a
hundred times its tolerance in the evaluator it claims to check; the few that
may, for a stated reason, are listed below, and the lists are exact both
ways.  The two per-policy context caches of ``_cases`` are cleared before
and after each mutation, so that no context is reused across it.
"""

import numbers
import sys
from contextlib import contextmanager

import pytest

from qelliptic import _cases
from qelliptic.harness import run_case, run_registry
from qelliptic.registry import registry

# ACTIVE cases that pass with their anchor scaled, each with the reason
STILL_PASS = {
    "EQ12": "scale cancels: the anchor enters through a logarithmic derivative",
    "EQ63": "scale cancels: the right side (P_a - P_b)/(P_a + P_b) is a ratio of two anchor calls",
    "EQ89.2": "scale cancels: the left side is a quotient of two anchor calls",
    "A-150": "scale cancels: the right side is a quotient of two anchor calls",
    "EQ43": "same call on both sides: one anchor factor on each side",
    "A-135": "same call on both sides: one anchor factor on each side",
    "EQ123": "list-valued anchor: divisors returns a list, which the audit leaves as it is",
}

# ACTIVE cases anchored on a context constructor: it returns a record of
# quantities, not one value, so the audit only checks that it is called
CONTEXT_ANCHORED = {
    "EQ10.2", "EQ13", "EQ15", "T3", "T4", "T5", "T6", "COR1", "EQ34", "EQ36",
    "T8", "EQ41", "EQ59", "EQ79",
}

_CONTEXT_CACHES = ("_cr", "_cneg")


def _clear_contexts() -> None:
    for name in _CONTEXT_CACHES:
        getattr(_cases, name).cache_clear()


@contextmanager
def _anchor_patched(anchor: str, factor: float):
    """Replace ``anchor`` by a wrapper that multiplies each numeric value it
    returns by ``factor``; a context constructor is only counted.  Yields a
    one-item list holding the number of calls."""
    calls = [0]
    owner_path, _, attr = anchor.rpartition(".")
    if owner_path in sys.modules:
        orig = getattr(sys.modules[owner_path], attr)

        def wrapper(*args, **kwargs):
            calls[0] += 1
            value = orig(*args, **kwargs)
            return value * factor if isinstance(value, numbers.Number) else value

        holders = [(mod, name) for mod_name, mod in list(sys.modules.items())
                   if mod_name.split(".")[0] == "qelliptic"
                   for name, val in vars(mod).items() if val is orig]
        replacement = wrapper
    else:  # a class method, such as EllipticContext.from_r
        mod_path, _, cls_name = owner_path.rpartition(".")
        cls = getattr(sys.modules[mod_path], cls_name)
        orig = vars(cls)[attr]

        def counted(klass, *args, **kwargs):
            calls[0] += 1
            return orig.__func__(klass, *args, **kwargs)

        holders = [(cls, attr)]
        replacement = classmethod(counted)
    _clear_contexts()
    for holder, name in holders:
        setattr(holder, name, replacement)
    try:
        yield calls
    finally:
        for holder, name in holders:
            setattr(holder, name, orig)
        _clear_contexts()


@pytest.fixture(scope="module")
def audit():
    """(ids still passing, ids never calling their anchor, context-anchored ids)."""
    # a warm pass first, so that no lru-cached anchor (bernoulli) computes,
    # and caches, a value while it is replaced
    run_registry(registry())
    passing, uncalled, contexts = set(), set(), set()
    for case in registry():
        if case.status != "ACTIVE":
            continue
        if ".EllipticContext." in case.anchor:
            contexts.add(case.id)
        with _anchor_patched(case.anchor, 1.0 + 100.0 * case.tolerance) as calls:
            result = run_case(case)
        if not calls[0]:
            uncalled.add(case.id)
        if result.passed_all and case.id not in contexts:
            passing.add(case.id)
    return passing, uncalled, contexts


def test_every_active_case_calls_its_anchor(audit):
    _, uncalled, _ = audit
    assert not uncalled, sorted(uncalled)


def test_scaled_anchor_fails_every_case_but_the_listed(audit):
    passing, _, _ = audit
    assert passing == set(STILL_PASS), (
        f"newly passing: {sorted(passing - set(STILL_PASS))}, "
        f"listed but failing: {sorted(set(STILL_PASS) - passing)}")


def test_context_anchored_cases_are_listed(audit):
    _, _, contexts = audit
    assert contexts == CONTEXT_ANCHORED
