"""No public evaluator hands back a value that is not finite.

Each function in the ``__all__`` of the six compute layers (classes aside,
enumerated as in ``test_public_surface``) is called at extreme arguments:
nomes ±0.999, 0.9i and 1e-300, and reals ±50, ±300, 1e10 and 1e-300.  Each
call returns a finite value or raises ``ArithmeticError`` (``PoleError`` and
``OverflowError`` among them), ``ValueError`` or ``NonConvergenceError``: an
infinity or a NaN returned as a value is the one outcome refused, since the
caller cannot tell it from a result.

A parameter takes its pool by what it is: a nome (``q``, ``Q``) the nomes; a
real the reals; an elliptic context (``ctx``) the context at each nome that
builds one; a Fourier name each name of the table.  An ``int`` parameter or
a modulus ``p`` takes 2 and ±50, ±300: at 10^10 ``bernoulli``'s exact
recurrence runs for hours, a cost and not a finiteness question.  A callable
is the constant 1e10 or 1e-300, and the residue classes are [0, 1]: at
|q| = 0.999 each divisor sum takes about 0.2 s.  A function with more than
``_MAX_CALLS`` combinations is called at a sample of them, seeded by its name.
"""

import cmath
import inspect
import itertools
import random
from fractions import Fraction

import pytest

from qelliptic import angle, elliptic, fourier, numutil, qseries, thetagen
from qelliptic.numutil import NonConvergenceError

LAYERS = (numutil, qseries, elliptic, fourier, angle, thetagen)

NOMES = (0.999, -0.999, 0.9j, 1e-300)
REALS = (50.0, -50.0, 300.0, -300.0, 1e10, 1e-300)
INTS = (2, 50, -50, 300, -300)
CONSTANTS = (1e10, 1e-300)
RESIDUES = ([0, 1],)

# public functions that return no value to check, each with the reason
NOT_EVALUATORS = {
    "numutil.current_policy": "returns the policy in force",
    "numutil.truncation": "the policy scope, a context manager",
}

_MAX_CALLS = 60
_ALLOWED = (ArithmeticError, ValueError, NonConvergenceError)


def _contexts() -> tuple:
    out = []
    for q in NOMES:
        try:
            out.append(elliptic.EllipticContext.from_nome(q))
        except _ALLOWED:
            pass
    return tuple(out)


CONTEXTS = _contexts()


def _pool(param):
    name, note = param.name, str(param.annotation)
    if name in ("q", "Q"):
        return NOMES
    if "Callable" in note:
        return tuple((lambda *_, x=x: x) for x in CONSTANTS)
    if name == "ctx":
        return CONTEXTS
    if name == "name":
        return tuple(fourier.FOURIER_TABLE)
    if name == "residues":
        return RESIDUES
    if note == "int" or name == "p":
        return INTS
    return REALS


def _evaluators() -> dict:
    out = {}
    for layer in LAYERS:
        for name in layer.__all__:
            fn = getattr(layer, name)
            key = f"{layer.__name__.rpartition('.')[2]}.{name}"
            if not (isinstance(fn, type) or not callable(fn) or key in NOT_EVALUATORS):
                out[key] = fn
    return out


EVALUATORS = _evaluators()


def _finite(value) -> bool:
    if isinstance(value, (list, tuple)):
        return all(map(_finite, value))
    if isinstance(value, (int, Fraction)):
        return True
    return cmath.isfinite(complex(value))


@pytest.mark.parametrize("key", list(EVALUATORS))
def test_a_public_evaluator_returns_a_finite_value_or_refuses(key):
    fn = EVALUATORS[key]
    params = [p for p in inspect.signature(fn).parameters.values()
              if p.default is inspect.Parameter.empty]
    calls = list(itertools.product(*(_pool(p) for p in params)))
    if len(calls) > _MAX_CALLS:
        calls = random.Random(key).sample(calls, _MAX_CALLS)
    bad = []
    for args in calls:
        try:
            value = fn(*args)
        except _ALLOWED:
            continue
        if not _finite(value):
            bad.append((args, value))
    assert not bad, f"{key}: {len(bad)} non-finite values, first {bad[:3]}"
