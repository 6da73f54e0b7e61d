"""Public surface: a registry pass reaches every public evaluator.

Each function in the ``__all__`` of the six compute layers (classes aside) is
replaced, on every ``qelliptic`` module that holds it, by a wrapper that
records its call; then one registry pass runs.  The two per-policy context
caches of ``_cases`` are cleared before and after the pass, so that a context
an earlier test built cannot hide a call.  A public function that no registry
case reaches either gets an ACTIVE case or is deleted; the one exception is
listed with its reason, and the list is exact both ways.
"""

import sys

from qelliptic import _cases, angle, elliptic, fourier, numutil, qseries, thetagen
from qelliptic.harness import run_registry
from qelliptic.registry import registry

LAYERS = (numutil, qseries, elliptic, fourier, angle, thetagen)

# public functions that a registry pass does not call, each with the reason
NEVER_CALLED = {
    "numutil.truncation": "the policy scope: the CLI opens it around every command, "
                          "and a registry pass runs under the policy it is given",
}

_CONTEXT_CACHES = ("_cr", "_cneg")


def _clear_contexts() -> None:
    for name in _CONTEXT_CACHES:
        getattr(_cases, name).cache_clear()


def _recording(key, orig, called):
    def wrapper(*args, **kwargs):
        called.add(key)
        return orig(*args, **kwargs)

    return wrapper


def test_a_registry_pass_calls_every_public_function_but_the_listed():
    cases = registry()  # built before the patch, so no case keeps a wrapper
    modules = [mod for name, mod in list(sys.modules.items())
               if name.split(".")[0] == "qelliptic"]
    public, called, patched = set(), set(), []
    for layer in LAYERS:
        for name in layer.__all__:
            orig = getattr(layer, name)
            if isinstance(orig, type) or not callable(orig):
                continue
            key = f"{layer.__name__.rpartition('.')[2]}.{name}"
            public.add(key)
            wrapper = _recording(key, orig, called)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        patched.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
    _clear_contexts()
    try:
        run_registry(cases)
    finally:
        for mod, attr, orig in patched:
            setattr(mod, attr, orig)
        _clear_contexts()
    assert public - called == set(NEVER_CALLED), (
        f"never called: {sorted(public - called - set(NEVER_CALLED))}, "
        f"listed but called: {sorted(set(NEVER_CALLED) & called)}")
