"""Outside-in tracing of the qelliptic layers.

Every public function of the compute layers (the names in each module's
``__all__``) plus ``harness`` reporting, ``registry.registry``, ``cli.main`` and
the ``EllipticContext`` constructors is replaced by a wrapper that records a
span: name, start, end, parent span and group id (one registry sample or one
sweep operation).  Every binding of the original object in any loaded
``qelliptic.*`` module namespace is replaced, and so is every closure cell of a
module-level function (``cli.EVAL_FUNCTIONS`` holds such closures), so calls
that go through module globals are traced.  Spans stay in memory; the caller
writes them out when the run ends.

Deterministic work counts are taken at the same boundaries, from outside the
library only:

* series terms from ``SeriesValue.terms_used`` and, for the stagnation share,
  from re-applying the summation's cutoff test to the terms it consumed;
* continued-fraction depth from wrapping the partial-denominator callable ``a``;
* quadrature nodes from wrapping the integrand;
* product factors and theta terms from ``numutil.term_counter()`` around the
  call, which nests transparently with the harness's own counter.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager

# The compute layers: every function in their ``__all__`` is wrapped.
LAYERS = ("numutil", "qseries", "elliptic", "fourier", "angle", "thetagen")
# Reporting and entry points wrapped in the other modules.
_EXTRA = {
    "harness": ("run_case", "run_registry", "report_to_json", "report_to_csv", "report_to_text"),
    "registry": ("registry",),
    "cli": ("main",),
}
_CTX_METHODS = ("from_nome", "from_r", "from_modulus")
# A context manager, not a computation: the harness binding marks samples.
_SKIP = {"numutil.term_counter"}
_THETA = ("elliptic.theta2", "elliptic.theta3", "elliptic.theta4")

_perf = time.perf_counter


class Tracer:
    """Span recorder plus work counters for one traced process."""

    def __init__(self) -> None:
        # span: [name, start, end, parent_index, group]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.group = -1
        self._next_group = 0
        self.counts: dict[str, float] = defaultdict(float)
        self._undo: list = []

    # -- spans ---------------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _perf(), 0.0, parent, self.group])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = _perf()
        self._stack.pop()

    def new_group(self) -> int:
        self.group = self._next_group
        self._next_group += 1
        return self.group

    @contextmanager
    def root(self, name: str):
        """A root span with a fresh group id (one sweep op, one CLI call)."""
        saved = self.group
        self.new_group()
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)
            self.group = saved

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    # -- wrappers ------------------------------------------------------------
    def _wrap(self, name: str, fn):
        tracer = self
        counts = self.counts
        calls_key = name + ".calls"
        special = _SPECIAL.get(name)
        if special is not None:
            return special(tracer, name, fn)

        def traced(*args, **kw):
            counts[calls_key] += 1
            idx = tracer.open(name)
            try:
                return fn(*args, **kw)
            finally:
                tracer.close(idx)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every layer function in every loaded ``qelliptic`` module."""
        for mod in LAYERS + tuple(_EXTRA):
            importlib.import_module("qelliptic." + mod)
        elliptic = sys.modules["qelliptic.elliptic"]
        originals: dict[int, tuple[object, object]] = {}
        for short in LAYERS:
            module = sys.modules["qelliptic." + short]
            for attr in module.__all__:
                obj = getattr(module, attr)
                if (callable(obj) and not isinstance(obj, type)
                        and f"{short}.{attr}" not in _SKIP):
                    originals[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for short, attrs in _EXTRA.items():
            module = sys.modules["qelliptic." + short]
            for attr in attrs:
                obj = getattr(module, attr)
                originals[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        # module namespaces, then closure cells of module-level functions and
        # of functions held one level down in module-level dicts/tuples
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qelliptic" or n.startswith("qelliptic."))]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._undo.append((setattr, module, attr, obj))
        wrappers = {id(w) for _, w in originals.values()}
        for module in modules:
            for obj in list(vars(module).values()):
                for fn in _functions_in(obj):
                    if id(fn) not in wrappers:
                        self._patch_cells(fn, originals)
        # classmethods on EllipticContext
        ctx_cls = elliptic.EllipticContext
        for meth in _CTX_METHODS:
            raw = ctx_cls.__dict__[meth].__func__
            wrapped = self._wrap(f"elliptic.{meth}", raw)
            setattr(ctx_cls, meth, classmethod(wrapped))
            self._undo.append((setattr, ctx_cls, meth, classmethod(raw)))
        # one registry sample = one harness term_counter block; inside an
        # enclosing group (a traced CLI call) the sample keeps that group
        harness = sys.modules["qelliptic.harness"]
        orig_counter = harness.term_counter
        tracer = self

        @contextmanager
        def sample_counter():
            saved = tracer.group
            if saved < 0:
                tracer.new_group()
            idx = tracer.open("harness.sample")
            try:
                with orig_counter() as used:
                    yield used
            finally:
                tracer.close(idx)
                tracer.group = saved

        harness.term_counter = sample_counter
        self._undo.append((setattr, harness, "term_counter", orig_counter))

    def _patch_cells(self, fn, originals) -> None:
        for cell in fn.__closure__ or ():
            try:
                val = cell.cell_contents
            except ValueError:
                continue
            hit = originals.get(id(val))
            if hit is not None and hit[0] is val:
                cell.cell_contents = hit[1]
                self._undo.append((_set_cell, cell, None, val))

    def uninstall(self) -> None:
        while self._undo:
            setter, target, attr, old = self._undo.pop()
            setter(target, attr, old)

    # -- aggregation ---------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per-span self time: duration minus the union of its children
        (children of one parent never overlap, so the union is their sum)."""
        selfs = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                selfs[s[3]] -= s[2] - s[1]
        return selfs

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times (ms) for the spans recorded so far."""
        selfs = self.self_times()
        self_ms: dict[str, float] = defaultdict(float)
        for s, st in zip(self.spans, selfs):
            self_ms[s[0]] += st * 1e3
        c = self.counts
        out: dict[str, float] = {}

        def layer_sum(prefix: str, table: dict[str, float]) -> float:
            return sum(v for k, v in table.items() if k.startswith(prefix + "."))

        out["numutil.sum_series.calls"] = c["numutil.sum_series.calls"]
        out["numutil.sum_series.terms"] = c["numutil.sum_series.terms"]
        out["numutil.sum_series.self_ms"] = self_ms["numutil.sum_series"]
        terms = c["numutil.sum_series.terms"]
        out["numutil.sum_series.stagnation_share"] = (
            c["numutil.sum_series.stagnant"] / terms if terms else 0.0)
        out["numutil.continued_fraction.calls"] = c["numutil.continued_fraction.calls"]
        evals = c["numutil.continued_fraction.depth_evals"]
        out["numutil.continued_fraction.depth_evals"] = evals
        out["numutil.continued_fraction.useful_ratio"] = (
            c["numutil.continued_fraction.final_depth"] / evals if evals else 0.0)
        out["numutil.continued_fraction.self_ms"] = self_ms["numutil.continued_fraction"]
        out["numutil.complex_quad.calls"] = c["numutil.complex_quad.calls"]
        out["numutil.complex_quad.nodes"] = c["numutil.complex_quad.nodes"]
        out["numutil.complex_quad.self_ms"] = self_ms["numutil.complex_quad"]
        out["qseries.qpochhammer.calls"] = c["qseries.qpochhammer.calls"]
        out["qseries.qpochhammer.factors"] = c["qseries.qpochhammer.factors"]
        out["qseries.qpochhammer.self_ms"] = self_ms["qseries.qpochhammer"]
        out["elliptic.from_nome.calls"] = c["elliptic.from_nome.calls"]
        out["elliptic.from_nome.self_ms"] = self_ms["elliptic.from_nome"]
        out["elliptic.theta.calls"] = sum(c[n + ".calls"] for n in _THETA)
        out["elliptic.theta.terms"] = sum(c[n + ".terms"] for n in _THETA)
        out["elliptic.theta.self_ms"] = sum(self_ms[n] for n in _THETA)
        out["elliptic.agm.calls"] = c["elliptic.agm.calls"]
        out["fourier.eval_fourier.calls"] = c["fourier.eval_fourier.calls"]
        out["fourier.eval_fourier.self_ms"] = self_ms["fourier.eval_fourier"]
        out["angle.calls"] = sum(v for k, v in c.items()
                                 if k.startswith("angle.") and k.endswith(".calls"))
        out["angle.self_ms"] = layer_sum("angle", self_ms)
        out["thetagen.calls"] = sum(v for k, v in c.items()
                                    if k.startswith("thetagen.") and k.endswith(".calls"))
        out["thetagen.self_ms"] = layer_sum("thetagen", self_ms)
        out["harness.run_case.self_ms"] = self_ms["harness.run_case"]
        return out

    def deterministic_counts(self) -> dict[str, float]:
        """The work counts only (no times): these must repeat exactly."""
        return dict(sorted(self.counts.items()))

    def group_check(self) -> float:
        """Largest |sum of self times in a group - its root span| in seconds.

        A group's root is its first-opened span; every other span of the group
        nests inside it, so the self times must add up to the root's duration.
        """
        selfs = self.self_times()
        roots: dict[int, int] = {}
        total: dict[int, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            g = s[4]
            if g < 0:
                continue
            roots.setdefault(g, i)
            total[g] += selfs[i]
        worst = 0.0
        for g, i in roots.items():
            s = self.spans[i]
            worst = max(worst, abs(total[g] - (s[2] - s[1])))
        return worst

    def dump(self, path) -> None:
        """Write spans as JSON lines: name, start, end, parent, group."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, group) in enumerate(self.spans):
                fh.write(json.dumps({"i": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "group": group}) + "\n")


def _set_cell(cell, _attr, value) -> None:
    cell.cell_contents = value


def _functions_in(obj):
    """A plain function, or the plain functions one or two levels inside a
    dict or tuple (``cli.EVAL_FUNCTIONS`` maps names to ``(hint, fn)``)."""
    if isinstance(obj, types.FunctionType):
        yield obj
    elif isinstance(obj, (dict, tuple)):
        for item in obj.values() if isinstance(obj, dict) else obj:
            if isinstance(item, types.FunctionType):
                yield item
            elif isinstance(item, tuple):
                yield from (f for f in item if isinstance(f, types.FunctionType))


# -- wrappers with work counters ---------------------------------------------

def _wrap_sum_series(tracer: Tracer, name: str, fn):
    counts = tracer.counts
    numutil = sys.modules["qelliptic.numutil"]

    def traced(term, *args, **kw):
        counts[name + ".calls"] += 1
        policy = kw.get("policy") or numutil.DEFAULT_POLICY
        cutoff = policy.rel_tail_cutoff
        # Re-apply the summation's own negligibility test to each consumed
        # term: terms after the last non-negligible one are the stagnation tail.
        state = [0.0j, 0, 0]  # running total, terms seen, index of last big term

        def watched(n):
            t = term(n)
            tc = complex(t)
            total = state[0] + tc
            state[0] = total
            state[1] += 1
            if abs(tc) > cutoff * max(1.0, abs(total)):
                state[2] = state[1]
            return t

        idx = tracer.open(name)
        try:
            result = fn(watched, *args, **kw)
        finally:
            tracer.close(idx)
            counts[name + ".terms"] += state[1]
            counts[name + ".stagnant"] += state[1] - state[2]
        return result

    traced.__wrapped__ = fn
    return traced


def _wrap_continued_fraction(tracer: Tracer, name: str, fn):
    counts = tracer.counts

    def traced(a, b, *args, **kw):
        counts[name + ".calls"] += 1
        state = [0, 0]  # evaluations of a, deepest index

        def watched_a(k):
            state[0] += 1
            if k > state[1]:
                state[1] = k
            return a(k)

        idx = tracer.open(name)
        try:
            return fn(watched_a, b, *args, **kw)
        finally:
            tracer.close(idx)
            counts[name + ".depth_evals"] += state[0]
            counts[name + ".final_depth"] += state[1]

    traced.__wrapped__ = fn
    return traced


def _wrap_complex_quad(tracer: Tracer, name: str, fn):
    counts = tracer.counts

    def traced(f, *args, **kw):
        counts[name + ".calls"] += 1
        state = [0]

        def watched(t):
            state[0] += 1
            return f(t)

        idx = tracer.open(name)
        try:
            return fn(watched, *args, **kw)
        finally:
            tracer.close(idx)
            counts[name + ".nodes"] += state[0]

    traced.__wrapped__ = fn
    return traced


def _counted(work_key: str):
    """Wrapper factory: count work with ``term_counter()`` around the call."""

    def factory(tracer: Tracer, name: str, fn):
        counts = tracer.counts
        term_counter = sys.modules["qelliptic.numutil"].term_counter

        def traced(*args, **kw):
            counts[name + ".calls"] += 1
            idx = tracer.open(name)
            with term_counter() as used:
                try:
                    return fn(*args, **kw)
                finally:
                    tracer.close(idx)
                    counts[name + "." + work_key] += used()

        traced.__wrapped__ = fn
        return traced

    return factory


_SPECIAL = {
    "numutil.sum_series": _wrap_sum_series,
    "numutil.continued_fraction": _wrap_continued_fraction,
    "numutil.complex_quad": _wrap_complex_quad,
    "qseries.qpochhammer": _counted("factors"),
    "elliptic.theta2": _counted("terms"),
    "elliptic.theta3": _counted("terms"),
    "elliptic.theta4": _counted("terms"),
}

