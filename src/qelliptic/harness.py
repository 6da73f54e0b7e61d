"""Identity verification harness: case records, the residual runner, and
report serialization.

Each :class:`IdentityCase` names one numerically checkable identity.  Both
sides are evaluated through *independent* routes (different series, products,
or continued fractions — never the same code path), and the runner records
absolute and relative residuals per sample point.  A sample passes exactly
when its relative residual ``|lhs - rhs| / max(|lhs|, |rhs|)`` is at most the
case's tolerance; a zero residual counts as relative 0, so two exact zeros
pass.  The absolute residual is reported, never judged.

Compare modes
-------------
Each mode has its default relative tolerance in :data:`DEFAULT_TOLERANCES`.

``direct``
    residual on the raw values.
``exponentiated``
    both sides are logarithms; residual on ``exp(lhs)`` vs ``exp(rhs)``
    (branch-immune).
``derivative``
    sides involve numeric differentiation; looser default tolerance.
``limit``
    sides involve a numeric limit; loosest default tolerance.

A case whose residual exceeds tolerance at **every** sample is auto-flagged
as quarantined in the report (never silently patched); pre-quarantined cases
run and report but are excluded from the pass/fail gate.

A :class:`SampleRecord` holds what differs per sample; its :class:`CaseResult`
holds the case (and so its compare mode) and the tolerance judged against.
"""

from __future__ import annotations

import cmath
import fnmatch
import io
import math
import time
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from .numutil import NonConvergenceError, term_counter

__all__ = [
    "DEFAULT_TOLERANCES",
    "IdentityCase",
    "SampleRecord",
    "CaseResult",
    "RegistryReport",
    "run_case",
    "run_registry",
    "format_complex",
    "report_to_json",
    "report_to_csv",
]

DEFAULT_TOLERANCES: Mapping[str, float] = {
    "direct": 1e-9,
    "exponentiated": 1e-8,
    "derivative": 1e-6,
    "limit": 1e-3,
}

_COMPARE_MODES = frozenset(DEFAULT_TOLERANCES)


def _check_tol(tol: float, what: str) -> float:
    """``tol`` itself if it is a finite number > 0, else ``ValueError``: a
    NaN, negative or zero tolerance fails every sample that is not exact, and
    an infinite one passes every sample."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"{what} must be positive and finite, got {tol!r}")
    return tol


class _CaseFields(NamedTuple):
    id: str
    description: str
    anchor: str  # dotted path of the primary evaluator under test
    lhs: Callable[..., complex]
    rhs: Callable[..., complex]
    samples: tuple[Mapping[str, Any], ...]
    compare: str = "direct"
    tol: float | None = None
    status: str = "ACTIVE"
    param_domain: str = ""


class IdentityCase(_CaseFields):
    """One verifiable identity: two independent evaluators plus sample points
    (an immutable named tuple, checked when it is built)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> IdentityCase:
        self = super().__new__(cls, *args, **kwargs)
        if self.compare not in _COMPARE_MODES:
            raise ValueError(f"unknown compare mode {self.compare!r}")
        if self.status not in ("ACTIVE", "QUARANTINED"):
            raise ValueError(f"unknown status {self.status!r}")
        if not self.samples:
            raise ValueError(f"case {self.id}: needs at least one sample")
        if self.tol is not None:
            _check_tol(self.tol, f"case {self.id}: tolerance")
        return self

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> IdentityCase:
        # through __new__, so that _replace runs the checks too
        return cls(*iterable)

    @property
    def tolerance(self) -> float:
        return self.tol if self.tol is not None else DEFAULT_TOLERANCES[self.compare]


class SampleRecord(NamedTuple):
    """Residuals of one case at one sample point (an immutable named tuple:
    one is built per sample, so it must be cheap).  Its tolerance and compare
    mode are per case, on its :class:`CaseResult`."""

    case_id: str
    params: Mapping[str, Any]
    lhs: complex | None
    rhs: complex | None
    abs_residual: float
    rel_residual: float
    passed: bool
    terms_used: int
    wall_time_ms: float
    error: str = ""


class CaseResult(NamedTuple):
    """One case's records and the relative tolerance they were judged
    against: the case's own, or a run's override (``verify --tol``)."""

    case: IdentityCase
    records: tuple[SampleRecord, ...]
    tolerance: float

    @property
    def passed_all(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def failed_all(self) -> bool:
        return all(not r.passed for r in self.records)

    @property
    def effective_status(self) -> str:
        """ACTIVE cases failing at every sample are flagged, not patched."""
        if self.case.status == "QUARANTINED":
            return "QUARANTINED"
        if self.failed_all:
            return "QUARANTINED(auto)"
        return "ACTIVE"

    @property
    def worst_rel_residual(self) -> float:
        return max((r.rel_residual for r in self.records), default=math.inf)


class RegistryReport(NamedTuple):
    results: tuple[CaseResult, ...]
    wall_time_ms: float

    @property
    def gate_passed(self) -> bool:
        """True iff every pre-registered ACTIVE case passed at every sample."""
        return all(
            r.passed_all for r in self.results if r.case.status == "ACTIVE"
        )

    @property
    def counts(self) -> dict[str, int]:
        out = {"ACTIVE": 0, "QUARANTINED": 0, "QUARANTINED(auto)": 0}
        for r in self.results:
            out[r.effective_status] += 1
        return out

    def quarantined(self) -> list[CaseResult]:
        return [r for r in self.results if r.effective_status != "ACTIVE"]


def run_case(
    case: IdentityCase,
    *,
    samples: Sequence[Mapping[str, Any]] | None = None,
    tol_override: float | None = None,
) -> CaseResult:
    """Evaluate both sides at each sample; a mathematical failure (an
    ``ArithmeticError``, a ``NonConvergenceError`` or a ``ValueError``)
    becomes a fail record naming the exception's type, not an exception."""
    tol = case.tolerance if tol_override is None else _check_tol(tol_override, "tolerance")
    case_id, compare, lhs, rhs = case.id, case.compare, case.lhs, case.rhs
    clock = time.perf_counter
    records: list[SampleRecord] = []
    for params in samples if samples is not None else case.samples:
        t0 = clock()
        lhs_v: complex | None = None
        rhs_v: complex | None = None
        err = ""
        # term_counter is looked up in this module's namespace on every
        # sample, so that a wrapper bound there sees each sample
        with term_counter() as used:
            try:
                lhs_v = complex(lhs(**params))
                rhs_v = complex(rhs(**params))
            except (ArithmeticError, NonConvergenceError, ValueError) as exc:
                err = f"{type(exc).__name__}: {exc}"
        wall = (clock() - t0) * 1000.0
        if err:
            abs_res = rel_res = math.inf
            passed = False
        else:
            if compare == "exponentiated":
                cmp_l, cmp_r = cmath.exp(lhs_v), cmath.exp(rhs_v)
            else:
                cmp_l, cmp_r = lhs_v, rhs_v
            abs_res = abs(cmp_l - cmp_r)
            # a zero residual is relative 0, also where both sides are 0
            rel_res = abs_res / max(abs(cmp_l), abs(cmp_r)) if abs_res else 0.0
            passed = rel_res <= tol
        # positional, in field order: one record per sample
        records.append(SampleRecord(
            case_id, dict(params), lhs_v, rhs_v, abs_res, rel_res, passed,
            used(), wall, err,
        ))
    return CaseResult(case, tuple(records), tol)


def run_registry(
    cases: Iterable[IdentityCase],
    *,
    id_filter: str = "*",
    tol_override: float | None = None,
    sample_override: Mapping[str, Any] | None = None,
) -> RegistryReport:
    """Run every case whose id matches ``id_filter`` (shell glob).

    ``sample_override`` replaces the matching parameter(s) in each default
    sample of the selected cases (parameters the case does not take are
    ignored).  Results keep registry order.
    """
    selected = [c for c in cases if fnmatch.fnmatchcase(c.id, id_filter)]

    def samples_for(case: IdentityCase) -> Sequence[Mapping[str, Any]] | None:
        if not sample_override:
            return None
        out = []
        for s in case.samples:
            merged = dict(s)
            for key, val in sample_override.items():
                if key in merged:
                    merged[key] = val
            out.append(merged)
        return out

    t0 = time.perf_counter()
    results = [
        run_case(c, samples=samples_for(c), tol_override=tol_override)
        for c in selected
    ]
    wall = (time.perf_counter() - t0) * 1000.0
    return RegistryReport(results=tuple(results), wall_time_ms=wall)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def format_complex(z: complex | None) -> str:
    """Deterministic, locale-free rendering; pure reals print as reals."""
    if z is None:
        return ""
    if z.imag == 0.0:
        return "%.16g" % z.real
    sign = "+" if z.imag >= 0 else "-"
    return "%.16g%s%.16gj" % (z.real, sign, abs(z.imag))


def _record_row(rec: SampleRecord, result: CaseResult) -> dict[str, Any]:
    return {
        "id": rec.case_id,
        "params": {k: format_complex(complex(v)) if isinstance(v, complex) else v
                   for k, v in sorted(rec.params.items())},
        "lhs": format_complex(rec.lhs),
        "rhs": format_complex(rec.rhs),
        "abs_residual": rec.abs_residual,
        "rel_residual": rec.rel_residual,
        "pass": rec.passed,
        "tolerance": result.tolerance,
        "compare": result.case.compare,
        "status": result.effective_status,
        "terms_used": rec.terms_used,
        "wall_time_ms": round(rec.wall_time_ms, 3),
        "error": rec.error,
    }


def _record_rows(report: RegistryReport) -> list[dict[str, Any]]:
    return [_record_row(rec, result) for result in report.results for rec in result.records]


def _json_value(value: Any) -> Any:
    """``value`` with every non-finite float in it, also inside a dict or a
    list, replaced by ``None``: JSON (RFC 8259) has no Infinity or NaN."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_value(v) for v in value]
    return value


def _to_json(value: Any) -> str:
    """``value`` as strict, compact JSON (no indent), a non-finite float as
    ``null``: the one JSON writer of reports and of the command line."""
    import json  # imported on first use: text output never needs it

    return json.dumps(_json_value(value), allow_nan=False)


def _to_csv(rows: Sequence[Mapping[str, Any]]) -> str:
    """``rows`` as CSV with minimal quoting and bare newline line ends,
    under a header of the first row's keys (no rows, no header): the one CSV
    writer of reports and of the command line."""
    import csv  # imported on first use: text output never needs it

    buf = io.StringIO()
    if rows:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return buf.getvalue()


def report_to_json(report: RegistryReport) -> str:
    """The report as strict JSON.  A non-finite residual (an error record's,
    whose ``error`` field gives the reason) is written as ``null``."""
    return _to_json({
        "records": _record_rows(report),
        "counts": report.counts,
        "gate_passed": report.gate_passed,
        "wall_time_ms": round(report.wall_time_ms, 3),
    })


def report_to_csv(report: RegistryReport) -> str:
    """One CSV row per sample record, its parameters joined as ``k=v;...``."""
    rows = _record_rows(report)
    for row in rows:
        row["params"] = ";".join(f"{k}={v}" for k, v in row["params"].items())
    return _to_csv(rows)


def report_to_text(report: RegistryReport) -> str:
    """Human-readable per-case summary plus the quarantine listing."""
    lines: list[str] = []
    for result in report.results:
        case = result.case
        mark = "PASS" if result.passed_all else "FAIL"
        lines.append(
            f"{case.id:22s} {mark:4s} {result.effective_status:17s} "
            f"worst-rel={result.worst_rel_residual:.3e} samples={len(result.records)} "
            f"tol={result.tolerance:g} [{case.compare}]"
        )
    counts = report.counts
    lines.append(
        f"-- {counts['ACTIVE']} active pass-gated, {counts['QUARANTINED']} quarantined, "
        f"{counts['QUARANTINED(auto)']} auto-quarantined; "
        f"gate={'PASS' if report.gate_passed else 'FAIL'}; "
        f"wall={report.wall_time_ms:.0f} ms"
    )
    quarantined = report.quarantined()
    if quarantined:
        lines.append("-- quarantine listing (runs, reports, excluded from gate):")
        for result in quarantined:
            lines.append(
                f"   {result.case.id:22s} worst-rel={result.worst_rel_residual:.3e} "
                f"({result.case.description})"
            )
    return "\n".join(lines)
