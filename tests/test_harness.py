"""Registry integrity, runner semantics, quarantine discipline, reports."""

import ast
import csv
import importlib
import io
import json
import math
from pathlib import Path

import pytest

from qelliptic import _cases
from qelliptic.harness import (
    CaseResult,
    IdentityCase,
    SampleRecord,
    format_complex,
    report_to_csv,
    report_to_json,
    report_to_text,
    run_case,
    run_registry,
)
from qelliptic.elliptic import EllipticContext
from qelliptic.numutil import DEFAULT_POLICY, NonConvergenceError, PoleError, truncation
from qelliptic.registry import UNREGISTERED, registry


def run_all():
    return run_registry(registry())


# ---------------------------------------------------------------------------
# registry integrity
# ---------------------------------------------------------------------------


def test_registry_size_floor():
    assert len(registry()) >= 80


def test_registry_ids_unique():
    ids = [c.id for c in registry()]
    assert len(ids) == len(set(ids))


def test_registry_cases_well_formed():
    for c in registry():
        assert c.id and c.description
        assert c.status in ("ACTIVE", "QUARANTINED")
        assert c.samples
        assert c.tolerance > 0.0


def test_case_helpers_have_distinct_bodies():
    # two module-level helpers of _cases with the same AST are one rule kept twice
    tree = ast.parse(Path(_cases.__file__).read_text())
    first = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            key = ast.dump(ast.Module(body=node.body, type_ignores=[])) + ast.dump(node.args)
            assert key not in first, f"{node.name} has the same AST as {first[key]}"
            first[key] = node.name


def test_registry_anchors_resolve():
    # every anchor names an importable attribute of this package
    for c in registry():
        mod_path, _, attr = c.anchor.rpartition(".")
        obj = importlib.import_module("qelliptic")
        for part in c.anchor.split(".")[1:]:
            obj = getattr(obj, part)
        assert callable(obj) or isinstance(obj, property), c.anchor


def test_registry_is_memoized():
    assert registry() is registry()


def test_registry_never_caches_duplicate_ids(monkeypatch):
    # a refused case list is refused again on the next call, not returned
    monkeypatch.setattr(importlib.import_module("qelliptic.registry"), "_REGISTRY", None)
    duplicate = make_case(id="DUP")
    monkeypatch.setattr(_cases, "_build", lambda: (duplicate, duplicate))
    for _ in range(2):
        with pytest.raises(RuntimeError, match="registry ids must be unique"):
            registry()


def test_unregistered_entries_documented():
    # out-of-scope rows carry a slug and a reason, no evaluators
    assert len(UNREGISTERED) >= 1
    for slug, reason in UNREGISTERED:
        assert slug and reason


# ---------------------------------------------------------------------------
# gate and totality
# ---------------------------------------------------------------------------


def test_totality_every_case_runs_once():
    report = run_all()
    assert len(report.results) == len(registry())
    ran = [r.case.id for r in report.results]
    assert ran == [c.id for c in registry()]
    for r in report.results:
        assert len(r.records) == len(r.case.samples)


def test_gate_active_set_passes():
    report = run_all()
    assert report.gate_passed
    for r in report.results:
        if r.case.status == "ACTIVE":
            assert r.passed_all, r.case.id


def test_quarantined_cases_fail_with_measured_residuals():
    report = run_all()
    quarantined = [r for r in report.results if r.case.status == "QUARANTINED"]
    assert quarantined
    for r in quarantined:
        assert r.failed_all, r.case.id
        assert r.worst_rel_residual > r.case.tolerance


def test_counts_partition_results():
    report = run_all()
    counts = report.counts
    assert sum(counts.values()) == len(report.results)
    assert counts["QUARANTINED(auto)"] == 0


def test_determinism_of_numeric_payload():
    # identical config -> identical values and verdicts (timings excluded)
    def payload(report):
        return [
            (
                rec.case_id,
                tuple(sorted(rec.params.items())),
                rec.lhs,
                rec.rhs,
                rec.abs_residual,
                rec.rel_residual,
                rec.passed,
                rec.error,
            )
            for res in report.results
            for rec in res.records
        ]

    a = run_registry(registry(), id_filter="EQ1*")
    b = run_registry(registry(), id_filter="EQ1*")
    assert payload(a) == payload(b)


def test_scoped_policy_does_not_leak_into_cached_contexts():
    def residuals(report):
        return [
            (rec.case_id, rec.lhs, rec.rhs, rec.abs_residual, rec.rel_residual)
            for res in report.results
            for rec in res.records
        ]

    first = run_registry(registry(), id_filter="EQ1*")
    with truncation(rel_tail_cutoff=1e-12):
        coarse = run_registry(registry(), id_filter="EQ1*")
    third = run_registry(registry(), id_filter="EQ1*")
    assert residuals(coarse) != residuals(first)
    assert residuals(third) == residuals(first)


def test_cached_contexts_are_keyed_by_policy():
    # a context cached under the default policy must not answer a capped call
    cached_context = _cases._cr
    default = cached_context(2.0)
    with truncation(max_terms=3), pytest.raises(NonConvergenceError):
        cached_context(2.0)
    assert cached_context(2.0) is default


def test_y_context_is_the_r_context_at_four_y_squared():
    assert _cases._cy(0.35) is _cases._cr(4.0 * 0.35 * 0.35)
    with pytest.raises(ValueError, match="y must be positive"):
        _cases._cy(-0.35)


# ---------------------------------------------------------------------------
# runner semantics on synthetic cases
# ---------------------------------------------------------------------------


def make_case(**kw):
    base = dict(
        id="SYN",
        description="synthetic",
        anchor="qelliptic.numutil.sum_series",
        lhs=lambda: 1.0,
        rhs=lambda: 1.0,
        samples=({},),
    )
    base.update(kw)
    return IdentityCase(**base)


def test_active_case_failing_everywhere_is_auto_quarantined():
    bad = make_case(lhs=lambda: 1.0, rhs=lambda: 2.0)
    result = run_case(bad)
    assert result.failed_all
    assert result.effective_status == "QUARANTINED(auto)"
    report = run_registry([bad])
    assert not report.gate_passed
    assert report.counts["QUARANTINED(auto)"] == 1
    assert [r.case.id for r in report.quarantined()] == ["SYN"]


def test_partial_failure_is_not_auto_quarantined():
    flaky = make_case(
        lhs=lambda v: 1.0 if v else 2.0,
        rhs=lambda v: 1.0,
        samples=({"v": 1}, {"v": 0}),
    )
    result = run_case(flaky)
    assert not result.passed_all and not result.failed_all
    assert result.effective_status == "ACTIVE"


@pytest.mark.parametrize("lhs, rhs, rel, passed", [
    # small sides: a relative error of 1e-8 fails at tol 1e-10, however
    # small the absolute residual
    (1e-3, 1e-3 * (1.0 + 1e-8), 1e-8, False),
    (1e-20, 2e-20, 0.5, False),
    (0.0, 1e-300, 1.0, False),
    # a zero residual is relative 0, also between two zeros
    (0.0, 0.0, 0.0, True),
    (1e-3, 1e-3, 0.0, True),
])
def test_a_sample_passes_on_its_relative_residual_only(lhs, rhs, rel, passed):
    rec = run_case(make_case(lhs=lambda: lhs, rhs=lambda: rhs, tol=1e-10)).records[0]
    assert rec.rel_residual == pytest.approx(rel, rel=1e-6)
    assert rec.abs_residual == abs(lhs - rhs)
    assert rec.passed is passed


def test_records_are_immutable():
    result = run_case(make_case())
    with pytest.raises(AttributeError):
        result.records[0].passed = False
    with pytest.raises(AttributeError):
        result.records = ()


@pytest.mark.parametrize("bad, message", [
    ({"compare": "sideways"}, "unknown compare mode 'sideways'"),
    ({"status": "RETIRED"}, "unknown status 'RETIRED'"),
    ({"samples": ()}, "case SYN: needs at least one sample"),
    ({"tol": 0.0}, "case SYN: tolerance must be positive"),
    ({"tol": -1e-9}, "case SYN: tolerance must be positive"),
    ({"tol": math.nan}, "case SYN: tolerance must be positive and finite, got nan"),
    ({"tol": math.inf}, "case SYN: tolerance must be positive and finite, got inf"),
])
def test_identity_case_is_checked_when_built(bad, message):
    with pytest.raises(ValueError, match=message):
        make_case(**bad)
    with pytest.raises(ValueError, match=message):
        make_case()._replace(**bad)


def _records():
    report = run_registry([make_case()])
    return {
        "TruncationPolicy": (DEFAULT_POLICY, "max_terms", 17),
        "EllipticContext": (EllipticContext.from_nome(0.1), "k", 0.5),
        "IdentityCase": (report.results[0].case, "status", "QUARANTINED"),
        "RegistryReport": (report, "wall_time_ms", 0.0),
    }


@pytest.mark.parametrize("name", ["TruncationPolicy", "EllipticContext", "IdentityCase",
                                  "RegistryReport"])
def test_records_refuse_assignment(name):
    record, field, value = _records()[name]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    assert getattr(record, field) == before
    with pytest.raises(AttributeError):
        record.extra = 1


def test_sample_record_fields():
    assert SampleRecord._fields == (
        "case_id", "params", "lhs", "rhs", "abs_residual", "rel_residual",
        "passed", "terms_used", "wall_time_ms", "error",
    )
    assert SampleRecord._field_defaults == {"error": ""}
    assert CaseResult._fields == ("case", "records", "tolerance")


def test_case_result_properties_on_a_mixed_case():
    mixed = make_case(
        lhs=lambda v: 1.0 + v,
        rhs=lambda v: 1.0,
        samples=({"v": 0.0}, {"v": 0.5}, {"v": 0.25}),
    )
    result = run_case(mixed)
    assert [r.passed for r in result.records] == [True, False, False]
    assert (result.passed_all, result.failed_all) == (False, False)
    assert result.effective_status == "ACTIVE"
    # |1.5 - 1| / 1.5
    assert result.worst_rel_residual == 0.5 / 1.5
    quarantined = run_case(make_case(
        lhs=lambda v: 1.0 + v, rhs=lambda v: 1.0, samples=mixed.samples,
        status="QUARANTINED"))
    assert quarantined.effective_status == "QUARANTINED"
    assert CaseResult(mixed, (), mixed.tolerance).worst_rel_residual == math.inf


def test_exponentiated_mode_forgives_period_shifts():
    # lhs - rhs = 2 pi i: equal after exponentiation
    case = make_case(
        lhs=lambda: 2j * math.pi, rhs=lambda: 0.0, compare="exponentiated"
    )
    assert run_case(case).passed_all


def test_evaluation_errors_become_fail_records():
    def explode():
        raise PoleError("synthetic pole")

    case = make_case(lhs=explode)
    rec = run_case(case).records[0]
    assert not rec.passed
    assert "PoleError" in rec.error and "synthetic pole" in rec.error
    assert math.isinf(rec.abs_residual)


def test_default_tolerances_by_mode():
    assert make_case().tolerance == 1e-9
    assert make_case(compare="exponentiated").tolerance == 1e-8
    assert make_case(compare="derivative").tolerance == 1e-6
    assert make_case(compare="limit").tolerance == 1e-3
    assert make_case(tol=1e-4).tolerance == 1e-4


def test_case_validation():
    with pytest.raises(ValueError):
        make_case(compare="fuzzy")
    with pytest.raises(ValueError):
        make_case(status="RETIRED")
    with pytest.raises(ValueError):
        make_case(samples=())
    with pytest.raises(ValueError):
        make_case(tol=0.0)


def test_tol_override_tightens_verdict():
    case = make_case(lhs=lambda: 1.0, rhs=lambda: 1.0 + 1e-7)
    assert not run_case(case).passed_all  # default 1e-9
    assert run_case(case, tol_override=1e-3).passed_all


def test_sample_override_replaces_only_matching_keys():
    report = run_registry(registry(), id_filter="EQ79", sample_override={"l": 2, "zz": 9})
    for rec in report.results[0].records:
        assert rec.params["l"] == 2
        assert "zz" not in rec.params
    assert report.results[0].passed_all


_TYPED_ERRORS = ("PoleError", "NonConvergenceError", "ValueError", "ZeroDivisionError",
                 "OverflowError")


@pytest.mark.parametrize("override", [
    {"r": 0.05}, {"r": 0.002}, {"r": 9}, {"q": 0.95}, {"q": -0.9}, {"q": 0.5j}, {"q": 0.9j},
    {"x": 0.1}, {"y": 0.1}, {"a": 0.3},
], ids=str)
def test_sample_overrides_give_a_report_of_typed_failures(override):
    # EQ14, EQ15 and EQ88 raised a bare KeyError under any r override, and
    # EQ11, EQ122, EQ124 and EQ125 a TypeError from math.log at complex q
    report = run_registry(registry(), sample_override=override)
    for result in report.results:
        for rec in result.records:
            assert not rec.error or rec.error.startswith(_TYPED_ERRORS), (rec.case_id, rec.error)
            if rec.case_id in ("EQ14", "EQ15", "EQ88") and "r" in override:
                assert rec.error.startswith("ValueError: closed form tabulated only at r in"), rec.error
            if rec.case_id in ("EQ11", "EQ122", "EQ124", "EQ125"):
                assert not rec.error, rec.error
            # EQ16's terms 1/(e^x - 1) overflowed in e^x where they underflow to 0
            if rec.case_id == "EQ16":
                assert not rec.error, rec.error


@pytest.mark.parametrize("q", [0.95, 0.9j], ids=str)
def test_eq128_holds_at_deep_nomes(q):
    # k' off the context; formed as sqrt(1 - k^2) it read 0.81 at q = 0.95 and 1.0 at 0.9i
    report = run_registry(registry(), id_filter="EQ128", sample_override={"q": q})
    records = [rec for res in report.results for rec in res.records]
    assert [rec.case_id for rec in records] == ["EQ128", "EQ128"]
    assert all(rec.rel_residual <= 1e-14 for rec in records), records


@pytest.mark.parametrize("case_id, override", [
    ("A1-131", {"q": 0.95}), ("A-164", {"q": 0.95}), ("A-170", {"q": 0.95}),
    ("MAIN-A1", {"q": 0.95}), ("A5-158", {"q": -0.9}),
    ("T18", {"r": 0.002}), ("T19a", {"r": 0.002}),
], ids=str)
def test_cayley_images_hold_at_deep_nomes(case_id, override):
    # N/D formed directly; as cayley(u_product(...)), at q = 0.95 A1-131 raised
    # a false PoleError and A-164 and A-170 read 1.1e-4 and 1.3e-2, A5-158 read
    # 2.3e-8 at q = -0.9; T18 and T19a, whose log(nd + k sd) at sn ~ -1
    # cancelled, read 1.1 and 0.80 at r = 0.002
    report = run_registry(registry(), id_filter=case_id, sample_override=override)
    assert [res.case.id for res in report.results] == [case_id]
    assert report.results[0].passed_all, report.results[0].records


@pytest.mark.parametrize("q, failing", [
    (0.95, {"EQ7", "EQ11", "EQ11.1", "EQ66"}),
    (-0.9, {"A-150", "EQ7", "EQ11", "EQ11.1", "EQ122"}),
    (0.9j, {"EQ7", "EQ11", "EQ122"}),
], ids=["q=0.95", "q=-0.9", "q=0.9j"])
def test_active_cases_failing_on_the_deep_q_rows(q, failing):
    # exact both ways: a case that starts to fail, or that starts to pass,
    # changes this list
    report = run_registry(registry(), sample_override={"q": q})
    got = {res.case.id for res in report.results
           if res.case.status == "ACTIVE" and not res.passed_all}
    assert got == failing


def test_id_filter_glob():
    appendix = run_registry(registry(), id_filter="A*")
    assert appendix.results
    assert all(r.case.id.startswith("A") for r in appendix.results)
    single = run_registry(registry(), id_filter="EQ7")
    assert [r.case.id for r in single.results] == ["EQ7"]
    assert not run_registry(registry(), id_filter="NO-SUCH-*").results


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_format_complex_pure_reals():
    assert format_complex(0.5 + 0.0j) == "0.5"
    assert "j" in format_complex(0.5 + 0.25j)
    assert format_complex(None) == ""


def test_json_schema():
    report = run_registry(registry(), id_filter="EQ7")
    doc = json.loads(report_to_json(report))
    assert set(doc) == {"records", "counts", "gate_passed", "wall_time_ms"}
    assert doc["gate_passed"] is True
    rec = doc["records"][0]
    for field in (
        "id",
        "params",
        "lhs",
        "rhs",
        "abs_residual",
        "rel_residual",
        "pass",
        "tolerance",
        "compare",
        "status",
    ):
        assert field in rec


def test_csv_schema():
    report = run_registry(registry(), id_filter="T5")
    rows = list(csv.DictReader(io.StringIO(report_to_csv(report))))
    assert len(rows) == len(report.results[0].records)
    for row in rows:
        assert row["id"] == "T5"
        assert row["pass"] == "True"
        assert float(row["rel_residual"]) <= float(row["tolerance"])


def test_text_report_gate_and_quarantine_lines():
    report = run_all()
    text = report_to_text(report)
    assert "gate=PASS" in text
    for r in report.quarantined():
        assert r.case.id in text
