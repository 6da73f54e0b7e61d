"""Self-tests of the benchmark's tracer and output checks.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_tracer.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import sweep  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

common.use_checkout_source()

import qelliptic  # noqa: E402


@pytest.fixture(scope="module")
def warm_cases():
    cases = qelliptic.registry()
    qelliptic.harness.run_registry(cases)  # fill the context caches
    return cases


def _traced(fn):
    tracer = Tracer()
    tracer.install()
    try:
        result = fn()
    finally:
        tracer.uninstall()
    return tracer, result


def test_wrapped_functions_return_bit_identical_values(warm_cases):
    plain = workloads._fingerprint(qelliptic.harness.run_registry(warm_cases))
    tracer, report = _traced(lambda: qelliptic.harness.run_registry(warm_cases))
    assert workloads._fingerprint(report) == plain
    assert tracer.counts["numutil.sum_series.calls"] > 0  # the wrappers really ran
    # and uninstall restored the originals
    assert not hasattr(qelliptic.numutil.sum_series, "__wrapped__")
    assert not hasattr(qelliptic.elliptic.sum_series, "__wrapped__")


def test_sample_self_times_add_up_to_the_sample_span(warm_cases):
    tracer, _ = _traced(lambda: qelliptic.harness.run_registry(warm_cases))
    samples = [s for s in tracer.spans if s[0] == "harness.sample"]
    assert len(samples) == 342
    assert len({s[4] for s in samples}) == 342  # one group id per sample
    assert tracer.group_check() <= 1e-6


def test_counts_repeat_exactly_across_traced_runs(warm_cases):
    first, _ = _traced(lambda: qelliptic.harness.run_registry(warm_cases))
    second, _ = _traced(lambda: qelliptic.harness.run_registry(warm_cases))
    assert first.deterministic_counts() == second.deterministic_counts()
    ops = [op for p in sweep.points(7)[::8] for op in sweep.bind_ops(p, qelliptic)]

    def cycle():
        for op in ops:
            try:
                op()
            except (ArithmeticError, ValueError, RuntimeError):
                pass

    a, _ = _traced(cycle)
    b, _ = _traced(cycle)
    assert a.deterministic_counts() == b.deterministic_counts()
    assert a.counts["numutil.continued_fraction.depth_evals"] > 0
    assert a.counts["numutil.complex_quad.nodes"] > 0


def test_cold_pass_reproduces_the_roadmap_term_count():
    """A cold registry pass: 873 sum_series calls; the harness's terms_used
    total is 24,381 = series terms + fraction depth + product factors."""
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import json, qelliptic\n"
        "from tracer import Tracer\n"
        "t = Tracer(); t.install()\n"
        "rep = qelliptic.harness.run_registry(qelliptic.registry())\n"
        "print(json.dumps({'counts': t.counts, 'terms_used': "
        "sum(r.terms_used for c in rep.results for r in c.records)}))\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(common.SRC), str(common.BENCH)],
                         capture_output=True, text=True, check=True, timeout=120)
    doc = json.loads(out.stdout)
    c = doc["counts"]
    assert c["numutil.sum_series.calls"] == 873
    assert doc["terms_used"] == 24381
    assert (c["numutil.sum_series.terms"] + c["numutil.continued_fraction.depth_evals"]
            + c["qseries.qpochhammer.factors"]) == 24381


def test_output_checks_reject_wrong_outputs():
    good = json.dumps({"gate_passed": True, "counts": workloads.EXPECTED_COUNTS})
    assert workloads.check_verify(0, good) == ""
    assert workloads.check_verify(1, good)
    assert workloads.check_verify(0, "not json")
    assert workloads.check_verify(0, json.dumps({"gate_passed": False,
                                                 "counts": workloads.EXPECTED_COUNTS}))
    assert workloads.check_verify(0, json.dumps(
        {"gate_passed": True, "counts": {"ACTIVE": 159, "QUARANTINED": 12,
                                         "QUARANTINED(auto)": 0}}))
    ref = 0.3841811341538738
    assert workloads.check_eval(0, f"value={ref!r}\n", ref) == ""
    assert workloads.check_eval(0, f"value={ref * (1 + 1e-6)!r}\n", ref)
    assert workloads.check_eval(2, f"value={ref!r}\n", ref)


def test_sweep_classification_and_seeded_inputs():
    assert sweep.points(3) == sweep.points(3)
    assert sweep.points(3) != sweep.points(4)
    assert sweep.classify(1.0 + 1e-12, 1.0)
    assert not sweep.classify(1.0 + 1e-6, 1.0)
    assert not sweep.classify(complex("nan"), 1.0)
    assert not sweep.classify((1.0, 2.0 * (1 + 1e-6)), (1.0, 2.0))


def test_defect_probe_is_the_same_size_for_every_seed():
    for seed in (3, 4, 10 ** 9):
        pts = sweep.points(seed)
        assert sum(sweep.known_defect(name, p) for p in pts for name, _ in sweep.OPS) == 65


def test_importtime_parser():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       100 |        100 |     numpy.core\n"
        "import time:      2000 |       2100 |   scipy\n"
        "import time:       500 |        500 |     qelliptic.numutil\n"
        "import time:        50 |       2650 | qelliptic\n"
    )
    got = workloads.parse_importtime(text)
    assert got["import.numpy_ms"] == 0.1
    assert got["import.scipy_ms"] == 2.0
    assert got["import.numutil.self_ms"] == 0.5
    assert got["import.qelliptic_ms"] == 2.65
