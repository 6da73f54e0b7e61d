"""The three workloads, each as an untraced run (end-to-end metrics) and a
traced run (per-layer metrics).  All run as a closed loop from one client,
with no extra threads; only ``nome_sweep`` uses the seed.

A workload function returns a :class:`Result`: attempted and failed operation
counts, whether every output check passed, metrics, and a report for people.
"""

from __future__ import annotations

import io
import json
import math
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from statistics import median

import common
import sweep
from common import N_SETUP, PY, bench_child, emit, run_child, summary
from tracer import LAYERS, Tracer

VERIFY_ARGS = ["verify", "--all", "--format", "json"]
EVAL_ARGS = ["eval", "sn", "--q", "0.05", "--u", "0.4"]
EXPECTED_COUNTS = {"ACTIVE": 160, "QUARANTINED": 11, "QUARANTINED(auto)": 0}
EVAL_REL_TOL = 1e-9
# Untraced warm-up time before the traced phase, to measure tracing overhead.
UNTRACED_S = 2.0
# Self times of a span group must add up to its root span within this (s).
GROUP_TOL_S = 1e-6


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    notes: list = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.correct = False
        self.notes.append(why)


# ---------------------------------------------------------------------------
# set-up children: import qelliptic + registry() + the workload's warm-up
# ---------------------------------------------------------------------------

def setup_child_main(workload: str, seed: int) -> None:
    """Child role ``setup``: do the set-up, print the ready line, exit."""
    common.use_checkout_source()
    import qelliptic
    from qelliptic.harness import run_registry

    cases = qelliptic.registry()
    if workload == "registry_warm":
        run_registry(cases)
    elif workload == "nome_sweep":
        for point in sweep.points(seed):
            for op in sweep.bind_ops(point, qelliptic):
                try:
                    op()
                except (ArithmeticError, ValueError, RuntimeError):
                    pass
    print("ready", flush=True)


def measure_setup(workload: str, seed: int, res: Result, *, rss: bool) -> None:
    children = [bench_child("setup", "--workload", workload, "--seed", str(seed),
                            ready_line=True) for _ in range(N_SETUP)]
    for c in children:
        if c.returncode != 0:
            res.fail(f"setup child exited {c.returncode}: {c.stderr[-300:]}")
            return
    setup = summary([c.ready_s for c in children])
    res.metrics["setup_s"] = (setup["median"], "s")
    emit("setup_s", setup)
    if rss:
        res.metrics["peak_rss_mb"] = (median([c.maxrss_kb for c in children]) / 1024.0, "MB")


def prime() -> None:
    """Compile the sources once, so no timed child pays for writing .pyc files."""
    run_child([PY, "-c", "import qelliptic.cli"])


# ---------------------------------------------------------------------------
# cli_cold — what a user or CI job pays: fresh `verify --all` and `eval sn`
# processes, mostly interpreter start plus import.
# ---------------------------------------------------------------------------

def _eval_reference() -> complex:
    import mpmath as mp

    mp.mp.dps = 30
    return complex(mp.ellipfun("sn", mp.mpf("0.4"), q=mp.mpf("0.05")))


def check_verify(returncode: int, stdout: str) -> str:
    """Empty when a `verify --all --format json` run is right, else why not."""
    if returncode != 0:
        return f"verify exited {returncode}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "verify printed no JSON"
    if doc.get("gate_passed") is not True:
        return "verify gate failed"
    if doc.get("counts") != EXPECTED_COUNTS:
        return f"verify counts {doc.get('counts')}"
    return ""


def check_eval(returncode: int, stdout: str, ref: complex) -> str:
    if returncode != 0:
        return f"eval exited {returncode}"
    for line in stdout.splitlines():
        if line.startswith("value="):
            value = complex(line[len("value="):])
            if abs(value - ref) <= EVAL_REL_TOL * abs(ref):
                return ""
            return f"eval sn value {value!r} != {ref!r}"
    return "eval printed no value"


def cli_cold(seed: int, seconds: float, trace: bool) -> Result:
    res = Result()
    prime()
    if trace:
        return _traced_cli(res, seconds)
    measure_setup("cli_cold", seed, res, rss=False)
    ref = _eval_reference()
    cli = [PY, "-m", "qelliptic"]
    verify_s, eval_s, pair_s, rss = [], [], [], []
    t_end = time.perf_counter() + seconds
    while not pair_s or time.perf_counter() < t_end:
        v = run_child(cli + VERIFY_ARGS)
        e = run_child(cli + EVAL_ARGS)
        for why in (check_verify(v.returncode, v.stdout), check_eval(e.returncode, e.stdout, ref)):
            res.attempted += 1
            if why:
                res.failed += 1
                res.fail(why)
        verify_s.append(v.wall_s)
        eval_s.append(e.wall_s)
        pair_s.append(v.wall_s + e.wall_s)
        rss.append(max(v.maxrss_kb, e.maxrss_kb) / 1024.0)
    # A cold process lasts ~1 s and averages over the machine's speed
    # changes, so pair times are unimodal and their median is steady.
    pairs = summary(pair_s)
    res.metrics["op_ms"] = (pairs["median"] * 1e3, "ms")
    res.metrics["ops_per_s"] = (1.0 / pairs["median"], "1/s")
    res.metrics["peak_rss_mb"] = (median(rss), "MB")
    emit("cli_pair_s", pairs)
    emit("cli_verify_s", summary(verify_s))
    emit("cli_eval_s", summary(eval_s))
    emit("cli_peak_rss_mb", summary(rss))
    emit("ops_failed_ratio", {"failed": res.failed, "attempted": res.attempted})
    return res


def trace_cli_child_main() -> None:
    """Child role ``trace-cli``: traced in-process `verify` then `eval` in a
    cold process; prints per-layer metrics and work counts as JSON."""
    common.use_checkout_source()
    import qelliptic.cli as cli
    tracer = Tracer()
    tracer.install()
    buf = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(buf), tracer.root("cli.verify"):
        code = cli.main(list(VERIFY_ARGS))
    verify_out = buf.getvalue()
    with redirect_stdout(io.StringIO()), tracer.root("cli.eval"):
        cli.main(list(EVAL_ARGS))
    wall_ms = (time.perf_counter() - t0) * 1e3
    tracer.dump(common.OUT / "trace-cli_cold.jsonl")
    print(json.dumps({
        "layers": tracer.layer_metrics(),
        "counts": tracer.deterministic_counts(),
        "wall_ms": wall_ms,
        "verify_error": check_verify(code, verify_out),
        "bad": _bad_samples_json(verify_out, {c.id: c.anchor for c in cli.registry()}),
        "group_err": tracer.group_check(),
    }))


def _traced_cli(res: Result, seconds: float) -> Result:
    probes = probe_layers(res)
    runs = []
    t_end = time.perf_counter() + seconds
    while not runs or time.perf_counter() < t_end:
        c = bench_child("trace-cli")
        if c.returncode != 0:
            res.fail(f"trace-cli child exited {c.returncode}: {c.stderr[-300:]}")
            return res
        runs.append(json.loads(c.stdout.splitlines()[-1]))
    res.attempted = len(runs)
    for run in runs:
        if run["verify_error"]:
            res.failed += 1
            res.fail(run["verify_error"])
    _check_groups(res, max(r["group_err"] for r in runs))
    _check_repeat(res, [r["counts"] for r in runs])
    layers = _median_layers([r["layers"] for r in runs])
    _put_layers(res, layers, runs[0]["bad"], res.failed / res.attempted)
    untraced = probes["cli.verify.main_ms"] + probes["cli.eval.main_ms"]
    traced = median([r["wall_ms"] for r in runs])
    res.metrics["trace.overhead_ratio"] = (traced / untraced - 1.0, "ratio")
    emit("traced_units", {"n": len(runs), "unit": "one cold verify + eval pair"})
    return res


# ---------------------------------------------------------------------------
# registry_warm — the gate's compute in one warm process: shallow sums at
# nomes up to 0.05, every layer represented, per-call overhead matters.
# ---------------------------------------------------------------------------

def _fingerprint(report) -> list:
    return [(r.case_id, repr(r.lhs), repr(r.rhs), repr(r.abs_residual), repr(r.rel_residual),
             r.passed, r.error) for c in report.results for r in c.records]


def _registry_failures(report, reference) -> tuple[int, dict]:
    """Failed samples of one pass: ACTIVE samples that fail or that differ
    from the first pass; plus the per-layer refused/wrong split."""
    failed = 0
    per_layer = {}
    fp = _fingerprint(report)
    i = 0
    for c in report.results:
        for r in c.records:
            bad = (c.case.status == "ACTIVE" and not r.passed) or fp[i] != reference[i]
            i += 1
            if bad:
                failed += 1
                kind = "refused" if r.error else "wrong"
                layer = _layer_of(c.case.anchor)
                per_layer[f"{layer}.{kind}"] = per_layer.get(f"{layer}.{kind}", 0) + 1
    return failed, per_layer


def _layer_of(anchor: str) -> str:
    """``qelliptic.numutil.complex_quad`` -> ``numutil``."""
    parts = anchor.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


def _bad_samples_json(verify_out: str, anchors: dict) -> dict:
    """Per-layer refused/wrong ACTIVE samples in a `verify` JSON report."""
    per_layer: dict = {}
    try:
        doc = json.loads(verify_out)
    except ValueError:
        return per_layer
    for rec in doc.get("records", []):
        if rec.get("status") == "ACTIVE" and not rec.get("pass"):
            kind = "refused" if rec.get("error") else "wrong"
            key = f"{_layer_of(anchors.get(rec.get('id'), ''))}.{kind}"
            per_layer[key] = per_layer.get(key, 0) + 1
    return per_layer


def registry_warm(seed: int, seconds: float, trace: bool) -> Result:
    res = Result()
    if not trace:
        measure_setup("registry_warm", seed, res, rss=True)
    common.use_checkout_source()
    import qelliptic
    from qelliptic import harness

    cases = qelliptic.registry()
    first = harness.run_registry(cases)  # warm-up pass: fills the context caches
    if not first.gate_passed or first.counts != EXPECTED_COUNTS:
        res.fail(f"warm-up pass: gate {first.gate_passed}, counts {first.counts}")
    reference = _fingerprint(first)
    probes = probe_layers(res) if trace else None
    pass_ms = []
    t_end = time.perf_counter() + (UNTRACED_S if trace else seconds)
    while not pass_ms or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        report = harness.run_registry(cases)
        pass_ms.append((time.perf_counter() - t0) * 1e3)
        _check_pass(res, report, reference)
    if not trace:
        # A pass (~35 ms) resolves the machine's switches between a contended
        # and an uncontended speed: pass times are bimodal and the fastest
        # pass is the steady figure (see README).
        stats = summary(pass_ms)
        res.metrics["op_ms"] = (stats["min"], "ms")
        res.metrics["ops_per_s"] = (1e3 / stats["min"], "1/s")
        emit("registry_pass_ms", stats)
        emit("ops_failed_ratio", {"failed": res.failed, "attempted": res.attempted})
        return res
    return _traced_registry(res, seconds, cases, reference, median(pass_ms), probes)


def _check_pass(res: Result, report, reference) -> None:
    failed, _ = _registry_failures(report, reference)
    res.attempted += sum(len(c.records) for c in report.results)
    res.failed += failed
    if failed:
        res.fail(f"{failed} registry samples failed or changed")
    if not report.gate_passed or report.counts != EXPECTED_COUNTS:
        res.fail(f"registry pass: gate {report.gate_passed}, counts {report.counts}")


def _traced_registry(res, seconds, cases, reference, untraced_ms, probes) -> Result:
    import qelliptic

    tracer = Tracer()
    tracer.install()
    per_pass, counts, wall = [], [], []
    group_err = 0.0
    t_end = time.perf_counter() + seconds
    while not per_pass or time.perf_counter() < t_end:
        tracer.reset()
        t0 = time.perf_counter()
        report = qelliptic.harness.run_registry(cases)
        wall.append((time.perf_counter() - t0) * 1e3)
        _check_pass(res, report, reference)  # traced values must be bit-identical
        per_pass.append(tracer.layer_metrics())
        counts.append(tracer.deterministic_counts())
        group_err = max(group_err, tracer.group_check())
    tracer.dump(common.OUT / "trace-registry_warm.jsonl")
    tracer.uninstall()
    _check_repeat(res, counts)
    _check_groups(res, group_err)
    _, bad = _registry_failures(report, reference)
    _put_layers(res, _median_layers(per_pass), bad, res.failed / res.attempted)
    res.metrics["trace.overhead_ratio"] = (median(wall) / untraced_ms - 1.0, "ratio")
    emit("traced_units", {"n": len(per_pass), "unit": "one registry pass",
                          "group_err_s": group_err})
    return res


# ---------------------------------------------------------------------------
# nome_sweep — the same layers used differently: deep sums (hundreds of
# terms), uncached contexts, and the known refusals and wrong values at
# q >= 0.55 and complex q, each checked against an mpmath oracle.
# ---------------------------------------------------------------------------

_TYPED = (ArithmeticError, ValueError, RuntimeError)  # PoleError, NonConvergenceError, ...


def _outcome(op, ref):
    """(kind, fingerprint): kind is ok / refused / wrong."""
    try:
        value = op()
    except _TYPED as exc:
        return "refused", type(exc).__name__
    return ("ok" if sweep.classify(value, ref) else "wrong"), repr(value)


def nome_sweep(seed: int, seconds: float, trace: bool) -> Result:
    res = Result()
    pts = sweep.points(seed)
    refs = [sweep.oracle(p) for p in pts]  # before any timing; not part of setup_s
    if not trace:
        measure_setup("nome_sweep", seed, res, rss=True)
    common.use_checkout_source()
    import qelliptic

    # (op name, layer, nome, callable, oracle value); the defect probe is the
    # operations in the region of a known library defect (sweep.known_defect).
    timed, probe = [], []
    for p, rrow in zip(pts, refs):
        for (name, layer), op, ref in zip(sweep.OPS, sweep.bind_ops(p, qelliptic), rrow):
            group = probe if sweep.known_defect(name, p) else timed
            group.append((name, layer, p["q"], op, ref))
    # warm-up cycle over every op: the reference outcome of each
    outcomes = [_outcome(op, ref) for _, _, _, op, ref in timed + probe]
    per_layer: dict = {}
    for (_, layer, _, _, _), (kind, _) in zip(timed + probe, outcomes):
        if kind != "ok":
            per_layer[f"{layer}.{kind}"] = per_layer.get(f"{layer}.{kind}", 0) + 1
    n_all = len(outcomes)
    failed_ratio = sum(per_layer.values()) / n_all
    expect = [fp for _, fp in outcomes[:len(timed)]]
    bad = [kind != "ok" for kind, _ in outcomes[:len(timed)]]
    for (name, _, q, _, _), (kind, _) in zip(timed, outcomes):
        if kind != "ok":
            res.fail(f"{name} {kind} at q={q}")
    probes = probe_layers(res) if trace else None
    op_s, cycle_s = [], []
    best = [math.inf] * len(timed)  # per op: fastest latency over the cycles
    t_end = time.perf_counter() + (UNTRACED_S if trace else seconds)
    while not cycle_s or time.perf_counter() < t_end:
        c0 = time.perf_counter()
        for i, (_, _, _, op, _) in enumerate(timed):
            t0 = time.perf_counter()
            try:
                value = op()
            except _TYPED as exc:
                value = exc
            dt = time.perf_counter() - t0
            op_s.append(dt)
            if dt < best[i]:
                best[i] = dt
            got = type(value).__name__ if isinstance(value, Exception) else repr(value)
            if got != expect[i]:
                res.fail(f"sweep op output changed between cycles: {got} != {expect[i]}")
            if bad[i] or got != expect[i]:
                res.failed += 1
        cycle_s.append(time.perf_counter() - c0)
        res.attempted += len(timed)
    # the probe again: its outcomes must repeat exactly
    if [_outcome(op, ref) for _, _, _, op, ref in probe] != outcomes[len(timed):]:
        res.fail("a defect-probe outcome changed between cycles")
    emit("known_defects", {"probe_ops": len(probe), "all_ops": n_all,
                           "failed": sum(per_layer.values()), "ops_failed_ratio": failed_ratio,
                           "per_layer": per_layer})
    if not trace:
        res.metrics["op_ms"] = (median(best) * 1e3, "ms")
        res.metrics["ops_per_s"] = (len(timed) / sum(best), "1/s")
        stats = summary(op_s)
        emit("sweep_op_us", {k: v * 1e6 if k != "n" else v for k, v in stats.items()})
        emit("sweep_best_op_us", {k: v * 1e6 if k != "n" else v for k, v in summary(best).items()})
        emit("sweep_ops_per_s", {"all_ops": len(op_s) / sum(op_s),
                                 "best": len(timed) / sum(best),
                                 "ops": len(op_s), "cycles": len(cycle_s)})
        emit("ops_failed_ratio", {"failed": res.failed, "attempted": res.attempted})
        return res
    return _traced_sweep(res, seconds, timed, median(cycle_s), per_layer, failed_ratio, probes)


def _traced_sweep(res, seconds, timed, untraced_s, per_layer, failed_ratio, probes) -> Result:
    tracer = Tracer()
    tracer.install()
    per_cycle, counts, wall = [], [], []
    group_err = 0.0
    t_end = time.perf_counter() + seconds
    while not per_cycle or time.perf_counter() < t_end:
        tracer.reset()
        c0 = time.perf_counter()
        for name, _, _, op, _ in timed:
            with tracer.root(f"sweep.{name}"):
                try:
                    op()
                except _TYPED:
                    pass
        wall.append(time.perf_counter() - c0)
        per_cycle.append(tracer.layer_metrics())
        counts.append(tracer.deterministic_counts())
        group_err = max(group_err, tracer.group_check())
    tracer.dump(common.OUT / "trace-nome_sweep.jsonl")
    tracer.uninstall()
    _check_repeat(res, counts)
    _check_groups(res, group_err)
    layers = _median_layers(per_cycle)
    layers["harness.run_case.self_ms"] = _run_case_self_ms()
    _put_layers(res, layers, per_layer, failed_ratio)
    res.metrics["trace.overhead_ratio"] = (median(wall) / untraced_s - 1.0, "ratio")
    emit("traced_units", {"n": len(per_cycle), "unit": "one cycle over the timed sweep ops",
                          "group_err_s": group_err})
    return res


def _run_case_self_ms() -> float:
    """The sweep never enters the harness: take run_case's self time from
    traced warm registry passes, as registry_warm does."""
    import qelliptic

    cases = qelliptic.registry()
    qelliptic.harness.run_registry(cases)
    tracer = Tracer()
    tracer.install()
    try:
        values = []
        for _ in range(3):
            tracer.reset()
            qelliptic.harness.run_registry(cases)
            values.append(tracer.layer_metrics()["harness.run_case.self_ms"])
    finally:
        tracer.uninstall()
    return median(values)


# ---------------------------------------------------------------------------
# per-layer probes shared by every traced run
# ---------------------------------------------------------------------------

N_PROBE = 3
IMPORT_MODULES = ("numutil", "qseries", "elliptic", "fourier", "angle", "thetagen",
                  "harness", "registry", "cli")


def probe_child_main(command: str) -> None:
    """Child role ``probe``: untraced `cli.main` after import, output discarded."""
    common.use_checkout_source()
    import qelliptic.cli as cli

    out = {}
    args = VERIFY_ARGS if command == "verify" else EVAL_ARGS
    if command == "verify":
        t0 = time.perf_counter()
        cli.registry()
        out["registry.build_ms"] = (time.perf_counter() - t0) * 1e3
    with redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        cli.main(list(args))
        out[f"cli.{command}.main_ms"] = (time.perf_counter() - t0) * 1e3
    if command == "verify":
        report = cli.run_registry(cli.registry())
        t0 = time.perf_counter()
        cli.report_to_json(report)
        out["harness.report_json_ms"] = (time.perf_counter() - t0) * 1e3
    print(json.dumps(out))


def parse_importtime(stderr: str) -> dict:
    """Self/cumulative import times (ms) from ``python -X importtime``."""
    out = {"import.scipy_ms": 0.0, "import.numpy_ms": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, name = (part.strip() for part in line[len("import time:"):].split("|"))
        top = name.split(".")[0]
        if top in ("scipy", "numpy"):
            out[f"import.{top}_ms"] += int(self_us) / 1e3
        elif name == "qelliptic":
            out["import.qelliptic_ms"] = int(cum_us) / 1e3
        elif top == "qelliptic" and name.count(".") == 1:
            out[f"import.{name.split('.')[1]}.self_ms"] = int(self_us) / 1e3
    return out


def probe_layers(res: Result) -> dict:
    """Start-up, import, registry build and in-process CLI times (untraced)."""
    start = [run_child([PY, "-c", "pass"]).wall_s * 1e3 for _ in range(5)]
    found: dict[str, list] = {"python.startup_ms": start}
    for _ in range(N_PROBE):
        c = run_child([PY, "-X", "importtime", "-c", "import qelliptic.cli"])
        for key, val in parse_importtime(c.stderr).items():
            found.setdefault(key, []).append(val)
        for command in ("verify", "eval"):
            c = bench_child("probe", "--command", command)
            if c.returncode != 0:
                res.fail(f"probe child exited {c.returncode}: {c.stderr[-300:]}")
                continue
            for key, val in json.loads(c.stdout.splitlines()[-1]).items():
                found.setdefault(key, []).append(val)
    probes = {k: median(v) for k, v in found.items()}
    for mod in IMPORT_MODULES:
        key = f"import.{mod}.self_ms"
        if key not in probes:
            res.fail(f"importtime did not report qelliptic.{mod}")
    for key, val in probes.items():
        res.metrics[key] = (val, "ms")
    return probes


def _median_layers(rows: list[dict]) -> dict:
    return {k: median([r[k] for r in rows]) for k in rows[0]}


def _check_repeat(res: Result, counts: list[dict]) -> None:
    if any(c != counts[0] for c in counts[1:]):
        res.fail("work counts differ between traced units")


def _check_groups(res: Result, group_err: float) -> None:
    if group_err > GROUP_TOL_S:
        res.fail(f"span self times miss their group's root span by {group_err:.3g} s")


def _put_layers(res: Result, layers: dict, bad: dict, failed_ratio: float) -> None:
    for key, val in layers.items():
        unit = "ms" if key.endswith("_ms") else ("ratio" if key.endswith(("_share", "_ratio"))
                                                 else "count")
        res.metrics[key] = (val, unit)
    for layer in LAYERS:
        for kind in ("refused", "wrong"):
            res.metrics[f"{layer}.{kind}"] = (float(bad.get(f"{layer}.{kind}", 0)), "count")
    res.metrics["ops_failed_ratio"] = (failed_ratio, "ratio")


WORKLOADS = {
    "cli_cold": cli_cold,
    "registry_warm": registry_warm,
    "nome_sweep": nome_sweep,
}
