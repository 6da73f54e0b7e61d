"""qelliptic benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with nothing wrapped; ``--trace 1`` is a separate run that wraps the
library's public functions and reports the per-layer metrics.  The metric
names, units and bounds are those declared in ``BENCHMARK.json``.  The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

``--workload all`` runs every workload in turn as its own process and prints
each end-to-end metric by name and unit; it exits non-zero if any output
check failed.  The exit code is non-zero whenever an output check fails or
the checkout has no ``src/qelliptic`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

import common

# The reason for each workload is given beside its implementation in workloads.py.
WORKLOAD_NAMES = ("cli_cold", "registry_warm", "nome_sweep")


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads

    wanted = declared_metrics(trace)
    common.use_checkout_source()  # fail early, before any child starts
    common.emit("context", context(workload, seed, seconds, trace))
    res = workloads.WORKLOADS[workload](seed, seconds, trace)
    metrics = {}
    for name, unit in wanted.items():
        if name not in res.metrics:
            res.fail(f"metric {name} was not measured")
            continue
        value, got_unit = res.metrics[name]
        if got_unit != unit:
            res.fail(f"metric {name} measured in {got_unit}, declared {unit}")
        metrics[name] = {"value": value, "unit": unit}
    for note in dict.fromkeys(res.notes):
        print(f"# check failed: {note}", flush=True)
    print(json.dumps({"correct": res.correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}), flush=True)
    return 0 if res.correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; a table of every metric."""
    status = 0
    for workload in WORKLOAD_NAMES:
        child = common.run_child(
            [common.PY, str(common.BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))], timeout=900.0)
        lines = child.stdout.splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        print(f"== {workload}: exit {child.returncode}")
        for line in lines[:-1]:
            if line.startswith("# ") and not line.startswith("# context"):
                print("   " + line[2:])
        if result is None:
            print(child.stderr[-2000:])
            status = 1
            continue
        for name, m in result["metrics"].items():
            print(f"   {name} = {m['value']:.6g} {m['unit']}")
        print(f"   correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        if child.returncode != 0 or not result["correct"]:
            status = 1
    return status


def context(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    def version(mod: str) -> str:
        try:
            return __import__(mod).__version__
        except ImportError:
            return "absent"

    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "python": platform.python_version(), "scipy": version("scipy"),
            "numpy": version("numpy"), "mpmath": version("mpmath"),
            "nproc": os.cpu_count(), "machine": platform.machine()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", help=argparse.SUPPRESS)
    ap.add_argument("--command", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        import workloads

        if args.child == "setup":
            workloads.setup_child_main(args.workload, args.seed)
        elif args.child == "trace-cli":
            workloads.trace_cli_child_main()
        elif args.child == "probe":
            workloads.probe_child_main(args.command)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
