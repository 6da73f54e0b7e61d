"""Paths, child processes and summary statistics shared by the workloads."""

from __future__ import annotations

import json
import os
import selectors
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_build" / "perfbench"
PY = sys.executable
N_SETUP = 7  # set-up children per run; setup_s is their median


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def use_checkout_source() -> None:
    """Import ``qelliptic`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "qelliptic" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qelliptic sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qelliptic

    if Path(qelliptic.__file__).resolve().parent != SRC / "qelliptic":
        raise SystemExit(f"perfbench: imported qelliptic from {qelliptic.__file__}")


class Child:
    """Outcome of one child process: wall time, exit code, output, peak RSS."""

    def __init__(self, wall_s, returncode, stdout, stderr, maxrss_kb, ready_s=None):
        self.wall_s = wall_s
        self.returncode = returncode
        self.stdout = stdout
        self.stderr = stderr
        self.maxrss_kb = maxrss_kb
        self.ready_s = ready_s


def run_child(args: list[str], *, ready_line: bool = False, timeout: float = 60.0) -> Child:
    """Run ``args`` to completion; time it from spawn to exit.

    With ``ready_line`` the child's first stdout line marks the end of its
    set-up, and ``ready_s`` is the time from spawn until that line arrived.
    Peak RSS comes from ``wait4`` on this child alone.  A child still running
    after ``timeout`` seconds is killed and :class:`TimeoutError` raised.
    """
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as err, selectors.DefaultSelector() as sel:
        t0 = time.perf_counter()
        deadline = t0 + timeout
        proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=err, env=child_env(),
                                cwd=str(ROOT))
        try:
            fd = proc.stdout.fileno()
            sel.register(fd, selectors.EVENT_READ)
            out = bytearray()
            ready_s = None
            while True:
                if not sel.select(max(0.0, deadline - time.perf_counter())):
                    raise TimeoutError(f"child {args!r} did not finish in {timeout} s")
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    break
                out += chunk
                if ready_line and ready_s is None and b"\n" in out:
                    ready_s = time.perf_counter() - t0
            usage = _wait4(proc, deadline)
            wall = time.perf_counter() - t0
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        err.seek(0)
        errtext = err.read().decode("utf-8", "replace")
    return Child(wall, proc.returncode, out.decode("utf-8", "replace"), errtext,
                 usage.ru_maxrss, ready_s)


def _wait4(proc, deadline):
    """Reap ``proc`` (its stdout is closed, so it is exiting); its rusage."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if time.perf_counter() > deadline:
            raise TimeoutError(f"child {proc.args!r} did not exit in time")
        time.sleep(0.0005)


def bench_child(role: str, *extra: str, **kw) -> Child:
    return run_child([PY, str(BENCH / "run.py"), "--child", role, *extra], **kw)


def summary(values: list[float]) -> dict:
    """Minimum, median, quartiles, p90 (when at least ten samples lie beyond
    it) and sample count."""
    vals = sorted(values)
    out = {"n": len(vals), "min": vals[0], "median": statistics.median(vals)}
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
        out["q1"], out["q3"] = q1, q3
    if len(vals) >= 100:
        out["p90"] = statistics.quantiles(vals, n=10)[-1]
    return out


def emit(tag: str, payload) -> None:
    """A human-readable report line (never the last line of stdout)."""
    print(f"# {tag} " + json.dumps(payload, sort_keys=True), flush=True)
