"""Command-line front end.

Four commands: ``verify`` runs the identity registry and reports residuals,
``eval`` evaluates a named library function at given parameters with
convergence diagnostics, ``table`` sweeps one parameter and emits a value
table, and ``list`` enumerates the registry.

Exit codes: 0 success, 1 verification or evaluation failure, 2 malformed
configuration or a violated precondition (the message names it).  The only
environment override is ``QELLIPTIC_MAX_TERMS``; the ``--max-terms`` flag
wins over it.  All output is deterministic and locale-independent.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from math import pi
from typing import Callable

from .angle import angle_sum
from .elliptic import (
    EllipticContext,
    nome_from_r,
    singular_alpha,
    theta2,
    theta3,
    theta4,
)
from .fourier import (
    eval_fourier,
    jacobi_cd,
    jacobi_cn,
    jacobi_dn,
    jacobi_nd,
    jacobi_sd,
    jacobi_sn,
)
from .harness import (
    format_complex,
    report_to_csv,
    report_to_json,
    report_to_text,
    run_registry,
)
from .numutil import NonConvergenceError, PoleError, sum_series, term_counter, truncation
from .qseries import euler_product
from .registry import registry
from .thetagen import (
    agile_minus,
    agile_plus,
    rr_G,
    rr_H,
    rr_cf,
    u0_product,
    u_product,
)

__all__ = ["main", "EVAL_FUNCTIONS"]

PARAM_FLAGS = ("q", "r", "u", "a", "b", "p", "x", "y")


class PreconditionError(Exception):
    """A CLI-level domain violation; the message names the precondition."""


def _require(cond: bool, text: str) -> None:
    if not cond:
        raise PreconditionError(text)


def _param(args: argparse.Namespace, name: str) -> float:
    value = getattr(args, name)
    _require(value is not None, f"--{name} is required for this function")
    return value


def _context(args: argparse.Namespace) -> EllipticContext:
    if args.q is not None:
        _require(0.0 < abs(args.q) < 1.0, "nome must satisfy 0 < |q| < 1")
        return EllipticContext.from_nome(args.q)
    if args.r is not None:
        _require(args.r > 0.0, "r must be positive")
        return EllipticContext.from_r(args.r)
    raise PreconditionError("provide --q or --r to fix the elliptic context")


def _nome(args: argparse.Namespace) -> float:
    if args.q is not None:
        _require(0.0 < abs(args.q) < 1.0, "nome must satisfy 0 < |q| < 1")
        return args.q
    if args.r is not None:
        _require(args.r > 0.0, "r must be positive")
        return nome_from_r(args.r)
    raise PreconditionError("provide --q or --r to fix the nome")


def _ghost_sum(x: float) -> complex:
    _require(x > 0.0, "ghost-sum requires x > 0")
    return sum_series(lambda n: 1.0 / math.expm1((n + 1) * x))


def _jacobi(fn: Callable[..., complex]) -> Callable[[argparse.Namespace], complex]:
    def run(args: argparse.Namespace) -> complex:
        return fn(_context(args), _param(args, "u"))

    return run


def _series(name: str) -> Callable[[argparse.Namespace], complex]:
    def run(args: argparse.Namespace) -> complex:
        return eval_fourier(name, _context(args), _param(args, "u"))

    return run


def _small_q(args: argparse.Namespace) -> float:
    q = _param(args, "q")
    _require(0.0 < abs(q) < 1.0, "requires 0 < |q| < 1")
    return q


def _theta_angle(args: argparse.Namespace) -> complex:
    q, x = _small_q(args), _param(args, "x")
    _require(x > 0.0, "theta-angle requires x > 0 so that |q^x| < 1")
    return angle_sum(q, x)


def _u_full(args: argparse.Namespace) -> complex:
    a, b, q = _param(args, "a"), _param(args, "b"), _small_q(args)
    _require(abs(a) < 1.0 and abs(b) < 1.0, "requires |a| < 1 and |b| < 1")
    return u_product(a, b, q)


def _u_zero(args: argparse.Namespace) -> complex:
    a, q = _param(args, "a"), _small_q(args)
    _require(abs(a) < 1.0, "requires |a| < 1")
    return u0_product(a, q)


def _agile(fn: Callable[..., complex]) -> Callable[[argparse.Namespace], complex]:
    def run(args: argparse.Namespace) -> complex:
        a, p, q = _param(args, "a"), _param(args, "p"), _small_q(args)
        _require(p > 0.0, "requires p > 0")
        return fn(a, p, q)

    return run


# name -> evaluator.  Every entry returns a complex value.
EVAL_FUNCTIONS: dict[str, Callable[[argparse.Namespace], complex]] = {
    "sn": _jacobi(jacobi_sn),
    "cn": _jacobi(jacobi_cn),
    "dn": _jacobi(jacobi_dn),
    "cd": _jacobi(jacobi_cd),
    "sd": _jacobi(jacobi_sd),
    "nd": _jacobi(jacobi_nd),
    "ss": _series("ss"),
    "cc": _series("cc"),
    "dd": _series("dd"),
    "cd1": _series("cd1"),
    "cn1": _series("cn1"),
    "theta2": lambda a: theta2(_nome(a)),
    "theta3": lambda a: theta3(_nome(a)),
    "theta4": lambda a: theta4(_nome(a)),
    "k": lambda a: _context(a).k,
    "kprime": lambda a: _context(a).kprime,
    "K": lambda a: _context(a).K,
    "E": lambda a: _context(a).E,
    "alpha": lambda a: singular_alpha(_param(a, "r")),
    "theta-angle": _theta_angle,
    "ghost-sum": lambda a: _ghost_sum(_param(a, "x")),
    "G": lambda a: rr_G(_small_q(a)),
    "H": lambda a: rr_H(_small_q(a)),
    "R": lambda a: rr_cf(_small_q(a)),
    "U": _u_full,
    "u0": _u_zero,
    "agile-minus": _agile(agile_minus),
    "agile-plus": _agile(agile_plus),
    "f": lambda a: euler_product(_small_q(a)),
}

# built-in sweeps: function name -> (swept parameter, values)
DEFAULT_SWEEPS: dict[str, tuple[str, tuple[float, ...]]] = {
    "ghost-sum": ("x", (pi, 2.0 * pi, 3.0 * pi)),
    "k": ("r", (1.0, 2.0, 3.0, 4.0)),
    "R": ("q", (0.05, 0.10, 0.15)),
}


def _diagnostic_eval(fn: Callable[[], complex]) -> tuple[complex, int, float]:
    """Evaluate once at full precision, once at a coarser truncation.

    The difference between the two runs is an empirical tail estimate: it
    bounds what a three-decades-coarser cutoff would have left behind, and
    it is zero for quantities with no adaptive series (pure AGM paths).
    """
    with term_counter() as count:
        value = fn()
    with truncation(rel_tail_cutoff=1e-12):
        coarse_value = fn()
    return value, count(), abs(value - coarse_value)


def _sample_override(args: argparse.Namespace) -> dict[str, float]:
    return {name: getattr(args, name) for name in PARAM_FLAGS
            if getattr(args, name) is not None}


def cmd_verify(args: argparse.Namespace) -> int:
    id_filter = "*" if args.all or args.id is None else args.id
    report = run_registry(
        registry(),
        id_filter=id_filter,
        tol_override=args.tol,
        sample_override=_sample_override(args) or None,
    )
    if not report.results:
        print(f"no registry case matches --id {id_filter!r}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(report_to_json(report))
    elif args.format == "csv":
        print(report_to_csv(report), end="")
    else:
        print(report_to_text(report))
    return 0 if report.gate_passed else 1


def cmd_eval(args: argparse.Namespace) -> int:
    fn = EVAL_FUNCTIONS[args.fn]
    value, used, est_tail = _diagnostic_eval(lambda: complex(fn(args)))
    row = {"fn": args.fn, "value": format_complex(value),
           "terms_used": used, "est_tail": est_tail}
    if args.format == "json":
        print(json.dumps(row, sort_keys=False))
    elif args.format == "csv":
        print(",".join(row))
        print(",".join(str(v) for v in row.values()))
    else:
        print(f"value={format_complex(value)}")
        print(f"terms_used={used}")
        print(f"est_tail={est_tail:.3e}")
    return 0


def _parse_sweep(text: str) -> tuple[str, tuple[float, ...]]:
    name, sep, rest = text.partition("=")
    name = name.strip()
    if not sep or name not in PARAM_FLAGS or not rest:
        raise PreconditionError(
            f"malformed range {text!r}: expected <param>=v1,v2,... "
            f"with param in {'/'.join(PARAM_FLAGS)}")
    try:
        values = tuple(float(v) for v in rest.split(","))
    except ValueError:
        raise PreconditionError(f"malformed range {text!r}: values must be numbers")
    return name, values


def cmd_table(args: argparse.Namespace) -> int:
    fn = EVAL_FUNCTIONS[args.fn]
    if args.sweep is not None:
        param, values = _parse_sweep(args.sweep)
    elif args.fn in DEFAULT_SWEEPS:
        param, values = DEFAULT_SWEEPS[args.fn]
    else:
        raise PreconditionError(
            f"malformed range: {args.fn} has no default sweep; pass --sweep param=v1,v2,...")
    rows = []
    for v in values:
        setattr(args, param, v)
        with term_counter() as count:
            value = complex(fn(args))
        rows.append({param: format_complex(complex(v)),
                     "value": format_complex(value),
                     "terms_used": count()})
    if args.format == "json":
        print(json.dumps(rows, sort_keys=False))
    elif args.format == "csv":
        print(f"{param},value,terms_used")
        for row in rows:
            print(f"{row[param]},{row['value']},{row['terms_used']}")
    else:
        for row in rows:
            print(f"{param}={row[param]}  value={row['value']}  "
                  f"terms_used={row['terms_used']}")
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    import fnmatch

    id_filter = args.id or "*"
    cases = [c for c in registry() if fnmatch.fnmatchcase(c.id, id_filter)]
    if args.format == "json":
        print(json.dumps([{
            "id": c.id,
            "status": c.status,
            "compare": c.compare,
            "samples": len(c.samples),
            "tolerance": c.tolerance,
            "description": c.description,
        } for c in cases], indent=2, sort_keys=False))
    elif args.format == "csv":
        print("id,status,compare,samples,tolerance,description")
        for c in cases:
            desc = c.description.replace('"', '""')
            print(f'{c.id},{c.status},{c.compare},{len(c.samples)},{c.tolerance:g},"{desc}"')
    else:
        for c in cases:
            print(f"{c.id:22s} {c.status:12s} {c.compare:13s} "
                  f"samples={len(c.samples)} tol={c.tolerance:g}  {c.description}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qelliptic",
        description="Evaluate and cross-verify q-series, elliptic-function "
                    "expansions, theta products, and continued fractions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, params: bool = True) -> None:
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--max-terms", type=int, default=None,
                       help="cap on series terms, product factors and continued-fraction "
                            "depth (overrides QELLIPTIC_MAX_TERMS)")
        if params:
            for name in PARAM_FLAGS:
                p.add_argument(f"--{name}", type=float, default=None)

    p_verify = sub.add_parser("verify", help="run identity checks and report residuals")
    group = p_verify.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true", help="run every registry case")
    group.add_argument("--id", default=None, help="shell glob over case ids")
    p_verify.add_argument("--tol", type=float, default=None,
                          help="override every selected case's tolerance")
    add_common(p_verify)

    p_eval = sub.add_parser("eval", help="evaluate one library function")
    p_eval.add_argument("fn", choices=sorted(EVAL_FUNCTIONS),
                        metavar="FN", help=", ".join(sorted(EVAL_FUNCTIONS)))
    add_common(p_eval)

    p_table = sub.add_parser("table", help="sweep one parameter and emit a table")
    p_table.add_argument("fn", choices=sorted(EVAL_FUNCTIONS), metavar="FN")
    p_table.add_argument("--sweep", default=None, metavar="PARAM=V1,V2,...")
    add_common(p_table)

    p_list = sub.add_parser("list", help="enumerate the registry")
    p_list.add_argument("--id", default=None, help="shell glob over case ids")
    add_common(p_list, params=False)

    return parser


def _max_terms(args: argparse.Namespace) -> dict[str, int]:
    """Truncation overrides from ``--max-terms`` or ``QELLIPTIC_MAX_TERMS``."""
    cap = getattr(args, "max_terms", None)
    source = "--max-terms"
    if cap is None:
        env = os.environ.get("QELLIPTIC_MAX_TERMS")
        if env is None:
            return {}
        source = "QELLIPTIC_MAX_TERMS"
        try:
            cap = int(env)
        except ValueError:
            raise PreconditionError(f"{source} must be an integer, got {env!r}")
    _require(cap > 0, f"{source} must be positive, got {cap}")
    return {"max_terms": cap}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with truncation(**_max_terms(args)):
            if args.command == "verify":
                return cmd_verify(args)
            if args.command == "eval":
                return cmd_eval(args)
            if args.command == "table":
                return cmd_table(args)
            return cmd_list(args)
    except (PreconditionError, ValueError, PoleError) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    except (NonConvergenceError, ZeroDivisionError, OverflowError) as exc:
        print(f"evaluation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
