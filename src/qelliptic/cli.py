"""Command-line front end.

Four commands: ``verify`` runs the identity registry and reports residuals,
``eval`` evaluates a named library function at given parameters with
convergence diagnostics, ``table`` sweeps one parameter and emits a value
table, and ``list`` enumerates the registry.

The flags go to the library unchanged, and each library function refuses
what lies outside its own domain; the CLI holds no evaluator and no domain
rule of its own and checks only the command line (a missing flag, neither
``--q`` nor ``--r``, a malformed ``--sweep``).  A parameter flag takes a
negative value in any float notation (``--u -1e-3``).  ``--max-terms N``
runs the command under ``truncation(max_terms=N)``, which checks ``N``.

Exit codes: 0 success; 1 a failed verification gate or a failed evaluation
(a ``NonConvergenceError``, a cap spent, or an ``ArithmeticError`` such as an
``OverflowError``, a value that is not a finite double); 2 malformed
configuration, a violated precondition (an argument outside the domain, NaN
included) or a pole (a ``ValueError`` or a ``PoleError``, a denominator that
is exactly 0; the message names it).  The exception's type alone decides the
code.  Output is locale-independent; only ``verify``'s timings vary.
"""

from __future__ import annotations

import argparse
import cmath
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
    _to_csv,
    _to_json,
    format_complex,
    report_to_csv,
    report_to_json,
    report_to_text,
    run_registry,
)
from .numutil import NonConvergenceError, PoleError, term_counter, truncation
from .qseries import euler_product, ghost_sum
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


def _param(args: argparse.Namespace, name: str) -> float:
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"--{name} is required for this function")
    return value


def _context(args: argparse.Namespace) -> EllipticContext:
    if args.q is not None:
        return EllipticContext.from_nome(args.q)
    if args.r is not None:
        return EllipticContext.from_r(args.r)
    raise ValueError("provide --q or --r to fix the elliptic context")


def _nome(args: argparse.Namespace) -> float:
    if args.q is not None:
        return args.q
    if args.r is not None:
        return nome_from_r(args.r)
    raise ValueError("provide --q or --r to fix the nome")


def _at_u(fn: Callable[..., complex], *lead: str) -> Callable[[argparse.Namespace], complex]:
    """``fn(*lead, context, u)``, the context from ``--q`` or ``--r``."""
    def run(args: argparse.Namespace) -> complex:
        return fn(*lead, _context(args), _param(args, "u"))

    return run


def _flags(fn: Callable[..., complex], *names: str) -> Callable[[argparse.Namespace], complex]:
    """``fn`` called with the named flags, each required, in order."""
    def run(args: argparse.Namespace) -> complex:
        return fn(*(_param(args, name) for name in names))

    return run


# name -> evaluator.  Every entry returns a complex value.
EVAL_FUNCTIONS: dict[str, Callable[[argparse.Namespace], complex]] = {
    "sn": _at_u(jacobi_sn),
    "cn": _at_u(jacobi_cn),
    "dn": _at_u(jacobi_dn),
    "cd": _at_u(jacobi_cd),
    "sd": _at_u(jacobi_sd),
    "nd": _at_u(jacobi_nd),
    "ss": _at_u(eval_fourier, "ss"),
    "cc": _at_u(eval_fourier, "cc"),
    "dd": _at_u(eval_fourier, "dd"),
    "cd1": _at_u(eval_fourier, "cd1"),
    "cn1": _at_u(eval_fourier, "cn1"),
    "theta2": lambda a: theta2(_nome(a)),
    "theta3": lambda a: theta3(_nome(a)),
    "theta4": lambda a: theta4(_nome(a)),
    "k": lambda a: _context(a).k,
    "kprime": lambda a: _context(a).kprime,
    "K": lambda a: _context(a).K,
    "E": lambda a: _context(a).E,
    "alpha": _flags(singular_alpha, "r"),
    "theta-angle": _flags(angle_sum, "q", "x"),
    "ghost-sum": _flags(ghost_sum, "x"),
    "G": _flags(rr_G, "q"),
    "H": _flags(rr_H, "q"),
    "R": _flags(rr_cf, "q"),
    "U": _flags(u_product, "a", "b", "q"),
    "u0": _flags(u0_product, "a", "q"),
    "agile-minus": _flags(agile_minus, "a", "p", "q"),
    "agile-plus": _flags(agile_plus, "a", "p", "q"),
    "f": _flags(euler_product, "q"),
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


def _evaluate(fn: Callable[[argparse.Namespace], complex], args: argparse.Namespace) -> complex:
    """``fn(args)`` as a complex number.  A non-finite value, which the
    library's own checks should already have refused, is a failed evaluation."""
    value = complex(fn(args))
    if not cmath.isfinite(value):
        raise OverflowError(f"value is not finite: {format_complex(value)}")
    return value


def _emit(args: argparse.Namespace, doc: object, rows: list[dict], lines: list[str]) -> None:
    """Print ``doc`` as JSON, ``rows`` as CSV or ``lines`` as text, as
    ``--format`` asks."""
    if args.format == "json":
        print(_to_json(doc))
    elif args.format == "csv":
        print(_to_csv(rows), end="")
    else:
        for line in lines:
            print(line)


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
    value, used, est_tail = _diagnostic_eval(lambda: _evaluate(fn, args))
    row = {"fn": args.fn, "value": format_complex(value),
           "terms_used": used, "est_tail": est_tail}
    _emit(args, row, [row], [f"value={row['value']}", f"terms_used={used}",
                             f"est_tail={est_tail:.3e}"])
    return 0


def _parse_sweep(text: str) -> tuple[str, tuple[float, ...]]:
    name, sep, rest = text.partition("=")
    name = name.strip()
    if not sep or name not in PARAM_FLAGS or not rest:
        raise ValueError(
            f"malformed range {text!r}: expected <param>=v1,v2,... "
            f"with param in {'/'.join(PARAM_FLAGS)}")
    try:
        values = tuple(float(v) for v in rest.split(","))
    except ValueError:
        raise ValueError(f"malformed range {text!r}: values must be numbers") from None
    return name, values


def cmd_table(args: argparse.Namespace) -> int:
    fn = EVAL_FUNCTIONS[args.fn]
    if args.sweep is not None:
        param, values = _parse_sweep(args.sweep)
    elif args.fn in DEFAULT_SWEEPS:
        param, values = DEFAULT_SWEEPS[args.fn]
    else:
        raise ValueError(
            f"malformed range: {args.fn} has no default sweep; pass --sweep param=v1,v2,...")
    rows = []
    for v in values:
        setattr(args, param, v)
        with term_counter() as count:
            value = _evaluate(fn, args)
        rows.append({param: format_complex(complex(v)),
                     "value": format_complex(value),
                     "terms_used": count()})
    _emit(args, rows, rows, [f"{param}={row[param]}  value={row['value']}  "
                             f"terms_used={row['terms_used']}" for row in rows])
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    import fnmatch

    id_filter = args.id or "*"
    cases = [c for c in registry() if fnmatch.fnmatchcase(c.id, id_filter)]
    rows = [{"id": c.id, "status": c.status, "compare": c.compare,
             "samples": len(c.samples), "tolerance": c.tolerance,
             "description": c.description} for c in cases]
    _emit(args, rows, rows, [
        f"{c.id:22s} {c.status:12s} {c.compare:13s} "
        f"samples={len(c.samples)} tol={c.tolerance:g}  {c.description}" for c in cases])
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
                       help="cap N >= 0 on series terms, product factors, continued-fraction "
                            "depth and AGM steps: the command runs under "
                            "truncation(max_terms=N)")
        if params:
            for name in PARAM_FLAGS:
                p.add_argument(f"--{name}", type=float, default=None)

    p_verify = sub.add_parser("verify", help="run identity checks and report residuals")
    group = p_verify.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true", help="run every registry case")
    group.add_argument("--id", default=None, help="shell glob over case ids")
    p_verify.add_argument("--tol", type=float, default=None,
                          help="override every selected case's relative tolerance")
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


def _join_negative_values(argv: list[str]) -> list[str]:
    """``--u -1e-3`` as ``--u=-1e-3``.  argparse takes a token that starts
    with "-" for an option unless it is a plain negative number
    (``-digits[.digits]``), so it would refuse ``-1e-3`` or ``-inf`` after a
    parameter flag; joined to its flag, the value reaches ``float`` and the
    library."""
    flags = {f"--{name}" for name in PARAM_FLAGS}
    out: list[str] = []
    for token in argv:
        if out and out[-1] in flags and token.startswith("-"):
            try:
                float(token)
            except ValueError:
                pass
            else:
                out[-1] = f"{out[-1]}={token}"
                continue
        out.append(token)
    return out


def _max_terms(args: argparse.Namespace) -> dict[str, int]:
    """Truncation overrides from ``--max-terms``, which :func:`truncation` checks."""
    return {} if args.max_terms is None else {"max_terms": args.max_terms}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        with truncation(**_max_terms(args)):
            if args.command == "verify":
                return cmd_verify(args)
            if args.command == "eval":
                return cmd_eval(args)
            if args.command == "table":
                return cmd_table(args)
            return cmd_list(args)
    except (ValueError, PoleError) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, NonConvergenceError) as exc:
        print(f"evaluation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
