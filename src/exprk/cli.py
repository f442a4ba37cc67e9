"""Command-line harness: condition audits, convergence studies, single runs.

Subcommands
-----------
check      verify a scheme's order conditions, CSV residual report
converge   fixed-step convergence study on a benchmark problem; wall_seconds
           per step size include building its step context
integrate  single integration run, one CSV row
trees      list the condition trees up to a given order

integrate runs from t = 0 to --t-end and converge from 0 to 1:
each problem's initial state is its state at t = 0. Exit codes: 0 on
success, 1 when a condition or consistency check fails or an integration
diverges, 2 on usage errors. All reports are CSV with a header row, UTF-8,
LF.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .conditions import DEFAULT_SEED, DEFAULT_TOLERANCE, _csv, check_scheme, condition_table
from .integrator import DivergenceError, integrate
from .problems import PROBLEM_FACTORIES, error_at, problem_by_name
from .tableaus import SCHEME_NAMES, scheme_by_name

__all__ = [
    "ConvergenceReport",
    "run_convergence",
    "main",
    "cmd_check",
    "cmd_converge",
    "cmd_integrate",
    "cmd_trees",
]

DEFAULT_STEPS = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8),
                 Fraction(1, 16), Fraction(1, 32))


@dataclass
class ConvergenceRow:
    h: Fraction
    error: float
    wall_seconds: float
    observed_order: float | None


@dataclass
class ConvergenceReport:
    """Rows of (h, error, wall time, observed order) for one scheme/problem;
    a row's wall time covers building its step context and its steps."""

    scheme: str
    problem: str
    rows: list[ConvergenceRow]

    CSV_FIELDS = ("h", "error", "wall_seconds", "observed_order")

    def to_csv(self) -> str:
        return _csv(self.CSV_FIELDS, ([
            str(r.h), repr(r.error), repr(r.wall_seconds),
            "" if r.observed_order is None else repr(r.observed_order),
        ] for r in self.rows))


def run_convergence(scheme_name: str, problem_name: str, steps=DEFAULT_STEPS,
                    n: int = 200) -> ConvergenceReport:
    """Integrate over [0, 1] at each step size and tabulate errors and observed orders.

    Each step size builds its own step context (phi tables and folded
    coefficients), and its wall_seconds include that set-up with the steps.
    """
    scheme = scheme_by_name(scheme_name)
    problem = problem_by_name(problem_name, n)
    steps = sorted((Fraction(s) for s in steps), reverse=True)
    if len(set(steps)) != len(steps):
        raise ValueError("step sizes must be distinct")
    rows: list[ConvergenceRow] = []
    prev: ConvergenceRow | None = None
    for hfrac in steps:
        h = float(hfrac)
        tic = time.perf_counter()
        result = integrate(scheme, problem, 0.0, 1.0, h)
        wall = time.perf_counter() - tic
        err = error_at(problem, result.state, 1.0)
        p_obs = None
        if prev is not None and err > 0 and prev.error > 0:
            ratio = float(prev.h / hfrac)
            p_obs = math.log(prev.error / err) / math.log(ratio)
        row = ConvergenceRow(h=hfrac, error=err, wall_seconds=wall, observed_order=p_obs)
        rows.append(row)
        prev = row
    return ConvergenceReport(scheme=scheme_name, problem=problem_name, rows=rows)


def _write_out(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_fraction(spec: str) -> Fraction:
    try:
        return Fraction(spec)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {spec!r}") from None


def _parse_steps(spec: str):
    steps = [_parse_fraction(tok.strip()) for tok in spec.split(",") if tok.strip()]
    if not steps:
        raise argparse.ArgumentTypeError(f"empty step list {spec!r}")
    return steps


def cmd_check(args) -> int:
    scheme = scheme_by_name(args.scheme)
    report = check_scheme(scheme, p=args.order, mode=args.mode, seeds=args.seeds,
                          n=args.n, tol=args.tol, base_seed=args.seed)
    _write_out(report.to_csv(), args.out)
    failing = report.failing()
    if failing:
        nums = ", ".join(str(r.number) for r in failing)
        print(f"{scheme.name} [{args.mode}]: {len(failing)} condition(s) failed: {nums}",
              file=sys.stderr)
        return 1
    print(f"{scheme.name} [{args.mode}]: all {len(report.results)} conditions passed",
          file=sys.stderr)
    return 0


def cmd_converge(args) -> int:
    report = run_convergence(args.scheme, args.problem, steps=args.steps, n=args.n)
    _write_out(report.to_csv(), args.out)
    return 0


def cmd_integrate(args) -> int:
    scheme = scheme_by_name(args.scheme)
    problem = problem_by_name(args.problem, args.n)
    h = float(args.h)
    tic = time.perf_counter()
    result = integrate(scheme, problem, 0.0, args.t_end, h)
    wall = time.perf_counter() - tic
    err = error_at(problem, result.state, args.t_end) if problem.exact else float("nan")
    _write_out(_csv(["scheme", "problem", "h", "steps", "error", "wall_seconds"],
                    [[scheme.name, problem.name, str(args.h), result.steps,
                      repr(err), repr(wall)]]), args.out)
    return 0


def cmd_trees(args) -> int:
    conds = condition_table(args.order)
    _write_out(_csv(["number", "order", "symmetry", "kind", "tree"],
                    ([c.number, c.order, c.tree.symmetry, c.kind, c.tree.bracket()]
                     for c in conds)), args.out)
    counts = Counter(c.order for c in conds)
    summary = ", ".join(f"order {q}: {counts[q]}" for q in sorted(counts))
    print(f"{len(conds)} trees up to order {args.order} ({summary})", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exprk",
        description="Exponential integrator toolbox: audits, studies, single runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scheme", required=True, choices=SCHEME_NAMES)
        p.add_argument("--problem", default="heat1d", choices=sorted(PROBLEM_FACTORIES))
        p.add_argument("--n", type=int, default=200, help="interior grid points (default 200)")
        p.add_argument("--out", default=None, help="write CSV here instead of stdout")

    p_check = sub.add_parser("check", help="verify stiff order conditions")
    p_check.add_argument("--scheme", required=True, choices=SCHEME_NAMES)
    p_check.add_argument("--order", type=int, default=6)
    p_check.add_argument("--mode", choices=("strong", "weak17"), default="strong")
    p_check.add_argument("--seeds", type=int, default=3)
    p_check.add_argument("--n", type=int, default=4, help="model dimension")
    p_check.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE)
    p_check.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_check.add_argument("--out", default=None)
    p_check.set_defaults(func=cmd_check)

    p_conv = sub.add_parser("converge", help="fixed-step convergence study")
    add_common(p_conv)
    p_conv.add_argument("--steps", type=_parse_steps,
                        default=list(DEFAULT_STEPS),
                        help="comma list of rational step sizes (default 1/2..1/32)")
    p_conv.set_defaults(func=cmd_converge)

    p_int = sub.add_parser("integrate", help="single integration run")
    add_common(p_int)
    p_int.add_argument("--h", type=_parse_fraction, default=Fraction(1, 32))
    p_int.add_argument("--t-end", dest="t_end", type=float, default=1.0)
    p_int.set_defaults(func=cmd_integrate)

    p_trees = sub.add_parser("trees", help="list condition trees")
    p_trees.add_argument("--order", dest="order", type=int, default=6)
    p_trees.add_argument("--out", default=None)
    p_trees.set_defaults(func=cmd_trees)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as err:
        print(f"{args.command}: {err}", file=sys.stderr)
        return 1
    except (KeyError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
