"""Command-line front end.

Exit codes: 0 success, 1 model validation/format failure, 2 numerical
failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence

from . import mc, modelio, solver
from .models import ModelIntegrityError
from .product import build_graph
from .solver import BoundInfeasibleError, SolverError

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_valuation(text: str, clocks) -> tuple:
    """Parse "x=0,y=1/2"; clocks not mentioned start at zero."""
    values = {name: Fraction(0) for name in clocks}
    given = set()
    stripped = text.strip()
    if stripped:
        for part in stripped.split(","):
            if "=" not in part:
                raise UsageError(f"bad valuation entry {part!r}, want clock=value")
            name, raw = (p.strip() for p in part.split("=", 1))
            if name not in values:
                raise UsageError(f"unknown clock {name!r}")
            if name in given:
                raise UsageError(f"clock {name!r} given twice")
            given.add(name)
            try:
                values[name] = Fraction(raw)
            except (ValueError, ZeroDivisionError) as exc:
                raise UsageError(f"bad clock value {raw!r}: {exc}") from exc
    return tuple(values[name] for name in clocks)


def _build_parser() -> _Parser:
    parser = _Parser(prog="pathprob", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_query_args(p):
        p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--state", required=True, help="initial CTMC state")
        p.add_argument("--location", required=True, help="initial DTA location")
        p.add_argument(
            "--valuation",
            default="",
            help='initial clock values, e.g. "x=0,y=1/2" (default: zeros)',
        )

    p_solve = sub.add_parser("solve", help="grid approximation with error report")
    add_query_args(p_solve)
    group = p_solve.add_mutually_exclusive_group(required=True)
    group.add_argument("--grid", type=int, help="grid resolution m")
    group.add_argument("--epsilon", type=float, help="target accuracy")
    p_solve.add_argument(
        "--force-empirical",
        action="store_true",
        help="size the grid by the heuristic estimate when the bound is infeasible",
    )
    p_solve.add_argument("--out", help="write the result document to this file")

    p_sim = sub.add_parser("simulate", help="Monte Carlo estimate")
    add_query_args(p_sim)
    p_sim.add_argument("--samples", type=int, required=True)
    p_sim.add_argument("--kmax", type=int, default=None, help="step horizon")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--confidence", type=float, default=0.99)

    p_graph = sub.add_parser("graph", help="product region graph and classes")
    p_graph.add_argument("--model", required=True)
    p_graph.add_argument("--dot", help="also write a DOT file here")

    p_bound = sub.add_parser("bound", help="constants and error bounds only")
    p_bound.add_argument("--model", required=True)
    p_bound.add_argument("--grid", type=int, required=True)

    p_conv = sub.add_parser(
        "convergence",
        help="value, error and observed order against the grid step",
    )
    add_query_args(p_conv)
    p_conv.add_argument(
        "--grids", required=True, help="comma-separated resolutions, e.g. 4,8,16,32"
    )
    p_conv.add_argument("--out", required=True, help="CSV output file")
    p_conv.add_argument(
        "--exact",
        type=float,
        default=None,
        help="reference value; errors are measured against it instead of "
        "the previous grid",
    )
    return parser


def _emit(document: dict, out: Optional[str]) -> None:
    text = json.dumps(document, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_solve(args) -> int:
    chain, dta = modelio.parse_model(args.model)
    eta = parse_valuation(args.valuation, dta.clocks)
    started = time.perf_counter()
    result = solver.approximate(
        chain,
        dta,
        args.state,
        args.location,
        eta,
        m=args.grid,
        epsilon=args.epsilon,
        force_empirical=args.force_empirical,
        with_empirical=args.grid is not None,
    )
    timing = time.perf_counter() - started
    _emit(modelio.result_document(result, timing), args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    chain, dta = modelio.parse_model(args.model)
    eta = parse_valuation(args.valuation, dta.clocks)
    mc.check_arguments(chain, dta, args.state, args.location, eta, args.samples,
                       args.kmax, args.seed, stream=0, confidence=args.confidence)
    est = mc.estimate(
        chain,
        dta,
        build_graph(chain, dta),
        args.state,
        args.location,
        eta,
        n=args.samples,
        k_max=args.kmax,
        seed=args.seed,
        confidence=args.confidence,
    )
    _emit(
        {
            "p_hat": est.p_hat,
            "n": est.n,
            "ci_halfwidth": est.halfwidth,
            "confidence": est.confidence,
            "accepted": est.accepted,
            "dead_absorbed": est.dead_absorbed,
            "censored": est.censored,
            "p_low": est.p_low,
            "p_high": est.p_high,
            "k_max": est.k_max,
            "seed": args.seed,
        },
        None,
    )
    return EXIT_OK


def _cmd_graph(args) -> int:
    graph = build_graph(*modelio.parse_model(args.model))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(modelio.graph_to_dot(graph))
    _emit(modelio.graph_document(graph), None)
    return EXIT_OK


def _cmd_bound(args) -> int:
    graph = build_graph(*modelio.parse_model(args.model))
    report = solver.error_report(graph, args.grid)
    _emit(modelio.report_document(report), None)
    return EXIT_OK


def _cmd_convergence(args) -> int:
    chain, dta = modelio.parse_model(args.model)
    eta = parse_valuation(args.valuation, dta.clocks)
    try:
        grids = [int(g) for g in args.grids.split(",") if g.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --grids: {exc}") from exc
    if not grids:
        raise UsageError("--grids needs at least one resolution")
    rows = []
    for row in solver._grid_table(build_graph(chain, dta), ((args.state, 1.0),),
                                  args.location, eta, grids):
        if args.exact is not None:
            err = abs(row.value - args.exact)
        elif rows and rows[-1][0] * 2 == row.m:  # the gap, empty where undefined
            err = "" if row.gap is None else abs(row.gap)
        else:
            err = abs(row.value - rows[-1][2]) if rows else ""
        # the csv module writes a missing order, None, as an empty field
        rows.append([row.m, 1.0 / row.m, row.value, err, row.order])
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "rho", "value", "abs_error_vs_exact_or_prev",
                         "observed_order"])
        writer.writerows(rows)
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "simulate": _cmd_simulate,
    "graph": _cmd_graph,
    "bound": _cmd_bound,
    "convergence": _cmd_convergence,
}


_parser: Optional[_Parser] = None


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    global _parser
    if _parser is None:  # built on first use, not at import
        _parser = _build_parser()
    try:
        args = _parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SolverError, BoundInfeasibleError, ModelIntegrityError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, KeyError) as exc:
        # covers model format/validation errors and bad query coordinates
        print(f"invalid model/query: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
