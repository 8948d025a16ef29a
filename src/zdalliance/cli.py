"""Command line front end.

Exit codes: 0 success, 1 usage or expression errors, 2 a cross-check
disagreed (oracle vs solver, or a verification MISMATCH), 3 a search budget
ran out before the answer was certain.  The ZDK_ORDER_CAP environment
variable sets the ring order cap of every subcommand, verify included.
``verify`` takes its run parameters from flags alone: ``--grid`` and the
budgets make its SuiteConfig, ``--out`` and ``--format`` its report.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .expressions import ExprError, build_ring
from .graphs import NoGraphError, build_graph
from .rings import CapacityError, nilradical, zero_divisors
from .solver import (AllianceProblem, BudgetExceeded, oracle_solve,
                     oracle_spectrum, solve, spectrum)
from .verify import (MISMATCH, SuiteConfig, SUITES, emit_report,
                     records_from_dicts, records_to_dicts, run_suite,
                     summarize)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_UNKNOWN = 3


def _budget(flag: str, value, kind: type):
    """kind(value) when it is at least 0, or a ValueError that names the
    flag."""
    what = "integer" if kind is int else "number"
    try:
        number = kind(value)
    except (TypeError, ValueError):
        article = "an" if kind is int else "a"
        raise ValueError(f"{flag}: expected {article} {what}, "
                         f"got {value!r}") from None
    if not number >= 0:
        raise ValueError(f"{flag}: expected a non-negative {what}, "
                         f"got {number!r}")
    return number


def _print_expr_error(err: ExprError) -> None:
    print(f"error: {err}", file=sys.stderr)
    if 0 <= err.offset <= len(err.text):
        print(f"  {err.text}", file=sys.stderr)
        print(f"  {' ' * err.offset}^", file=sys.stderr)


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def cmd_ring_info(args) -> int:
    ring = build_ring(args.expr)
    zcount = len(zero_divisors(ring))
    nil = nilradical(ring)
    index = ring.local_index
    payload = {
        "expr": args.expr,
        "ring": ring.label,
        "order": ring.order,
        "units": ring.order - zcount,
        "zero_divisors": zcount,
        "nilradical": len(nil),
        "is_reduced": len(nil) == 1,
        "is_field": zcount == 1,
        "is_local": index is not None,
    }
    lines = [f"ring: {ring.label}",
             f"order: {ring.order}",
             f"units: {payload['units']}",
             f"zero divisors (with 0): {zcount}",
             f"nilradical size: {len(nil)}",
             f"reduced: {'yes' if payload['is_reduced'] else 'no'}",
             f"field: {'yes' if payload['is_field'] else 'no'}",
             f"local: {'yes' if payload['is_local'] else 'no'}"]
    if index is not None:  # the maximal ideal is the set of zero divisors
        payload["maximal_ideal"] = zcount
        payload["nilpotency_index"] = index
        lines.append(f"maximal ideal size: {zcount}")
        lines.append(f"nilpotency index: {index}")
    try:
        graph = build_graph(ring)
        edges = sum(graph.adj[v].bit_count() for v in range(graph.vertex_count)) // 2
        payload["graph"] = {"vertices": graph.vertex_count, "edges": edges,
                            "min_degree": graph.min_degree,
                            "max_degree": graph.max_degree}
        lines.append(f"graph: {graph.vertex_count} vertices, {edges} edges, "
                     f"degrees {graph.min_degree}..{graph.max_degree}")
    except NoGraphError:
        payload["graph"] = None
        lines.append("graph: empty (no nonzero zero divisors)")
    _emit(payload, args.json, lines)
    return EXIT_OK


def cmd_graph_export(args) -> int:
    graph = build_graph(build_ring(args.expr))
    text = graph.to_dot() if args.format == "dot" else graph.to_dimacs()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_solve(args) -> int:
    graph = build_graph(build_ring(args.expr))
    problem = AllianceProblem(graph, args.k)
    try:
        sol = solve(problem, node_budget=args.budget)
    except BudgetExceeded as exc:
        if args.json:
            print(json.dumps({"ring": graph.ring_label, "k": args.k,
                              "status": "UNKNOWN", "reason": str(exc)}))
        else:
            print("UNKNOWN")
            print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    payload = {"ring": graph.ring_label, "k": args.k, "feasible": sol.feasible,
               "size": sol.size, "nodes": sol.nodes,
               "millis": round(sol.elapsed * 1000.0, 3)}
    lines = []
    if sol.feasible:
        lines.append(f"{graph.ring_label}  k={args.k}  gamma={sol.size}")
    else:
        lines.append(f"{graph.ring_label}  k={args.k}  INFEASIBLE")
    if args.witness and sol.feasible:
        labels = graph.labels_of(sol.witness)
        payload["witness"] = labels
        payload["witness_elements"] = graph.elements_of(sol.witness)
        lines.append("witness: " + ", ".join(labels))
    rc = EXIT_OK
    if args.oracle:
        try:
            ref = oracle_solve(problem)
        except CapacityError as exc:
            # the solve result stands; say plainly that nothing checked it
            payload["oracle"] = {"skipped": str(exc)}
            lines.append(f"oracle: skipped ({exc})")
        else:
            agree = (ref.feasible == sol.feasible and ref.size == sol.size)
            payload["oracle"] = {"feasible": ref.feasible, "size": ref.size,
                                 "agrees": agree}
            lines.append("oracle: agrees" if agree else
                         f"oracle: DISAGREES (oracle={ref}, solver={sol})")
            if not agree:
                rc = EXIT_MISMATCH
    _emit(payload, args.json, lines)
    return rc


def cmd_spectrum(args) -> int:
    graph = build_graph(build_ring(args.expr))
    try:
        spect = spectrum(graph, node_budget=args.budget)
    except BudgetExceeded as exc:
        if args.json:
            print(json.dumps({"ring": graph.ring_label, "status": "UNKNOWN",
                              "reason": str(exc)}))
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    rows = [{"k": k, "feasible": sol.feasible, "size": sol.size}
            for k, sol in sorted(spect.items())]
    payload = {"ring": graph.ring_label, "vertices": graph.vertex_count,
               "max_degree": graph.max_degree, "spectrum": rows}
    lines = [f"{graph.ring_label}: {graph.vertex_count} vertices, "
             f"k from {-graph.max_degree} to {graph.max_degree}"]
    for row in rows:
        size = row["size"] if row["feasible"] else "INFEASIBLE"
        lines.append(f"  k={row['k']:>4}  gamma={size}")
    rc = EXIT_OK
    if args.oracle:
        try:
            refs = oracle_spectrum(graph)
        except CapacityError as exc:
            payload["oracle"] = {"skipped": str(exc)}
            lines.append(f"oracle: skipped ({exc})")
        else:
            bad = [k for k, sol in sorted(spect.items())
                   if (sol.feasible, sol.size) != (refs[k].feasible,
                                                   refs[k].size)]
            payload["oracle"] = {"agrees": not bad, "disagrees_at": bad}
            if bad:
                lines.append("oracle: DISAGREES at k="
                             + ", ".join(map(str, bad)))
                rc = EXIT_MISMATCH
            else:
                lines.append("oracle: agrees")
    _emit(payload, args.json, lines)
    return rc


def cmd_verify(args) -> int:
    if args.format and not args.out:
        raise ValueError("--format needs --out")
    records = run_suite(SuiteConfig(args.suite, args.grid, args.node_budget,
                                    args.time_budget))
    fmt = args.format or "csv"
    if args.out:
        emit_report(records, fmt, args.out)
    summary = summarize(records)
    if args.json:
        print(json.dumps({"suite": args.suite, "summary": summary,
                          "records": records_to_dicts(records)}, indent=2))
    else:
        print(f"suite {args.suite}: {summary['records']} records, "
              f"{summary['MATCH']} MATCH, "
              f"{summary['WITHIN_BOUNDS']} WITHIN_BOUNDS, "
              f"{summary['MISMATCH']} MISMATCH, {summary['SKIPPED']} SKIPPED")
        for rec in records:
            if rec.status == MISMATCH:
                print(f"  MISMATCH {rec.ring} k={rec.k} "
                      f"predicted {rec.predicted_lo}..{rec.predicted_hi} "
                      f"solved {rec.solved}")
        if args.out:
            print(f"report written to {args.out} ({fmt})")
    return EXIT_MISMATCH if summary[MISMATCH] else EXIT_OK


def cmd_report(args) -> int:
    with open(args.infile, encoding="utf-8") as fh:
        rows = json.load(fh)
    if isinstance(rows, dict):
        rows = rows.get("records", [])
    if not isinstance(rows, list):
        raise ValueError(f"{args.infile}: expected a list of records, "
                         f"got {type(rows).__name__}")
    records = records_from_dicts(rows)
    text = emit_report(records, args.format, args.out)
    if not args.out:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zdalliance",
        description="Zero-divisor graphs of finite commutative rings and "
                    "global defensive k-alliance numbers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ring-info", help="ring structure summary")
    p.add_argument("expr", help="ring expression, e.g. 'Z2 x GF(4)'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_ring_info)

    p = sub.add_parser("graph-export", help="write the zero-divisor graph")
    p.add_argument("expr")
    p.add_argument("--format", choices=("dot", "dimacs"), default="dot")
    p.add_argument("--out")
    p.set_defaults(func=cmd_graph_export)

    p = sub.add_parser("solve", help="exact gamma_k^d of the graph")
    p.add_argument("expr")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--witness", action="store_true",
                   help="print one optimal alliance")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against brute force (small graphs)")
    p.add_argument("--budget", help="search node budget")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("spectrum", help="gamma_k^d for every k in [-D, D]")
    p.add_argument("expr")
    p.add_argument("--budget", help="search node budget for each k")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check every k against one brute-force pass "
                        "(small graphs)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify", help="run a formula-vs-solver suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--grid", help="';'-separated entries for the suite")
    p.add_argument("--out", help="write the report here")
    p.add_argument("--format", choices=("csv", "md", "json"))
    p.add_argument("--node-budget", default=SuiteConfig.node_budget)
    p.add_argument("--time-budget", default=SuiteConfig.time_budget)
    p.add_argument("--json", action="store_true",
                   help="print summary and records as JSON")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="re-render saved verification records")
    p.add_argument("--in", dest="infile", required=True,
                   help="records JSON produced by 'verify --format json'")
    p.add_argument("--format", choices=("csv", "md", "json"), default="md")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; keep 2 for mismatches instead
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        for name, kind in (("budget", int), ("node_budget", int),
                           ("time_budget", float)):
            value = getattr(args, name, None)
            if value is not None:  # a budget, parsed here to name its flag
                setattr(args, name, _budget(
                    "--" + name.replace("_", "-"), value, kind))
        return args.func(args)
    except ExprError as err:
        _print_expr_error(err)
        return EXIT_USAGE
    except (OSError, ValueError) as err:  # CapacityError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
