"""Spans around calls into the zdalliance modules, from the benchmark's side.

A :class:`Tracer` wraps public functions: each call records one span with
its name, start, end, parent span and question id, plus a few counts read
off the arguments or the result.  Spans stay in memory until the pass
ends and are then written as JSON lines.  :func:`layer_metrics` folds the
spans of one pass into the per-layer metrics.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Optional

SUITES = ("tables", "zpn", "fields", "z2z2F", "z2FK", "z2local",
          "idealizations", "bounds", "known_graphs")


def _problem_qid(args: tuple) -> Optional[str]:
    # solve and oracle_solve take an AllianceProblem first: its spans
    # share the id of the (ring, k) question
    problem = args[0] if args else None
    if hasattr(problem, "graph") and hasattr(problem, "k"):
        return f"{problem.graph.ring_label}|k={problem.k}"
    return None


def _counts(name: str, args: tuple, result) -> dict:
    if name == "rings.zero_divisors":
        return {"elements": args[0].order}
    if name == "graphs.build_graph":
        return {"vertices": result.vertex_count}
    if name == "solver.solve":
        return {"nodes": result.nodes}
    if name == "solver.oracle":
        return {"subsets": result.nodes}
    if name == "solver.spectrum":
        feasible = sum(s.nodes for s in result.values() if s.feasible)
        infeasible = sum(s.nodes for s in result.values() if not s.feasible)
        return {"ks": len(result), "nodes_feasible": feasible,
                "nodes_infeasible": infeasible}
    if name == "verify.run_suite":
        return {"suite": args[0].suite, "records": len(result)}
    return {}


class Tracer:
    """In-memory span recorder for one pass (single-threaded)."""

    def __init__(self) -> None:
        from zdalliance.solver import BudgetExceeded
        self._budget_exceeded = BudgetExceeded
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.qid: Optional[str] = None

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            # calls below a question's span belong to that question
            qid = _problem_qid(args) or (
                self.qid if parent is None else self.spans[parent]["qid"])
            span = {"id": len(self.spans), "parent": parent, "qid": qid,
                    "name": name}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except self._budget_exceeded as exc:
                span["end"] = time.perf_counter()
                span["unknown"] = 1
                # the search raises on the first node past the budget
                budget = kwargs.get("node_budget")
                if budget is not None and "node budget" in str(exc):
                    span["nodes"] = budget + 1
                raise
            finally:
                span.setdefault("end", time.perf_counter())
                self._stack.pop()
            span.update(_counts(name, args, result))
            return result
        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration less the part its child spans cover."""
    child = [0.0] * len(spans)
    for sp in spans:
        if sp["parent"] is not None:
            child[sp["parent"]] += sp["end"] - sp["start"]
    return [sp["end"] - sp["start"] - c for sp, c in zip(spans, child)]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals of one pass; layers a workload skips read 0."""
    time_of: dict[str, float] = {}
    calls: dict[str, int] = {}
    total: dict[str, int] = {}
    for sp in spans:
        dur = sp["end"] - sp["start"]
        time_of[sp["name"]] = time_of.get(sp["name"], 0.0) + dur
        calls[sp["name"]] = calls.get(sp["name"], 0) + 1
        for key in ("elements", "vertices", "nodes", "subsets", "ks",
                    "nodes_feasible", "nodes_infeasible", "records",
                    "unknown"):
            if key in sp:
                total[f"{sp['name']}.{key}"] = \
                    total.get(f"{sp['name']}.{key}", 0) + sp[key]

    suites = [sp for sp in spans if sp["name"] == "verify.run_suite"]
    vertices = [sp["vertices"] for sp in spans if "vertices" in sp]
    solve_s = time_of.get("solver.solve", 0.0)
    solve_nodes = total.get("solver.solve.nodes", 0)
    out = {
        "expressions.build_ring.s": time_of.get("expressions.build_ring", 0.0),
        "expressions.build_ring.calls": calls.get("expressions.build_ring", 0),
        "rings.zero_divisors.s": time_of.get("rings.zero_divisors", 0.0),
        "rings.elements": total.get("rings.zero_divisors.elements", 0),
        "rings.local_structure.s": time_of.get("rings.local_structure", 0.0),
        "graphs.build_graph.s": time_of.get("graphs.build_graph", 0.0),
        "graphs.vertices": sum(vertices),
        "graphs.pair_tests": sum(n * (n - 1) // 2 for n in vertices),
        "solver.domination.s": time_of.get("solver.domination", 0.0),
        "solver.solve.s": solve_s,
        "solver.solve.calls": calls.get("solver.solve", 0),
        "solver.solve.nodes": solve_nodes,
        "solver.solve.us_per_node":
            solve_s / solve_nodes * 1e6 if solve_nodes else 0.0,
        "solver.solve.unknown": total.get("solver.solve.unknown", 0),
        "solver.spectrum.s": time_of.get("solver.spectrum", 0.0),
        "solver.spectrum.nodes_feasible":
            total.get("solver.spectrum.nodes_feasible", 0),
        "solver.spectrum.nodes_infeasible":
            total.get("solver.spectrum.nodes_infeasible", 0),
        "solver.spectrum.ks": total.get("solver.spectrum.ks", 0),
        "solver.oracle.s": time_of.get("solver.oracle", 0.0),
        "solver.oracle.subsets": total.get("solver.oracle.subsets", 0),
        "formulas.predict.s": time_of.get("formulas.predict", 0.0),
        "verify.run_suite.s": time_of.get("verify.run_suite", 0.0),
        "verify.self_s": sum(t for sp, t in zip(spans, self_times(spans))
                             if sp["name"] == "verify.run_suite"),
        "verify.records": total.get("verify.run_suite.records", 0),
        "verify.emit_report.s": time_of.get("verify.emit_report", 0.0),
        "trace.spans": len(spans),
    }
    for suite in SUITES:
        out[f"verify.run_suite.{suite}.s"] = sum(
            sp["end"] - sp["start"] for sp in suites if sp["suite"] == suite)
    return out
