"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/one_pass.py --workload ladder --seed 1 --pass-index 0 \
        [--spans out/ladder.jsonl]

The pass imports zdalliance (``src/`` must be on ``PYTHONPATH``), answers
the workload's fixed question set in an order permuted by the seed, then
checks every answer against the seed answers pinned in ``expected.json``.
The last stdout line is a JSON object: wall time, peak RSS, question
counts, wrong answers and node-count rises.  With ``--spans`` the calls
into each module are traced (see ``tracing.py``), the spans written to
that file, and the per-layer sums and solve latencies added.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time
from collections import Counter

import zdalliance.cli  # noqa: F401  - the import every zdalliance call pays
from zdalliance import expressions, formulas, graphs, rings, solver, verify
from zdalliance.solver import AllianceProblem, BudgetExceeded

from tracing import Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))

LADDER = ("Z30", "Z2 x Z9", "Z64", "Z2 x GF(4) x Z5", "Z210", "Z1024",
          "Z4096")
LADDER_KS = (-1, 0, 1)
LADDER_NODE_BUDGET = 20_000
SPECTRUM = ("Z64", "Z2 x Z27", "Z2 x Z2 x Z2 x Z2 x Z2", "Z2 x Z4 x Z4",
            "Z60")
CATALOG = ("tables", "zpn", "fields", "z2z2F", "z2FK", "z2local",
           "idealizations", "bounds")
CATALOG_FORMATS = ("csv", "md", "json")
CROSSCHECK = ("known_graphs",)
# public names zdalliance.verify imports, and the layer each belongs to
VERIFY_IMPORTS = {
    "build_ring": "expressions.build_ring",
    "build_graph": "graphs.build_graph",
    "zero_divisors": "rings.zero_divisors",
    "local_structure": "rings.local_structure",
    "solve": "solver.solve",
    "oracle_solve": "solver.oracle",
    "spectrum": "solver.spectrum",
}
# solver internals that solve(), spectrum() and the bounds suite call
# through the solver module: wrapping them charges that work to the solver
SOLVER_INTERNALS = {
    "_domination": "solver.domination",
    "_solve_with_gamma": "solver.solve_k",
}


class Pass:
    """Answers and checks for one pass; ``api`` holds the called functions."""

    def __init__(self, expected: dict, tracer: Tracer | None):
        self.expected = expected
        self.tracer = tracer
        self.attempted = 0
        self.answered = 0
        self.wrong: list[str] = []
        self.rises: list[str] = []
        api = {
            "build_ring": ("expressions.build_ring", expressions.build_ring),
            "zero_divisors": ("rings.zero_divisors", rings.zero_divisors),
            "build_graph": ("graphs.build_graph", graphs.build_graph),
            "domination_number": ("solver.domination_number",
                                  solver.domination_number),
            "solve": ("solver.solve", solver.solve),
            "spectrum": ("solver.spectrum", solver.spectrum),
            "run_suite": ("verify.run_suite", verify.run_suite),
            "emit_report": ("verify.emit_report", verify.emit_report),
        }
        if tracer is None:
            self.api = {key: fn for key, (_, fn) in api.items()}
            return
        self.api = {key: tracer.wrap(name, fn)
                    for key, (name, fn) in api.items()}
        for attr, name in VERIFY_IMPORTS.items():
            setattr(verify, attr, tracer.wrap(name, getattr(verify, attr)))
        for attr, name in SOLVER_INTERNALS.items():
            setattr(solver, attr, tracer.wrap(name, getattr(solver, attr)))
        for attr in dir(formulas):
            if attr.startswith("predict_"):
                setattr(formulas, attr, tracer.wrap(
                    "formulas.predict", getattr(formulas, attr)))

    def _question(self, qid: str) -> None:
        if self.tracer is not None:
            self.tracer.qid = qid

    # -- workloads: answer first, check after the clock stops ---------------

    def ladder(self, rng: random.Random) -> list:
        answers = []
        api = self.api
        for expr in rng.sample(LADDER, len(LADDER)):
            self._question(expr)
            ring = api["build_ring"](expr)
            zds = api["zero_divisors"](ring)
            graph = api["build_graph"](ring)
            dom = api["domination_number"](graph)
            answers.append((expr, "build", (len(zds), graph, dom)))
            for k in rng.sample(LADDER_KS, len(LADDER_KS)):
                try:
                    sol = api["solve"](AllianceProblem(graph, k),
                                       node_budget=LADDER_NODE_BUDGET)
                except BudgetExceeded:
                    sol = None
                answers.append((expr, k, (graph, sol)))
        return answers

    def check_ladder(self, answers: list) -> None:
        pinned = self.expected["ladder"]
        for expr, k, data in answers:
            if k == "build":
                zcount, graph, (dom, dom_set) = data
                want = pinned[expr]["build"]
                got = {"vertices": graph.vertex_count, "zero_divisors": zcount,
                       "domination": dom}
                if got != want or dom_set.bit_count() != dom \
                        or not graph.is_dominating(dom_set):
                    self.wrong.append(f"ladder {expr}: {got} != {want}")
                continue
            graph, sol = data
            self._check_answer(f"ladder {expr} k={k}", graph, k, sol,
                               pinned[expr][str(k)])

    def spectrum(self, rng: random.Random) -> list:
        answers = []
        for expr in rng.sample(SPECTRUM, len(SPECTRUM)):
            self._question(expr)
            graph = self.api["build_graph"](self.api["build_ring"](expr))
            spect = self.api["spectrum"](graph)
            answers.append((expr, graph, spect))
        return answers

    def check_spectrum(self, answers: list) -> None:
        for expr, graph, spect in answers:
            pinned = self.expected["spectrum"][expr]
            if sorted(spect) != sorted(int(k) for k in pinned):
                self.wrong.append(f"spectrum {expr}: k range {min(spect)}.."
                                  f"{max(spect)} differs from the seed")
                continue
            last = 0
            for k in sorted(spect):
                sol = spect[k]
                self._check_answer(f"spectrum {expr} k={k}", graph, k, sol,
                                   pinned[str(k)])
                size = sol.size if sol.feasible else graph.vertex_count + 1
                if size < last:
                    self.wrong.append(f"spectrum {expr}: not monotone at k={k}")
                last = size

    def _check_answer(self, name: str, graph, k: int, sol, pinned: list) -> None:
        """pinned is [size | "infeasible" | "unknown", nodes] from the seed."""
        want, nodes = pinned
        self.attempted += 1
        if sol is None:  # budget ran out: unknown, not wrong
            return
        self.answered += 1
        if sol.nodes > nodes:
            self.rises.append(f"{name}: nodes {nodes} -> {sol.nodes}")
        if not sol.feasible:
            if want != "infeasible":
                self.wrong.append(f"{name}: infeasible, seed answer {want}")
            return
        if want != "unknown" and sol.size != want:
            self.wrong.append(f"{name}: size {sol.size}, seed answer {want}")
        if sol.witness is None or sol.witness.bit_count() != sol.size \
                or not graph.is_global_defensive_alliance(sol.witness, k):
            self.wrong.append(f"{name}: witness is not a global defensive "
                              f"{k}-alliance of size {sol.size}")

    def suites(self, rng: random.Random, names: tuple) -> list:
        answers = []
        for suite in rng.sample(names, len(names)):
            self._question(suite)
            answers.append((suite, self.api["run_suite"](
                verify.SuiteConfig(suite=suite))))
        if names == CATALOG:
            records = [rec for _, recs in answers for rec in recs]
            for fmt in rng.sample(CATALOG_FORMATS, len(CATALOG_FORMATS)):
                self._question(f"report.{fmt}")
                answers.append((fmt, self.api["emit_report"](records, fmt)))
        return answers

    def check_suites(self, answers: list) -> None:
        records = []
        for name, result in answers:
            if name in CATALOG_FORMATS:
                self._check_report(name, result, records)
                continue
            records.extend(result)
            counts = Counter(_status_key(rec) for rec in result)
            budget = counts.pop("SKIPPED(budget)", 0)
            self.attempted += len(result)
            self.answered += len(result) - budget
            want = dict(self.expected["suites"][name])
            if len(result) != want.pop("records"):
                self.wrong.append(f"{name}: {len(result)} records")
            # a budget skip is an unknown answer that the seed had solved
            solved = counts.pop("MATCH", 0) + counts.pop("WITHIN_BOUNDS", 0)
            seed_solved = want.pop("MATCH", 0) + want.pop("WITHIN_BOUNDS", 0)
            if solved + budget != seed_solved or counts != want:
                self.wrong.append(f"{name}: statuses {dict(counts)}, "
                                  f"{solved} solved, {budget} unknown")
            for rec in result:
                if rec.status == verify.MISMATCH:
                    self.wrong.append(f"{name}: MISMATCH {rec.ring} k={rec.k}")

    def _check_report(self, fmt: str, text: str, records: list) -> None:
        if fmt == "csv":
            rows = text.count("\n") - 1
        elif fmt == "json":
            rows = len(json.loads(text))
        else:
            rows = sum(1 for line in text.splitlines()
                       if line.startswith("| ") and not line.startswith("| k |"))
        if rows != len(records):
            self.wrong.append(f"report {fmt}: {rows} rows for "
                              f"{len(records)} records")


def _status_key(rec) -> str:
    if rec.status != verify.SKIPPED:
        return rec.status
    if rec.reason.startswith("budget"):
        return "SKIPPED(budget)"
    return f"SKIPPED({rec.reason.split('(')[0]})"


def run_pass(workload: str, seed: int, pass_index: int,
             spans_path: str | None) -> dict:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    tracer = Tracer() if spans_path else None
    p = Pass(expected, tracer)
    rng = random.Random(seed * 1000 + pass_index)
    start = time.perf_counter()
    if workload == "ladder":
        answers = p.ladder(rng)
    elif workload == "spectrum":
        answers = p.spectrum(rng)
    elif workload == "catalog":
        answers = p.suites(rng, CATALOG)
    else:
        answers = p.suites(rng, CROSSCHECK)
    wall = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"wall_s": wall, "rss_mb": rss_mb}
    if tracer is not None:
        tracer.write(spans_path)
        result["latencies_ms"] = [(sp["end"] - sp["start"]) * 1e3
                                  for sp in tracer.spans
                                  if sp["name"] == "solver.solve"]
        result["layers"] = layer_metrics(tracer.spans)

    if workload == "ladder":
        p.check_ladder(answers)
    elif workload == "spectrum":
        p.check_spectrum(answers)
    else:
        p.check_suites(answers)
    result.update(attempted=p.attempted, answered=p.answered, wrong=p.wrong,
                  rises=p.rises)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ladder", "spectrum", "catalog", "crosscheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--spans")
    args = parser.parse_args()
    result = run_pass(args.workload, args.seed, args.pass_index, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
