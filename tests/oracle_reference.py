"""Plain subset enumeration: the test-only reference for the oracle.

This is how the package's brute-force oracle ran before it skipped whole
subtrees of subsets: every subset is visited, s = 1..n, each s in
``itertools.combinations`` order.  A dominating subset whose slack, min
over members x of 2·deg_S(x) - deg(x), beats ``reached`` answers every k in
(reached, slack] with its size, itself and the number of subsets examined
so far; a k still unanswered after s = n is infeasible, with all 2^n - 1
subsets examined.  ``oracle_spectrum`` and ``oracle_solve`` must give the
same feasible, size, witness and nodes at every k.
"""

from __future__ import annotations

import time
from itertools import combinations

from zdalliance import AllianceSolution, ZdGraph


def reference_pass(graph: ZdGraph, lo: int, hi: int
                   ) -> dict[int, AllianceSolution]:
    """Every k in [lo, hi] answered by visiting each subset in turn."""
    n = graph.vertex_count
    adj = graph.adj
    deg = graph.degree
    closed = graph.closed
    full = graph.full_mask
    bit = [1 << v for v in range(n)]
    start = time.perf_counter()
    out: dict[int, AllianceSolution] = {}
    reached = lo - 1
    examined = 0
    for s in range(1, n + 1):
        for combo in combinations(range(n), s):
            examined += 1
            m = cov = 0
            for v in combo:
                m |= bit[v]
                cov |= closed[v]
            if cov != full:
                continue
            slack = hi  # no k above hi is asked
            for v in combo:
                d = 2 * (adj[v] & m).bit_count() - deg[v]
                if d < slack:
                    slack = d
                    if slack <= reached:
                        break
            if slack > reached:
                sol = AllianceSolution(True, s, m, examined,
                                       time.perf_counter() - start)
                for k in range(reached + 1, slack + 1):
                    out[k] = sol
                reached = slack
                if reached >= hi:
                    return out
    sol = AllianceSolution(False, None, None, examined,
                           time.perf_counter() - start)
    for k in range(reached + 1, hi + 1):
        out[k] = sol
    return out


def reference_spectrum(graph: ZdGraph) -> dict[int, AllianceSolution]:
    return reference_pass(graph, -graph.max_degree, graph.max_degree)


def reference_solve(graph: ZdGraph, k: int) -> AllianceSolution:
    return reference_pass(graph, k, k)[k]
