"""Vertex-level branch and bound: the test-only reference for the solver.

This is the search the package ran before it branched on twin classes.
It decides feasibility by the vertex-level alliance core and then runs
iterative deepening on the target cardinality s over the core's vertices,
in a fixed order (degree descending, ties by ascending vertex), include
branch first.  The class engine must give the same (feasible, size) and
never use more nodes; ``vertex_solve`` returns the same
``AllianceSolution`` record so the two compare field by field.
"""

from __future__ import annotations

import time
from typing import Optional

from zdalliance import AllianceSolution, BudgetExceeded, ZdGraph, bits


def _lower_bound(graph: ZdGraph, k: int, floor: int) -> int:
    """The first s worth a round, derived here rather than read from the
    engine.  A member x needs deg_S(x) ≥ ⌈(deg x + k)/2⌉, so
    s ≥ 1 + ⌈(δ + k)/2⌉, and x has at most deg_S(x) - k ≤ s - 1 - k
    neighbours outside S; S dominates, so n ≤ s + s(s - 1 - k) = s² - ks.
    The core, at most n vertices, always answers."""
    n = graph.vertex_count
    s = max(1, floor, 1 - (-(graph.min_degree + k) // 2))
    while s < n and s * s - k * s < n:
        s += 1
    return min(s, n)


class _Search:
    """Depth-first cardinality-s rounds over the vertices of ``pool``;
    shared across s for one solve."""

    def __init__(self, graph: ZdGraph, k: int, pool: int,
                 node_budget: Optional[int], deadline: Optional[float]):
        self.k = k
        self.node_budget = node_budget
        self.deadline = deadline
        self.nodes = 0
        self.full = graph.full_mask
        self.adj = graph.adj
        self.closed = graph.closed
        self.deg = graph.degree
        order = sorted(bits(pool), key=lambda v: (-graph.degree[v], v))
        self.order = order
        suffix = [0] * (len(order) + 1)
        for pos in range(len(order) - 1, -1, -1):
            suffix[pos] = suffix[pos + 1] | (1 << order[pos])
        self.suffix = suffix

    def _tick(self) -> None:
        self.nodes += 1
        if self.node_budget is not None and self.nodes > self.node_budget:
            raise BudgetExceeded(f"node budget {self.node_budget} exhausted")
        if self.deadline is not None and (self.nodes & 1023) == 0 \
                and time.monotonic() > self.deadline:
            raise BudgetExceeded("time budget exhausted")

    def _final_ok(self, s_mask: int) -> bool:
        k = self.k
        adj = self.adj
        deg = self.deg
        for v in bits(s_mask):
            if 2 * (adj[v] & s_mask).bit_count() < deg[v] + k:
                return False
        return True

    def run(self, s: int) -> Optional[int]:
        """Depth-first search for a cardinality-s set on an explicit stack of
        (position, chosen, covered, count) entries; the include child is
        pushed last, so it is explored first."""
        # the in-search clock is only polled every 1024 nodes; small
        # searches still have to notice an already-expired deadline
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded("time budget exhausted")
        order, closed, full = self.order, self.closed, self.full
        stack = [(0, 0, 0, 0)]
        while stack:
            pos, s_mask, cov, count = stack.pop()
            self._tick()
            b = s - count
            if b == 0:
                if cov == full and self._final_ok(s_mask):
                    return s_mask
                continue
            if self._pruned(pos, s_mask, cov, b):
                continue
            v = order[pos]
            stack.append((pos + 1, s_mask, cov, count))
            stack.append((pos + 1, s_mask | (1 << v), cov | closed[v],
                          count + 1))
        return None

    def _pruned(self, pos: int, s_mask: int, cov: int, b: int) -> bool:
        """True when no completion with b more picks from position pos on
        can be a solution."""
        rem = self.suffix[pos]
        if rem.bit_count() < b:
            return True

        k = self.k
        adj = self.adj
        m = s_mask
        while m:
            low = m & -m
            m ^= low
            x = low.bit_length() - 1
            a = adj[x]
            rem_n = (a & rem).bit_count()
            gain = b if b < rem_n else rem_n
            if 2 * ((a & s_mask).bit_count() + gain) - self.deg[x] < k:
                return True

        und = self.full & ~cov
        if und:
            # members sit inside their own closed neighborhoods, so every
            # undominated vertex must still be coverable from the undecided
            # pool; a vertex whose only possible cover is a single undecided
            # pick forces that pick
            closed = self.closed
            forced = 0
            m = und
            while m:
                low = m & -m
                m ^= low
                u = low.bit_length() - 1
                c = closed[u] & rem
                if c == 0:
                    return True
                if c & (c - 1) == 0:
                    forced |= c
            if forced.bit_count() > b:
                return True
            need = und.bit_count()
            covs = []
            m = rem
            while m:
                low = m & -m
                m ^= low
                w = low.bit_length() - 1
                covs.append((closed[w] & und).bit_count())
            covs.sort(reverse=True)
            if sum(covs[:b]) < need:
                return True
        return False


def _vertex_core(graph: ZdGraph, k: int) -> int:
    """The largest defensive k-alliance as a bitset, 0 when there is none."""
    adj = graph.adj
    deg = graph.degree
    core = graph.full_mask
    while True:
        drop = 0
        for v in bits(core):
            if 2 * (adj[v] & core).bit_count() < deg[v] + k:
                drop |= 1 << v
        if not drop:
            return core
        core &= ~drop


def vertex_solve(graph: ZdGraph, k: int, floor: int = 1,
                 node_budget: Optional[int] = None) -> AllianceSolution:
    """γ_k^d by rounds s = max(floor, analytic bounds) .. |core| - 1 of the
    vertex search over the alliance core; a k whose core does not dominate
    is infeasible, with 0 nodes."""
    start = time.perf_counter()
    core = _vertex_core(graph, k)
    if not graph.is_dominating(core):
        return AllianceSolution(False, None, None, 0,
                                time.perf_counter() - start)
    search = _Search(graph, k, core, node_budget, None)
    size, witness = core.bit_count(), core
    for s in range(_lower_bound(graph, k, floor), size):
        found = search.run(s)
        if found is not None:
            size, witness = s, found
            break
    return AllianceSolution(True, size, witness, search.nodes,
                            time.perf_counter() - start)


def vertex_spectrum(graph: ZdGraph) -> dict[int, AllianceSolution]:
    """Every k in [-max_degree, max_degree], each k's rounds starting at the
    answer for k - 1, as ``spectrum`` does."""
    out: dict[int, AllianceSolution] = {}
    floor = 1
    for k in range(-graph.max_degree, graph.max_degree + 1):
        out[k] = vertex_solve(graph, k, floor)
        floor = out[k].size or floor
    return out
