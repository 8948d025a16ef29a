"""Exact global defensive k-alliance numbers.

``solve`` runs iterative deepening on the target cardinality s: starting
from max(domination number, analytic lower bounds) it performs, for each s,
a depth-first branch-and-bound over vertex subsets in a fixed branching
order (degree descending, ties by ascending element id).  The search runs
on an explicit stack, so its depth does not touch the interpreter's
recursion limit; the include branch of a vertex is explored before the
exclude branch.  A partial set is pruned when

* some chosen vertex's deficit deg_S(x) - deg_S̄(x) - k cannot be repaired
  even if every remaining pick were one of its undecided neighbors,
* some undominated vertex has no undecided vertex left that could cover it,
* the vertices forced as unique covers of undominated vertices exceed the
  remaining budget, or a greedy bound on closed-neighborhood coverage shows
  the undominated vertices cannot all be covered,
* fewer undecided vertices remain than the budget requires.

The first feasible set found at the smallest s is optimal because every
smaller cardinality was exhausted.  Infeasibility is decided by exhausting
s = vertex_count (S = V is the last candidate); no analytic infeasibility
shortcut is trusted.  Node/time budgets, when given, raise
:class:`BudgetExceeded` instead of returning a wrong answer.

``spectrum`` is the one entry point for many values of k.  It uses the
exact monotonicity of the problem: a global defensive (k+1)-alliance is
also a global defensive k-alliance, so γ_k ≤ γ_{k+1}.  It walks k upward,
starts each k's rounds at max(analytic lower bound, γ_{k-1}), and marks
every k above the first infeasible one infeasible without searching.

``oracle_solve`` is the independent cross-check: plain enumeration of all
subsets in increasing popcount order with no pruning beyond the predicate
itself, capped by default at 22 vertices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .graphs import ZdGraph, bits
from .rings import CapacityError

ORACLE_MAX_VERTICES = 22


class BudgetExceeded(RuntimeError):
    """The solver ran out of its node or time budget; the answer is unknown."""


@dataclass(frozen=True)
class AllianceProblem:
    graph: ZdGraph
    k: int


@dataclass(frozen=True)
class AllianceSolution:
    """Verdict for one (graph, k) instance.

    ``witness`` is a vertex bitset (None when infeasible); ``nodes`` counts
    search-tree nodes (subsets examined, for the oracle).
    """
    feasible: bool
    size: Optional[int]
    witness: Optional[int]
    nodes: int
    elapsed: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"size {self.size}" if self.feasible else "infeasible"


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class _Search:
    """One depth-first cardinality-s round; shared across s for one solve."""

    def __init__(self, graph: ZdGraph, k: Optional[int],
                 node_budget: Optional[int], deadline: Optional[float]):
        self.k = k
        self.node_budget = node_budget
        self.deadline = deadline
        self.nodes = 0
        n = graph.vertex_count
        self.full = graph.full_mask
        self.adj = graph.adj
        self.closed = graph.closed
        self.deg = graph.degree
        order = sorted(range(n), key=lambda v: (-graph.degree[v], v))
        self.order = order
        suffix = [0] * (n + 1)
        for pos in range(n - 1, -1, -1):
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
        if k is None:
            return True
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
        if k is not None and s_mask:
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


def _domination(graph: ZdGraph, node_budget: Optional[int],
                deadline: Optional[float], carried_nodes: int = 0
                ) -> tuple[int, int, int]:
    """(domination number, witness, nodes used)."""
    search = _Search(graph, None, node_budget, deadline)
    search.nodes = carried_nodes
    for s in range(1, graph.vertex_count + 1):
        witness = search.run(s)
        if witness is not None:
            return s, witness, search.nodes
    raise RuntimeError("a nonempty graph always has a dominating set")  # pragma: no cover


def domination_number(graph: ZdGraph, *, node_budget: Optional[int] = None,
                      time_budget: Optional[float] = None) -> tuple[int, int]:
    """Exact domination number and one minimum dominating set (bitset)."""
    deadline = None if time_budget is None else time.monotonic() + time_budget
    size, witness, _ = _domination(graph, node_budget, deadline)
    return size, witness


def _alliance_lower_bound(graph: ZdGraph, k: int, floor: int) -> int:
    n = graph.vertex_count
    lb = max(1, floor)
    # any member x needs deg_S(x) >= ceil((deg(x)+k)/2) neighbors inside
    member = 1 + _ceil_div(graph.min_degree + k, 2)
    if member > lb:
        lb = member
    # domination + per-member deficit give n <= s*s - k*s for feasible s
    s = lb
    while s <= n and s * s - k * s < n:
        s += 1
    return min(s, n)


def _solve_with_gamma(graph: ZdGraph, k: int, floor: int,
                      node_budget: Optional[int], deadline: Optional[float],
                      carried_nodes: int) -> AllianceSolution:
    """Rounds s = max(floor, analytic bounds) .. n for one k; ``floor`` is a
    proven lower bound: the domination number, or γ_{k-1} in a spectrum."""
    start = time.perf_counter()
    search = _Search(graph, k, node_budget, deadline)
    search.nodes = carried_nodes
    lb = _alliance_lower_bound(graph, k, floor)
    for s in range(lb, graph.vertex_count + 1):
        witness = search.run(s)
        if witness is not None:
            return AllianceSolution(True, s, witness, search.nodes,
                                    time.perf_counter() - start)
    return AllianceSolution(False, None, None, search.nodes,
                            time.perf_counter() - start)


def solve(problem: AllianceProblem, *, node_budget: Optional[int] = None,
          time_budget: Optional[float] = None) -> AllianceSolution:
    """Exact γ_k^d for the graph, or an Infeasible verdict.

    Raises :class:`BudgetExceeded` when a budget runs out before the answer
    is certain.
    """
    graph = problem.graph
    deadline = None if time_budget is None else time.monotonic() + time_budget
    gamma, _, used = _domination(graph, node_budget, deadline)
    return _solve_with_gamma(graph, problem.k, gamma, node_budget, deadline, used)


def oracle_solve(problem: AllianceProblem, *,
                 max_vertices: int = ORACLE_MAX_VERTICES) -> AllianceSolution:
    """Brute-force reference: all subsets in increasing popcount order.

    No pruning beyond the predicate itself; identical verdict semantics to
    :func:`solve`.  Refuses graphs above ``max_vertices``.
    """
    graph = problem.graph
    n = graph.vertex_count
    if n > max_vertices:
        raise CapacityError(
            f"oracle is capped at {max_vertices} vertices, graph has {n}")
    k = problem.k
    adj = graph.adj
    deg = graph.degree
    closed = graph.closed
    full = graph.full_mask
    start = time.perf_counter()
    examined = 0
    for s in range(1, n + 1):
        for combo in combinations(range(n), s):
            examined += 1
            m = 0
            for v in combo:
                m |= 1 << v
            ok = True
            cov = 0
            for v in combo:
                if 2 * (adj[v] & m).bit_count() < deg[v] + k:
                    ok = False
                    break
                cov |= closed[v]
            if ok and cov == full:
                return AllianceSolution(True, s, m, examined,
                                        time.perf_counter() - start)
    return AllianceSolution(False, None, None, examined,
                            time.perf_counter() - start)


def spectrum(graph: ZdGraph, *, node_budget: Optional[int] = None,
             time_budget: Optional[float] = None
             ) -> dict[int, AllianceSolution]:
    """Exact results for every k in [-max_degree, max_degree].

    Sizes are monotone nondecreasing in k over the feasible range, and the
    range of feasible k always reaches min_degree.  Each k's rounds start
    at the answer for k - 1; every k above the first infeasible one is
    infeasible without a search.
    """
    deadline = None if time_budget is None else time.monotonic() + time_budget
    floor, _, used = _domination(graph, node_budget, deadline)
    out: dict[int, AllianceSolution] = {}
    for k in range(-graph.max_degree, graph.max_degree + 1):
        if floor is None:  # k - 1 was infeasible, so k is too
            out[k] = AllianceSolution(False, None, None, used, 0.0)
            continue
        out[k] = _solve_with_gamma(graph, k, floor, node_budget, deadline, used)
        floor = out[k].size
    return out
