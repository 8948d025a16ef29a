"""Exact global defensive k-alliance numbers.

A member's condition 2·deg_S(x) ≥ deg(x) + k only gets easier as S grows,
so the union of all defensive k-alliances is itself one: the largest,
called the *core* here (see Fernau & Rodríguez-Velázquez, "A survey on
alliances and related parameters in graphs", EJGTA 2, 2014).
``_alliance_core`` finds it by repeatedly dropping
every vertex that fails the condition against the vertices left.  A global
defensive k-alliance exists iff the core dominates the graph, so an
infeasible k is decided by that one fixpoint, with no search.

Otherwise ``solve`` runs iterative deepening on the target cardinality s
over the core's vertices only, since every alliance lies inside the core.
Starting from the analytic lower bounds it performs, for each s, a
depth-first branch-and-bound over subsets of the core in a fixed branching
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
smaller cardinality was exhausted; the deepening stops below s = |core|,
because the core itself is the only candidate of that size and a witness.  Node/time budgets, when
given, raise :class:`BudgetExceeded` instead of returning a wrong answer.
At k = -max_degree every dominating set qualifies, so the domination
number is that k's answer.

``spectrum`` is the one entry point for many values of k.  It uses the
exact monotonicity of the problem: a global defensive (k+1)-alliance is
also a global defensive k-alliance, so γ_k ≤ γ_{k+1}.  It walks k upward
and starts each k's rounds at max(analytic lower bound, γ_{k-1}).

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


def _alliance_core(graph: ZdGraph, k: int) -> int:
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
                      node_budget: Optional[int], deadline: Optional[float]
                      ) -> AllianceSolution:
    """Rounds s = max(floor, analytic bounds) .. |core| - 1 over the
    alliance core for one k, which answers s = |core| itself; ``floor`` is a
    proven lower bound (γ_{k-1} in a spectrum).  A k whose core does not
    dominate is infeasible, with 0 nodes."""
    start = time.perf_counter()
    core = _alliance_core(graph, k)
    if not graph.is_dominating(core):
        return AllianceSolution(False, None, None, 0,
                                time.perf_counter() - start)
    search = _Search(graph, k, core, node_budget, deadline)
    size, witness = core.bit_count(), core
    for s in range(_alliance_lower_bound(graph, k, floor), size):
        found = search.run(s)
        if found is not None:
            size, witness = s, found
            break
    return AllianceSolution(True, size, witness, search.nodes,
                            time.perf_counter() - start)


def _domination(graph: ZdGraph, node_budget: Optional[int],
                deadline: Optional[float]) -> AllianceSolution:
    """Minimum dominating set: at k = -max_degree every dominating set is a
    global defensive k-alliance."""
    return _solve_with_gamma(graph, -graph.max_degree, 1, node_budget,
                             deadline)


def domination_number(graph: ZdGraph, *, node_budget: Optional[int] = None,
                      time_budget: Optional[float] = None) -> tuple[int, int]:
    """Exact domination number and one minimum dominating set (bitset)."""
    deadline = None if time_budget is None else time.monotonic() + time_budget
    sol = _domination(graph, node_budget, deadline)
    return sol.size, sol.witness


def solve(problem: AllianceProblem, *, node_budget: Optional[int] = None,
          time_budget: Optional[float] = None) -> AllianceSolution:
    """Exact γ_k^d for the graph, or an Infeasible verdict.

    Raises :class:`BudgetExceeded` when a budget runs out before the answer
    is certain.
    """
    deadline = None if time_budget is None else time.monotonic() + time_budget
    return _solve_with_gamma(problem.graph, problem.k, 1, node_budget, deadline)


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
    at the answer for k - 1, and an infeasible k is decided by its
    alliance core without a search.  ``node_budget`` counts nodes per k;
    ``time_budget`` covers the whole spectrum.
    """
    deadline = None if time_budget is None else time.monotonic() + time_budget
    out: dict[int, AllianceSolution] = {}
    floor = 1
    for k in range(-graph.max_degree, graph.max_degree + 1):
        out[k] = _solve_with_gamma(graph, k, floor, node_budget, deadline)
        floor = out[k].size or floor
    return out
