"""Exact global defensive k-alliance numbers.

A member's condition 2·deg_S(x) ≥ deg(x) + k only gets easier as S grows,
so the union of all defensive k-alliances is itself one: the largest,
called the *core* here (see Fernau & Rodríguez-Velázquez, "A survey on
alliances and related parameters in graphs", EJGTA 2, 2014).  A global
defensive k-alliance exists iff the core dominates the graph, so an
infeasible k is decided by one fixpoint, with no search.

Twins (``ZdGraph.twin_classes``) can be swapped by a graph automorphism, so
whether a set is a global defensive k-alliance depends only on the count
c_i it takes from each twin class i.  For a member x of class i,
deg_S(x) = Σ_{j ∈ nb(i)} c_j - [i is a clique], where nb(i) holds the
neighbor classes and a clique class (true twins) is its own neighbor.
The core is a union of classes, so ``_Search``, the one per-k setup,
finds it on class representatives: it drops each class whose
representative has fewer than need_i = ⌈(deg_i + k)/2⌉ neighbors left
(the condition above, as deg_S is an integer) until none does, and the
core dominates when each class outside it has a neighbor inside.

Otherwise ``solve`` runs iterative deepening on the target cardinality s
over the core's classes only, since every alliance lies inside the core.
Starting from the analytic lower bounds it performs one round per target
s: a depth-first branch-and-bound in a fixed class order (degree
descending, ties by lowest vertex).  A node decides the next class: its
children take c = min(n_i, b), ..., 0 of its n_i members, largest first,
where b is the number of picks left, and the set keeps the first c
members of each class, which is also how a witness is read off.  On a
graph whose classes are all singletons this is the include-first vertex
search.  The search runs on an explicit stack, so its depth does not
touch the interpreter's recursion limit.  A partial set is pruned when

* fewer undecided members remain than the budget requires,
* some chosen class's residual need r_x = ⌈(deg x + k)/2⌉ - deg_S(x)
  exceeds the budget or its undecided neighbors,
* some undominated class has no undecided class left that could cover it,
* the picks forced by undominated classes with a single possible cover
  exceed the budget (all n_u of an independent class u that only covers
  itself, otherwise one), or a greedy bound on closed-neighborhood
  coverage shows the undominated vertices cannot all be covered,
* the disjoint demands exceed the budget: a chosen class with r_x > 0
  demands r_x picks from its undecided neighbor classes, an undominated
  class one pick from its possible covers (n_u when it alone can cover
  itself and is independent); demands taken largest first whose option
  sets are pairwise disjoint need separate picks.

A node is one partial count vector taken off the stack; ``nodes`` and the
node budget count them.  Every node meets these rules, leaves too: with
no picks left a node passes them exactly when it is a global defensive
k-alliance, since any r_x > 0 exceeds the budget and an undominated class
leaves a vertex that the forced picks or the greedy bound cannot cover.

A failed round also says which later rounds would fail, as in the
threshold rule of IDA* (Korf, "Depth-first iterative-deepening: an
optimal admissible tree search", Artificial Intelligence 27, 1985).  The
rule that prunes a node of count c at budget b returns its *threshold*:
the least budget at which that rule stops pruning the node.  Every rule
prunes the node at each budget from b up to one below its threshold, and
a rule that no larger budget lifts returns "never":

=====================================  ==================================
node                                   threshold
=====================================  ==================================
fewer undecided members than b         never
r_x above its undecided neighbors      never
an undominated class with no cover     never
r_x > b                                r_x
forced picks cost > b                  the cost
greedy cover bound short               the least budget whose greedy sum
                                       reaches the uncovered count; never
                                       when no budget does
disjoint demands total > b             the full total of the scan
expanded with n_i > b                  b + 1 (children c > b were not
                                       made)
=====================================  ==================================

The round at s returns T, the least c + threshold over its frontier, and
the next round runs at T instead of at s + 1.  No cardinality s' with
s < s' < T can succeed: follow the counts of a set of size s' down the
round-s tree.  The path either stops at a pruned node of count c, leaves
included, where s - c < s' - c < T - c ≤ its threshold, so the same rule
prunes the node at budget s' - c and rules the set out; or it reaches an
expanded class of which it takes more than b members, which puts T at
s + 1, leaving no s' between.  So the first round that succeeds is at
γ_k, as with one round per s, and it is the same search, so its witness
is unchanged; only ``nodes`` falls.  A round that fails is
exhausted, so the first feasible set is optimal; the deepening stops
below s = |core|, because the core itself is the only candidate of that
size and a witness.  Node/time budgets, when given, raise
:class:`BudgetExceeded` instead of returning a wrong answer.  At
k = -max_degree every dominating set qualifies, so the domination number
is that k's answer.

The k-independent class tables are built once per ``solve``, ``spectrum``
or ``domination_number`` call; each k's setup adds its needs, its core
and, when that dominates, the core's class order and its suffixes.

``spectrum`` is the one entry point for many values of k.  It uses the
exact monotonicity of the problem: a global defensive (k+1)-alliance is
also a global defensive k-alliance, so γ_k ≤ γ_{k+1}.  It walks k upward
and starts each k's rounds at max(analytic lower bound, γ_{k-1}).  The
cores nest too: the (k+1)-core is a defensive k-alliance, so it lies in
the k-core, and a fixpoint started from any set that holds it never drops
its members; so each k's fixpoint starts from the classes left at k - 1.

``oracle_spectrum`` is the independent cross-check: one enumeration of
all subsets, s = 1..n, each s in ``itertools.combinations`` order, on
graphs of up to ``ORACLE_MAX_VERTICES`` = 22 vertices.  A subset S is a
global defensive k-alliance exactly when it dominates and its slack, min
over x ∈ S of 2·deg_S(x) - deg(x), is at least k.  The pass keeps
``reached``, the highest k answered so far; the first dominating subset
whose slack beats it answers every k in (reached, slack] with its size,
itself and its position in that order (1-based: all subsets of fewer
vertices, then its rank among those of its size), which is the number
of subsets a plain enumeration examines up to it.  The pass stops once
``reached`` hits its target; a k still unanswered after s = n is
infeasible, with all 2^n - 1 subsets counted.  ``oracle_solve`` is the
same pass aimed at one k, so each k gets the answer a per-k enumeration
would give.

The walk runs depth first over prefixes P, with r picks left from a set
of candidates, all above P's last vertex.  Only a subset whose slack
beats ``reached`` can answer a k, so no member x of it has
2·deg_S(x) - deg(x) ≤ ``reached``.  deg_S(x) grows with S, so a node
keeps only what such a subset can use, cheapest check first:

* every member x of P must still be able to beat ``reached``:
  deg_S(x) gains at most min(r, |adj(x) ∩ candidates|) over deg_P(x);
* a candidate v is *viable* only when 2·(deg_P(v) + min(r - 1,
  |adj(v) ∩ candidates|)) - deg(v) > ``reached``, since a set holding v
  adds r - 1 more candidates; a subset that beats ``reached`` holds
  viable vertices only;
* at least r vertices must be viable, and P's cover joined with their
  closed neighbourhoods must be the whole graph.

A node that fails a check has no subset that beats ``reached``, and is
dropped.  A child v takes the viable vertices above v as its candidates,
and only when r - 1 of them exist, so the member rule counts each gain
against vertices its parent found viable.  At r = 1 the leaves P ∪ {v}
are tested in place, where v's viability is its own slack term.  The
children pop in ascending order, so the subsets that are reached come in
combinations order, and a vertex or subtree dropped holds no answer; so
every answer, witness and ``nodes`` count is what visiting each subset
in turn gives.  The plain enumeration lives on as the test reference
``tests/oracle_reference.py``.  The pass uses nothing but the predicate
and vertex counts: no core, twin classes, bounds or solver code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb
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
    search-tree nodes (for the oracle, the subsets a plain enumeration
    examines up to the witness, or all of them).
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


# the threshold of a prune that no larger budget lifts
_NEVER = 1 << 62


class _ClassTables:
    """The k-independent twin-class tables of one graph, built once per
    ``solve``, ``spectrum`` or ``domination_number`` call and shared by
    its values of k; the class search's only view of the graph, and the
    solver's only reader of ``graph.twin_classes``.

    The tables are indexed by position in ``graph.twin_classes``.  A
    class's representative is its lowest member; its neighborhood and
    degree stand for every member's.  ``by_degree`` is the search order
    over all classes: degree descending, ties by lowest vertex."""

    def __init__(self, graph: ZdGraph):
        classes = graph.twin_classes
        self.classes = classes
        reps = [(c & -c).bit_length() - 1 for c in classes]
        self.rep_adj = [graph.adj[v] for v in reps]
        self.rep_closed = [graph.closed[v] for v in reps]
        self.degree = [graph.degree[v] for v in reps]
        self.size = [c.bit_count() for c in classes]
        # neighbour-class masks, with a clique class's own bit set
        self.nb = [sum(1 << j for j, c in enumerate(classes) if a & c)
                   for a in self.rep_adj]
        self.clique = [(nb >> i) & 1 for i, nb in enumerate(self.nb)]
        self.all_classes = (1 << len(classes)) - 1
        self.by_degree = sorted(range(len(classes)),
                                key=lambda i: (-self.degree[i], reps[i]))
        self.members = [tuple(bits(c)) for c in classes]


class _Search:
    """One k's setup and its cardinality-s rounds, shared across s.

    The setup starts the clock and runs the core fixpoint from the class
    mask ``alive``, which must hold the core, leaving the core's classes
    in ``alive`` and its vertices in ``core``; only a core that
    ``dominates`` gets the class order and its suffixes.  The chosen set
    is also kept as a vertex bitset (the first c members of each decided
    class), so deg_S of a class and the coverage of an undecided class
    are each one popcount against its representative's neighborhood."""

    def __init__(self, tables: _ClassTables, k: int, alive: int,
                 node_budget: Optional[int], deadline: Optional[float]):
        self.start = time.perf_counter()
        self.tables = tables
        self.k = k
        self.node_budget = node_budget
        self.deadline = deadline
        self.nodes = 0
        classes, size, rep_adj = tables.classes, tables.size, tables.rep_adj
        # the neighbors a member needs inside the set: ⌈(deg + k)/2⌉
        self.need = need = [_ceil_div(d + k, 2) for d in tables.degree]
        core = sum(classes[i] for i in bits(alive))
        while True:
            drop = 0
            for i in bits(alive):
                if (rep_adj[i] & core).bit_count() < need[i]:
                    drop |= classes[i]
                    alive ^= 1 << i
            if not drop:
                break
            core &= ~drop
        self.alive, self.core = alive, core
        # a class outside the core needs a neighbor inside
        self.dominates = all(rep_adj[i] & core
                             for i in bits(tables.all_classes & ~alive))
        if not self.dominates:
            return
        order = [i for i in tables.by_degree if alive >> i & 1]
        self.order = order
        # undecided classes from each position on: as a class mask, as a
        # vertex bitset, and as a member count
        npos = len(order) + 1
        self.undecided = [0] * npos
        self.rem = [0] * npos
        self.rem_size = [0] * npos
        for pos in range(len(order) - 1, -1, -1):
            i = order[pos]
            self.undecided[pos] = self.undecided[pos + 1] | (1 << i)
            self.rem[pos] = self.rem[pos + 1] | classes[i]
            self.rem_size[pos] = self.rem_size[pos + 1] + size[i]

    def _tick(self) -> None:
        self.nodes += 1
        if self.node_budget is not None and self.nodes > self.node_budget:
            raise BudgetExceeded(f"node budget {self.node_budget} exhausted")
        if self.deadline is not None and (self.nodes & 1023) == 0 \
                and time.monotonic() > self.deadline:
            raise BudgetExceeded("time budget exhausted")

    def run(self, s: int) -> tuple[Optional[int], int]:
        """Depth-first search for a cardinality-s set on an explicit stack of
        (position, chosen vertices, chosen classes, covered classes, count)
        entries; every popped node meets ``_pruned``, and one that passes
        with no picks left is the witness.  The children of a class take
        c = min(n, b), ..., 0 of its n members and are pushed smallest
        first, so the largest count is explored first.

        Returns (witness, s) when a set is found, else (None, s') where s'
        is the least cardinality above s that the round's frontier leaves
        open (see the module docstring)."""
        # the in-search clock is only polled every 1024 nodes; small
        # searches still have to notice an already-expired deadline
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded("time budget exhausted")
        t = self.tables
        order, size = self.order, t.size
        classes, members, nb = t.classes, t.members, t.nb
        nxt = _NEVER
        stack = [(0, 0, 0, 0, 0)]
        while stack:
            pos, s_mask, chosen, ccov, count = stack.pop()
            self._tick()
            b = s - count
            lift = self._pruned(pos, s_mask, chosen, ccov, b)
            if lift:
                if count + lift < nxt:
                    nxt = count + lift
                continue
            if b == 0:
                return s_mask, s
            i = order[pos]
            n = size[i]
            if n > b:
                # the children c = b + 1 .. n first appear at s + 1
                nxt = s + 1
            stack.append((pos + 1, s_mask, chosen, ccov, count))
            cls_members = members[i]
            cls = classes[i]
            bit = 1 << i
            child_ccov = ccov | nb[i]
            for c in range(1, (n if n < b else b) + 1):
                if c == n:
                    take = cls
                    child_ccov |= bit
                else:
                    take = cls & ((2 << cls_members[c - 1]) - 1)
                stack.append((pos + 1, s_mask | take, chosen | bit,
                              child_ccov, count + c))
        return None, nxt

    def _pruned(self, pos: int, s_mask: int, chosen: int, ccov: int,
                b: int) -> int:
        """0 when some completion with b more picks from the classes at
        position pos on may be a solution; at b = 0, exactly when the
        chosen set is a global defensive k-alliance.  Otherwise the
        threshold of the rule that rules them out: that rule prunes the
        node at every budget from b up to, not including, the threshold,
        and at every budget from b on when it returns ``_NEVER``."""
        if self.rem_size[pos] < b:
            return _NEVER
        t = self.tables
        rem = self.rem[pos]
        undecided = self.undecided[pos]
        rep_adj, need, nb = t.rep_adj, self.need, t.nb
        # (picks, option classes): disjoint options need separate picks
        demands = []
        m = chosen
        while m:
            low = m & -m
            m ^= low
            x = low.bit_length() - 1
            a = rep_adj[x]
            r = need[x] - (a & s_mask).bit_count()
            if r > 0:
                if r > (a & rem).bit_count():
                    return _NEVER
                if r > b:
                    return r
                demands.append((r, nb[x] & undecided))

        und = t.all_classes & ~ccov
        if und:
            # every undominated class must still be coverable from the
            # undecided classes; a class whose only possible cover is one
            # class forces a pick there, all of itself when it is an
            # independent class covering itself
            classes, size, clique = t.classes, t.size, t.clique
            forced = whole = unc = 0
            m = und
            while m:
                low = m & -m
                m ^= low
                u = low.bit_length() - 1
                unc |= classes[u]
                opts = (nb[u] | low) & undecided
                if opts == 0:
                    return _NEVER
                r = 1
                if opts & (opts - 1) == 0:
                    if opts == low and not clique[u]:
                        whole |= low
                        r = size[u]
                    else:
                        forced |= opts
                demands.append((r, opts))
            cost = (forced & ~whole).bit_count()
            for u in bits(whole):
                cost += size[u]
            if cost > b:
                return cost
            # greedy cover bound: a first member of class j covers its
            # closed neighborhood, each further one at most itself; twins
            # are covered all or none, so the uncovered vertices are the
            # unchosen members of the undominated classes
            unc &= ~s_mask
            rep_closed = t.rep_closed
            covs = []
            extra = 0
            m = undecided
            while m:
                low = m & -m
                m ^= low
                j = low.bit_length() - 1
                gain = (rep_closed[j] & unc).bit_count()
                if gain:
                    covs.append(gain)
                    if und & low and not clique[j]:
                        extra += size[j] - 1
            covs.sort(reverse=True)
            bound = sum(covs[:b])
            if b > len(covs):
                bound += min(b - len(covs), extra)
            left = unc.bit_count()
            if bound < left:
                # the least budget whose bound reaches the uncovered count
                reach = 0
                for picks, gain in enumerate(covs, 1):
                    reach += gain
                    if reach >= left:
                        return picks
                if reach + extra >= left:
                    return len(covs) + left - reach
                return _NEVER

        if len(demands) > 1:
            demands.sort(reverse=True)
            used = total = 0
            for r, opts in demands:
                if not opts & used:
                    used |= opts
                    total += r
            if total > b:
                return total
        return 0


def _alliance_lower_bound(tables: _ClassTables, k: int, floor: int) -> int:
    n = sum(tables.size)
    lb = max(1, floor)
    # any member x needs deg_S(x) >= ceil((deg(x)+k)/2) neighbors inside
    member = 1 + _ceil_div(min(tables.degree) + k, 2)
    if member > lb:
        lb = member
    # domination + per-member deficit give n <= s*s - k*s for feasible s
    s = lb
    while s <= n and s * s - k * s < n:
        s += 1
    return min(s, n)


def _solve_with_gamma(search: _Search, floor: int) -> AllianceSolution:
    """The rounds of a set-up k, from s = max(floor, analytic bounds) up
    to |core| - 1, since the core answers s = |core| itself; a failed
    round s moves s to the least cardinality its frontier leaves open.
    ``floor`` is a proven lower bound (γ_{k-1} in a spectrum).  A k whose
    core does not dominate is infeasible, with 0 nodes."""
    if not search.dominates:
        return AllianceSolution(False, None, None, 0,
                                time.perf_counter() - search.start)
    size, witness = search.core.bit_count(), search.core
    s = _alliance_lower_bound(search.tables, search.k, floor)
    while s < size:
        found, s = search.run(s)
        if found is not None:
            size, witness = s, found
            break
    return AllianceSolution(True, size, witness, search.nodes,
                            time.perf_counter() - search.start)


def _domination(graph: ZdGraph) -> AllianceSolution:
    """Minimum dominating set: at k = -max_degree every dominating set is a
    global defensive k-alliance."""
    return solve(AllianceProblem(graph, -graph.max_degree))


def domination_number(graph: ZdGraph) -> tuple[int, int]:
    """Exact domination number and one minimum dominating set (bitset)."""
    sol = _domination(graph)
    return sol.size, sol.witness


def solve(problem: AllianceProblem, *, node_budget: Optional[int] = None,
          time_budget: Optional[float] = None) -> AllianceSolution:
    """Exact γ_k^d for the graph, or an Infeasible verdict.

    Raises :class:`BudgetExceeded` when a budget runs out before the answer
    is certain.
    """
    deadline = None if time_budget is None else time.monotonic() + time_budget
    tables = _ClassTables(problem.graph)
    return _solve_with_gamma(_Search(tables, problem.k, tables.all_classes,
                                     node_budget, deadline), 1)


def _rank(m: int, n: int) -> int:
    """The 0-based position of subset m among the subsets of its size of
    n vertices, in ``itertools.combinations`` order."""
    rank = 0
    nxt, left = 0, m.bit_count()
    for v in bits(m):
        left -= 1
        # the subsets that first differ from m at v take some u in
        # [nxt, v) there and any left vertices above u: by the
        # hockey-stick identity, Σ C(n - 1 - u, left) over those u
        rank += comb(n - nxt, left + 1) - comb(n - v, left + 1)
        nxt = v + 1
    return rank


def _oracle_pass(graph: ZdGraph, lo: int, hi: int
                 ) -> dict[int, AllianceSolution]:
    """One walk over all subsets in increasing popcount order that answers
    every k in [lo, hi], dropping vertices and subtrees that answer none
    of them; see the module docstring.  Graphs above
    ``ORACLE_MAX_VERTICES`` raise :class:`CapacityError` before anything
    is enumerated."""
    n = graph.vertex_count
    if n > ORACLE_MAX_VERTICES:
        raise CapacityError(f"oracle is capped at {ORACLE_MAX_VERTICES} "
                            f"vertices, graph has {n}")
    adj = graph.adj
    deg = graph.degree
    closed = graph.closed
    full = graph.full_mask
    start = time.perf_counter()
    out: dict[int, AllianceSolution] = {}
    reached = lo - 1
    below = 0  # the subsets of fewer than s vertices
    for s in range(1, n + 1):
        # prefixes in combinations order: (candidates, set, cover, size)
        stack = [(full, 0, 0, 0)]
        while stack:
            cand, m, cov, size = stack.pop()
            r = s - size
            # every member x must still be able to lift its slack above
            # reached: deg_S(x) gains at most min(r, |adj(x) ∩ cand|)
            c = m
            while c:
                low = c & -c
                x = low.bit_length() - 1
                ax = adj[x]
                gain = (ax & cand).bit_count()
                if 2 * ((ax & m).bit_count() + (gain if gain < r else r)
                        ) - deg[x] <= reached:
                    break
                c ^= low
            if c:
                continue
            if r == 1:
                # the last pick: test the leaves m | v in place; v's own
                # slack term is the viability test at r = 1
                c = cand
                while c:
                    low = c & -c
                    c ^= low
                    v = low.bit_length() - 1
                    slack = 2 * (adj[v] & m).bit_count() - deg[v]
                    if slack <= reached or cov | closed[v] != full:
                        continue
                    leaf = m | low
                    if slack > hi:
                        slack = hi  # no k above hi is asked
                    for x in bits(m):
                        d = 2 * (adj[x] & leaf).bit_count() - deg[x]
                        if d < slack:
                            slack = d
                            if slack <= reached:
                                break
                    if slack > reached:
                        sol = AllianceSolution(True, s, leaf,
                                               below + _rank(leaf, n) + 1,
                                               time.perf_counter() - start)
                        for k in range(reached + 1, slack + 1):
                            out[k] = sol
                        reached = slack
                        if reached >= hi:
                            return out
                continue
            # so must each vertex still to add, which gains at most
            # min(r - 1, |adj(v) ∩ cand|); the others are not viable
            viable = reach = 0
            vs = []
            c = cand
            while c:
                low = c & -c
                c ^= low
                v = low.bit_length() - 1
                av = adj[v]
                gain = (av & cand).bit_count()
                if gain >= r:
                    gain = r - 1
                if 2 * ((av & m).bit_count() + gain) - deg[v] > reached:
                    viable |= low
                    reach |= closed[v]
                    vs.append(v)
            # r picks must come from the viable vertices and dominate
            if len(vs) < r or cov | reach != full:
                continue
            # a child v keeps the viable vertices above it; pushed from
            # the last, so the first pops first
            for i in range(len(vs) - r, -1, -1):
                v = vs[i]
                stack.append((viable >> v + 1 << v + 1, m | 1 << v,
                              cov | closed[v], size + 1))
        below += comb(n, s)
    sol = AllianceSolution(False, None, None, (1 << n) - 1,
                           time.perf_counter() - start)
    for k in range(reached + 1, hi + 1):
        out[k] = sol
    return out


def oracle_spectrum(graph: ZdGraph) -> dict[int, AllianceSolution]:
    """Brute-force reference for every k in [-max_degree, max_degree], from
    one enumeration of all subsets.

    Each k's feasible / size / witness / nodes are those of
    :func:`oracle_solve` at that k.  Raises :class:`CapacityError` for a
    graph above ``ORACLE_MAX_VERTICES`` before enumerating anything.
    """
    return _oracle_pass(graph, -graph.max_degree, graph.max_degree)


def oracle_solve(problem: AllianceProblem) -> AllianceSolution:
    """Brute-force reference: all subsets in increasing popcount order.

    Drops only vertices and subtrees that cannot answer k, by the rules in
    the module docstring; identical verdict semantics to :func:`solve`,
    for any integer k.  ``nodes`` is the witness's 1-based position in
    that order, the subsets a plain enumeration examines up to it, and
    2^n - 1 when infeasible.  Raises :class:`CapacityError` for a graph
    above ``ORACLE_MAX_VERTICES``.
    """
    k = problem.k
    return _oracle_pass(problem.graph, k, k)[k]


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
    tables = _ClassTables(graph)
    out: dict[int, AllianceSolution] = {}
    floor = 1
    # the (k+1)-core lies inside the k-core: start each fixpoint there
    alive = tables.all_classes
    for k in range(-graph.max_degree, graph.max_degree + 1):
        search = _Search(tables, k, alive, node_budget, deadline)
        out[k] = _solve_with_gamma(search, floor)
        floor = out[k].size or floor
        alive = search.alive
    return out
