"""Exact global defensive k-alliance numbers.

A member's condition 2·deg_S(x) ≥ deg(x) + k only gets easier as S grows,
so the union of all defensive k-alliances is itself one: the largest,
called the *core* here (see Fernau & Rodríguez-Velázquez, "A survey on
alliances and related parameters in graphs", EJGTA 2, 2014).  A global
defensive k-alliance exists iff the core dominates the graph, so an
infeasible k is decided by one fixpoint, with no search.

``_ClassTables`` groups the vertices into twin classes.  False twins have
equal open neighborhoods, so their class is an independent set; true
twins have equal closed neighborhoods, so their class is a clique.  No
vertex lies in a nontrivial class of both kinds: if x, y were false twins
and x, z true twins, then z would be a neighbor of y but y not one of x.
In a zero-divisor graph, elements with equal annihilators are twins
(Spiroff & Wickham, Comm. Algebra 39, 2011), and the converse fails only
for Z2 x Z2, whose two vertices are adjacent twins with different
annihilators.  Swapping two twins is a graph automorphism, so whether a
set is a global defensive k-alliance depends only on the count c_i it
takes from each twin class i.  For a member x of class i,
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

A node is one partial count vector and one stack entry, its parent's
state plus the count c it takes, made when it pops, after it pushes back
its next sibling c - 1; so the stack holds one entry per decided class
plus one, and ``nodes`` and the node budget count all of its work.  Every
node meets these rules, leaves too: with no picks left a node passes them
exactly when it is a global defensive k-alliance, since any r_x > 0
exceeds the budget and an undominated class leaves a vertex that the
forced picks or the greedy bound cannot cover.

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
not its orbit's leader (see below)     never
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

Symmetric graphs, such as Γ(R) for a product with repeated factors,
would make the search visit every image of every partial set.
``_ClassTables`` keeps some automorphisms of the class graph: class
permutations σ that keep sizes and clique flags and map each nb(i) onto
nb(σ(i)), so that mapping each class onto its image member by member is
a graph automorphism (on Z2^n, the transpositions of factors).  σ maps a
count vector x to σ(x), with σ(x)_σ(i) = x_i, and an alliance to an
alliance of the same size.  Vectors are compared in the search's own
order: class by class in the order above, dropped classes counting 0,
the larger count being greater, so the depth-first search meets them in
descending order.  The greatest vector of an orbit is its *leader*.  A
node is pruned when some kept σ has σ(x) > x at the first class where
the two differ, every class up to it decided in both: each completion x'
of the node then has σ(x') > x' as well and is no leader (the lex-leader
rule; Margot, "Symmetry in integer linear programming", 2010).  Without
the rule, the first solution a round meets is the greatest alliance
vector of size s, since the other rules drop no solution.  Its images
are alliances of size s too, so it is its orbit's leader, and the rule
drops no node on its path: the round returns the same witness, and only
``nodes`` falls.  A symmetry prune's threshold is never: to rule out a
set of size s' with s < s' < T, follow its orbit's leader, of the same
size s', down the round-s tree instead; no symmetry prune stops that
path, and the other rules argue as above.  Automorphisms map each k's
core, the largest defensive k-alliance, onto itself, so every σ permutes
the classes the search decides at every k.  Each node carries, for each
σ still in play, how far its comparison has got, and its children resume
from there; a σ that compared lower, or equal on every class it moves,
can prune no descendant and is dropped for the subtree.  A graph without
kept symmetries carries an empty tuple and compares nothing.

The k-independent class tables, symmetries included, are built once per
``solve``, ``spectrum`` or ``domination_number`` call; each k's setup
adds its needs, its core and, when that dominates, the core's class order
and its suffixes.

``spectrum`` and ``solve`` are one pass that walks k upward over a range,
[-max_degree, max_degree] or [k, k], like the oracle's.  It uses the
exact monotonicity of the problem: a global defensive (k+1)-alliance is
also a global defensive k-alliance, so γ_k ≤ γ_{k+1}.  Each k it sets up
starts its rounds at max(analytic lower bound, γ_{k-1}).  The cores nest
too: the (k+1)-core is a defensive k-alliance, so it lies in the k-core,
and a fixpoint started from any set that holds it never drops its
members; so each k's fixpoint starts from the classes left at the last
k set up.

A witness S found at k is a global defensive k'-alliance for every k' up
to its slack σ(S), the least 2·deg_S(x) - deg(x) over its members, one
popcount per class it meets, as its representative is a member.  So
γ_{k'} = |S| for k < k' ≤ σ(S), and S is also the witness a search at k'
would return.  Without the symmetry rule, that search's first solution
is the greatest alliance count vector of size |S| at k'; every
k'-alliance is a k-alliance, and S's vector, the greatest at k, is one,
so it is the greatest at k' as well, and the symmetry rule keeps it, as
above (when S is the k-core, the only k-alliance of its size, it is the
k'-core too, which the search at k' returns without a round).  The pass answers those k' with S and 0 nodes
and sets up no ``_Search`` for them.  Once a k is infeasible, every
higher k is too, and takes the same verdict with no setup.

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
from operator import itemgetter
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
    search-tree nodes, 0 for a k that ``spectrum`` answers from a lower
    k's witness or verdict (for the oracle, the subsets a plain
    enumeration examines up to the witness, or all of them).
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
    its values of k; the class search's only view of the graph.

    One pass groups the vertices by open neighborhood, and those left
    alone by closed neighborhood; the groups, ordered by lowest vertex,
    are the classes, and every table is indexed by that position.  A
    class's members are ascending, its representative is its lowest
    member, and the representative's neighborhood and degree stand for
    every member's.  ``by_degree`` is the search order over all classes:
    degree descending, ties by lowest vertex.  ``symmetries`` holds the
    automorphisms ``_class_automorphisms`` finds, each in the form the
    search compares count vectors with (see the module docstring)."""

    def __init__(self, graph: ZdGraph):
        by_adj: dict[int, list[int]] = {}
        for v, a in enumerate(graph.adj):
            by_adj.setdefault(a, []).append(v)
        by_closed: dict[int, list[int]] = {}
        members = []
        for group in by_adj.values():
            if len(group) > 1:
                members.append(group)
            else:
                v = group[0]
                by_closed.setdefault(graph.closed[v], []).append(v)
        members.extend(by_closed.values())
        members.sort()  # disjoint, so ordered by lowest vertex
        self.members = members
        self.classes = classes = [sum(1 << v for v in m) for m in members]
        reps = [m[0] for m in members]
        self.rep_adj = [graph.adj[v] for v in reps]
        self.rep_closed = [graph.closed[v] for v in reps]
        self.degree = [graph.degree[v] for v in reps]
        self.size = [len(m) for m in members]
        # neighbour-class masks, with a clique class's own bit set
        self.nb = [sum(1 << j for j, c in enumerate(classes) if a & c)
                   for a in self.rep_adj]
        self.clique = [(nb >> i) & 1 for i, nb in enumerate(self.nb)]
        self.all_classes = (1 << len(classes)) - 1
        self.by_degree = sorted(range(len(classes)),
                                key=lambda i: (-self.degree[i], reps[i]))
        # each kept automorphism σ as a chain of steps (rank, both, here,
        # there, next step) comparing σ(x) with a count vector x in search
        # order: at class j (vertices ``here``), σ(x) holds x at
        # i = σ⁻¹(j) (``there``).  Both counts are decided once no vertex
        # of ``both`` is undecided, at the latest past the classes of rank
        # up to max(rank i, rank j).  The chains, by that rank, are every
        # search's opening comparisons.
        self.symmetries = ()
        perms = _class_automorphisms(self.size, self.clique, self.nb,
                                     self.degree)
        if not perms:
            return
        rank = {i: r for r, i in enumerate(self.by_degree)}
        chains = []
        for perm in perms:
            moved = sorted((rank[j], i, j) for i, j in enumerate(perm)
                           if i != j)
            step = None
            for r, i, j in reversed(moved):
                step = (max(r, rank[i]), classes[i] | classes[j],
                        classes[j], classes[i], step)
            chains.append(step)
        self.symmetries = tuple(sorted(chains, key=itemgetter(0)))


def _refine(nb: list[int], cells: dict, fixed: dict, queue: list[int]
            ) -> None:
    """Split a partition of the classes by the splitters in ``queue``
    until none splits a cell: a splitter w parts each cell by how many
    neighbour classes in w its members have.  ``cells`` maps the key of
    each cell of several classes to its class bitset and ``fixed`` the key
    of each cell of one class to that class; both change in place.  A cell
    K splits into the parts K + (0,), K + (1,), ... in ascending count
    order, so the keys and their order follow from the partition's shape
    alone: an isomorphism that maps one input onto another maps the
    outputs, key for key."""
    while queue:
        w = queue.pop()
        # the counts, bit-sliced: class i's count has bit l when i is in
        # slices[l]; adding nb(v) is a ripple-carry add on every class
        slices: list[int] = []
        while w:
            low = w & -w
            w ^= low
            carry = nb[low.bit_length() - 1]
            for level, sl in enumerate(slices):
                slices[level] = sl ^ carry
                carry &= sl
                if not carry:
                    break
            else:
                slices.append(carry)
        touch = 0
        for sl in slices:
            touch |= sl
        for key, x in [item for item in cells.items() if item[1] & touch]:
            parts = [x]
            for sl in reversed(slices):  # high bit first: ascending counts
                parts = [q for p in parts for q in (p & ~sl, p & sl) if q]
            if len(parts) == 1:
                continue
            del cells[key]
            for j, p in enumerate(parts):
                if p & (p - 1):
                    cells[key + (j,)] = p
                else:
                    fixed[key + (j,)] = p.bit_length() - 1
            # the parts but one largest: with the counts into x, known or
            # still queued, they give the counts into the last
            big = max(parts, key=int.bit_count)
            queue.extend(p for p in parts if p != big)


def _pin(nb: list[int], cells: dict, fixed: dict, key: tuple, v: int
         ) -> tuple[dict, dict]:
    """A copy of the equitable partition with class v of cell ``key`` made
    a cell of its own, ahead of the rest of that cell, and refined."""
    cells, fixed = dict(cells), dict(fixed)
    rest = cells.pop(key) ^ 1 << v
    fixed[key + (0,)] = v
    if rest & (rest - 1):
        cells[key + (1,)] = rest
    else:
        fixed[key + (1,)] = rest.bit_length() - 1
    _refine(nb, cells, fixed, [1 << v])
    return cells, fixed


def _class_automorphisms(size: list[int], clique: list[int], nb: list[int],
                         degree: list[int]) -> list[list[int]]:
    """Some class permutations π that lift to graph automorphisms: π keeps
    ``size`` and ``clique`` and maps each nb(i) onto nb(π(i)), so a
    bijection of each class onto its image preserves every adjacency.

    Colour refinement from (size, clique, degree) gives an equitable
    partition.  Its first cell of several classes, with first member a,
    yields one candidate per other member b: a pinned on one side and b
    on the other, each side refined, then wherever the two sides still
    hold a cell of several classes, the same class pinned on both sides
    (one of the cell's own on each when the cell shares none) until every
    cell holds one class, the cell of a key on one side mapping onto the
    cell of that key on the other.  Then a is pinned for good and the next
    such cell is taken.  Every candidate is checked before it is kept, so
    a refinement that misleads only loses a symmetry.  On Z2^n this gives
    the n(n-1)/2 transpositions of the factors."""
    n = len(size)
    keys = list(zip(size, clique, degree))
    if len(set(keys)) == n:  # no two classes can be swapped
        return []
    seed: dict[tuple[int, int, int], int] = {}
    for i, key in enumerate(keys):
        seed[key] = seed.get(key, 0) | 1 << i
    cells, fixed = {}, {}
    for j, key in enumerate(sorted(seed)):
        x = seed[key]
        if x & (x - 1):
            cells[(j,)] = x
        else:
            fixed[(j,)] = x.bit_length() - 1
    _refine(nb, cells, fixed, list(seed.values()))
    found = []
    while cells:
        key = min(cells)
        x = cells[key]
        a = (x & -x).bit_length() - 1
        pinned = _pin(nb, cells, fixed, key, a)
        for b in bits(x ^ 1 << a):
            (lc, lf), (rc, rf) = pinned, _pin(nb, cells, fixed, key, b)
            while lc:
                k2 = min(lc)
                u, w = lc[k2], rc.get(k2, 0)
                if u.bit_count() != w.bit_count():
                    break
                if u & w:
                    u = w = u & w
                lc, lf = _pin(nb, lc, lf, k2, (u & -u).bit_length() - 1)
                rc, rf = _pin(nb, rc, rf, k2, (w & -w).bit_length() - 1)
            else:
                if lf.keys() == rf.keys():
                    perm = [0] * n
                    for k2, i in lf.items():
                        perm[i] = rf[k2]
                    if _lifts(perm, size, nb):
                        found.append(perm)
        cells, fixed = pinned
    return found


def _lifts(perm: list[int], size: list[int], nb: list[int]) -> bool:
    """Whether the class permutation keeps sizes and maps every
    neighbour-class mask onto its image's; a clique class's mask holds
    its own bit, so clique flags are kept too."""
    for i, j in enumerate(perm):
        if size[i] != size[j]:
            return False
        image = 0
        m = nb[i]
        while m:
            low = m & -m
            m ^= low
            image |= 1 << perm[low.bit_length() - 1]
        if image != nb[j]:
            return False
    return True


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
        nodes (position, chosen vertices, chosen classes, covered classes,
        count, open symmetry comparisons, c): the parent's state plus c
        members of class order[position - 1].  Popping one with c > 0 first
        pushes back its next sibling, c - 1, so the children c = min(n, b),
        ..., 0 of a class pop largest first.  Every node meets the symmetry
        rule and ``_pruned``; one that passes with no picks left is the
        witness, and any other pushes its first child.

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
        stack = [(0, 0, 0, 0, 0, t.symmetries, 0)]
        while stack:
            pos, s_mask, chosen, ccov, count, cmp, c = stack.pop()
            if c:
                stack.append((pos, s_mask, chosen, ccov, count, cmp, c - 1))
                i = order[pos - 1]
                s_mask |= classes[i] & ((2 << members[i][c - 1]) - 1)
                chosen |= 1 << i
                ccov |= nb[i] if c < size[i] else nb[i] | 1 << i
                count += c
            self._tick()
            # compare once the earliest open step, by rank, is decided
            if cmp and not cmp[0][1] & self.rem[pos]:
                cmp = self._compare(cmp, self.rem[pos], s_mask)
                if cmp is None:
                    continue  # not its orbit's leader: threshold never
            b = s - count
            lift = self._pruned(pos, s_mask, chosen, ccov, b)
            if lift:
                if count + lift < nxt:
                    nxt = count + lift
                continue
            if b == 0:
                return s_mask, s
            n = size[order[pos]]
            if n > b:  # the children c = b + 1 .. n first appear at s + 1
                nxt, n = s + 1, b
            stack.append((pos + 1, s_mask, chosen, ccov, count, cmp, n))
        return None, nxt

    def _compare(self, cmp: tuple, rem: int, s_mask: int
                 ) -> Optional[tuple]:
        """Carry each open comparison of σ(x) with x, the next step of its
        chain, through the classes decided outside ``rem``: None when some
        σ(x) is greater at its first difference, else the steps still
        open, by rank.  A σ whose image is smaller there, or equal at
        every class it moves, can prune no descendant, and is dropped."""
        still = []
        for step in cmp:
            while not step[1] & rem:
                _, _, here, there, step_after = step
                d = (s_mask & there).bit_count() - (s_mask & here).bit_count()
                if d > 0:
                    return None
                if d or step_after is None:
                    break
                step = step_after
            else:
                still.append(step)
        still.sort(key=itemgetter(0))
        return tuple(still)

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
    k = problem.k
    return _search_pass(_ClassTables(problem.graph), k, k, node_budget,
                        deadline)[k]


def _search_pass(tables, lo: int, hi: int, node_budget: Optional[int],
                 deadline: Optional[float]) -> dict[int, AllianceSolution]:
    """One walk of k upward over [lo, hi] on the class tables: each k it
    sets up starts its core fixpoint from the classes the last setup left
    and its rounds at the answer for k - 1.  A witness answers every k up
    to its slack with 0 nodes, and an infeasible k answers every k above
    it; no ``_Search`` is built for either (see the module docstring)."""
    out: dict[int, AllianceSolution] = {}
    floor, alive, k = 1, tables.all_classes, lo
    while k <= hi:
        search = _Search(tables, k, alive, node_budget, deadline)
        sol = out[k] = _solve_with_gamma(search, floor)
        if not sol.feasible:
            out.update(dict.fromkeys(range(k + 1, hi + 1), sol))
            break
        floor, alive = sol.size, search.alive
        start = time.perf_counter()
        # the witness holds each class it meets by its first members, the
        # representative among them, so one popcount per class gives σ
        witness = sol.witness
        slack = min(2 * (tables.rep_adj[i] & witness).bit_count()
                    - tables.degree[i]
                    for i, cls in enumerate(tables.classes) if cls & witness)
        slack = min(slack, hi)
        same = AllianceSolution(True, sol.size, witness, 0,
                                time.perf_counter() - start)
        out.update(dict.fromkeys(range(k + 1, slack + 1), same))
        k = slack + 1
    return out


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
    alliance core without a search.  A witness also answers every higher
    k up to its slack, and an infeasible k every higher k, each with 0
    nodes and no search.  ``node_budget`` counts nodes per searched k;
    ``time_budget`` covers the whole spectrum.
    """
    deadline = None if time_budget is None else time.monotonic() + time_budget
    return _search_pass(_ClassTables(graph), -graph.max_degree,
                        graph.max_degree, node_budget, deadline)
