"""Exact alliance solver against pinned values, the oracle, and invariants."""

import math
import sys
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zdalliance import solver
from zdalliance import (ORACLE_MAX_VERTICES, AllianceProblem, BudgetExceeded,
                        CapacityError, NoGraphError, bits, build_graph,
                        build_ring, domination_number, oracle_solve,
                        oracle_spectrum, solve, spectrum, zero_divisors)
from zdalliance.verify import KNOWN_GRAPH_CORPUS
from oracle_reference import reference_solve, reference_spectrum
from test_rings import ring_exprs
from vertex_search import vertex_solve, vertex_spectrum

PINNED = {
    "Z12": {-4: 2, -3: 2, -2: 2, -1: 3, 0: 4, 1: 5},
    "Z2 x Z4": {-3: 2, -2: 2, -1: 2, 0: 3, 1: 4},
    "Z9": {-1: 1, 0: 2, 1: 2},
    "Z8": {-2: 1, -1: 2, 0: 2, 1: 3},
}


def G(expr):
    return build_graph(build_ring(expr))


def test_single_values():
    assert solve(AllianceProblem(G("Z12"), -1)).size == 3
    assert solve(AllianceProblem(G("Z9"), 1)).size == 2
    assert solve(AllianceProblem(G("Z4"), 0)).size == 1
    sol = solve(AllianceProblem(G("Z8"), 2))
    assert not sol.feasible and sol.size is None and sol.witness is None
    # the alliance core decides infeasibility without a search
    assert sol.nodes == 0


@pytest.mark.parametrize("expr", sorted(PINNED))
def test_pinned_spectra(expr):
    g = G(expr)
    for k, want in PINNED[expr].items():
        sol = solve(AllianceProblem(g, k))
        assert sol.feasible and sol.size == want, (expr, k)


def test_domination():
    g = G("Z8")
    size, witness = domination_number(g)
    assert size == 1
    assert witness == g.mask_of_elements([4])
    assert domination_number(G("Z12"))[0] == 2
    assert domination_number(G("Z2 x Z4"))[0] == 2


def test_witness_is_valid_and_optimal_size():
    for expr in ["Z12", "Z2 x Z4", "Z16", "Z2 x Z2 x Z3", "Z27"]:
        g = G(expr)
        for k in range(-g.max_degree, g.min_degree + 1):
            sol = solve(AllianceProblem(g, k))
            assert sol.feasible
            assert sol.witness.bit_count() == sol.size
            assert g.is_global_defensive_alliance(sol.witness, k)


def test_solver_is_deterministic():
    g = G("Z2 x Z2 x Z3")
    a = solve(AllianceProblem(g, 0))
    b = solve(AllianceProblem(g, 0))
    assert (a.feasible, a.size, a.witness) == (b.feasible, b.size, b.witness)


def test_feasible_iff_k_at_most_min_degree():
    for expr in ["Z12", "Z8", "Z2 x Z4", "Z2 x Z2 x Z3", "Z25"]:
        g = G(expr)
        for k in range(-g.max_degree, g.max_degree + 1):
            sol = solve(AllianceProblem(g, k))
            assert sol.feasible == (k <= g.min_degree), (expr, k)


def test_spectrum_shape_and_monotonicity():
    g = G("Z12")
    sp = spectrum(g)
    assert sorted(sp) == list(range(-g.max_degree, g.max_degree + 1))
    sizes = [sp[k].size for k in range(-g.max_degree, g.min_degree + 1)]
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))
    assert all(not sp[k].feasible
               for k in range(g.min_degree + 1, g.max_degree + 1))


def test_solution_at_least_domination_number():
    for expr in ["Z12", "Z2 x Z4", "Z16", "Z30"]:
        g = G(expr)
        gamma = domination_number(g)[0]
        for k in range(-g.max_degree, g.min_degree + 1):
            assert solve(AllianceProblem(g, k)).size >= gamma


@pytest.mark.parametrize("expr", ["Z12", "Z2 x Z4", "Z8", "Z9", "Z16",
                                  "Z2 x Z2 x Z3", "Z3 x Z5", "Id(Z3, 1)",
                                  "Z2 x Z9", "Z30"])
def test_oracle_agreement_all_k(expr):
    g = G(expr)
    refs = oracle_spectrum(g)
    assert sorted(refs) == list(range(-g.max_degree, g.max_degree + 1))
    for k, slow in refs.items():
        fast = solve(AllianceProblem(g, k))
        assert (fast.feasible, fast.size) == (slow.feasible, slow.size), \
            (expr, k)
        if slow.feasible:
            assert slow.witness.bit_count() == slow.size
            assert g.is_global_defensive_alliance(slow.witness, k), (expr, k)


def _oracle_solve_is_spectrum_view(g, label):
    """oracle_solve at every k in [-D, D] is oracle_spectrum's answer, field
    by field; outside that range it agrees with solve."""
    refs = oracle_spectrum(g)
    for k in range(-g.max_degree - 3, g.max_degree + 2):
        one = oracle_solve(AllianceProblem(g, k))
        if k in refs:
            want = refs[k]
            assert (one.feasible, one.size, one.witness, one.nodes) == \
                (want.feasible, want.size, want.witness, want.nodes), (label, k)
        else:
            want = solve(AllianceProblem(g, k))
            assert (one.feasible, one.size) == (want.feasible, want.size), \
                (label, k)
        if not one.feasible:
            # every subset was examined
            assert one.nodes == 2 ** g.vertex_count - 1, (label, k)


SMALL_CORPUS = [expr for expr in KNOWN_GRAPH_CORPUS
                if G(expr).vertex_count <= 17]


@pytest.mark.parametrize("expr", SMALL_CORPUS)
def test_oracle_solve_is_a_view_of_oracle_spectrum(expr):
    _oracle_solve_is_spectrum_view(G(expr), expr)


def _fields(sol):
    return sol.feasible, sol.size, sol.witness, sol.nodes


def _oracle_matches_reference(g, label, ks):
    """oracle_spectrum, and oracle_solve at each k in ks, give the plain
    enumeration's feasible, size, witness and nodes."""
    got, want = oracle_spectrum(g), reference_spectrum(g)
    assert sorted(got) == sorted(want), label
    for k in want:
        assert _fields(got[k]) == _fields(want[k]), (label, k)
    for k in ks:
        assert _fields(oracle_solve(AllianceProblem(g, k))) == \
            _fields(reference_solve(g, k)), (label, k)


def _every_k(g):
    return range(-g.max_degree - 3, g.max_degree + 2)


@pytest.mark.parametrize("expr", SMALL_CORPUS)
def test_oracle_matches_reference_on_small_corpus(expr):
    g = G(expr)
    _oracle_matches_reference(g, expr, _every_k(g))


@pytest.mark.parametrize("expr", ["Z2 x Z2 x Z2 x Z2", "Z3 x Z3 x Z3",
                                  "Z6 x Z4", "Z2 x Z11", "Z2 x Z13"])
def test_oracle_matches_reference_where_skips_fire(expr):
    # the member, viability, domination and count rules drop most of these
    # walks; the plain enumeration of the larger two of the first three
    # takes about a second per infeasible k, so oracle_solve is checked at
    # a few k on each side of the feasible range there
    g = G(expr)
    ks = _every_k(g) if g.vertex_count <= 14 else (
        -g.max_degree - 1, 0, g.min_degree, g.min_degree + 1)
    _oracle_matches_reference(g, expr, ks)


def test_oracle_matches_reference_on_the_largest_corpus_ring():
    # 21 vertices: the plain enumeration walks all 2^21 - 1 subsets at an
    # infeasible k (about 3 s), so oracle_solve is checked at feasible k,
    # where its nodes, the witness's position, reach 401,959
    g = G("Z2 x Z3 x Z5")
    assert g.vertex_count == 21
    _oracle_matches_reference(g, "Z2 x Z3 x Z5", (-14, -1, 0, 1))


@pytest.mark.parametrize("expr, n", [("Z81", 26), ("Z2 x GF(4) x Z5", 27)])
def test_oracle_above_the_cap_agrees_with_spectrum(monkeypatch, expr, n):
    # the two corpus rings above the cap, enumerated with it raised
    g = G(expr)
    assert g.vertex_count == n
    monkeypatch.setattr(solver, "ORACLE_MAX_VERTICES", 27)
    got, want = oracle_spectrum(g), spectrum(g)
    assert sorted(got) == sorted(want), expr
    for k, sol in want.items():
        assert (got[k].feasible, got[k].size) == (sol.feasible, sol.size), \
            (expr, k)
        if sol.feasible:
            assert g.is_global_defensive_alliance(got[k].witness, k), \
                (expr, k)


def test_complete_graph_closed_form():
    # multiples of p in Z_{p^2} induce K_{p-1}
    for p, n in [(5, 4), (7, 6)]:
        g = G(f"Z{p * p}")
        assert g.vertex_count == n
        for k in range(1 - n, n):
            sol = solve(AllianceProblem(g, k))
            assert sol.size == math.ceil((n + k + 1) / 2)


def test_node_budget_exhaustion():
    g = G("Z2 x Z27")
    with pytest.raises(BudgetExceeded):
        solve(AllianceProblem(g, 1), node_budget=5)


def test_time_budget_exhaustion():
    g = G("Z2 x Z27")
    with pytest.raises(BudgetExceeded):
        solve(AllianceProblem(g, 1), time_budget=0.0)


def test_oracle_vertex_cap():
    g = G("Z81")
    assert g.vertex_count == 26
    with pytest.raises(CapacityError):
        oracle_solve(AllianceProblem(g, 0))
    # the cap is inclusive: K22 is enumerated, a 23-vertex graph is not
    at_cap = G("Z529")
    assert at_cap.vertex_count == ORACLE_MAX_VERTICES == 22
    assert oracle_solve(AllianceProblem(at_cap, 0)).size == 12
    with pytest.raises(CapacityError, match="oracle is capped at 22 "
                       "vertices, graph has 23"):
        oracle_solve(AllianceProblem(G("Z46"), 0))


def test_oracle_spectrum_vertex_cap():
    g = G("Z81")
    assert g.vertex_count == 26
    with pytest.raises(CapacityError):
        oracle_spectrum(g)
    at_cap = G("Z529")
    assert len(oracle_spectrum(at_cap)) == 2 * 21 + 1
    with pytest.raises(CapacityError, match="oracle is capped at 22 "
                       "vertices, graph has 23"):
        oracle_spectrum(G("Z46"))


def test_oracle_counts_subsets():
    g = G("Z8")
    sol = oracle_solve(AllianceProblem(g, 0))
    assert sol.feasible and sol.size == 2
    # all three singletons, then the first pair, which is the witness
    assert sol.nodes == reference_solve(g, 0).nodes == 4


def test_solution_str():
    g = G("Z8")
    assert "size 2" in str(solve(AllianceProblem(g, 0)))
    assert "infeasible" in str(solve(AllianceProblem(g, 2)))


def _frame_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_search_depth_does_not_grow_with_vertex_count():
    # Z1024 has 511 vertices; the search must neither need nor raise a
    # recursion limit anywhere near that
    g = G("Z1024")
    saved = sys.getrecursionlimit()
    limit = _frame_depth() + 100
    sys.setrecursionlimit(limit)
    try:
        sol = solve(AllianceProblem(g, 0))
        assert sol.feasible and sol.size == 256
        assert sys.getrecursionlimit() == limit
    finally:
        sys.setrecursionlimit(saved)


FACTORS = ("Z2", "Z3", "Z4", "GF(4)", "Z5", "Z7", "Z8", "Z9")
SMALL_RINGS = st.one_of(
    st.integers(4, 40).map(lambda n: f"Z{n}"),
    st.tuples(st.sampled_from(FACTORS), st.sampled_from(FACTORS))
      .map(" x ".join),
    st.sampled_from((2, 3, 5, 7)).map(lambda p: f"Id(Z{p}, 1)"),
)


@given(SMALL_RINGS)
@settings(max_examples=60, deadline=None)
def test_spectrum_agrees_with_solve(expr):
    try:
        g = G(expr)
    except NoGraphError:
        assume(False)
    assume(g.vertex_count <= 20)
    sp = spectrum(g)
    assert sorted(sp) == list(range(-g.max_degree, g.max_degree + 1))
    for k, got in sp.items():
        want = solve(AllianceProblem(g, k))
        assert (got.feasible, got.size, got.witness) == \
            (want.feasible, want.size, want.witness), (expr, k)
        assert got.nodes <= want.nodes, (expr, k)
        if got.feasible:
            assert got.witness.bit_count() == got.size
            assert g.is_global_defensive_alliance(got.witness, k), (expr, k)


@given(SMALL_RINGS)
@settings(max_examples=60, deadline=None)
def test_solve_agrees_with_oracle_and_infeasible_needs_no_search(expr):
    try:
        g = G(expr)
    except NoGraphError:
        assume(False)
    assume(g.vertex_count <= 12)
    for k in range(-g.max_degree, g.max_degree + 1):
        got = solve(AllianceProblem(g, k))
        want = oracle_solve(AllianceProblem(g, k))
        assert (got.feasible, got.size) == (want.feasible, want.size), (expr, k)
        if not got.feasible:
            assert got.nodes == 0, (expr, k)


@given(SMALL_RINGS)
@settings(max_examples=60, deadline=None)
def test_oracle_solve_is_a_view_of_oracle_spectrum_small_rings(expr):
    try:
        g = G(expr)
    except NoGraphError:
        assume(False)
    assume(g.vertex_count <= 12)
    _oracle_solve_is_spectrum_view(g, expr)


@given(SMALL_RINGS)
@settings(max_examples=60, deadline=None)
def test_oracle_matches_reference_small_rings(expr):
    try:
        g = G(expr)
    except NoGraphError:
        assume(False)
    assume(g.vertex_count <= 12)
    _oracle_matches_reference(g, expr, _every_k(g))


def test_spectrum_proves_infeasibility_without_search():
    # a search that proves k = 2 infeasible by exhausting every s up to
    # the vertex count needs over a million nodes here
    sp = spectrum(G("Z2 x Z27"))
    assert sum(sol.nodes for sol in sp.values()) < 10_000
    assert all(sol.nodes == 0 for sol in sp.values() if not sol.feasible)


# -- the class search against the vertex search it replaced ----------------

RING_FACTORS = st.one_of(st.integers(2, 16).map(lambda n: f"Z{n}"),
                         st.sampled_from(("GF(4)", "GF(8)", "GF(9)")))
RING_EXPRS = st.one_of(
    st.integers(4, 130).map(lambda n: f"Z{n}"),
    st.lists(RING_FACTORS, min_size=2, max_size=3).map(" x ".join),
    st.tuples(st.sampled_from(("Z2", "Z3", "Z4", "Z5", "GF(4)", "Z2 x Z2",
                               "Z2 x Z3")), st.integers(1, 2))
      .map(lambda t: f"Id({t[0]}, {t[1]})"),
)
REFERENCE_NODE_BUDGET = 5000
# the rings of the perfbench spectrum workload
SPECTRUM_RINGS = ("Z64", "Z2 x Z27", "Z2 x Z2 x Z2 x Z2 x Z2", "Z2 x Z4 x Z4",
                  "Z60")


def _graph_or_reject(expr, max_vertices):
    try:
        ring = build_ring(expr)
    except CapacityError:
        assume(False)
    # reject before the O(|Z|^2) graph build
    assume(1 < len(zero_divisors(ring)) <= max_vertices + 1)
    return build_graph(ring)


@given(RING_EXPRS)
@settings(max_examples=100, deadline=None)
def test_class_search_agrees_with_vertex_search(expr):
    g = _graph_or_reject(expr, 60)
    singletons = len(solver._ClassTables(g).classes) == g.vertex_count
    got_nodes = want_nodes = 0
    for k in range(-g.max_degree, g.max_degree + 1):
        try:
            want = vertex_solve(g, k, node_budget=REFERENCE_NODE_BUDGET)
        except BudgetExceeded:
            assume(False)
        got = solve(AllianceProblem(g, k))
        assert (got.feasible, got.size) == (want.feasible, want.size), (expr, k)
        got_nodes += got.nodes
        want_nodes += want.nodes
        if got.feasible:
            assert got.witness.bit_count() == got.size
            assert g.is_global_defensive_alliance(got.witness, k), (expr, k)
            # on singleton classes the tree is the vertex search's with
            # more pruning, so it finds the same first witness
            if singletons:
                assert got.witness == want.witness, (expr, k)
                assert got.nodes <= want.nodes, (expr, k)
    # per k the count tree can take a node or two more: largest count
    # first tries two members of one class where the vertex order
    # interleaves classes of equal degree (Id(Z8, 1) at k = -25: 11
    # nodes against 9); over the k range it never does
    assert got_nodes <= want_nodes, expr


@pytest.mark.parametrize("expr", sorted(set(KNOWN_GRAPH_CORPUS)))
def test_corpus_nodes_never_rise(expr):
    g = G(expr)
    for k in range(-g.max_degree, g.max_degree + 1):
        got, want = solve(AllianceProblem(g, k)), vertex_solve(g, k)
        assert (got.feasible, got.size) == (want.feasible, want.size), k
        assert got.nodes <= want.nodes, k


@pytest.mark.parametrize("expr", SPECTRUM_RINGS)
def test_spectrum_rings_nodes_never_rise(expr):
    g = G(expr)
    got, want = spectrum(g), vertex_spectrum(g)
    for k in got:
        assert (got[k].feasible, got[k].size) == \
            (want[k].feasible, want[k].size), k
        assert got[k].nodes <= want[k].nodes, k


@pytest.mark.parametrize("expr", ["Z2 x Z2 x Z2", "Z2 x Z2 x Z2 x Z2"])
def test_singleton_classes_give_the_vertex_search_witness(expr):
    g = G(expr)
    assert len(solver._ClassTables(g).classes) == g.vertex_count
    for k in range(-g.max_degree, g.max_degree + 1):
        got, want = solve(AllianceProblem(g, k)), vertex_solve(g, k)
        assert (got.size, got.witness) == (want.size, want.witness), k
        assert got.nodes <= want.nodes, k


def test_witness_takes_the_first_members_of_each_class():
    g = G("Z4096")
    sol = solve(AllianceProblem(g, 0))
    assert sol.size == 1024
    for cls in solver._ClassTables(g).classes:
        taken = sol.witness & cls
        members = list(bits(cls))
        assert taken == sum(1 << v for v in members[:taken.bit_count()])


# spectrum node totals on rings with wide twin classes (Z4096's class of
# valuation 1 has 1,024 members); a change that lowers them updates them
WIDE_CLASS_NODES = {"Z1024": 2_833, "Z2 x Z512": 61_098, "Z4096": 13_333}


@pytest.mark.parametrize("expr", sorted(WIDE_CLASS_NODES))
def test_wide_class_spectrum_nodes(expr):
    g = G(expr)
    got = spectrum(g)
    assert sum(sol.nodes for sol in got.values()) == WIDE_CLASS_NODES[expr]
    classes = solver._ClassTables(g).classes
    for k in (-g.max_degree, -1, 0, 1, g.min_degree):
        witness = got[k].witness
        assert g.is_global_defensive_alliance(witness, k), k
        for cls in classes:
            taken = witness & cls
            members = list(bits(cls))
            assert taken == sum(1 << v for v in members[:taken.bit_count()])


def test_round_memory_does_not_grow_with_class_size():
    # the stack holds one entry per decided class, each made when it pops;
    # pushing all 1,024 children of Z4096's widest class at once held
    # about 370 KB of entries at k = 0
    tables = solver._ClassTables(G("Z4096"))
    search = solver._Search(tables, 0, tables.all_classes, None, None)
    tracemalloc.start()
    try:
        sol = solver._solve_with_gamma(search, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.size == 1024
    assert peak < 64 * 1024


def test_z210_within_the_ladder_budget():
    g = G("Z210")
    for k, want in [(-1, 54), (0, 55), (1, 56)]:
        sol = solve(AllianceProblem(g, k), node_budget=20_000)
        assert sol.size == want, k
        assert g.is_global_defensive_alliance(sol.witness, k), k


# spectrum nodes per ring of the perfbench spectrum workload; 3,959 in
# all when every k was searched, 13,792 without the lex-leader rule
# (Z2^5 alone 11,021, Z2 x Z4 x Z4 1,759) and 244,622 by the vertex search
SPECTRUM_WORKLOAD_NODES = {"Z64": 121, "Z2 x Z27": 186,
                           "Z2 x Z2 x Z2 x Z2 x Z2": 1558,
                           "Z2 x Z4 x Z4": 1126, "Z60": 408}


def test_spectrum_workload_node_total():
    assert set(SPECTRUM_WORKLOAD_NODES) == set(SPECTRUM_RINGS)
    total = 0
    for expr, most in SPECTRUM_WORKLOAD_NODES.items():
        nodes = sum(sol.nodes for sol in spectrum(G(expr)).values())
        assert nodes <= most, expr
        total += nodes
    assert total <= 3_399


# -- a failed round skips the cardinalities its frontier rules out --------

# solve nodes at k = -1, 0, 1 on the perfbench ladder, under its node
# budget, when every failed round s was followed by round s + 1
STEP_BY_ONE_NODES = {
    "Z30": (18, 18, 20), "Z2 x Z9": (13, 10, 18), "Z64": (36, 36, 36),
    "Z2 x GF(4) x Z5": (26, 28, 28), "Z210": (1390, 4865, 4854),
    "Z1024": (709, 709, 709), "Z4096": (2949, 2946, 2949),
}


def test_ladder_nodes():
    total = 0
    for expr, step_by_one in STEP_BY_ONE_NODES.items():
        g = G(expr)
        for k, most in zip((-1, 0, 1), step_by_one):
            nodes = solve(AllianceProblem(g, k), node_budget=20_000).nodes
            assert nodes <= most, (expr, k)
            if expr in ("Z1024", "Z4096"):
                # hundreds of cardinalities below γ_k, all skipped
                assert nodes <= 20, (expr, k)
            total += nodes
    assert total <= 11_100


def test_budgets_meet_the_skipping_rounds():
    # Z4096 at k = 0 reaches s = 1024 in 15 nodes
    assert solve(AllianceProblem(G("Z4096"), 0), node_budget=100).size == 1024
    # Z210 at k = 0 still needs 4,751 nodes
    with pytest.raises(BudgetExceeded):
        solve(AllianceProblem(G("Z210"), 0), node_budget=1000)


@pytest.mark.parametrize("expr",
                         sorted(set(KNOWN_GRAPH_CORPUS) | set(SPECTRUM_RINGS)))
def test_spectrum_is_solve_at_every_k(expr):
    # the two start their rounds at different s, but both skip only
    # cardinalities that cannot succeed, so the round that succeeds is
    # the same search
    g = G(expr)
    for k, got in spectrum(g).items():
        want = solve(AllianceProblem(g, k))
        assert (got.feasible, got.size, got.witness) == \
            (want.feasible, want.size, want.witness), k


def _slack(g, witness):
    """min over x in the witness of 2·deg_S(x) - deg(x), vertex by vertex."""
    return min(2 * (g.adj[x] & witness).bit_count() - g.degree[x]
               for x in bits(witness))


def _spectrum_and_setups(g, **budgets):
    """spectrum(g) and the k of each ``_Search`` it builds, in order."""
    built = []

    class Counted(solver._Search):
        def __init__(self, tables, k, *rest):
            built.append(k)
            super().__init__(tables, k, *rest)

    plain = solver._Search
    solver._Search = Counted
    try:
        return spectrum(g, **budgets), built
    finally:
        solver._Search = plain


def _assert_one_k_walk(g, expr, **budgets):
    # a k gets a setup exactly when the k below it was feasible with a
    # witness whose slack stops short of k; every other k takes the
    # answer below it with 0 nodes
    got, built = _spectrum_and_setups(g, **budgets)
    lo = -g.max_degree
    assert built == [lo] + [
        k for k in range(lo + 1, g.max_degree + 1)
        if got[k - 1].feasible and _slack(g, got[k - 1].witness) < k], expr
    for k, sol in got.items():
        if k not in built:
            assert (sol.feasible, sol.size, sol.witness, sol.nodes) == \
                (got[k - 1].feasible, got[k - 1].size, got[k - 1].witness,
                 0), (expr, k)
        if sol.feasible and sol.nodes == 0:
            assert g.is_global_defensive_alliance(sol.witness, k), (expr, k)


@pytest.mark.parametrize("expr", sorted(set(KNOWN_GRAPH_CORPUS)))
def test_spectrum_sets_up_no_k_its_last_witness_or_verdict_answers(expr):
    _assert_one_k_walk(G(expr), expr)


@given(ring_exprs())
@settings(max_examples=60, deadline=None)
def test_spectrum_sets_up_no_k_answered_below_on_ring_exprs(expr):
    g = _graph_or_reject(expr, 40)
    try:
        _assert_one_k_walk(g, expr, node_budget=REFERENCE_NODE_BUDGET)
    except BudgetExceeded:
        assume(False)


@pytest.mark.parametrize("budget", (1, 5, 50))
@pytest.mark.parametrize("expr",
                         sorted(set(KNOWN_GRAPH_CORPUS) | set(SPECTRUM_RINGS)))
def test_spectrum_budget_meets_only_the_searched_ks(expr, budget):
    # a k answered by a lower k's witness or verdict takes 0 nodes, so
    # the budget runs out exactly when some searched k needs more
    g = G(expr)
    free = spectrum(g)
    if max(sol.nodes for sol in free.values()) > budget:
        with pytest.raises(BudgetExceeded):
            spectrum(g, node_budget=budget)
        return
    got = spectrum(g, node_budget=budget)
    assert {k: (s.feasible, s.size, s.witness, s.nodes)
            for k, s in got.items()} == \
        {k: (s.feasible, s.size, s.witness, s.nodes) for k, s in free.items()}


@pytest.mark.parametrize("expr",
                         sorted(set(KNOWN_GRAPH_CORPUS) | set(SPECTRUM_RINGS)))
def test_core_fixpoint_starts_from_the_last_core(expr):
    # a defensive (k+1)-alliance is a defensive k-alliance, so spectrum
    # may start each k's fixpoint from the classes the last one kept
    g = G(expr)
    tables = solver._ClassTables(g)

    def core(k, alive):
        return solver._Search(tables, k, alive, None, None).alive

    left = core(-g.max_degree, tables.all_classes)
    for k in range(-g.max_degree, g.max_degree):
        shrunk = core(k + 1, left)
        assert shrunk == core(k + 1, tables.all_classes), k
        assert shrunk & ~left == 0, k
        left = shrunk


@given(RING_EXPRS)
@settings(max_examples=100, deadline=None)
def test_spectrum_is_solve_at_every_k_on_ring_exprs(expr):
    g = _graph_or_reject(expr, 60)
    try:
        got = spectrum(g, node_budget=REFERENCE_NODE_BUDGET)
        want = {k: solve(AllianceProblem(g, k),
                         node_budget=REFERENCE_NODE_BUDGET) for k in got}
    except BudgetExceeded:
        assume(False)
    for k in got:
        assert (got[k].feasible, got[k].size, got[k].witness) == \
            (want[k].feasible, want[k].size, want[k].witness), (expr, k)


# -- an independent integer program ----------------------------------------

def _milp_size(g, k):
    """γ_k^d by scipy's MILP: x_v in {0, 1}, every closed neighborhood
    covered, and 2·Σ_{N(v)} x_u - (deg v + k)·x_v ≥ 0 for every v."""
    optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    n = g.vertex_count
    rows, cols, vals = [], [], []
    for v in range(n):
        for u in bits(g.closed[v]):
            rows.append(v)
            cols.append(u)
            vals.append(1)
        for u in bits(g.adj[v]):
            rows.append(n + v)
            cols.append(u)
            vals.append(2)
        rows.append(n + v)
        cols.append(v)
        vals.append(-(g.degree[v] + k))
    a = sparse.csr_array((vals, (rows, cols)), shape=(2 * n, n))
    lower = [1] * n + [0] * n
    res = optimize.milp(c=[1] * n, integrality=[1] * n,
                        bounds=optimize.Bounds(0, 1),
                        constraints=optimize.LinearConstraint(a, lower),
                        options={"mip_rel_gap": 0})
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return round(res.fun)


@pytest.mark.parametrize("expr, k, want", [
    ("Z210", -1, 54), ("Z210", 0, 55), ("Z210", 1, 56), ("Z4096", 0, 1024)])
def test_milp_cross_check_large(expr, k, want):
    g = G(expr)
    assert _milp_size(g, k) == want
    assert solve(AllianceProblem(g, k)).size == want


@pytest.mark.parametrize("expr", ["Z64", "Z2 x Z27", "Z60"])
def test_milp_cross_check_every_k(expr):
    g = G(expr)
    for k in range(-g.max_degree, g.max_degree + 1):
        sol = solve(AllianceProblem(g, k))
        assert _milp_size(g, k) == sol.size, k


# -- symmetry: the lex-leader rule against the same search without it ------

class _PlainTables(solver._ClassTables):
    """The class tables with no symmetry kept: the search without the
    lex-leader rule."""

    def __init__(self, graph):
        super().__init__(graph)
        self.symmetries = ()


def _without_symmetries(call, *args, **kwargs):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_ClassTables", _PlainTables)
        return call(*args, **kwargs)


def _assert_rule_keeps_witnesses(g, expr, node_budget=None):
    got = spectrum(g, node_budget=node_budget)
    want = _without_symmetries(spectrum, g, node_budget=node_budget)
    assert got.keys() == want.keys()
    for k in got:
        pairs = [(got[k], want[k]),
                 (solve(AllianceProblem(g, k), node_budget=node_budget),
                  _without_symmetries(solve, AllianceProblem(g, k),
                                      node_budget=node_budget))]
        for new, old in pairs:
            assert (new.feasible, new.size, new.witness) == \
                (old.feasible, old.size, old.witness), (expr, k)
            assert new.nodes <= old.nodes, (expr, k)


# products with repeated factors, where the class graph has automorphisms
SYMMETRIC_PRODUCTS = ("Z2 x Z2 x Z2", "Z2 x Z2 x Z2 x Z2", "Z3 x Z3 x Z3",
                      "Z2 x Z2 x Z9", "Z9 x Z9", "Z8 x Z8",
                      "Z3 x Z3 x Z3 x Z2", "Z2 x Z2 x Z2 x Z4",
                      "GF(4) x GF(4) x Z2")


@pytest.mark.parametrize("expr", sorted(set(KNOWN_GRAPH_CORPUS)
                                        | set(SPECTRUM_RINGS)
                                        | set(SYMMETRIC_PRODUCTS)))
def test_symmetry_rule_keeps_every_witness(expr):
    # the first solution of a round is the greatest vector of its size,
    # so the leader of its orbit: the rule only removes nodes
    _assert_rule_keeps_witnesses(G(expr), expr)


@given(ring_exprs())
@settings(max_examples=60, deadline=None)
def test_symmetry_rule_keeps_every_witness_on_ring_exprs(expr):
    g = _graph_or_reject(expr, 40)
    try:
        _without_symmetries(spectrum, g, node_budget=REFERENCE_NODE_BUDGET)
        for k in range(-g.max_degree, g.max_degree + 1):
            _without_symmetries(solve, AllianceProblem(g, k),
                                node_budget=REFERENCE_NODE_BUDGET)
    except BudgetExceeded:
        assume(False)
    # never more nodes per k, so never out of a budget the plain search met
    _assert_rule_keeps_witnesses(g, expr, REFERENCE_NODE_BUDGET)


def _lifts_to_an_automorphism(tables, perm):
    n = len(tables.classes)
    if sorted(perm) != list(range(n)):
        return False
    for i, j in enumerate(perm):
        image = sum(1 << perm[v] for v in bits(tables.nb[i]))
        if (tables.size[i], tables.clique[i], image) != \
                (tables.size[j], tables.clique[j], tables.nb[j]):
            return False
    return True


def _automorphisms(tables):
    return solver._class_automorphisms(tables.size, tables.clique,
                                       tables.nb, tables.degree)


@given(ring_exprs())
@settings(max_examples=60, deadline=None)
def test_kept_symmetries_are_automorphisms(expr):
    g = _graph_or_reject(expr, 130)
    tables = solver._ClassTables(g)
    perms = _automorphisms(tables)
    assert len(tables.symmetries) == len(perms)
    for perm in perms:
        assert perm != list(range(len(perm))), expr
        assert _lifts_to_an_automorphism(tables, perm), (expr, perm)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_boolean_rings_give_the_factor_transpositions(n):
    g = G(" x ".join(["Z2"] * n))
    tables = solver._ClassTables(g)
    # singleton classes; element ids are n-bit words, one bit per factor
    vertex_class = {m[0]: c for c, m in enumerate(tables.members)}
    element_vertex = {e: v for v, e in enumerate(g.element_ids)}
    want = []
    for a in range(n):
        for b in range(a + 1, n):
            perm = [0] * len(tables.classes)
            for c, (v,) in enumerate(tables.members):
                e = g.element_ids[v]
                if (e >> a & 1) != (e >> b & 1):
                    e ^= 1 << a | 1 << b
                perm[c] = vertex_class[element_vertex[e]]
            want.append(perm)
    assert sorted(_automorphisms(tables)) == sorted(want)
    assert len(want) == n * (n - 1) // 2


def _lcf_graph(shifts):
    """Neighbour masks of the cubic graph with LCF notation ``shifts``."""
    n = len(shifts)
    nb = [0] * n
    for i, shift in enumerate(shifts):
        for j in ((i + 1) % n, (i + shift) % n):
            nb[i] |= 1 << j
            nb[j] |= 1 << i
    return nb


@pytest.mark.parametrize("shifts, count", [
    # the Frucht graph: cubic, and only the identity maps it onto itself,
    # so every candidate that pinning and refinement propose is wrong
    ([-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2], 0),
    # the 3-cube: one vertex onto each of the 7 others, then with it
    # pinned a neighbour onto the 2 others, then a third pair
    ([3, -3] * 4, 10)])
def test_finder_keeps_only_checked_candidates(shifts, count):
    nb = _lcf_graph(shifts)
    n = len(nb)
    perms = solver._class_automorphisms([1] * n, [0] * n, nb, [3] * n)
    assert len(perms) == count
    for perm in perms:
        assert sorted(perm) == list(range(n))
        assert all(sum(1 << perm[v] for v in bits(nb[i])) == nb[perm[i]]
                   for i in range(n))


@pytest.mark.parametrize("expr", ["Z4096", "Z210", "Z2 x Z27", "Z60",
                                  "Z2 x GF(4) x Z5"])
def test_asymmetric_class_graphs_keep_no_symmetry(expr):
    tables = solver._ClassTables(G(expr))
    assert _automorphisms(tables) == [] and not tables.symmetries


@pytest.mark.parametrize("expr", SYMMETRIC_PRODUCTS + SPECTRUM_RINGS)
def test_symmetries_map_every_core_onto_itself(expr):
    # so the rule compares only classes that every k's search decides
    g = G(expr)
    tables = solver._ClassTables(g)
    perms = _automorphisms(tables)
    for k in range(-g.max_degree, g.max_degree + 1):
        alive = solver._Search(tables, k, tables.all_classes, None,
                               None).alive
        for perm in perms:
            assert sum(1 << perm[i] for i in bits(alive)) == alive, (expr, k)
