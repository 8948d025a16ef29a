"""Zero-divisor graph construction, bitset helpers, predicates, exports."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zdalliance import (CapacityError, NoGraphError, annihilator, bits,
                        build_graph, build_ring, zero_divisors)
from zdalliance.solver import _ClassTables
from zdalliance.verify import KNOWN_GRAPH_CORPUS

from graph_reference import pair_scan_graph
from strategies import AXIOM_CORPUS, counting_mul, ring_exprs


def G(expr):
    return build_graph(build_ring(expr))


def test_z8_is_a_path():
    g = G("Z8")
    assert g.labels == ("2", "4", "6")
    assert g.element_ids == (2, 4, 6)
    assert g.degree == (1, 2, 1)
    assert g.min_degree == 1 and g.max_degree == 2
    assert g.adj[1] == 0b101
    assert g.closed[0] == 0b011


def test_z6_is_a_path():
    g = G("Z6")
    assert g.labels == ("2", "3", "4")
    # 2-3-4: products 2*3 = 0, 3*4 = 0, 2*4 = 2
    assert g.degree == (1, 2, 1)


def test_z4_single_vertex():
    g = G("Z4")
    assert g.vertex_count == 1
    assert g.labels == ("2",)
    assert g.degree == (0,)
    assert g.full_mask == 1


def test_fields_have_no_graph():
    for expr in ["Z7", "GF(4)", "GF(9)", "Z2"]:
        with pytest.raises(NoGraphError):
            G(expr)


def test_z12_structure():
    g = G("Z12")
    assert g.labels == ("2", "3", "4", "6", "8", "9", "10")
    assert g.max_degree == 4          # the vertex 6
    assert g.degree[g.labels.index("6")] == 4
    assert g.min_degree == 1


def test_mask_helpers_round_trip():
    g = G("Z12")
    mask = g.mask_of_elements([3, 4, 6])
    assert g.elements_of(mask) == (3, 4, 6)
    assert g.labels_of(mask) == ("3", "4", "6")
    assert list(bits(mask)) == sorted(
        g.labels.index(l) for l in ("3", "4", "6"))
    with pytest.raises(ValueError, match="ring element 5 is not a vertex"):
        g.mask_of_elements([4, 5])


def test_bits_iterates_set_positions():
    assert list(bits(0b101001)) == [0, 3, 5]
    assert list(bits(0)) == []


def test_domination_predicate():
    g = G("Z8")
    assert g.is_dominating(g.mask_of_elements([4]))
    assert not g.is_dominating(g.mask_of_elements([2]))
    assert not g.is_dominating(0)


def test_defensive_predicate_rejects_empty():
    g = G("Z8")
    with pytest.raises(ValueError):
        g.is_defensive_alliance(0, 0)


def test_defensive_alliance_examples():
    g = G("Z2 x Z4")
    # (1,0) and (1,2) are not adjacent, so the pair defends nothing
    bad = g.mask_of_elements([4, 6])
    assert not g.is_defensive_alliance(bad, -1)
    assert not g.is_global_defensive_alliance(bad, -1)
    # (1,0) and (0,2) are adjacent, dominate everything, and each member
    # keeps at least half of its degree minus one inside
    good = g.mask_of_elements([4, 2])
    assert g.is_defensive_alliance(good, -1)
    assert g.is_global_defensive_alliance(good, -1)
    assert g.is_dominating(good)


def test_full_set_feasible_exactly_up_to_min_degree():
    for expr in ["Z12", "Z2 x Z4", "Z16"]:
        g = G(expr)
        assert g.is_global_defensive_alliance(g.full_mask, g.min_degree)
        assert not g.is_global_defensive_alliance(g.full_mask,
                                                  g.min_degree + 1)


def test_dot_export_is_pinned():
    g = G("Z8")
    expected = ('graph "Z8" {\n'
                '  n1 [label="2"];\n'
                '  n2 [label="4"];\n'
                '  n3 [label="6"];\n'
                '  n1 -- n2;\n'
                '  n2 -- n3;\n'
                '}\n')
    assert g.to_dot() == expected
    assert g.to_dot() == g.to_dot()


def test_dimacs_export_is_pinned():
    assert G("Z8").to_dimacs() == "c Z8\np edge 3 2\ne 1 2\ne 2 3\n"
    assert G("Z4").to_dimacs() == "c Z4\np edge 1 0\n"


def test_star_structure():
    # Z2 x F is a star centered at (1,0)
    for q in (3, 5, 7):
        g = G(f"Z2 x Z{q}")
        assert g.vertex_count == q
        assert sorted(g.degree, reverse=True)[0] == q - 1
        assert g.degree.count(1) == q - 1


def test_complete_bipartite_structure():
    g = G("Z3 x Z5")
    # parts (a,0) and (0,b): sizes 2 and 4, all cross edges
    assert g.vertex_count == 6
    assert sorted(g.degree) == [2, 2, 2, 2, 4, 4]
    edges = sum(g.degree) // 2
    assert edges == 8


def test_complete_structure():
    # Z_{p^2} on the multiples of p, and idealizations of fields, are complete
    for expr, n in [("Z25", 4), ("Z49", 6), ("Id(Z2, 2)", 3), ("Id(Z5, 1)", 4)]:
        g = G(expr)
        assert g.vertex_count == n
        assert all(d == n - 1 for d in g.degree)


def test_adjacency_is_zero_product():
    g = G("Z12")
    ring = build_ring("Z12")
    for i in range(g.vertex_count):
        for j in range(g.vertex_count):
            adjacent = bool(g.adj[i] >> j & 1)
            want = i != j and ring.mul(g.element_ids[i], g.element_ids[j]) == 0
            assert adjacent == want


def test_vertex_cap():
    with pytest.raises(CapacityError):
        G("Z2 x Z3 x Z5 x Z7 x Z11 x Z2")


@given(st.sampled_from(["Z12", "Z2 x Z4", "Z2 x Z2 x Z3"]), st.data())
@settings(max_examples=40, deadline=None)
def test_alliance_predicate_matches_definition(expr, data):
    g = G(expr)
    mask = data.draw(st.integers(1, g.full_mask))
    k = data.draw(st.integers(-g.max_degree, g.max_degree))
    want = all(2 * (g.adj[v] & mask).bit_count() >= g.degree[v] + k
               for v in bits(mask))
    assert g.is_defensive_alliance(mask, k) == want


# the rings of the perfbench ladder up to Z1024 and of its spectrum
# workload, and rings with both kinds of nontrivial twin class
TWIN_RINGS = (
    "Z30", "Z2 x Z9", "Z64", "Z2 x GF(4) x Z5", "Z210", "Z1024",
    "Z2 x Z27", "Z2 x Z2 x Z2 x Z2 x Z2", "Z2 x Z4 x Z4", "Z60",
    "Z23 x Z29", "Id(Z2 x Z2, 1)", "Id(Z4, 1)", "Z4 x Z4", "Z2 x Z2 x Z4",
)


def _assert_annihilator_classes(ring):
    """The class search's twin classes are the annihilator classes, each
    all false twins or all true twins; Z2 x Z2 is the one exception."""
    g = build_graph(ring)
    classes = _ClassTables(g).classes
    by_ann = {}
    for v, e in enumerate(g.element_ids):
        key = annihilator(ring, e)
        by_ann[key] = by_ann.get(key, 0) | (1 << v)
    if g.vertex_count == 2 and g.adj[0] and len(by_ann) == 2:
        # Z2 x Z2, however written: two adjacent twins
        assert classes == [0b11]
        return
    assert classes == sorted(by_ann.values(), key=lambda c: c & -c)
    for cls in classes:
        members = list(bits(cls))
        if len(members) > 1:
            # all false twins (an independent set) or all true twins (a clique)
            same = {g.adj[v] for v in members}, {g.closed[v] for v in members}
            assert 1 in (len(same[0]), len(same[1])), (ring.label, members)


@pytest.mark.parametrize("expr", sorted(set(KNOWN_GRAPH_CORPUS + TWIN_RINGS)))
def test_twin_classes_are_annihilator_classes(expr):
    _assert_annihilator_classes(build_ring(expr))


@given(ring_exprs())
@settings(max_examples=60, deadline=None)
def test_twin_classes_are_annihilator_classes_property(expr):
    ring = build_ring(expr)
    assume(len(zero_divisors(ring)) > 1)
    _assert_annihilator_classes(ring)


@pytest.mark.parametrize("expr, count", [
    ("Z210", 14), ("Z1024", 9), ("Z4096", 11), ("Z60", 10),
    ("Z2 x Z2 x Z2 x Z2 x Z2", 30), ("Z23 x Z29", 2)])
def test_twin_class_counts(expr, count):
    assert len(_ClassTables(G(expr)).classes) == count


def test_twin_classes_of_both_kinds():
    # Z8: 2 and 6 share the neighborhood {4} and are not adjacent
    assert _ClassTables(G("Z8")).classes == [0b101, 0b010]
    # Id(Z3, 1) is K2: its two vertices are adjacent twins
    assert _ClassTables(G("Id(Z3, 1)")).classes == [0b11]
    # so is Z2 x Z2, the one ring whose twins can differ in annihilator
    ring = build_ring("Z2 x Z2")
    g = build_graph(ring)
    assert _ClassTables(g).classes == [0b11]
    assert annihilator(ring, g.element_ids[0]) != \
        annihilator(ring, g.element_ids[1])


# every ring here takes the pair scan well under a second
REFERENCE_RINGS = sorted(set(KNOWN_GRAPH_CORPUS + TWIN_RINGS + (
    "Z4096", "Z2310", "Id(Z2 x Z2, 2)", "Id(GF(8), 2)",
    "Z8 x Id(Z3, 1) x GF(8)", "Id(Z9, 1)")))


@pytest.mark.parametrize("expr", REFERENCE_RINGS)
def test_graph_matches_pair_scan(expr):
    ring = build_ring(expr)
    g = build_graph(ring)
    assert (g.element_ids, g.adj) == pair_scan_graph(ring)


@given(ring_exprs())
@settings(max_examples=60, deadline=None)
def test_graph_matches_pair_scan_property(expr):
    ring = build_ring(expr)
    element_ids, adj = pair_scan_graph(ring)
    if not element_ids:
        with pytest.raises(NoGraphError):
            build_graph(ring)
        return
    g = build_graph(ring)
    assert (g.element_ids, g.adj) == (element_ids, adj)


@pytest.mark.parametrize("expr", AXIOM_CORPUS + ["Z4096"])
def test_build_graph_multiplies_nothing(expr):
    counted, calls = counting_mul(build_ring(expr))
    for x in range(counted.order):
        annihilator(counted, x)
    if zero_divisors(counted) == {0}:
        with pytest.raises(NoGraphError):
            build_graph(counted)
    else:
        build_graph(counted)
    assert calls[0] == 0
