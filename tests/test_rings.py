"""Ring constructors, element sets, and local structure."""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zdalliance import (CapacityError, DEFAULT_ORDER_CAP, annihilator,
                        build_ring, is_prime, is_reduced, local_structure,
                        make_gf, make_idealization, make_product, make_zn,
                        nilradical, units, zero_divisors)

from local_reference import span_local_structure
from ring_axioms import verify_ring_axioms
from strategies import AXIOM_CORPUS, MAX_ORDER, counting_mul, ring_exprs

def _brute_units(ring):
    # the definition, by brute force: x is a unit iff xy = 1 for some y
    return {x for x in range(ring.order)
            if any(ring.mul(x, y) == ring.one for y in range(ring.order))}


def _brute_annihilator(ring, x):
    # the definition, by brute force: every y with xy = 0
    return {y for y in range(ring.order) if ring.mul(x, y) == 0}


def _brute_zero_divisors(ring):
    # the definition, by brute force: x = 0, or xy = 0 for some y != 0
    return {x for x in range(ring.order)
            if x == 0 or any(ring.mul(x, y) == 0 for y in range(1, ring.order))}


def test_zn_basics():
    r = make_zn(6)
    assert r.order == 6 and r.one == 1
    assert zero_divisors(r) == {0, 2, 3, 4}
    assert units(r) == {1, 5}
    assert r.add(4, 5) == 3 and r.mul(4, 5) == 2 and r.neg(2) == 4


def test_ring_is_frozen_with_identity_equality():
    r = make_zn(6)
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.order = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.mul = lambda a, b: 0
    assert r.order == 6 and r.mul(2, 3) == 0
    assert r == r and r != make_zn(6)
    assert len({r, make_zn(6)}) == 2


def test_z12_element_sets():
    r = make_zn(12)
    assert len(zero_divisors(r)) == 8
    assert units(r) == {1, 5, 7, 11}
    assert nilradical(r) == {0, 6}
    assert not is_reduced(r)
    assert is_reduced(make_zn(6))


def test_annihilators():
    r12 = make_zn(12)
    assert annihilator(r12, 6) == {0, 2, 4, 6, 8, 10}
    assert annihilator(make_zn(8), 2) == {0, 4}
    assert annihilator(r12, 0) == set(range(12))
    assert annihilator(r12, 1) == {0}
    gf8 = make_gf(2, 3)
    assert annihilator(gf8, 0) == set(range(8))
    assert annihilator(gf8, 5) == {0}
    # Z2 x Z4: Ann((1,2)) = {(0,0), (0,2)}, Ann((0,2)) = Z2 x {0, 2}
    z2z4 = build_ring("Z2 x Z4")
    assert annihilator(z2z4, 6) == {0, 2}
    assert annihilator(z2z4, 2) == {0, 2, 4, 6}
    # Id(Z4, 2), id b + 4 m1 + 16 m2: (2; 1,0)(b; m1,m2) = 0 iff b is 0 or
    # 2, 2 m1 = -b and 2 m2 = 0
    id42 = build_ring("Id(Z4, 2)")
    assert id42.element_label(6) == "(2; 1,0)"
    assert annihilator(id42, 6) == {0, 8, 32, 40, 6, 14, 38, 46}
    # Id(Z9, 1), id b + 9 m: (3; 1)(b; m) = 0 iff b is 0, 3 or 6 and
    # 3 m = -b
    id9 = build_ring("Id(Z9, 1)")
    assert id9.element_label(12) == "(3; 1)"
    assert annihilator(id9, 12) == {0, 27, 54, 3 + 18, 3 + 45, 3 + 72,
                                    6 + 9, 6 + 36, 6 + 63}
    with pytest.raises(ValueError, match="out of range"):
        annihilator(r12, 12)


def test_gf4_table():
    r = make_gf(2, 2)
    # 2 and 3 are the two roots of x^2 + x + 1
    assert r.mul(2, 2) == 3
    assert r.mul(2, 3) == 1
    assert r.mul(3, 3) == 2
    assert r.add(2, 3) == 1
    assert r.add(2, 2) == 0
    assert zero_divisors(r) == {0}
    assert units(r) == {1, 2, 3}


def test_gf_prime_and_prime_power():
    r3 = make_gf(3, 1)
    assert r3.label == "GF(3)"
    assert r3.mul(2, 2) == 1
    r8 = make_gf(2, 3)
    assert r8.mul(4, 2) == 3  # x^3 = x + 1
    r9 = make_gf(3, 2)
    assert r9.mul(3, 3) == 2  # x^2 = -1
    for r in (r8, r9):
        assert zero_divisors(r) == {0}
        assert len(units(r)) == r.order - 1


def test_gf_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        make_gf(4, 2)
    with pytest.raises(ValueError):
        make_gf(6, 1)


def test_product_encoding():
    r = make_product([make_zn(2), make_zn(4)])
    assert r.order == 8
    assert r.label == "Z2 x Z4"
    # component ids most significant first: (a, b) -> 4a + b
    assert r.one == 5
    assert r.element_label(5) == "(1,1)"
    assert r.element_label(6) == "(1,2)"
    assert r.mul(6, 2) == 0      # (1,2)*(0,2) = (0,0)
    assert r.add(6, 7) == 1      # (1,2)+(1,3) = (0,1)
    assert r.mul(r.one, 6) == 6


def test_product_zero_divisors():
    r = build_ring("Z2 x Z3")
    # all (a,0), (0,b)
    assert zero_divisors(r) == {0, 1, 2, 3}
    assert units(r) == {4, 5}


def test_idealization_encoding():
    r = make_idealization(make_zn(3), 1)
    assert r.order == 9 and r.one == 1
    assert r.label == "Id(Z3, 1)"
    assert r.element_label(4) == "(1; 1)"
    # (a; m)(b; n) = (ab; an + bm); module part squares to zero
    assert r.mul(3, 3) == 0
    assert r.mul(4, 4) == r.add(1, 6)  # (1;1)^2 = (1; 2)
    assert zero_divisors(r) == {0, 3, 6}


def test_idealization_rank2():
    r = make_idealization(make_zn(2), 2)
    assert r.order == 8
    assert r.element_label(5) == "(1; 0,1)"
    assert zero_divisors(r) == {0, 2, 4, 6}
    assert len(units(r)) == 4


def test_local_structure():
    s8 = local_structure(make_zn(8))
    assert s8 is not None
    assert s8.maximal_ideal == frozenset({0, 2, 4, 6})
    assert s8.nilpotency_index == 3
    s9 = local_structure(make_idealization(make_zn(3), 1))
    assert s9.nilpotency_index == 2
    assert len(s9.maximal_ideal) == 3
    assert local_structure(make_zn(6)) is None
    assert local_structure(build_ring("Z2 x Z2")) is None
    assert local_structure(build_ring("Id(Z2 x Z2, 1)")) is None


def test_local_structure_of_fields():
    s = local_structure(make_gf(2, 2))
    assert s is not None
    assert s.maximal_ideal == frozenset({0})
    assert s.nilpotency_index == 1


def test_local_structure_z27():
    s = local_structure(make_zn(27))
    assert len(s.maximal_ideal) == 9
    assert s.nilpotency_index == 3


# Z_{p^e}: M^t = (p^t), zero first at t = e.
# Id(Z_{p^e}, 1): M^t = (p^t) ⊕ (p^(t-1)), zero first at t = e + 1.
@pytest.mark.parametrize("expr, index", [
    ("Z243", 5), ("Z1024", 10), ("Z3125", 5), ("Z4096", 12),
    ("Id(Z27, 1)", 4), ("Id(Z64, 1)", 7)])
def test_nilpotency_index_closed_forms(expr, index):
    assert local_structure(build_ring(expr)).nilpotency_index == index


@pytest.mark.parametrize("expr", AXIOM_CORPUS)
def test_ring_axioms(expr):
    verify_ring_axioms(build_ring(expr))


@pytest.mark.parametrize("expr", ["Z10", "Z49", "GF(27)", "Z4 x Z9",
                                  "Id(Z7, 1)", "Id(Z2, 3)"])
def test_unit_zero_divisor_dichotomy(expr):
    r = build_ring(expr)
    us, zds = _brute_units(r), _brute_zero_divisors(r)
    assert us & zds == set()
    assert us | zds == set(range(r.order))
    assert units(r) == us and zero_divisors(r) == zds


def _is_ideal(ring, subset):
    for a, b in itertools.product(subset, repeat=2):
        if ring.add(a, b) not in subset:
            return False
    for a in subset:
        for x in range(ring.order):
            if ring.mul(a, x) not in subset:
                return False
    return True


@pytest.mark.parametrize("expr", ["Z8", "Z9", "Z25", "Z27", "Z6", "Z12",
                                  "Id(Z3, 1)", "Id(Z2, 2)", "Z2 x Z4",
                                  "GF(9)", "Z49"])
def test_local_against_nonunit_ideal_oracle(expr):
    # R is local iff its nonunits form an ideal; cross-check by brute force
    r = build_ring(expr)
    nonunits = set(range(r.order)) - _brute_units(r)
    struct = local_structure(r)
    if _is_ideal(r, nonunits):
        assert struct is not None
        assert struct.maximal_ideal == frozenset(nonunits)
    else:
        assert struct is None


# In Id(Id(Z2, 1), 1) every element of M squares to 0, but M^2 != 0.
@pytest.mark.parametrize("expr", ["Z4", "Z8", "Z9", "Z25", "Id(Z3, 1)",
                                  "Id(Z2, 2)", "GF(8)", "Id(Id(Z2, 1), 1)",
                                  "Id(Z4, 1)"])
def test_nilpotency_index_oracle(expr):
    # M^t = 0 iff every t-fold product of elements of M vanishes
    r = build_ring(expr)
    struct = local_structure(r)
    m = sorted(struct.maximal_ideal)
    t = 1
    while True:
        if all(_product(r, combo) == 0 for combo in itertools.product(m, repeat=t)):
            break
        t += 1
    assert struct.nilpotency_index == t


def _product(ring, elems):
    out = ring.one
    for e in elems:
        out = ring.mul(out, e)
    return out


def test_nilradical_oracle():
    for expr in ["Z12", "Z8", "Z2 x Z4", "Id(Z3, 1)", "Z30"]:
        r = build_ring(expr)
        direct = set()
        for x in range(r.order):
            p, seen = x, set()
            while p not in seen:
                seen.add(p)
                p = r.mul(p, x)
            if 0 in seen:
                direct.add(x)
        assert nilradical(r) == direct


def test_order_cap(monkeypatch):
    with pytest.raises(CapacityError):
        make_zn(5000)
    monkeypatch.setenv("ZDK_ORDER_CAP", "64")
    with pytest.raises(CapacityError):
        make_zn(100)
    monkeypatch.setenv("ZDK_ORDER_CAP", "100")
    make_zn(100)
    monkeypatch.setenv("ZDK_ORDER_CAP", "")  # empty means the default
    make_zn(DEFAULT_ORDER_CAP)
    with pytest.raises(CapacityError):
        build_ring("Z70 x Z70")
    # caps are checked before the order is built, so huge terms fail at once
    for expr in ("GF(2, 100000)", "Id(Z3, 100000)", "GF(3, 30000000)"):
        with pytest.raises(CapacityError, match="exceeds the order cap"):
            build_ring(expr)


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1) and not is_prime(0)
    limit = 5000
    sieve = [False, False] + [True] * (limit - 2)
    for p in range(2, limit):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(sieve[p * p::p])
    assert [n for n in range(-5, limit) if is_prime(n)] == \
        [n for n in range(limit) if sieve[n]]


@given(st.integers(min_value=2, max_value=200), st.data())
@settings(max_examples=60, deadline=None)
def test_zn_arithmetic_properties(n, data):
    r = make_zn(n)
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(0, n - 1))
    assert r.add(a, b) == (a + b) % n
    assert r.mul(a, b) == (a * b) % n
    assert r.mul(a, r.add(b, c)) == r.add(r.mul(a, b), r.mul(a, c))
    assert r.add(a, r.neg(a)) == 0


def _assert_ann_is_definition(ring):
    for x in range(ring.order):
        listed = list(ring.ann(x))
        assert len(listed) == len(set(listed)), (ring.label, x)
        assert set(listed) == _brute_annihilator(ring, x), (ring.label, x)


# idealizations over non-reduced bases of odd characteristic, where the
# module condition a*m = -b*n differs from a*m = b*n
@pytest.mark.parametrize("expr", AXIOM_CORPUS + [
    "Id(Z9, 1)", "Id(Z4, 2)", "Id(Z2 x Z9, 1)"])
def test_ann_matches_definition(expr):
    _assert_ann_is_definition(build_ring(expr))


@given(ring_exprs())
@settings(max_examples=40, deadline=None)
def test_ann_matches_definition_property(expr):
    # covers Id over product bases, rank 2 and GF(q) extension fields
    _assert_ann_is_definition(build_ring(expr))


@given(ring_exprs())
@settings(max_examples=40, deadline=None)
def test_dichotomy_property(expr):
    # every construction's own is_unit agrees with the definitions
    r = build_ring(expr)
    assert r.order <= MAX_ORDER
    zds = zero_divisors(r)
    nonunits = set()
    for x in range(r.order):
        products = [r.mul(x, y) for y in range(r.order)]
        if r.one not in products:
            nonunits.add(x)
        assert r.is_unit(x) == (x not in nonunits)
        assert (x in zds) == (x == 0 or 0 in products[1:])
        assert r.mul(r.one, x) == x
    closed = all(r.add(a, b) in nonunits for a in nonunits for b in nonunits)
    assert (local_structure(r) is not None) == closed


def _same_local_structure(expr):
    ring = build_ring(expr)
    assert local_structure(ring) == span_local_structure(ring), expr


# the perfbench ladder rings, and idealizations nested two deep
@pytest.mark.parametrize("expr", [
    "Z30", "Z2 x Z9", "Z64", "Z2 x GF(4) x Z5", "Z210", "Z1024", "Z4096",
    "Id(Id(Z2, 1), 1)", "Id(Id(Z3, 1), 1)", "Id(Id(Z2, 1), 2)"])
def test_local_structure_matches_span_reference(expr):
    _same_local_structure(expr)


@given(ring_exprs())
@settings(max_examples=60, deadline=None)
def test_local_structure_matches_span_reference_property(expr):
    _same_local_structure(expr)


@pytest.mark.parametrize("expr", AXIOM_CORPUS)
def test_units_and_zero_divisors_multiply_nothing(expr):
    counted, calls = counting_mul(build_ring(expr))
    assert len(zero_divisors(counted)) + len(units(counted)) == counted.order
    assert calls[0] == 0


@pytest.mark.parametrize("expr", ["Z2 x Z4", "Z6"])
def test_non_local_ring_multiplies_nothing(expr):
    counted, calls = counting_mul(build_ring(expr))
    assert local_structure(counted) is None
    assert calls[0] == 0
