"""Ring expression grammar."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zdalliance import (DEFAULT_ORDER_CAP, GF, CapacityError, ExprError,
                        ExprSemanticError, ExprSyntaxError, Idealization,
                        Product, Zn, build_ring, parse_ring_expr)
from strategies import RING_FACTORS


def test_parse_atoms():
    assert parse_ring_expr("Z12") == Zn(12)
    assert parse_ring_expr("GF(7)") == GF(7, 1)
    assert parse_ring_expr("GF(3, 2)") == GF(3, 2)
    assert parse_ring_expr("Id(Z2, 3)") == Idealization(Zn(2), 3)


def test_gf_prime_power_autofactors():
    assert parse_ring_expr("GF(8)") == GF(2, 3)
    assert parse_ring_expr("GF(9)") == GF(3, 2)
    assert parse_ring_expr("GF(32)") == GF(2, 5)
    assert parse_ring_expr("GF(121)") == GF(11, 2)


def test_parse_products():
    expr = parse_ring_expr("Z2 x GF(4) x Z5")
    assert expr == Product((Zn(2), GF(2, 2), Zn(5)))
    nested = parse_ring_expr("Z2 x (Z3 x Z5)")
    assert nested == Product((Zn(2), Product((Zn(3), Zn(5)))))


def test_whitespace_insignificant():
    a = parse_ring_expr("Z2xZ4")
    b = parse_ring_expr("  Z2   x   Z4 ")
    c = parse_ring_expr("Z2 x Z4")
    assert a == b == c
    assert parse_ring_expr("Id( Z3 ,1 )") == Idealization(Zn(3), 1)


def test_parenthesized_term():
    assert parse_ring_expr("(Z6)") == Zn(6)
    assert parse_ring_expr("((GF(4)))") == GF(2, 2)


def test_syntax_errors_carry_offsets():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_ring_expr("Z4 y Z2")
    assert exc.value.offset == 3
    assert exc.value.text == "Z4 y Z2"
    with pytest.raises(ExprSyntaxError) as exc:
        parse_ring_expr("Z2 x")
    assert exc.value.offset == 4
    with pytest.raises(ExprSyntaxError) as exc:
        parse_ring_expr("GF(4")
    assert exc.value.offset == 4
    with pytest.raises(ExprSyntaxError):
        parse_ring_expr("")
    with pytest.raises(ExprSyntaxError):
        parse_ring_expr("Zx")


def test_semantic_errors():
    with pytest.raises(ExprSemanticError):
        parse_ring_expr("Z1")
    with pytest.raises(ExprSemanticError):
        parse_ring_expr("GF(6)")       # not a prime power
    with pytest.raises(ExprSemanticError):
        parse_ring_expr("GF(4, 2)")    # composite characteristic
    with pytest.raises(ExprSemanticError):
        parse_ring_expr("GF(3, 0)")
    with pytest.raises(ExprSemanticError):
        parse_ring_expr("Id(Z2, 0)")


def test_semantic_error_offset_points_at_argument():
    with pytest.raises(ExprError) as exc:
        parse_ring_expr("Z2 x GF(6)")
    assert exc.value.offset >= 5
    assert exc.value.text == "Z2 x GF(6)"


def test_build_ring_from_text_and_ast():
    r1 = build_ring("Z2 x Z4")
    r2 = build_ring(Product((Zn(2), Zn(4))))
    assert r1.label == r2.label == "Z2 x Z4"
    assert r1.order == 8
    assert build_ring("GF(8)").label == "GF(8)"
    assert build_ring("Id(Z3, 1)").order == 9


def test_nested_product_label_keeps_grouping():
    r = build_ring("Z2 x (Z2 x Z2)")
    assert r.label == "Z2 x (Z2 x Z2)"
    flat = build_ring("Z2 x Z2 x Z2")
    assert flat.label == "Z2 x Z2 x Z2"
    # same multiplication up to the id encoding
    assert sorted(map(r.mul, range(8), range(8))) == \
        sorted(map(flat.mul, range(8), range(8)))


def test_build_ring_respects_cap(monkeypatch):
    monkeypatch.setenv("ZDK_ORDER_CAP", "64")
    with pytest.raises(CapacityError):
        build_ring("Z100")
    monkeypatch.setenv("ZDK_ORDER_CAP", "128")
    assert build_ring("Z100").order == 100
    monkeypatch.delenv("ZDK_ORDER_CAP")
    with pytest.raises(CapacityError):
        build_ring("Z5000")


# products and idealizations over the factors of the solver's ring
# expressions; a nested product keeps its parentheses
CAPPED_EXPRS = st.recursive(
    RING_FACTORS,
    lambda inner: st.one_of(
        st.lists(inner.map(lambda t: f"({t})" if " x " in t else t),
                 min_size=2, max_size=3).map(" x ".join),
        st.tuples(inner, st.integers(1, 3))
          .map(lambda t: f"Id({t[0]}, {t[1]})")),
    max_leaves=4)
SMALL_CAPS = (64, 8)


def _parse_at(cap, text):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("ZDK_ORDER_CAP", str(cap))
        return parse_ring_expr(text)


@given(CAPPED_EXPRS)
@settings(max_examples=150, deadline=None)
def test_parser_cap_matches_the_built_ring(text):
    # the constructors check the cap on their own: the ring built at the
    # default cap from the expression, parsed with the cap lifted, says
    # where the parser's gate must refuse it, at the default cap and at
    # small ones
    try:
        expr = _parse_at(2 ** 40, text)
    except CapacityError:
        assume(False)
    try:
        order = build_ring(expr).order
    except CapacityError:
        order = None  # above the default cap
    for cap in (DEFAULT_ORDER_CAP, *SMALL_CAPS):
        if order is not None and order <= cap:
            assert _parse_at(cap, text) == expr
            continue
        with pytest.raises(CapacityError) as refused:
            _parse_at(cap, text)
        name, _, rest = str(refused.value).partition(" exceeds the order cap ")
        assert rest == str(cap)
        assert name and name in text


def test_trailing_input_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_ring_expr("Z4)")
    with pytest.raises(ExprSyntaxError):
        parse_ring_expr("Z4 Z5")
