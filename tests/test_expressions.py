"""Ring expression grammar."""

import pytest

from zdalliance import (GF, CapacityError, ExprError, ExprSemanticError,
                        ExprSyntaxError, Idealization, Product, Zn,
                        build_ring, parse_ring_expr)


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


def test_trailing_input_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_ring_expr("Z4)")
    with pytest.raises(ExprSyntaxError):
        parse_ring_expr("Z4 Z5")
