"""Closed-form catalog: values, stated ranges, and internal identities."""

import math

import pytest

from zdalliance import (Prediction, bounds, exact, local_count_bounds,
                        out_of_range, predict_complete, predict_local_index2,
                        predict_prime_power, predict_star_bipartite,
                        predict_two_fields, predict_z2_local,
                        predict_z2_two_fields, predict_z2z2_field,
                        zero_divisor_count_bound)
from zdalliance.formulas import infeasible

PRIME_POWERS = [q for q in range(2, 65)
                if len({p for p in range(2, q + 1) if q % p == 0
                        and all(p % d for d in range(2, p))}) == 1]


def test_prime_power_list_sanity():
    assert PRIME_POWERS[:12] == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19]
    assert 64 in PRIME_POWERS and 36 not in PRIME_POWERS


def test_prediction_invariants():
    with pytest.raises(ValueError):
        exact(0)
    with pytest.raises(ValueError):
        bounds(3, 2)
    with pytest.raises(ValueError):
        Prediction("weird", 1, None, None)
    p = bounds(2, 5)
    assert (p.lower, p.upper) == (2, 5)
    assert out_of_range().kind == "out_of_range"
    assert infeasible().kind == "infeasible"


def test_complete_graph_formula():
    for n in (1, 2, 5, 8):
        for k in range(1 - n, n):
            p = predict_complete(n, k)
            assert p.kind == "exact"
            assert p.value == math.ceil((n + k + 1) / 2)
        assert predict_complete(n, n).kind == "out_of_range"
        assert predict_complete(n, -n).kind == "out_of_range"
    assert predict_complete(8, 0).value == 5


def test_local_index2_formula():
    # vertices form a complete graph on m-1 elements
    for m in (4, 5, 8, 9, 25, 27):
        for k in range(2 - m, m - 1):
            p = predict_local_index2(m, k)
            assert p.value == math.ceil((m + k) / 2)
            assert p.value == predict_complete(m - 1, k).value
        assert predict_local_index2(m, m - 1).kind == "out_of_range"
        assert predict_local_index2(m, 1 - m).kind == "out_of_range"


def test_prime_power_formula():
    assert predict_prime_power(3, 4, 0).value == 14   # ceil(27/2)
    assert predict_prime_power(3, 4, 1).value == 14
    assert predict_prime_power(2, 3, 1).value == 3    # Z8, ceil(5/2)
    assert predict_prime_power(5, 2, 0).value == 3    # Z25 via the K_4 route
    for p, n in [(2, 3), (3, 3), (5, 2), (7, 2), (3, 4)]:
        m = p ** (n - 1)
        lo = 2 - m if n > 2 else 2 - p
        hi = p - 1 if n > 2 else p - 2
        for k in range(lo, hi + 1):
            pred = predict_prime_power(p, n, k)
            assert pred.kind == "exact"
            if n > 2:
                assert pred.value == math.ceil((m + k) / 2)
        assert predict_prime_power(p, n, hi + 1).kind == "out_of_range"
        assert predict_prime_power(p, n, lo - 1).kind == "out_of_range"


def test_prime_power_n2_routes_through_index2():
    for p in (2, 3, 5, 7, 11):
        for k in range(-p, p + 1):
            assert predict_prime_power(p, 2, k) == predict_local_index2(p, k)


def test_prime_power_validation():
    with pytest.raises(ValueError):
        predict_prime_power(4, 2, 0)
    with pytest.raises(ValueError):
        predict_prime_power(3, 1, 0)


def test_two_fields_formula_f2():
    # Z2 x F_q is a star on q vertices
    for q in (3, 4, 5, 7, 9):
        for k in range(1 - q, 2):
            p = predict_two_fields(2, q, k)
            assert p.value == math.ceil((q + k + 1) / 2)
        assert predict_two_fields(2, q, 2).kind == "out_of_range"
        assert predict_two_fields(2, q, -q).kind == "out_of_range"


def test_two_fields_formula_general():
    p = predict_two_fields(4, 5, 1 - 5)
    assert p.value == 2
    assert predict_two_fields(3, 3, -1).value == 2
    assert predict_two_fields(5, 7, 4).value == \
        (5 + 4) // 2 + (7 + 4) // 2
    for f, q in [(3, 3), (3, 5), (4, 5), (5, 7), (4, 4)]:
        for k in range(1 - q, f):
            pred = predict_two_fields(f, q, k)
            assert pred.kind == "exact", (f, q, k)
        assert predict_two_fields(f, q, f).kind == "out_of_range"
        assert predict_two_fields(f, q, -q).kind == "out_of_range"
    with pytest.raises(ValueError):
        predict_two_fields(5, 3, 0)
    with pytest.raises(ValueError):
        predict_two_fields(1, 3, 0)


def test_two_fields_matches_bipartite_closed_forms():
    # the product of two fields gives K_{f-1, q-1}; the dedicated star and
    # bipartite formulas must agree with the per-k catalog at k = -1 and 0
    for f in PRIME_POWERS:
        for q in PRIME_POWERS:
            if f > q or q < 3:
                continue
            assert predict_two_fields(f, q, -1).value == \
                predict_star_bipartite(f - 1, q - 1, "alliance").value, (f, q)
            assert predict_two_fields(f, q, 0).value == \
                predict_star_bipartite(f - 1, q - 1, "strong").value, (f, q)


def test_star_bipartite_values():
    assert predict_star_bipartite(1, 6, "alliance").value == 4
    assert predict_star_bipartite(1, 6, "strong").value == 4
    assert predict_star_bipartite(1, 7, "alliance").value == 4
    assert predict_star_bipartite(2, 4, "alliance").value == 3
    assert predict_star_bipartite(2, 4, "strong").value == 3
    assert predict_star_bipartite(3, 5, "strong").value == 5
    with pytest.raises(ValueError):
        predict_star_bipartite(0, 3, "alliance")
    with pytest.raises(ValueError):
        predict_star_bipartite(2, 2, "weird")


def test_z2z2_field_formula():
    for f in (2, 3, 4, 5):
        for k in range(1 - 2 * f, 4 - 2 * f):
            assert predict_z2z2_field(f, k).value == 3
        for k in range(4 - 2 * f, 2):
            want = f + math.ceil((1 + k) / 2)
            assert predict_z2z2_field(f, k).value == want
        assert predict_z2z2_field(f, 2).kind == "out_of_range"
        assert predict_z2z2_field(f, -2 * f).kind == "out_of_range"
    assert predict_z2z2_field(5, 1).value == 6


def test_z2_two_fields_formula():
    for f, q in [(3, 3), (3, 4), (3, 5), (4, 5)]:
        n = f * q
        for k in range(1 - n, 6 - n):
            assert predict_z2_two_fields(f, q, k).value == 3
        for k in range(6 - n, 2):
            assert predict_z2_two_fields(f, q, k).value == \
                math.ceil((n + k + 1) / 2)
        assert predict_z2_two_fields(f, q, 2).kind == "out_of_range"
        assert predict_z2_two_fields(f, q, -n).kind == "out_of_range"
    with pytest.raises(ValueError):
        predict_z2_two_fields(2, 5, 0)


def test_z2_local_small_tables():
    # |Z(R)| = 2 forces R of order 4
    got = {k: predict_z2_local(4, 2, True, k).value for k in range(-3, 2)}
    assert got == {-3: 2, -2: 2, -1: 2, 0: 3, 1: 4}
    assert predict_z2_local(4, 2, True, 2).kind == "out_of_range"
    # |Z(R)| = 3 forces order 9
    got = {k: predict_z2_local(9, 3, True, k).value for k in range(-8, 2)}
    assert got == {-8: 2, -7: 2, -6: 2, -5: 3, -4: 3, -3: 4, -2: 4, -1: 5,
                   0: 5, 1: 7}
    with pytest.raises(ValueError):
        predict_z2_local(8, 2, True, 0)
    with pytest.raises(ValueError):
        predict_z2_local(4, 1, True, 0)
    with pytest.raises(ValueError):
        predict_z2_local(6, 4, True, 0)


def test_z2_local_named_cases():
    # r = 27, z = 9, index 3
    assert predict_z2_local(27, 9, False, -26).value == 2
    assert predict_z2_local(27, 9, False, -24).value == 2
    assert predict_z2_local(27, 9, False, -23).value == \
        math.ceil((27 - 23 + 1) / 2)
    assert predict_z2_local(27, 9, False, -1).value == 14
    assert predict_z2_local(27, 9, False, 0).value == 14
    assert predict_z2_local(27, 9, False, 1).value == 16
    assert predict_z2_local(27, 9, False, 2).kind == "out_of_range"


def test_z2_local_index2_extension():
    # r = 25, z = 5, maximal ideal squares to zero: exact through [-5, -2]
    for k in range(5 - 2 * 5, -1):
        p = predict_z2_local(25, 5, True, k)
        assert p.kind == "exact"
        assert p.value == math.ceil((25 + k + 1) / 2)
    # same k without the index-2 property only gets bounds
    p = predict_z2_local(25, 5, False, -3)
    assert p.kind == "bounds"
    assert p.lower == math.ceil((25 - 3 + 1) / 2)
    assert p.upper == math.ceil((25 + 10 - 3 - 1) / 2)
    assert p.lower <= p.upper


def test_z2_local_range_partition():
    for r, z, idx2 in [(25, 5, True), (27, 9, False), (8, 4, False)]:
        for k in range(1 - r, 2):
            assert predict_z2_local(r, z, idx2, k).kind in ("exact", "bounds")
        assert predict_z2_local(r, z, idx2, -r).kind == "out_of_range"
        assert predict_z2_local(r, z, idx2, 2).kind == "out_of_range"


def test_count_bound_values():
    gammas = {-4: 2, -3: 2, -2: 2, -1: 3, 0: 4, 1: 5}
    a = [zero_divisor_count_bound(gammas[k], k) for k in sorted(gammas)]
    assert a == [13, 11, 9, 13, 17, 21]
    assert min(a) == 9


def test_count_bound_refinement():
    assert zero_divisor_count_bound(2, -1) == 7
    assert zero_divisor_count_bound(2, -1, shared_neighbors=0) == 7
    assert zero_divisor_count_bound(2, -1, shared_neighbors=1) == 6
    with pytest.raises(ValueError):
        zero_divisor_count_bound(0, 0)
    with pytest.raises(ValueError):
        zero_divisor_count_bound(2, 0, shared_neighbors=-1)


def test_local_count_bound_values():
    z9 = {-1: 1, 0: 2, 1: 2}
    b = {k: local_count_bounds(z9[k], k)[0] for k in z9}
    c = {k: local_count_bounds(z9[k], k)[1] for k in z9}
    assert (min(b.values()), min(c.values())) == (3, 2)
    assert max(min(b.values()), min(c.values())) == 3

    z8 = {-2: 1, -1: 2, 0: 2, 1: 3}
    b = {k: local_count_bounds(z8[k], k)[0] for k in z8}
    c = {k: local_count_bounds(z8[k], k)[1] for k in z8}
    assert max(min(b.values()), min(c.values())) == 4
