"""Ring-expression strategies and helpers shared by the test modules,
which import them from here and never from one another."""

import dataclasses

from hypothesis import strategies as st

from zdalliance import is_prime

AXIOM_CORPUS = ["Z2", "Z12", "Z16", "GF(4)", "GF(8)", "GF(9)", "GF(25)",
                "Z2 x Z4", "Z3 x GF(4)", "Z2 x Z2 x Z3", "Id(Z2, 1)",
                "Id(Z3, 1)", "Id(Z2, 2)", "Id(Z5, 1)", "Id(GF(4), 1)",
                "Z2 x Id(Z3, 1)", "Z243", "Id(Z2 x Z2, 1)", "Id(Z2 x Z3, 1)"]

MAX_ORDER = 128  # the largest order ring_exprs draws
# (text, order) of every Zn and GF(q) term of order at most 64
_ATOMS = tuple([(f"Z{n}", n) for n in range(2, 65)]
               + [(f"GF({p ** k})", p ** k) for p in range(2, 65) if is_prime(p)
                  for k in range(1, 7) if p ** k <= 64])


def _atom_expr(draw, budget):
    return draw(st.sampled_from([a for a in _ATOMS if a[1] <= budget]))


def _product_expr(draw, budget):
    """2-3 atoms whose orders multiply to at most ``budget`` (>= 4)."""
    first, order = _atom_expr(draw, budget // 2)
    texts = [first]
    while len(texts) < 3 and budget // order >= 2 and (
            len(texts) < 2 or draw(st.booleans())):
        text, size = _atom_expr(draw, budget // order)
        texts.append(text)
        order *= size
    return " x ".join(texts)


@st.composite
def ring_exprs(draw):
    """Zn, GF(q), products of 2-3 of those, and Id(base, 1-2) over any of them."""
    kind = draw(st.sampled_from(["atom", "product", "id"]))
    if kind == "atom":
        return _atom_expr(draw, MAX_ORDER)[0]
    if kind == "product":
        return _product_expr(draw, MAX_ORDER)
    rank = draw(st.integers(1, 2))
    room = max(b for b in range(2, MAX_ORDER) if b ** (rank + 1) <= MAX_ORDER)
    if room >= 4 and draw(st.booleans()):
        base = _product_expr(draw, room)
    else:
        base = _atom_expr(draw, room)[0]
    return f"Id({base}, {rank})"


def counting_mul(ring):
    """A copy of ``ring`` whose ``mul`` counts its calls, and the count."""
    calls = [0]

    def mul(a, b):
        calls[0] += 1
        return ring.mul(a, b)

    return dataclasses.replace(ring, mul=mul), calls


# small factors, and the expressions the class search is checked on
RING_FACTORS = st.one_of(st.integers(2, 16).map(lambda n: f"Z{n}"),
                         st.sampled_from(("GF(4)", "GF(8)", "GF(9)")))
RING_EXPRS = st.one_of(
    st.integers(4, 130).map(lambda n: f"Z{n}"),
    st.lists(RING_FACTORS, min_size=2, max_size=3).map(" x ".join),
    st.tuples(st.sampled_from(("Z2", "Z3", "Z4", "Z5", "GF(4)", "Z2 x Z2",
                               "Z2 x Z3")), st.integers(1, 2))
      .map(lambda t: f"Id({t[0]}, {t[1]})"),
)
