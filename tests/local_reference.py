"""Additive-span nilpotency computation: the test-only reference for
local_structure.

This is how the package found a ring's local structure before each
construction stated its own ``local_index``: the ring is local when 1 - a
is a unit for every non-unit a, and the index of M is found by powering
small additive generating sets.  By bilinearity M·I is the additive span
of the products g·h over additive generators g of M and h of I.
``local_structure`` must give the same maximal ideal and index.
"""

from __future__ import annotations

from typing import Iterable, Optional

from zdalliance import FiniteRing, LocalStructure, zero_divisors


def _additive_span(ring: FiniteRing, seed: Iterable[int]
                   ) -> tuple[frozenset[int], list[int]]:
    """The additive subgroup generated by ``seed``, and the members of seed
    taken as its generators.

    A seed element outside the span so far becomes a generator, and the
    span H grows to H + <x> by walking the cosets H + x, H + 2x, ... until
    one lands back in H.  The span at least doubles with each generator,
    so building it costs fewer than twice its size in ``add`` calls.
    """
    add = ring.add
    span = {0}
    gens = []
    for x in seed:
        if x in span:
            continue
        gens.append(x)
        coset = list(span)
        while True:
            coset = [add(a, x) for a in coset]
            if coset[0] in span:
                break
            span.update(coset)
    return frozenset(span), gens


def span_local_structure(ring: FiniteRing) -> Optional[LocalStructure]:
    """Maximal ideal and nilpotency index when the ring is local, else None."""
    m = zero_divisors(ring)
    one, add, neg, is_unit = ring.one, ring.add, ring.neg, ring.is_unit
    if not all(is_unit(add(one, neg(a))) for a in m):
        return None
    zero_only = frozenset({0})
    if m == zero_only:
        return LocalStructure(m, 1)
    mul = ring.mul
    m_gens = _additive_span(ring, m)[1]
    power, power_gens = m, m_gens
    index = 1
    while index <= ring.order:
        if power == zero_only:
            return LocalStructure(m, index)
        nxt, nxt_gens = _additive_span(
            ring, [mul(a, b) for a in m_gens for b in power_gens])
        if nxt == power:
            return LocalStructure(m, None)
        power, power_gens = nxt, nxt_gens
        index += 1
    return LocalStructure(m, None)
