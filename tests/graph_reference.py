"""Pair-scan graph construction: the test-only reference for build_graph.

This is how the package built Γ(R) before each construction listed its own
annihilators: every pair of nonzero zero divisors is multiplied with
``ring.mul`` and joined when the product is 0, |Z|^2 / 2 products in all.
``build_graph`` must give the same vertex order and adjacency bitsets.
"""

from __future__ import annotations

from zdalliance import FiniteRing, zero_divisors


def pair_scan_graph(ring: FiniteRing) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(element_ids, adj) of the zero-divisor graph, by testing every pair."""
    verts = sorted(zero_divisors(ring) - {0})
    n = len(verts)
    mul = ring.mul
    adj = [0] * n
    for i in range(n):
        ei = verts[i]
        for j in range(i + 1, n):
            if mul(ei, verts[j]) == 0:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return tuple(verts), tuple(adj)
