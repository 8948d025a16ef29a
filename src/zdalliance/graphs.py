"""Zero-divisor graphs over finite commutative rings.

The graph of a ring has the nonzero zero-divisors as vertices, with x and y
adjacent exactly when xy = 0, so the neighbors of x are Ann(x) without 0
and x.  :func:`build_graph` reads each row off the ring construction's own
annihilator (``FiniteRing.ann``), at a cost of the sum of |Ann(x)| over the
vertices rather than a product test on every pair.  Vertices are ordered
by ascending ring element id, and vertex sets are plain Python ints used
as bitsets over the vertex indices, which keeps the alliance predicates to
a handful of integer operations.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .rings import CapacityError, FiniteRing, zero_divisors

MAX_VERTICES = 4096


class NoGraphError(ValueError):
    """The ring has no nonzero zero-divisors (it is a field)."""


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ZdGraph:
    """Simple graph on bitset vertex sets, built by :func:`build_graph`."""

    __slots__ = ("ring_label", "vertex_count", "element_ids", "labels",
                 "adj", "closed", "degree", "max_degree", "min_degree",
                 "full_mask")

    def __init__(self, ring_label: str, element_ids: tuple[int, ...],
                 labels: tuple[str, ...], adj: tuple[int, ...]):
        n = len(element_ids)
        self.ring_label = ring_label
        self.vertex_count = n
        self.element_ids = element_ids
        self.labels = labels
        self.adj = adj
        self.closed = tuple(a | (1 << i) for i, a in enumerate(adj))
        self.degree = tuple(a.bit_count() for a in adj)
        self.max_degree = max(self.degree)
        self.min_degree = min(self.degree)
        self.full_mask = (1 << n) - 1

    # -- vertex set plumbing ------------------------------------------------

    def mask_of_elements(self, element_ids: Iterable[int]) -> int:
        m = 0
        for e in element_ids:
            try:
                m |= 1 << self.element_ids.index(e)
            except ValueError:
                raise ValueError(f"ring element {e} is not a vertex") from None
        return m

    def elements_of(self, mask: int) -> tuple[int, ...]:
        return tuple(self.element_ids[v] for v in bits(mask))

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[v] for v in bits(mask))

    # -- alliance predicates --------------------------------------------------

    def is_dominating(self, mask: int) -> bool:
        if mask == 0:
            return False
        covered = mask
        for v in bits(mask):
            covered |= self.adj[v]
        return covered == self.full_mask

    def is_defensive_alliance(self, mask: int, k: int) -> bool:
        """Every member has at least k more neighbors inside than outside.

        k may be any integer; values outside [-max_degree, max_degree] are
        answered literally.
        """
        if mask == 0:
            raise ValueError("a defensive alliance must be nonempty")
        for v in bits(mask):
            if 2 * (self.adj[v] & mask).bit_count() < self.degree[v] + k:
                return False
        return True

    def is_global_defensive_alliance(self, mask: int, k: int) -> bool:
        return self.is_dominating(mask) and self.is_defensive_alliance(mask, k)

    # -- exports --------------------------------------------------------------

    def to_dot(self) -> str:
        lines = [f'graph "{self.ring_label}" {{']
        for i, label in enumerate(self.labels):
            lines.append(f'  n{i + 1} [label="{label}"];')
        for i in range(self.vertex_count):
            rest = self.adj[i] >> (i + 1)
            for j in bits(rest):
                lines.append(f"  n{i + 1} -- n{i + 2 + j};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_dimacs(self) -> str:
        edges = []
        for i in range(self.vertex_count):
            rest = self.adj[i] >> (i + 1)
            for j in bits(rest):
                edges.append((i + 1, i + 2 + j))
        lines = [f"c {self.ring_label}",
                 f"p edge {self.vertex_count} {len(edges)}"]
        lines.extend(f"e {a} {b}" for a, b in edges)
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        edges = sum(self.degree) // 2
        return (f"ZdGraph({self.ring_label!r}, vertices={self.vertex_count}, "
                f"edges={edges})")


def build_graph(ring: FiniteRing) -> ZdGraph:
    """Zero-divisor graph of the ring; raises NoGraphError for fields.

    The row of a vertex x is Ann(x) without 0 and x, read off the
    construction's own ``ring.ann``: the cost is the sum of |Ann(x)| over
    the vertices, and ``ring.mul`` is never called.
    """
    verts = sorted(zero_divisors(ring) - {0})
    n = len(verts)
    if n == 0:
        raise NoGraphError(f"{ring.label} is a field: no nonzero zero-divisors")
    if n > MAX_VERTICES:
        raise CapacityError(f"graph on {n} vertices exceeds the cap {MAX_VERTICES}")
    # every nonzero y with xy = 0 for a vertex x is itself a vertex
    bit_of = [0] * ring.order
    for i, e in enumerate(verts):
        bit_of[e] = 1 << i
    ann = ring.ann
    adj = []
    for e in verts:
        row = 0
        for y in ann(e):
            row |= bit_of[y]
        adj.append(row & ~bit_of[e])
    labels = tuple(ring.element_label(e) for e in verts)
    return ZdGraph(ring.label, tuple(verts), labels, tuple(adj))
