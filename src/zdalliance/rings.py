"""Finite commutative rings with identity on canonical integer element ids.

Every ring places its elements on the ids ``0 .. order-1`` with id 0 the
additive identity.  A ring is a frozen record of its construction's own
functions: ``ring.mul(a, b)`` calls the construction's multiplication
directly, so memory stays linear in the order.  Each construction also
decides its own units (``ring.is_unit``), lists its own annihilators
(``ring.ann``) and states its own local structure (``ring.local_index``,
the least t with M^t = 0 for the maximal ideal M of a local ring, None
when the ring is not local); every element of a finite commutative ring
is a unit or a zero divisor, so ``zero_divisors``, ``units``,
``annihilator`` and ``local_structure`` read them off those fields and
never call ``ring.mul``.  Four constructions are provided:

* ``make_zn(n)``        -- residues modulo ``n``; id i is the residue i,
                           a unit iff gcd(i, n) = 1; Ann(i) is the
                           multiples of n / gcd(i, n).  Local iff
                           n = p^e, with M = (p) and local index e.
* ``make_gf(p, k)``     -- the field of order p**k, as polynomials modulo
                           the lexicographically smallest monic irreducible
                           of degree k (ids encode coefficients base p, so
                           id 1 is the constant polynomial 1); every
                           nonzero element is a unit, so Ann(0) is the
                           field and Ann(a) = {0} otherwise.  Local with
                           M = 0, so local index 1.
* ``make_product(fs)``  -- componentwise arithmetic; ids are the mixed-radix
                           encoding of component ids, first factor most
                           significant.  The multiplicative identity of a
                           product is ``ring.one``, which is not id 1.  An
                           element is a unit iff every component is, and
                           Ann(x) is the product of the components'
                           annihilators.  Never local (local index None).
* ``make_idealization(R, r)`` -- R (+) R**r with (a,n)(b,m) = (ab, am+bn);
                           the module part squares to zero.  Ids place the
                           base component least significant, so the
                           identity (1, 0) has the id ``R.one``.  (a, n) is
                           a unit iff a is, with inverse (a^-1, -a^-2 n).
                           Ann((a, n)) is every (b, m) with b in Ann_R(a)
                           and a*m_i = -b*n_i in each coordinate, read off
                           a table of the preimages of m -> a*m.  Local iff
                           R is, with local index one more than R's.

Constructions are pure and deterministic: the same parameters always yield
the same element encoding, which downstream layers rely on for stable
vertex orders and reports.  All constructors enforce one order cap and
check it before an order is built, so a term far above the cap fails at
once with a ``CapacityError`` that names the term; ``capped_order`` is
that check, and ``expressions`` and ``verify`` call it before they factor
a number of an entry or raise one to a power, so that no number above
the cap reaches trial division.  Only this module reads
the cap, so the CLI, ``verify`` and library callers all meet the same one:
ZDK_ORDER_CAP (an integer >= 2) when set, else DEFAULT_ORDER_CAP (4096).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from itertools import repeat
from math import gcd
from typing import Callable, Iterable, Optional, Sequence

DEFAULT_ORDER_CAP = 4096


class CapacityError(ValueError):
    """A construction or operation exceeds its configured size cap."""


def order_cap() -> int:
    """ZDK_ORDER_CAP when set and non-empty, else DEFAULT_ORDER_CAP."""
    raw = os.environ.get("ZDK_ORDER_CAP") or str(DEFAULT_ORDER_CAP)
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(
            f"ZDK_ORDER_CAP: expected an integer, got {raw!r}") from None
    if cap < 2:
        raise ValueError(
            f"ZDK_ORDER_CAP: expected an integer of at least 2, got {raw!r}")
    return cap


def capped_order(sizes: Iterable[int], what: str) -> int:
    """The product of ``sizes`` (each >= 2), raising once it passes the cap."""
    cap = order_cap()
    order = 1
    for size in sizes:
        order *= size
        if order > cap:
            raise CapacityError(f"{what} exceeds the order cap {cap}")
    return order


@dataclass(frozen=True, eq=False, slots=True)
class FiniteRing:
    """Immutable finite commutative ring with identity.

    ``add``/``mul``/``neg``/``is_unit``/``ann`` are total over
    ``0 <= id < order``.  ``ann(x)`` yields, once each and in no set order,
    the ids of every y with xy = 0.  ``local_index`` is the least t with
    M^t = 0 when the ring is local with maximal ideal M, and None when it
    is not local.
    ``one`` is the id of the multiplicative identity (1 except for direct
    products and idealizations over them, whose encoding is fixed by the
    mixed-radix contract).  Equality and hashing are by identity.
    """

    order: int
    add: Callable[[int, int], int]
    mul: Callable[[int, int], int]
    neg: Callable[[int], int]
    one: int
    label: str
    is_unit: Callable[[int], bool]
    ann: Callable[[int], Iterable[int]]
    local_index: Optional[int]
    element_label: Callable[[int], str] = str

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FiniteRing({self.label!r}, order={self.order})"


# ---------------------------------------------------------------------------
# constructions


def make_zn(n: int) -> FiniteRing:
    """Residue ring Z_n on ids 0..n-1."""
    if n < 2:
        raise ValueError(f"Z_n needs n >= 2, got {n}")
    capped_order((n,), f"Z{n}")
    pe = prime_power(n)
    return FiniteRing(
        n,
        add=lambda a, b: (a + b) % n,
        mul=lambda a, b: (a * b) % n,
        neg=lambda a: (-a) % n,
        one=1,
        label=f"Z{n}",
        is_unit=lambda a: gcd(a, n) == 1,
        ann=lambda a: range(0, n, n // gcd(a, n)),
        # local iff n = p^e; M = (p), and M^t = (p^t) is zero first at t = e
        local_index=None if pe is None else pe[1],
    )


def is_prime(n: int) -> bool:
    return prime_power(n) == (n, 1)


def prime_power(q: int) -> Optional[tuple[int, int]]:
    """(p, k) with q = p**k and p prime, or None when q is no prime power."""
    if q < 2:
        return None
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return (q, 1)
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    return (p, k) if q == 1 else None


def _digits(v: int, p: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        out.append(v % p)
        v //= p
    return out


def _poly_mod(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    # Little-endian coefficient lists; b must be monic.
    r = list(a)
    db = len(b) - 1
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if c:
            for j in range(db + 1):
                r[i - db + j] = (r[i - db + j] - c * b[j]) % p
    while r and r[-1] == 0:
        r.pop()
    return r


def _monic_polys(p: int, deg: int):
    for v in range(p ** deg):
        yield _digits(v, p, deg) + [1]


def _is_irreducible(poly: Sequence[int], p: int) -> bool:
    k = len(poly) - 1
    for d in range(1, k // 2 + 1):
        for g in _monic_polys(p, d):
            if not _poly_mod(poly, g, p):
                return False
    return True


def _smallest_irreducible(p: int, k: int) -> list[int]:
    # Candidates X^k + c, ordered by the base-p value of c; equivalently
    # lexicographic on coefficients read from the highest degree down.
    for poly in _monic_polys(p, k):
        if _is_irreducible(poly, p):
            return poly
    raise RuntimeError(f"no irreducible of degree {k} over GF({p})")  # pragma: no cover


def make_gf(p: int, k: int = 1) -> FiniteRing:
    """Galois field GF(p**k); ids encode polynomial coefficients base p."""
    if not is_prime(p):
        raise ValueError(f"GF needs a prime characteristic, got {p}")
    if k < 1:
        raise ValueError(f"GF needs extension degree >= 1, got {k}")
    q = capped_order(repeat(p, k), f"GF({p}, {k})")
    if k == 1:
        return replace(make_zn(p), label=f"GF({p})")

    modulus = _smallest_irreducible(p, k)  # little-endian, monic of degree k
    low = modulus[:k]

    def add(a: int, b: int) -> int:
        da, db = _digits(a, p, k), _digits(b, p, k)
        v = 0
        for i in range(k - 1, -1, -1):
            v = v * p + (da[i] + db[i]) % p
        return v

    def neg(a: int) -> int:
        da = _digits(a, p, k)
        v = 0
        for i in range(k - 1, -1, -1):
            v = v * p + (-da[i]) % p
        return v

    def mul(a: int, b: int) -> int:
        da, db = _digits(a, p, k), _digits(b, p, k)
        conv = [0] * (2 * k - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    conv[i + j] = (conv[i + j] + ca * cb) % p
        for i in range(2 * k - 2, k - 1, -1):
            c = conv[i]
            if c:
                conv[i] = 0
                for j in range(k):
                    conv[i - k + j] = (conv[i - k + j] - c * low[j]) % p
        v = 0
        for i in range(k - 1, -1, -1):
            v = v * p + conv[i]
        return v

    whole = range(q)
    # a field is local with M = 0, so M^1 = 0
    return FiniteRing(q, add, mul, neg, 1, f"GF({q})", lambda a: a != 0,
                      lambda a: (0,) if a else whole, 1)


def make_product(factors: Sequence[FiniteRing]) -> FiniteRing:
    """Direct product; ids are mixed-radix, first factor most significant."""
    factors = tuple(factors)
    if len(factors) < 2:
        raise ValueError("a product needs at least 2 factors")

    def factor_label(f: FiniteRing) -> str:
        return f"({f.label})" if " x " in f.label else f.label

    label = " x ".join(factor_label(f) for f in factors)
    orders = tuple(f.order for f in factors)
    order = capped_order(orders, label)

    def split(a: int) -> list[int]:
        comps = []
        for o in reversed(orders):
            comps.append(a % o)
            a //= o
        comps.reverse()
        return comps

    def join(comps: Sequence[int]) -> int:
        v = 0
        for o, c in zip(orders, comps):
            v = v * o + c
        return v

    def add(a: int, b: int) -> int:
        return join([f.add(x, y) for f, x, y in zip(factors, split(a), split(b))])

    def mul(a: int, b: int) -> int:
        return join([f.mul(x, y) for f, x, y in zip(factors, split(a), split(b))])

    def neg(a: int) -> int:
        return join([f.neg(x) for f, x in zip(factors, split(a))])

    def is_unit(a: int) -> bool:
        return all(f.is_unit(x) for f, x in zip(factors, split(a)))

    def ann(a: int) -> list[int]:
        # mixed-radix join of every choice of one annihilator per component
        out = [0]
        for f, o, x in zip(factors, orders, split(a)):
            comp = tuple(f.ann(x))
            out = [v * o + y for v in out for y in comp]
        return out

    def element_label(a: int) -> str:
        parts = [f.element_label(x) for f, x in zip(factors, split(a))]
        return "(" + ",".join(parts) + ")"

    one = join([f.one for f in factors])
    # never local: the component identities are nontrivial idempotents
    return FiniteRing(order, add, mul, neg, one, label, is_unit, ann, None,
                      element_label)


def make_idealization(base: FiniteRing, rank: int = 1) -> FiniteRing:
    """Idealization R (+) R**rank: (a,n)(b,m) = (ab, am+bn)."""
    if rank < 1:
        raise ValueError(f"idealization rank must be >= 1, got {rank}")
    o = base.order
    label = f"Id({base.label}, {rank})"
    order = capped_order(repeat(o, rank + 1), label)

    def split(x: int) -> tuple[int, list[int]]:
        a = x % o
        x //= o
        mods = []
        for _ in range(rank):
            mods.append(x % o)
            x //= o
        return a, mods

    def join(a: int, mods: Sequence[int]) -> int:
        v = 0
        for m in reversed(mods):
            v = v * o + m
        return v * o + a

    def add(x: int, y: int) -> int:
        a, n = split(x)
        b, m = split(y)
        return join(base.add(a, b), [base.add(u, v) for u, v in zip(n, m)])

    def mul(x: int, y: int) -> int:
        a, n = split(x)
        b, m = split(y)
        return join(base.mul(a, b),
                    [base.add(base.mul(a, v), base.mul(b, u))
                     for u, v in zip(n, m)])

    def neg(x: int) -> int:
        a, n = split(x)
        return join(base.neg(a), [base.neg(u) for u in n])

    def ann(x: int) -> list[int]:
        # (a,n)(b,m) = 0 iff ab = 0 and a*m_i = -b*n_i for every i
        a, n = split(x)
        preimages: list[list[int]] = [[] for _ in range(o)]
        for m in range(o):
            preimages[base.mul(a, m)].append(m)
        out = []
        for b in base.ann(a):
            tails = [0]
            for u in reversed(n):
                ms = preimages[base.neg(base.mul(b, u))]
                tails = [t * o + m for t in tails for m in ms]
            out.extend(t * o + b for t in tails)
        return out

    def element_label(x: int) -> str:
        a, n = split(x)
        mods = ",".join(base.element_label(u) for u in n)
        return f"({base.element_label(a)}; {mods})"

    # M = M_R (+) R^r, M^t = M_R^t (+) M_R^(t-1) R^r: zero one step after M_R
    index = None if base.local_index is None else base.local_index + 1
    return FiniteRing(order, add, mul, neg, base.one, label,
                      lambda x: base.is_unit(x % o), ann, index, element_label)


# ---------------------------------------------------------------------------
# interrogation


def zero_divisors(ring: FiniteRing) -> frozenset[int]:
    """All x with xy = 0 for some y != 0, plus 0 itself: the non-units.

    Every element of a finite commutative ring is a unit or a zero divisor,
    so this reads ``ring.is_unit`` and multiplies nothing.
    """
    is_unit = ring.is_unit
    return frozenset(x for x in range(ring.order) if not is_unit(x))


def annihilator(ring: FiniteRing, x: int) -> frozenset[int]:
    """Ann(x) = all y with xy = 0; always an ideal.

    Read off the construction's own ``ring.ann``; multiplies nothing in
    the ring itself.
    """
    if not 0 <= x < ring.order:
        raise ValueError(f"element id {x} out of range")
    return frozenset(ring.ann(x))


def units(ring: FiniteRing) -> frozenset[int]:
    """All invertible elements, as decided by ``ring.is_unit``."""
    is_unit = ring.is_unit
    return frozenset(x for x in range(ring.order) if is_unit(x))


def nilradical(ring: FiniteRing) -> frozenset[int]:
    """All nilpotent elements, by iterated powering of the zero divisors.

    A unit is never nilpotent, so only the zero divisors are powered.
    """
    out = set()
    mul = ring.mul
    for x in zero_divisors(ring):
        y = x
        seen = set()
        for _ in range(ring.order):
            if y == 0:
                out.add(x)
                break
            if y in seen:
                break
            seen.add(y)
            y = mul(y, x)
    return frozenset(out)


def is_reduced(ring: FiniteRing) -> bool:
    return nilradical(ring) == frozenset({0})


@dataclass(frozen=True)
class LocalStructure:
    """Maximal ideal of a local ring and the least t with M**t = 0."""
    maximal_ideal: frozenset[int]
    nilpotency_index: int


def local_structure(ring: FiniteRing) -> Optional[LocalStructure]:
    """Maximal ideal and nilpotency index when the ring is local, else None.

    Each construction states whether its ring is local and the index in
    ``ring.local_index``; the maximal ideal of a local ring is its set of
    non-units, the zero divisors.  Multiplies nothing.
    """
    if ring.local_index is None:
        return None
    return LocalStructure(zero_divisors(ring), ring.local_index)
