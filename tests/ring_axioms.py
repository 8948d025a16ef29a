"""Exhaustive commutative-ring axiom check for the ring tests (uses numpy)."""

import numpy as np

from zdalliance import FiniteRing


def verify_ring_axioms(ring: FiniteRing) -> None:
    """Exhaustively check the commutative-ring axioms; raises on failure.

    Builds full numpy operation tables (order**2 evaluations) and checks
    associativity and distributivity in order**3 vectorized steps, which is
    practical up to order 512.
    """
    n = ring.order
    ids = range(n)
    add = np.array([[ring.add(a, b) for b in ids] for a in ids], dtype=np.int32)
    mul = np.array([[ring.mul(a, b) for b in ids] for a in ids], dtype=np.int32)
    neg = np.array([ring.neg(a) for a in ids], dtype=np.int32)

    if not (add == add.T).all():
        raise ValueError(f"{ring.label}: addition is not commutative")
    if not (mul == mul.T).all():
        raise ValueError(f"{ring.label}: multiplication is not commutative")
    if not (add[:, 0] == np.arange(n)).all():
        raise ValueError(f"{ring.label}: 0 is not the additive identity")
    if not (add[np.arange(n), neg] == 0).all():
        raise ValueError(f"{ring.label}: negation is not an additive inverse")
    if not (mul[:, ring.one] == np.arange(n)).all():
        raise ValueError(f"{ring.label}: {ring.one} is not a multiplicative identity")
    for a in ids:
        if not (add[add[a], :] == add[a, add]).all():
            raise ValueError(f"{ring.label}: addition not associative at {a}")
        if not (mul[mul[a], :] == mul[a, mul]).all():
            raise ValueError(f"{ring.label}: multiplication not associative at {a}")
        if not (mul[a, add] == add[mul[a][:, None], mul[a][None, :]]).all():
            raise ValueError(f"{ring.label}: distributivity fails at {a}")
