"""Closed-form predictions for global defensive k-alliance numbers.

Each ``predict_*`` function is pure arithmetic over ring/graph parameters
and never consults the solver; the verification layer compares the two.
A prediction holds only its kind and its numbers.  The kinds:

* ``exact``        -- the alliance number equals ``value``;
* ``bounds``       -- the alliance number lies in ``[lower, upper]``;
* ``infeasible``   -- no global defensive k-alliance exists (the oracle's
                      verdict; no formula states one);
* ``out_of_range`` -- the k requested is outside the stated validity
                      interval of every applicable case.

A family's k range is stated here only: the verification layer checks a
formula at exactly the k in [-max_degree, max_degree] it does not call
``out_of_range``.

Stated k-intervals are treated literally: an interval [a, b] with a > b is
empty, the cases of one family partition its stated range, and precedence
between overlapping statements follows the order of the cases below (the
overlaps are value-consistent, which the tests assert).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .rings import is_prime


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(frozen=True)
class Prediction:
    kind: str  # "exact" | "bounds" | "infeasible" | "out_of_range"
    value: Optional[int] = None
    lower: Optional[int] = None
    upper: Optional[int] = None

    def __post_init__(self):
        if self.kind == "exact":
            if self.value is None or self.value < 1:
                raise ValueError(f"exact prediction must be >= 1, got {self.value}")
        elif self.kind == "bounds":
            if self.lower is None or self.upper is None or self.lower > self.upper:
                raise ValueError(f"bounds must satisfy lower <= upper, got "
                                 f"[{self.lower}, {self.upper}]")
        elif self.kind not in ("infeasible", "out_of_range"):
            raise ValueError(f"unknown prediction kind {self.kind!r}")


def exact(value: int) -> Prediction:
    return Prediction("exact", value=value)


def bounds(lower: int, upper: int) -> Prediction:
    return Prediction("bounds", lower=lower, upper=upper)


def infeasible() -> Prediction:
    return Prediction("infeasible")


def out_of_range() -> Prediction:
    return Prediction("out_of_range")


# ---------------------------------------------------------------------------
# graph families


def predict_complete(n: int, k: int) -> Prediction:
    """K_n: ceil((n+k+1)/2) for k in [1-n, n-1]."""
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    if 1 - n <= k <= n - 1:
        return exact(_ceil_div(n + k + 1, 2))
    return out_of_range()


def predict_local_index2(m: int, k: int) -> Prediction:
    """Local ring whose maximal ideal M has M² = 0 and |M| = m: the graph
    is K_{m-1} and the number is ceil((m+k)/2) for k in [2-m, m-2]."""
    if m < 2:
        raise ValueError(f"|M| must be >= 2, got {m}")
    if 2 - m <= k <= m - 2:
        return exact(_ceil_div(m + k, 2))
    return out_of_range()


def predict_prime_power(p: int, n: int, k: int) -> Prediction:
    """Z_{p^n}, n >= 2: ceil((p^(n-1)+k)/2).

    For n = 2 the graph is the complete graph K_{p-1}, so
    ``predict_local_index2`` answers, with the narrower range [2-p, p-2]
    (the wide range would overclaim at k = p-1 there).  For n >= 3 the
    stated range is [2-p^(n-1), p-1].
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 2:
        raise ValueError(f"prime-power family needs exponent >= 2, got {n}")
    if n == 2:
        return predict_local_index2(p, k)
    m = p ** (n - 1)
    if 2 - m <= k <= p - 1:
        return exact(_ceil_div(m + k, 2))
    return out_of_range()


def predict_two_fields(f: int, q: int, k: int) -> Prediction:
    """F x K for fields with |F| = f <= |K| = q (complete bipartite graph)."""
    if not 2 <= f <= q:
        raise ValueError(f"need 2 <= |F| <= |K|, got {f}, {q}")
    if f == 2:
        if 1 - q <= k <= 1:
            return exact(_ceil_div(q + k + 1, 2))
        return out_of_range()
    if k == 1 - q:
        return exact(2)
    if 2 - q <= k <= 3 - f:
        return exact(_ceil_div(q + k + 1, 2))
    if 4 - f <= k <= f - 1:
        return exact((f + k) // 2 + (q + k) // 2)
    return out_of_range()


def predict_z2z2_field(f: int, k: int) -> Prediction:
    """Z_2 x Z_2 x F with |F| = f."""
    if f < 2:
        raise ValueError(f"|F| must be >= 2, got {f}")
    if 1 - 2 * f <= k <= 3 - 2 * f:
        return exact(3)
    if 4 - 2 * f <= k <= 1:
        return exact(f + _ceil_div(1 + k, 2))
    return out_of_range()


def predict_z2_two_fields(f: int, q: int, k: int) -> Prediction:
    """Z_2 x F x K for fields with 3 <= |F| = f <= |K| = q."""
    if not 3 <= f <= q:
        raise ValueError(f"need 3 <= |F| <= |K|, got {f}, {q}")
    fq = f * q
    if 1 - fq <= k <= 5 - fq:
        return exact(3)
    if 6 - fq <= k <= 1:
        return exact(_ceil_div(fq + k + 1, 2))
    return out_of_range()


_Z2_LOCAL_SMALL = {
    # |Z(R)| = 2 forces R of order 4; |Z(R)| = 3 forces order 9.
    2: {-3: 2, -2: 2, -1: 2, 0: 3, 1: 4},
    3: {-8: 2, -7: 2, -6: 2, -5: 3, -4: 3, -3: 4, -2: 4, -1: 5, 0: 5, 1: 7},
}


def predict_z2_local(r_order: int, z_order: int, m_index2: bool,
                     k: int) -> Prediction:
    """Z_2 x R for a local ring R (not a field) with |R| = r_order and
    |Z(R)| = z_order; ``m_index2`` says whether the maximal ideal squares
    to zero.  Exact where a case applies, interval bounds on the rest of
    [1-|R|, 1], out-of-range beyond."""
    r, z = r_order, z_order
    if z < 2:
        raise ValueError("R must not be a field (needs |Z(R)| >= 2)")
    if r < 2 * z:
        raise ValueError(f"inconsistent parameters |R|={r}, |Z(R)|={z}")
    if z in (2, 3):
        expected_r = z * z
        if r != expected_r:
            raise ValueError(f"|Z(R)|={z} forces |R|={expected_r}, got {r}")
        table = _Z2_LOCAL_SMALL[z]
        if k in table:
            return exact(table[k])
        return out_of_range()
    if 1 - r <= k <= 3 - r:
        return exact(2)
    if 4 - r <= k <= 4 - 2 * z:
        return exact(_ceil_div(r + k + 1, 2))
    if k == -1:
        return exact(_ceil_div(r, 2))
    if k == 0:
        return exact(_ceil_div(r + 1, 2))
    if k == 1:
        return exact(_ceil_div(r, 2) + 2)
    if m_index2 and z >= 4 and 5 - 2 * z <= k <= -2:
        return exact(_ceil_div(r + k + 1, 2))
    if 1 - r <= k <= 1:
        return bounds(_ceil_div(r + k + 1, 2), _ceil_div(r + 2 * z + k - 1, 2))
    return out_of_range()


def predict_star_bipartite(r: int, s: int, kind: str) -> Prediction:
    """Global alliance numbers of complete bipartite graphs K_{r,s}.

    ``kind`` is "alliance" (defensive threshold k = -1) or "strong"
    (k = 0).  Stars use the dedicated alliance formula floor(s/2)+1.
    """
    if r < 1 or s < 1:
        raise ValueError(f"parts must be >= 1, got {r}, {s}")
    if kind == "alliance":
        if min(r, s) == 1:
            return exact(max(r, s) // 2 + 1)
        return exact(r // 2 + s // 2)
    if kind == "strong":
        return exact((r + 1) // 2 + (s + 1) // 2)
    raise ValueError(f"kind must be 'alliance' or 'strong', got {kind!r}")


# ---------------------------------------------------------------------------
# zero-divisor cardinality bounds


def zero_divisor_count_bound(gamma: int, k: int,
                             shared_neighbors: Optional[int] = None) -> int:
    """Upper bound on |Z(R)| (zero included) from γ = γ_k^d(Γ(R)).

    Without the refinement: 1 + γ² - kγ.  When every witness member shares
    the ``shared_neighbors`` common neighbors outside the witness:
    1 + L + γ² - γ(k + L).
    """
    if gamma < 1:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    if shared_neighbors is None:
        return 1 + gamma * gamma - k * gamma
    lam = shared_neighbors
    if lam < 0:
        raise ValueError(f"shared neighbor count must be >= 0, got {lam}")
    return 1 + lam + gamma * gamma - gamma * (k + lam)


def local_count_bounds(gamma: int, k: int) -> tuple[int, int]:
    """The pair (2γ - k, 2 + γ² - (k+1)γ) bounding |Z(R)| for local rings:
    |Z(R)| <= max over the spectrum of (min of the first, min of the second).
    """
    if gamma < 1:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    return 2 * gamma - k, 2 + gamma * gamma - (k + 1) * gamma
