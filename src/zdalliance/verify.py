"""Formula-vs-solver verification suites and reports.

A suite is a list of per-ring :class:`RingTask`s.  Each task builds its
ring and zero-divisor graph once and runs one check over that ring's k
values; every (ring, k) cell yields exactly one
:class:`VerificationRecord`.  Every solver answer comes from one
:func:`~zdalliance.solver.spectrum` per ring, whose time budget covers the
whole ring.  A formula task's cells are the k in [-max_degree, max_degree]
its formula does not call ``out_of_range``; an oracle task's cells are the
k of one ``oracle_spectrum``.  Cells that cannot run (the ring's spectrum
out of its node or time budget, a graph above the oracle's cap) are
reported as SKIPPED with a reason, never dropped; a budget skip covers
every cell of its ring.  No vertex count skips a cell: the budgets are
the only per-ring guard.  For cells that do run, the status is derived
deterministically:

* exact prediction v      -> MATCH iff the solver returns size v,
* bounds [lo, hi]         -> WITHIN_BOUNDS iff lo <= size <= hi,
* count bound [0, A]      -> WITHIN_BOUNDS iff |Z(R)| <= A (the bounds
                             family, whose ``solved`` column is |Z(R)|),
* infeasible (the oracle) -> MATCH iff the solver agrees,
* anything else           -> MISMATCH.

Zero MISMATCH rows is the headline regression signal.  Reports are emitted
as CSV (fixed column set), Markdown (one table per ring: k, the solved
alliance number, the zero-divisor count bound it implies, prediction,
status; a bounds-family row leaves the alliance number empty and shows its
params and |Z(R)| as its prediction), or JSON (one array, stable keys).
Output is deterministic modulo the millis column.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Callable, Optional, Sequence, Union

from . import formulas
from .expressions import (GF, ExprError, Idealization, RingExpr, Zn,
                          build_ring, parse_ring_expr)
from .graphs import ZdGraph, bits, build_graph
from .rings import (CapacityError, FiniteRing, capped_order, is_prime,
                    local_structure, order_cap, prime_power, zero_divisors)
from .solver import AllianceSolution, BudgetExceeded, oracle_spectrum, spectrum
# perfbench --trace 1 wraps these two by name
from .solver import oracle_solve, solve  # noqa: F401

MATCH = "MATCH"
WITHIN_BOUNDS = "WITHIN_BOUNDS"
MISMATCH = "MISMATCH"
SKIPPED = "SKIPPED"
_STATUSES = (MATCH, WITHIN_BOUNDS, MISMATCH, SKIPPED)
_PREDICTED_KINDS = ("exact", "bounds", "infeasible")  # out_of_range is no row

CSV_COLUMNS = ("family", "params", "ring", "vertices", "k", "predicted_kind",
               "predicted_lo", "predicted_hi", "solved", "status", "nodes",
               "millis")

INFEASIBLE = "INFEASIBLE"


@dataclass(frozen=True)
class VerificationRecord:
    family: str
    params: str
    ring: str
    vertices: int
    k: int
    predicted_kind: str
    predicted_lo: Optional[int]
    predicted_hi: Optional[int]
    solved: Union[int, str, None]
    status: str
    reason: str = ""
    nodes: int = 0
    millis: float = 0.0

    def row(self) -> list:
        solved = "" if self.solved is None else self.solved
        lo = "" if self.predicted_lo is None else self.predicted_lo
        hi = "" if self.predicted_hi is None else self.predicted_hi
        status = self.status if not self.reason else f"{self.status}({self.reason})"
        return [self.family, self.params, self.ring, self.vertices, self.k,
                self.predicted_kind, lo, hi, solved, status, self.nodes,
                round(self.millis, 3)]


@dataclass(frozen=True)
class SuiteConfig:
    """Run parameters for one verification suite.  ``grid`` holds
    ``;``-separated entries in place of the suite's default grid.  The node
    budget (per k) and the time budget (per ring's spectrum) bound every
    ring; ``None`` lifts a budget."""
    suite: str
    grid: Optional[str] = None
    node_budget: Optional[int] = 50_000_000
    time_budget: Optional[float] = 300.0


# ---------------------------------------------------------------------------
# grids

PINNED_SPECTRA = {
    "Z12": {-4: 2, -3: 2, -2: 2, -1: 3, 0: 4, 1: 5},
    "Z2 x Z4": {-3: 2, -2: 2, -1: 2, 0: 3, 1: 4},
    "Z9": {-1: 1, 0: 2, 1: 2},
    "Z8": {-2: 1, -1: 2, 0: 2, 1: 3},
}

ZPN_GRID = ((2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2))
FIELD_PAIRS = ((2, 3), (2, 4), (2, 5), (2, 7), (3, 3), (3, 4), (3, 5),
               (4, 5), (5, 7))
Z2Z2F_SIZES = (2, 3, 4, 5)
Z2FK_PAIRS = ((3, 3), (3, 4), (3, 5), (4, 5))
Z2LOCAL_RINGS = ("Z4", "Id(Z2, 1)", "Z8", "Z9", "Id(Z3, 1)", "Z25", "Z27")
BOUNDS_RINGS = ("Z6", "Z8", "Z9", "Z12", "Z2 x Z4", "Z25", "Z27", "Z2 x Z9")
IDEALIZATION_GRID = tuple(
    (p, n) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)
    for n in range(1, 5) if p ** n <= 27)

KNOWN_GRAPH_CORPUS = (
    "Z6", "Z8", "Z9", "Z12", "Z16", "Z25", "Z27", "Z49", "Z81",
    "Z2 x Z4",
    "Z2 x Z3", "Z2 x GF(4)", "Z2 x Z5", "Z2 x Z7",
    "Z3 x Z3", "Z3 x GF(4)", "Z3 x Z5", "GF(4) x Z5", "Z5 x Z7",
    "Z2 x Z2 x Z2", "Z2 x Z2 x Z3", "Z2 x Z2 x GF(4)", "Z2 x Z2 x Z5",
    "Z2 x Z3 x Z3", "Z2 x Z3 x GF(4)", "Z2 x Z3 x Z5", "Z2 x GF(4) x Z5",
    "Z2 x Z8", "Z2 x Z9", "Z2 x Id(Z3, 1)", "Z2 x Id(Z2, 1)",
    "Id(Z2, 1)", "Id(Z2, 2)", "Id(Z2, 3)", "Id(Z3, 1)", "Id(Z3, 2)",
    "Id(Z5, 1)", "Id(Z7, 1)",
)


def field_expr(q: int) -> str:
    """The expression of the field of order q; q must be a prime power at
    most the order cap."""
    if prime_power(q) is None:
        raise ValueError(f"{q} is not a prime power")
    return f"Z{q}" if is_prime(q) else f"GF({q})"


# ---------------------------------------------------------------------------
# task execution


@dataclass(frozen=True)
class RingTask:
    """One ring of a suite and ``check``, the function that checks it:
    _check_formula, _check_oracle, _check_bounds or _check_pinned.

    ``predict`` gives a formula task's prediction at each k and so states
    its k range; the other checks take their k range from the graph."""
    check: Callable[..., list[VerificationRecord]]
    expr: str
    family: str
    params: str = ""
    predict: Optional[Callable[[int], formulas.Prediction]] = None


def _status_for(pred: formulas.Prediction, sol: AllianceSolution) -> str:
    if pred.kind == "exact":
        if sol.feasible and sol.size == pred.value:
            return MATCH
        return MISMATCH
    if pred.kind == "bounds":
        if sol.feasible and pred.lower <= sol.size <= pred.upper:
            return WITHIN_BOUNDS
        return MISMATCH
    if pred.kind == "infeasible":
        return MISMATCH if sol.feasible else MATCH
    raise ValueError(f"no status for prediction kind {pred.kind!r}")


def _alliance_rows(cfg: SuiteConfig, task: RingTask, ring: FiniteRing,
                   graph: ZdGraph, cells: dict[int, formulas.Prediction]
                   ) -> list[VerificationRecord]:
    """One record per (k, prediction) of ``cells``, in k order, each checked
    against one solver spectrum of ``graph``.  If the spectrum runs out of
    budget, every cell is SKIPPED with that reason."""
    skip = ""
    try:
        spect = spectrum(graph, node_budget=cfg.node_budget,
                         time_budget=cfg.time_budget)
    except BudgetExceeded as exc:
        skip = f"budget({exc})"
    records = []
    for k, pred in sorted(cells.items()):
        exact = pred.kind == "exact"
        cell = dict(family=task.family, params=task.params, ring=ring.label,
                    vertices=graph.vertex_count, k=k, predicted_kind=pred.kind,
                    predicted_lo=pred.value if exact else pred.lower,
                    predicted_hi=pred.value if exact else pred.upper)
        if skip:
            records.append(VerificationRecord(**cell, solved=None,
                                              status=SKIPPED, reason=skip))
            continue
        sol = spect[k]
        records.append(VerificationRecord(
            **cell, solved=sol.size if sol.feasible else INFEASIBLE,
            status=_status_for(pred, sol), nodes=sol.nodes,
            millis=sol.elapsed * 1000.0))
    return records


def _check_formula(cfg: SuiteConfig, task: RingTask, ring: FiniteRing,
                   graph: ZdGraph) -> list[VerificationRecord]:
    """The task's formula at every k in [-max_degree, max_degree] it covers."""
    deg = graph.max_degree
    cells = {k: pred for k in range(-deg, deg + 1)
             if (pred := task.predict(k)).kind != "out_of_range"}
    return _alliance_rows(cfg, task, ring, graph, cells)


def _check_oracle(cfg: SuiteConfig, task: RingTask, ring: FiniteRing,
                  graph: ZdGraph) -> list[VerificationRecord]:
    """One oracle enumeration and one solver spectrum for the ring, compared
    at every k in [-max_degree, max_degree]; a graph the oracle refuses
    gets one SKIPPED row."""
    try:
        refs = oracle_spectrum(graph)
    except CapacityError:
        return [VerificationRecord(
            family=task.family, params=task.params, ring=ring.label,
            vertices=graph.vertex_count, k=0, predicted_kind="exact",
            predicted_lo=None, predicted_hi=None, solved=None, status=SKIPPED,
            reason=f"oracle-cap({graph.vertex_count})")]
    cells = {k: formulas.exact(ref.size) if ref.feasible
             else formulas.infeasible()
             for k, ref in refs.items()}
    return _alliance_rows(cfg, task, ring, graph, cells)


def _count_row(ring: FiniteRing, graph: ZdGraph, zcount: int, params: str,
               k: int, bound: int,
               sol: Optional[AllianceSolution] = None) -> VerificationRecord:
    """One bounds row: |Z(R)| = ``zcount`` checked against ``bound``, with
    the nodes and time of ``sol``, the solve the bound came from, if any."""
    return VerificationRecord(
        family="bounds", params=params, ring=ring.label,
        vertices=graph.vertex_count, k=k, predicted_kind="bounds",
        predicted_lo=0, predicted_hi=bound, solved=zcount,
        status=WITHIN_BOUNDS if zcount <= bound else MISMATCH,
        nodes=0 if sol is None else sol.nodes,
        millis=0.0 if sol is None else sol.elapsed * 1000.0)


def _common_outside(graph: ZdGraph, mask: int) -> int:
    """λ: the vertices outside ``mask`` adjacent to every vertex in it."""
    inter = graph.full_mask
    for v in bits(mask):
        inter &= graph.adj[v]
    return (inter & ~mask).bit_count()


def check_cardinality_bounds(ring: FiniteRing, graph: ZdGraph, *,
                             node_budget: Optional[int] = None,
                             time_budget: Optional[float] = None
                             ) -> list[VerificationRecord]:
    """Zero-divisor cardinality bounds against the solved spectrum.

    ``graph`` is the zero-divisor graph of ``ring``.  Emits one record per k
    in [-max_degree, min_degree] checking |Z(R)| <= 1 + γ² - kγ, a row for
    the min over k, a refinement row built from the k = -1 witness's common
    neighborhood, and for local rings the per-k pair rows plus the max-min
    row that bounds |Z(R)| for them.  Only the per-k |Z(R)| <= 1 + γ² - kγ
    rows carry their solve's nodes and millis; the derived rows carry 0.
    """
    zcount = len(zero_divisors(ring))
    ks = range(-graph.max_degree, graph.min_degree + 1)
    spect = spectrum(graph, node_budget=node_budget, time_budget=time_budget)
    row = partial(_count_row, ring, graph, zcount)
    records: list[VerificationRecord] = []
    a_values: dict[int, int] = {}
    for k in ks:
        sol = spect[k]
        if not sol.feasible:  # pragma: no cover - k <= min_degree is feasible
            raise RuntimeError(f"k={k} should be feasible up to min degree")
        a_values[k] = formulas.zero_divisor_count_bound(sol.size, k)
        records.append(row(f"check=A;gamma={sol.size}", k, a_values[k], sol))
    min_k = min(a_values, key=a_values.get)
    records.append(row("check=A-min", min_k, a_values[min_k]))

    if -1 in spect:
        sol = spect[-1]
        lam = _common_outside(graph, sol.witness)
        refined = formulas.zero_divisor_count_bound(sol.size, -1, lam)
        records.append(row(f"check=A-refined;lambda={lam};gamma={sol.size}",
                           -1, refined))

    if local_structure(ring) is not None:
        b_values, c_values = {}, {}
        for k in ks:
            b_k, c_k = formulas.local_count_bounds(spect[k].size, k)
            b_values[k], c_values[k] = b_k, c_k
            records.append(row(f"check=BC;B={b_k};C={c_k}", k, max(b_k, c_k)))
        min_b, min_c = min(b_values.values()), min(c_values.values())
        records.append(row(f"check=BC-max-min;minB={min_b};minC={min_c}", 0,
                           max(min_b, min_c)))
    return records


def _check_bounds(cfg: SuiteConfig, task: RingTask, ring: FiniteRing,
                  graph: ZdGraph) -> list[VerificationRecord]:
    try:
        return check_cardinality_bounds(ring, graph,
                                        node_budget=cfg.node_budget,
                                        time_budget=cfg.time_budget)
    except BudgetExceeded as exc:
        return [VerificationRecord(
            family=task.family, params="check=A", ring=ring.label,
            vertices=graph.vertex_count, k=0, predicted_kind="bounds",
            predicted_lo=None, predicted_hi=None, solved=None,
            status=SKIPPED, reason=f"budget({exc})")]


def _check_pinned(cfg: SuiteConfig, task: RingTask, ring: FiniteRing,
                  graph: ZdGraph) -> list[VerificationRecord]:
    # Common-neighborhood refinement evaluated on a pinned vertex set: the
    # two-element set {(1,0),(1,2)} of Z2 x Z4 is dominating and its shared
    # neighborhood is {(0,2)}, giving 1+1+4-2(-1+1) = 6 = |Z(R)|.  The set
    # itself fails the defensive predicate (its members are non-adjacent),
    # which the graph tests pin separately; the row records that even this
    # set's arithmetic lands exactly on |Z(R)|.
    mask = graph.mask_of_elements((4, 6))
    lam = _common_outside(graph, mask)
    refined = formulas.zero_divisor_count_bound(mask.bit_count(), -1, lam)
    labels = ",".join(graph.labels_of(mask))
    return [_count_row(ring, graph, len(zero_divisors(ring)),
                       f"check=A-refined-pinned;set={labels};lambda={lam}",
                       -1, refined)]


def _run_task(cfg: SuiteConfig, task: RingTask) -> list[VerificationRecord]:
    """Build the task's ring and graph once and run its check on them."""
    ring = build_ring(task.expr)
    return task.check(cfg, task, ring, build_graph(ring))


# ---------------------------------------------------------------------------
# suite builders


def _pair(entry: str) -> tuple[int, int]:
    try:
        a, b = (int(v) for v in entry.split(","))
    except ValueError:
        raise ValueError("expected two integers 'a,b'") from None
    return _within_cap(a), _within_cap(b)


def _integer(entry: str) -> int:
    try:
        value = int(entry)
    except ValueError:
        raise ValueError("expected an integer") from None
    return _within_cap(value)


def _within_cap(value: int) -> int:
    """A grid integer, refused above the order cap in absolute value: no
    valid entry holds a number larger than its ring's order."""
    capped_order((abs(value),), str(value))
    return value


def _ring_text(entry: str) -> str:
    """The entry, once it parses (within the order cap) to a ring that has
    a graph: a local ring whose maximal ideal is zero is a field."""
    expr = parse_ring_expr(entry)
    shape = _local_shape(expr)
    if shape is None or shape[1] > 1:
        return entry
    field = f"Z{shape[0]}" if isinstance(expr, Zn) else f"GF({shape[0]})"
    raise ValueError(f"{field} is a field: no nonzero zero-divisors")


def _grid_tasks(default: Sequence, parse: Callable, make: Callable,
                cfg: SuiteConfig) -> list[RingTask]:
    """``make`` of the ``default`` values, or of ``parse`` of each entry of
    ``cfg.grid``, each checked by its formula and, by parsing its
    expression, against the order cap before any ring is built.  A
    ValueError or CapacityError names its entry; an expression error points
    into it, and an invalid cap setting reports before the first entry."""
    if cfg.grid is None:
        return [make(value) for value in default]
    entries = [s.strip() for s in cfg.grid.split(";") if s.strip()]
    if not entries:
        raise ValueError(f"grid {cfg.grid!r} has no entries")
    order_cap()
    tasks = []
    for entry in entries:
        try:
            task = make(parse(entry))
            if task.predict:  # the family's own parameter check
                task.predict(0)
            parse_ring_expr(task.expr)  # the order cap
        except ExprError:
            raise
        except CapacityError as exc:
            raise CapacityError(f"grid entry {entry!r}: {exc}") from None
        except ValueError as exc:
            raise ValueError(f"grid entry {entry!r}: {exc}") from None
        tasks.append(task)
    return tasks


def _pinned(values: dict[int, int], k: int) -> formulas.Prediction:
    if k in values:
        return formulas.exact(values[k])
    return formulas.out_of_range()


def _build_tables(cfg: SuiteConfig) -> list[RingTask]:
    if cfg.grid is not None:
        raise ValueError("suite 'tables' takes no grid")
    return [RingTask(_check_formula, expr, "tables", "pinned-spectrum",
                     partial(_pinned, values))
            for expr, values in PINNED_SPECTRA.items()]


def _zpn(pn: tuple[int, int]) -> RingTask:
    p, n = pn
    capped_order(repeat(abs(p), n), f"Z{p}^{n}")  # p^n, before it is written
    formulas.predict_prime_power(p, n, 0)  # the family check, before p^n
    return RingTask(_check_formula, f"Z{p ** n}", "zpn", f"p={p};n={n}",
                    partial(formulas.predict_prime_power, p, n))


def _two_fields(fq: tuple[int, int]) -> RingTask:
    f, q = fq
    return RingTask(_check_formula, f"{field_expr(f)} x {field_expr(q)}",
                    "two_fields", f"f={f};q={q}",
                    partial(formulas.predict_two_fields, f, q))


def _z2z2F(f: int) -> RingTask:
    return RingTask(_check_formula, f"Z2 x Z2 x {field_expr(f)}", "z2z2F",
                    f"f={f}", partial(formulas.predict_z2z2_field, f))


def _z2FK(fq: tuple[int, int]) -> RingTask:
    f, q = fq
    return RingTask(_check_formula, f"Z2 x {field_expr(f)} x {field_expr(q)}",
                    "z2FK", f"f={f};q={q}",
                    partial(formulas.predict_z2_two_fields, f, q))


def _local_shape(expr: RingExpr) -> Optional[tuple[int, int, int]]:
    """(|R|, |M|, nilpotency index of M) when the expression names a local
    ring R with maximal ideal M, else None, read off the expression: Z_n
    is local iff n is a prime power, GF is a field, a product never is
    local, and Id(R, n) = R (+) R^n is local iff R is, with M (+) R^n for
    its maximal ideal, one step longer to vanish."""
    if isinstance(expr, Zn):
        pe = prime_power(expr.n)
        return None if pe is None else (expr.n, expr.n // pe[0], pe[1])
    if isinstance(expr, GF):
        return expr.p ** expr.k, 1, 1
    if isinstance(expr, Idealization):
        base = _local_shape(expr.base)
        if base is None:
            return None
        r, z, index = base
        return r ** (expr.rank + 1), z * r ** expr.rank, index + 1
    return None


def _z2local(base_expr: str) -> RingTask:
    shape = _local_shape(parse_ring_expr(base_expr))
    if shape is None or shape[1] < 2:
        raise ValueError(f"{base_expr} is not a local non-field ring")
    r, z, index = shape
    index2 = index == 2
    return RingTask(_check_formula, f"Z2 x {base_expr}", "z2_local",
                    f"R={base_expr};r={r};z={z};index2={int(index2)}",
                    partial(formulas.predict_z2_local, r, z, index2))


def _idealization(pn: tuple[int, int]) -> RingTask:
    p, n = pn
    if not is_prime(p):  # the formula needs M^2 = 0, so Z_p a field
        raise ValueError(f"{p} is not prime")
    if n < 1:  # before p^n is formed
        raise ValueError(f"idealization rank must be >= 1, got {n}")
    return RingTask(_check_formula, f"Id(Z{p}, {n})", "idealization",
                    f"p={p};n={n}",
                    partial(formulas.predict_local_index2, p ** n))


def _build_bounds(cfg: SuiteConfig) -> list[RingTask]:
    tasks = _grid_tasks(BOUNDS_RINGS, _ring_text,
                        partial(RingTask, _check_bounds, family="bounds"), cfg)
    if cfg.grid is None:
        tasks.append(RingTask(_check_pinned, "Z2 x Z4", "bounds"))
    return tasks


SUITES: dict[str, Callable[[SuiteConfig], list[RingTask]]] = {
    "tables": _build_tables,
    "zpn": partial(_grid_tasks, ZPN_GRID, _pair, _zpn),
    "fields": partial(_grid_tasks, FIELD_PAIRS, _pair, _two_fields),
    "z2z2F": partial(_grid_tasks, Z2Z2F_SIZES, _integer, _z2z2F),
    "z2FK": partial(_grid_tasks, Z2FK_PAIRS, _pair, _z2FK),
    "z2local": partial(_grid_tasks, Z2LOCAL_RINGS, str, _z2local),
    "idealizations": partial(_grid_tasks, IDEALIZATION_GRID, _pair,
                             _idealization),
    "bounds": _build_bounds,
    "known_graphs": partial(_grid_tasks, KNOWN_GRAPH_CORPUS, _ring_text,
                            partial(RingTask, _check_oracle,
                                    family="known_graphs",
                                    params="solve-vs-oracle")),
}


def _record_sort_key(rec: VerificationRecord):
    return (rec.family, rec.params, rec.ring, rec.k)


def run_suite(cfg: SuiteConfig) -> list[VerificationRecord]:
    """Run one named suite; records come back in deterministic order."""
    try:
        builder = SUITES[cfg.suite]
    except KeyError:
        raise ValueError(f"unknown suite {cfg.suite!r}; "
                         f"choose from {sorted(SUITES)}") from None
    records = [rec for task in builder(cfg) for rec in _run_task(cfg, task)]
    records.sort(key=_record_sort_key)
    return records


def summarize(records: Sequence[VerificationRecord]) -> dict[str, int]:
    out = {"records": len(records), MATCH: 0, WITHIN_BOUNDS: 0, MISMATCH: 0,
           SKIPPED: 0}
    for rec in records:
        out[rec.status] += 1
    return out


# ---------------------------------------------------------------------------
# reports


def records_to_dicts(records: Sequence[VerificationRecord]) -> list[dict]:
    """Records as JSON-ready rows in report order; see records_from_dicts."""
    return [dict(vars(rec), millis=round(rec.millis, 3))
            for rec in sorted(records, key=_record_sort_key)]


def _checked(index: int, rec: VerificationRecord) -> VerificationRecord:
    """rec, or a ValueError naming the first field that holds a value the
    reports cannot render."""
    value = vars(rec)
    for key, ok, expected in (
            *((key, type(value[key]) is str, "a string")
              for key in ("family", "params", "ring", "reason")),
            *((key, type(value[key]) is int, "an integer")
              for key in ("vertices", "k", "nodes")),
            *((key, value[key] is None or type(value[key]) is int,
               "None or an integer")
              for key in ("predicted_lo", "predicted_hi")),
            ("millis", type(rec.millis) in (int, float), "a number"),
            ("predicted_kind", rec.predicted_kind in _PREDICTED_KINDS,
             "one of " + ", ".join(_PREDICTED_KINDS)),
            ("solved", rec.solved in (None, INFEASIBLE)
             or type(rec.solved) is int and rec.solved >= 1,
             f"None, {INFEASIBLE!r} or an integer >= 1"),
            ("status", rec.status in _STATUSES,
             "one of " + ", ".join(_STATUSES))):
        if not ok:
            raise ValueError(f"record {index}: key {key!r}: expected "
                             f"{expected}, got {value[key]!r}")
    return rec


def records_from_dicts(rows: Sequence[dict]) -> list[VerificationRecord]:
    """Inverse of records_to_dicts; a malformed row raises ValueError."""
    records = []
    for index, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ValueError(f"record {index}: expected an object, "
                             f"got {type(row).__name__}")
        try:
            rec = VerificationRecord(
                family=row["family"], params=row["params"], ring=row["ring"],
                vertices=row["vertices"], k=row["k"],
                predicted_kind=row["predicted_kind"],
                predicted_lo=row.get("predicted_lo"),
                predicted_hi=row.get("predicted_hi"),
                solved=row.get("solved"), status=row["status"],
                reason=row.get("reason", ""), nodes=row.get("nodes", 0),
                millis=row.get("millis", 0.0))
        except KeyError as exc:
            raise ValueError(f"record {index}: missing key {exc}") from None
        records.append(_checked(index, rec))
    return records


def _emit_csv(records: Sequence[VerificationRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in sorted(records, key=_record_sort_key):
        writer.writerow(rec.row())
    return buf.getvalue()


def _predicted_repr(rec: VerificationRecord) -> str:
    if rec.predicted_kind == "exact":
        return "" if rec.predicted_lo is None else str(rec.predicted_lo)
    if rec.predicted_kind == "bounds":
        return f"[{rec.predicted_lo}, {rec.predicted_hi}]"
    return INFEASIBLE


def _emit_markdown(records: Sequence[VerificationRecord]) -> str:
    lines = ["# verification report", ""]
    ordered = sorted(records, key=_record_sort_key)
    by_ring: dict[str, list[VerificationRecord]] = {}
    for rec in ordered:
        by_ring.setdefault(rec.ring, []).append(rec)
    for ring_label in sorted(by_ring):
        lines.append(f"## {ring_label}")
        lines.append("")
        lines.append("| k | gamma_k_d | count_bound | predicted | status |")
        lines.append("|--:|--:|--:|:--|:--|")
        for rec in sorted(by_ring[ring_label], key=lambda r: (r.k, r.params)):
            predicted = _predicted_repr(rec)
            if rec.family == "bounds":
                # solved is |Z(R)|, not an alliance number
                solved = ""
                bound = "" if rec.predicted_hi is None else str(rec.predicted_hi)
                if rec.solved is None:
                    predicted = rec.params
                else:
                    predicted = f"{rec.params}; #Z(R)={rec.solved} in {predicted}"
            elif isinstance(rec.solved, int):
                solved = str(rec.solved)
                bound = str(formulas.zero_divisor_count_bound(rec.solved, rec.k))
            else:
                solved = rec.solved or ""
                bound = ""
            status = rec.status if not rec.reason else f"{rec.status}({rec.reason})"
            lines.append(f"| {rec.k} | {solved} | {bound} | "
                         f"{predicted} | {status} |")
        lines.append("")
    return "\n".join(lines)


def _emit_json(records: Sequence[VerificationRecord]) -> str:
    return json.dumps(records_to_dicts(records), indent=2) + "\n"


_EMITTERS = {"csv": _emit_csv, "md": _emit_markdown, "json": _emit_json}


def emit_report(records: Sequence[VerificationRecord], fmt: str,
                path: Optional[str] = None) -> str:
    """Render records in the given format; write to ``path`` when given."""
    if not records:
        raise ValueError("no records to report")
    try:
        emitter = _EMITTERS[fmt]
    except KeyError:
        raise ValueError(f"unknown report format {fmt!r}; "
                         f"choose from {sorted(_EMITTERS)}") from None
    text = emitter(records)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
