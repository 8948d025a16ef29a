"""Verification suites, records, and report emission."""

import csv
import importlib
import io
import json
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zdalliance import (SuiteConfig, build_graph, build_ring, formulas,
                        local_structure, parse_ring_expr, run_suite, solver,
                        summarize, verify)
from zdalliance.verify import (CSV_COLUMNS, emit_report, records_from_dicts,
                               records_to_dicts)
from strategies import ring_exprs


def _strip_timing(text: str) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    return [row[:-2] for row in rows]


def test_tables_suite_all_match():
    records = run_suite(SuiteConfig(suite="tables"))
    assert len(records) == 18
    assert all(r.status == "MATCH" for r in records)
    rings = {r.ring for r in records}
    assert rings == {"Z12", "Z2 x Z4", "Z9", "Z8"}


def test_zpn_suite_grid_override():
    records = run_suite(SuiteConfig(suite="zpn", grid="2,3"))
    assert [r.k for r in records] == [-2, -1, 0, 1]
    assert all(r.ring == "Z8" and r.status == "MATCH" for r in records)


def test_bounds_suite_headline_values():
    records = run_suite(SuiteConfig(suite="bounds"))
    assert all(r.status == "WITHIN_BOUNDS" for r in records)
    by = {(r.ring, r.params.split(";")[0]): r for r in records}
    assert by[("Z12", "check=A-min")].predicted_hi == 9
    assert by[("Z2 x Z4", "check=A-min")].predicted_hi == 7
    assert by[("Z9", "check=BC-max-min")].predicted_hi == 3
    assert by[("Z9", "check=BC-max-min")].solved == 3
    assert by[("Z8", "check=BC-max-min")].predicted_hi == 4
    assert by[("Z8", "check=BC-max-min")].solved == 4
    pinned = [r for r in records if "A-refined-pinned" in r.params]
    assert len(pinned) == 1
    assert pinned[0].ring == "Z2 x Z4"
    assert pinned[0].predicted_hi == 6
    assert pinned[0].solved == 6


def test_bounds_grid_gets_only_its_rings():
    # the pinned Z2 x Z4 row belongs to the default grid only
    records = run_suite(SuiteConfig(suite="bounds", grid="Z6"))
    assert len(records) == 6
    assert all(r.ring == "Z6" for r in records)


def test_z2local_suite_statuses():
    records = run_suite(SuiteConfig(suite="z2local", grid="Z8"))
    # Z2 x Z8: r=8, z=4, index 3; named exact cases plus bounds gaps
    assert {r.status for r in records} <= {"MATCH", "WITHIN_BOUNDS"}
    gap = [r for r in records if r.predicted_kind == "bounds"]
    assert gap and all(r.status == "WITHIN_BOUNDS" for r in gap)
    assert sum(r.predicted_kind == "exact" for r in records) >= 6


def test_z2local_rejects_non_local_grid():
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(suite="z2local", grid="Z6"))


@given(ring_exprs())
@settings(max_examples=80, deadline=None)
def test_local_shape_matches_the_built_ring(expr):
    # z2local decides locality, |R|, |M| and the index of M from the
    # expression; the construction states the same once built
    struct = local_structure(build_ring(expr))
    want = None if struct is None else (
        build_ring(expr).order, len(struct.maximal_ideal),
        struct.nilpotency_index)
    assert verify._local_shape(parse_ring_expr(expr)) == want


# the suites whose grid entries are integers, with the integers per entry
NUMERIC_SUITES = {"zpn": 2, "fields": 2, "z2z2F": 1, "z2FK": 2,
                  "idealizations": 2}
GRID_INTEGERS = st.one_of(
    st.sampled_from((0, 1, -1, 2, 3, 5, 7, 11, 13)),
    st.integers(-20, 20),
    st.integers(4090, 4100),
    st.sampled_from((-4097, 10 ** 18 + 3, -(10 ** 18 + 3))))


@given(st.sampled_from(sorted(NUMERIC_SUITES)), GRID_INTEGERS, GRID_INTEGERS)
@example("zpn", 0, -1)
@example("idealizations", 2, -1)
@example("idealizations", 2, 0)
@settings(max_examples=300, deadline=None)
def test_numeric_grid_entries_give_tasks_or_a_value_error(suite, a, b):
    # a family's check and the order cap refuse an entry before any of its
    # numbers is powered or factored, so no entry ends in another error
    entry = ",".join(map(str, (a, b)[:NUMERIC_SUITES[suite]]))
    try:
        tasks = verify.SUITES[suite](SuiteConfig(suite=suite, grid=entry))
    except ValueError as exc:
        assert f"grid entry {entry!r}: " in str(exc)
        return
    assert [type(task) for task in tasks] == [verify.RingTask]


def test_known_graphs_oracle_cap_reported_not_dropped():
    records = run_suite(SuiteConfig(suite="known_graphs", grid="Z81"))
    assert len(records) == 1
    assert records[0].status == "SKIPPED"
    assert "oracle-cap" in records[0].reason


@pytest.mark.parametrize("suite, grid, ks", [
    ("known_graphs", "Z12", range(-4, 5)),
    ("zpn", "2,4", range(-6, 2)),
    ("bounds", "Z12", [0]),
], ids=["known_graphs", "zpn", "bounds"])
def test_budget_skips_every_k(suite, grid, ks):
    # one spectrum per ring: when it runs out, every cell of the ring skips
    records = run_suite(SuiteConfig(suite=suite, grid=grid, node_budget=1))
    assert [r.k for r in records] == list(ks)
    assert all(r.status == "SKIPPED" and r.reason.startswith("budget(")
               for r in records)


def test_known_graphs_small():
    records = run_suite(SuiteConfig(suite="known_graphs", grid="Z12; Z8"))
    assert all(r.status == "MATCH" for r in records)
    infeasible = [r for r in records if r.predicted_kind == "infeasible"]
    assert infeasible and all(r.solved == "INFEASIBLE" for r in infeasible)


def test_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite(SuiteConfig(suite="nope"))


def test_summarize():
    records = run_suite(SuiteConfig(suite="tables"))
    s = summarize(records)
    assert s == {"records": 18, "MATCH": 18, "WITHIN_BOUNDS": 0,
                 "MISMATCH": 0, "SKIPPED": 0}


def test_each_task_ring_builds_its_graph_once(monkeypatch):
    calls = []

    def counting_build_graph(ring):
        calls.append(ring.label)
        return build_graph(ring)

    monkeypatch.setattr(verify, "build_graph", counting_build_graph)
    run_suite(SuiteConfig(suite="bounds"))
    assert len(calls) == 9  # 8 rings plus the pinned Z2 x Z4 row
    calls.clear()
    run_suite(SuiteConfig(suite="known_graphs", grid="Z12; Z8; Z81"))
    assert calls == ["Z12", "Z8", "Z81"]


def test_perfbench_traced_names_exist(monkeypatch):
    # perfbench/one_pass.py --trace 1 wraps these names by setattr; a
    # missing one would break the traced benchmark run
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    one_pass = importlib.import_module("one_pass")
    for name in one_pass.VERIFY_IMPORTS:
        assert callable(getattr(verify, name, None)), name
    for name in one_pass.SOLVER_INTERNALS:
        assert callable(getattr(solver, name, None)), name


def test_csv_deterministic_modulo_timing():
    records = run_suite(SuiteConfig(suite="tables"))
    again = run_suite(SuiteConfig(suite="tables"))
    a, b = emit_report(records, "csv"), emit_report(again, "csv")
    assert _strip_timing(a) == _strip_timing(b)
    header = a.splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)


def test_csv_row_shape():
    records = run_suite(SuiteConfig(suite="zpn", grid="3,2"))
    rows = list(csv.reader(io.StringIO(emit_report(records, "csv"))))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == len(records) + 1
    for row in rows[1:]:
        assert len(row) == len(CSV_COLUMNS)
        assert row[9] in ("MATCH", "WITHIN_BOUNDS")


def test_markdown_groups_by_ring():
    records = run_suite(SuiteConfig(suite="tables"))
    md = emit_report(records, "md")
    assert md.startswith("# verification report")
    for ring in ("Z12", "Z2 x Z4", "Z8", "Z9"):
        assert f"## {ring}" in md
    assert "| k | gamma_k_d | count_bound | predicted | status |" in md


def test_markdown_oracle_infeasible_row():
    # Z8's graph is a path, so no global defensive 2-alliance exists
    md = emit_report(run_suite(SuiteConfig(suite="known_graphs", grid="Z8")),
                     "md")
    assert "| 2 | INFEASIBLE |  | INFEASIBLE | MATCH |" in md.splitlines()


def test_bounds_prediction_the_solver_misses_is_a_mismatch(monkeypatch):
    # gamma_0(Z8) = 2 lies below [3, 4]
    def missed(cfg):
        return [verify.RingTask(
            verify._check_formula, "Z8", "tables", "missed",
            lambda k: formulas.bounds(3, 4) if k == 0
            else formulas.out_of_range())]

    monkeypatch.setitem(verify.SUITES, "tables", missed)
    [rec] = run_suite(SuiteConfig(suite="tables"))
    assert (rec.k, rec.predicted_kind, rec.predicted_lo, rec.predicted_hi,
            rec.solved, rec.status) == (0, "bounds", 3, 4, 2, "MISMATCH")


def _table_rows(md: str) -> list[list[str]]:
    return [[cell.strip() for cell in line.strip("|").split("|")]
            for line in md.splitlines()
            if line.startswith("| ") and not line.startswith("| k ")]


def test_markdown_bounds_rows():
    # a bounds row's solved value is |Z(R)|, not an alliance number: it goes
    # to the predicted cell with the params that tell the rows apart
    records = run_suite(SuiteConfig(suite="bounds", grid="Z12"))
    rows = _table_rows(emit_report(records, "md"))
    assert len(rows) == len(records)
    assert all(gamma == "" for _, gamma, *_ in rows)
    assert len({tuple(row) for row in rows}) == len(rows)
    assert ["-2", "", "9", "check=A-min; #Z(R)=8 in [0, 9]",
            "WITHIN_BOUNDS"] in rows
    skipped = run_suite(SuiteConfig(suite="bounds", grid="Z64",
                                    node_budget=0))
    assert ["0", "", "", "check=A",
            "SKIPPED(budget(node budget 0 exhausted))"] in \
        _table_rows(emit_report(skipped, "md"))


def test_json_round_trip():
    records = run_suite(SuiteConfig(suite="tables"))
    text = emit_report(records, "json")
    rows = json.loads(text)
    back = records_from_dicts(rows)
    assert records_to_dicts(back) == rows
    assert emit_report(back, "csv") == emit_report(records, "csv")


def test_empty_records_error():
    with pytest.raises(ValueError, match="no records"):
        emit_report([], "csv")


def test_unknown_format_error():
    records = run_suite(SuiteConfig(suite="tables"))
    with pytest.raises(ValueError, match="unknown report format"):
        emit_report(records, "xml")


def test_emit_report_writes_file(tmp_path):
    records = run_suite(SuiteConfig(suite="tables"))
    out = tmp_path / "report.csv"
    text = emit_report(records, "csv", str(out))
    assert out.read_text() == text


# one grid per formula family, each reaching past 100 vertices, with rings
# of up to 150 vertices
WIDE_GRIDS = {
    "zpn": "2,6; 3,4; 5,3; 5,4",
    "fields": "11,13; 8,16; 64,64",
    "z2z2F": "11; 16; 37",
    "z2FK": "5,7; 7,8; 8,16",
    "z2local": "Z49; Z32; Id(Z5, 1); Id(Z11, 1); Z125",
    "idealizations": "2,6; 7,2; 3,3; 5,3",
}


def test_formula_families_on_wide_grids():
    records = [rec for suite, grid in WIDE_GRIDS.items()
               for rec in run_suite(SuiteConfig(suite=suite, grid=grid))]
    assert len(records) == 1617
    assert len({r.family for r in records}) == len(WIDE_GRIDS)
    assert max(r.vertices for r in records) == 150
    assert all(max(r.vertices for r in records if r.family == family) > 100
               for family in {r.family for r in records})
    bad = [r for r in records if r.status not in ("MATCH", "WITHIN_BOUNDS")]
    assert not bad, bad[:3]


# rings of up to 127 vertices for the count bounds and the Z_{p^n} formula
WIDE_BOUNDS_GRID = ("Z2 x Z27; Z125; Z2 x Z49; Z128; Z3 x Z25; Id(Z7, 1); "
                    "Z243")


def test_bounds_and_zpn_on_wide_grids():
    bounds = run_suite(SuiteConfig(suite="bounds", grid=WIDE_BOUNDS_GRID))
    assert len(bounds) == 493
    assert len({r.ring for r in bounds}) == 7
    assert max(r.vertices for r in bounds) == 80
    assert all(r.status == "WITHIN_BOUNDS" for r in bounds), \
        [r for r in bounds if r.status != "WITHIN_BOUNDS"][:3]
    zpn = run_suite(SuiteConfig(suite="zpn", grid="2,8"))
    assert len(zpn) == 128
    assert {(r.ring, r.vertices) for r in zpn} == {("Z256", 127)}
    assert all(r.status == "MATCH" for r in zpn), \
        [r for r in zpn if r.status != "MATCH"][:3]


def test_formula_ranges_lie_within_max_degree():
    # verify checks a formula at the k in [-max_degree, max_degree] it does
    # not call out_of_range; no formula may state a k beyond that window
    configs = [SuiteConfig(suite=suite) for suite in verify.SUITES]
    configs += [SuiteConfig(suite=suite, grid=grid)
                for suite, grid in WIDE_GRIDS.items()]
    tasks = [task for cfg in configs for task in verify.SUITES[cfg.suite](cfg)
             if task.check is verify._check_formula]
    assert len(tasks) == 71
    for task in tasks:
        deg = build_graph(build_ring(task.expr)).max_degree
        outside = [*range(-2 * deg - 2, -deg), *range(deg + 1, 2 * deg + 3)]
        stated = [k for k in outside
                  if task.predict(k).kind != "out_of_range"]
        assert not stated, (task.expr, stated)


def test_formula_suites_have_zero_mismatches():
    for suite, grid in [("fields", "2,3; 3,3"), ("z2z2F", "2; 3"),
                        ("z2FK", "3,3"), ("idealizations", "2,2; 3,1")]:
        records = run_suite(SuiteConfig(suite=suite, grid=grid))
        assert records, suite
        assert all(r.status == "MATCH" for r in records), suite
