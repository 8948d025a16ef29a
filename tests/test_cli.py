"""Command line behavior: output shapes and exit codes."""

import dataclasses
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from zdalliance import formulas
from zdalliance.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ring_info_text(capsys):
    code, out, err = run(capsys, "ring-info", "Z2 x Z4")
    assert code == 0
    assert "ring: Z2 x Z4" in out
    assert "order: 8" in out
    assert "zero divisors (with 0): 6" in out
    assert "graph: 5 vertices" in out


def test_ring_info_json(capsys):
    code, out, _ = run(capsys, "ring-info", "Z8", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 8
    assert payload["is_local"] is True
    assert payload["nilpotency_index"] == 3
    assert payload["graph"]["vertices"] == 3


def test_ring_info_field_has_no_graph(capsys):
    code, out, _ = run(capsys, "ring-info", "GF(4)", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["is_field"] is True
    assert payload["graph"] is None


def test_graph_export_dot(capsys):
    code, out, _ = run(capsys, "graph-export", "Z8")
    assert code == 0
    assert out.startswith('graph "Z8" {')
    assert "n1 -- n2;" in out


def test_graph_export_dimacs_to_file(capsys, tmp_path):
    target = tmp_path / "z8.col"
    code, out, _ = run(capsys, "graph-export", "Z8", "--format", "dimacs",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == "c Z8\np edge 3 2\ne 1 2\ne 2 3\n"


def test_solve_text_and_witness(capsys):
    code, out, _ = run(capsys, "solve", "Z12", "-k", "-1", "--witness")
    assert code == 0
    assert "gamma=3" in out
    assert "witness:" in out


def test_solve_json(capsys):
    code, out, _ = run(capsys, "solve", "Z12", "-k", "-1", "--json",
                       "--witness", "--oracle")
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 3 and payload["feasible"] is True
    assert len(payload["witness"]) == 3
    assert payload["oracle"]["agrees"] is True


def test_solve_oracle_skipped_over_cap(capsys):
    # 27 vertices; the solve result still prints, the cross-check does not
    code, out, _ = run(capsys, "solve", "Z2 x GF(4) x Z5", "-k", "1",
                       "--oracle", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 11
    assert "skipped" in payload["oracle"]
    assert "22" in payload["oracle"]["skipped"]


def test_solve_infeasible(capsys):
    code, out, _ = run(capsys, "solve", "Z8", "-k", "2")
    assert code == 0
    assert "INFEASIBLE" in out


def test_solve_budget_exhausted(capsys):
    code, out, err = run(capsys, "solve", "Z2 x Z27", "-k", "1",
                         "--budget", "5")
    assert code == 3
    assert "UNKNOWN" in out
    assert "budget" in err


def test_solve_budget_exhausted_json(capsys):
    code, out, err = run(capsys, "solve", "Z2 x Z27", "-k", "1",
                         "--budget", "5", "--json")
    assert code == 3
    assert json.loads(out) == {"ring": "Z2 x Z27", "k": 1,
                               "status": "UNKNOWN",
                               "reason": "node budget 5 exhausted"}
    assert err == ""


def test_solve_oracle_disagreement_exits_2(capsys, monkeypatch):
    import zdalliance.cli as C
    from zdalliance import oracle_solve

    def one_more(problem):
        ref = oracle_solve(problem)
        return dataclasses.replace(ref, size=ref.size + 1)

    monkeypatch.setattr(C, "oracle_solve", one_more)
    code, out, _ = run(capsys, "solve", "Z12", "-k", "0", "--oracle")
    assert code == 2
    assert out.splitlines()[-1].startswith("oracle: DISAGREES (")


def test_parse_error_exit_1_with_caret(capsys):
    code, out, err = run(capsys, "solve", "Z4 y Z2", "-k", "0")
    assert code == 1
    assert "offset 3" in err
    assert "   ^" in err


def test_verify_grid_parse_error_points_into_grid_entry(capsys):
    code, _, err = run(capsys, "verify", "known_graphs", "--grid", "Z4; 2")
    assert code == 1
    assert err.splitlines() == ["error: expected a ring term (offset 0)",
                                "  2", "  ^"]


@pytest.mark.parametrize("argv, order_cap, message", [
    (["verify", "zpn", "--grid", "2;3"], None,
     "grid entry '2': expected two integers 'a,b'"),
    (["verify", "zpn", "--grid", "2,3,4"], None,
     "grid entry '2,3,4': expected two integers 'a,b'"),
    (["verify", "zpn", "--grid", "2,3,99999"], None,
     "grid entry '2,3,99999': expected two integers 'a,b'"),
    (["verify", "z2z2F", "--grid", "x"], None,
     "grid entry 'x': expected an integer"),
    (["verify", "tables", "--node-budget", "lots"], None,
     "--node-budget: expected an integer, got 'lots'"),
    (["verify", "tables", "--time-budget", "soon"], None,
     "--time-budget: expected a number, got 'soon'"),
    (["ring-info", "Z4"], "abc",
     "ZDK_ORDER_CAP: expected an integer, got 'abc'"),
    (["ring-info", "Z4"], "-5",
     "ZDK_ORDER_CAP: expected an integer of at least 2, got '-5'"),
    (["verify", "tables"], "1",
     "ZDK_ORDER_CAP: expected an integer of at least 2, got '1'"),
    (["verify", "zpn", "--grid", "2,4"], "10",
     "grid entry '2,4': Z2^4 exceeds the order cap 10"),
    (["verify", "zpn", "--grid", "2,4"], "abc",
     "ZDK_ORDER_CAP: expected an integer, got 'abc'"),
    (["verify", "idealizations", "--grid", "4,1"], None,
     "grid entry '4,1': 4 is not prime"),
    (["solve", "Z12", "-k", "0", "--budget", "-3"], None,
     "--budget: expected a non-negative integer, got -3"),
    (["spectrum", "Z9", "--budget", "-1"], None,
     "--budget: expected a non-negative integer, got -1"),
    (["verify", "tables", "--node-budget", "-1"], None,
     "--node-budget: expected a non-negative integer, got -1"),
    (["verify", "tables", "--node-budget", "-4"], None,
     "--node-budget: expected a non-negative integer, got -4"),
    (["verify", "tables", "--time-budget", "-0.5"], None,
     "--time-budget: expected a non-negative number, got -0.5"),
    (["verify", "tables", "--time-budget", "-2.5"], None,
     "--time-budget: expected a non-negative number, got -2.5"),
    (["verify", "tables", "--time-budget", "nan"], None,
     "--time-budget: expected a non-negative number, got nan"),
    (["verify", "zpn", "--grid", "4,2"], None,
     "grid entry '4,2': 4 is not prime"),
    (["verify", "zpn", "--grid", "3,2; 4,2"], None,
     "grid entry '4,2': 4 is not prime"),
    (["verify", "zpn", "--grid", "2,1"], None,
     "grid entry '2,1': prime-power family needs exponent >= 2, got 1"),
    (["verify", "fields", "--grid", "6,7"], None,
     "grid entry '6,7': 6 is not a prime power"),
    (["verify", "fields", "--grid", "7,5"], None,
     "grid entry '7,5': need 2 <= |F| <= |K|, got 7, 5"),
    (["verify", "z2z2F", "--grid", "1"], None,
     "grid entry '1': 1 is not a prime power"),
    (["verify", "z2FK", "--grid", "2,3"], None,
     "grid entry '2,3': need 3 <= |F| <= |K|, got 2, 3"),
    (["verify", "z2local", "--grid", "Z6"], None,
     "grid entry 'Z6': Z6 is not a local non-field ring"),
    (["verify", "zpn", "--grid", ";"], None, "grid ';' has no entries"),
    (["verify", "known_graphs", "--grid", ""], None,
     "grid '' has no entries"),
    (["verify", "tables", "--grid", "2,3"], None,
     "suite 'tables' takes no grid"),
    (["verify", "tables", "--format", "md"], None, "--format needs --out"),
    (["verify", "known_graphs", "--grid", "Z4; Z6; Z5"], None,
     "grid entry 'Z5': Z5 is a field: no nonzero zero-divisors"),
    (["verify", "bounds", "--grid", "Z9; GF(4)"], None,
     "grid entry 'GF(4)': GF(4) is a field: no nonzero zero-divisors"),
    # numbers far above the cap are refused before they are factored or
    # raised to a power
    (["verify", "zpn", "--grid", "1000000000000000003,2"], None,
     "grid entry '1000000000000000003,2': "
     "1000000000000000003 exceeds the order cap 4096"),
    (["verify", "known_graphs", "--grid", "Z1000000000000000003"], None,
     "grid entry 'Z1000000000000000003': Z1000000000000000003 exceeds the "
     "order cap 4096"),
    (["ring-info", "GF(1000000000000000003, 2)"], None,
     "GF(1000000000000000003, 2) exceeds the order cap 4096"),
    (["ring-info", "GF(1000000000000000003, 0)"], None,
     "GF(1000000000000000003, 0) exceeds the order cap 4096"),
    (["verify", "known_graphs", "--grid", "GF(2,100000000)"], None,
     "grid entry 'GF(2,100000000)': GF(2,100000000) exceeds the order cap "
     "4096"),
    (["verify", "fields", "--grid", "1000000000000000003,1000000000000000009"],
     None, "grid entry '1000000000000000003,1000000000000000009': "
     "1000000000000000003 exceeds the order cap 4096"),
    (["verify", "idealizations", "--grid", "1000000000000000003,1"], None,
     "grid entry '1000000000000000003,1': 1000000000000000003 exceeds the "
     "order cap 4096"),
    (["verify", "z2local", "--grid", "Id(Z4, 100000000000)"], None,
     "grid entry 'Id(Z4, 100000000000)': Id(Z4, 100000000000) exceeds the "
     "order cap 4096"),
    (["verify", "zpn", "--grid", "3,100000000"], None,
     "grid entry '3,100000000': 100000000 exceeds the order cap 4096"),
    (["verify", "zpn", "--grid", "4096,4096"], None,
     "grid entry '4096,4096': Z4096^4096 exceeds the order cap 4096"),
    (["verify", "z2z2F", "--grid", "1000000000000000003"], None,
     "grid entry '1000000000000000003': 1000000000000000003 exceeds the "
     "order cap 4096"),
    (["verify", "z2FK", "--grid", "3,1000000000000000003"], None,
     "grid entry '3,1000000000000000003': 1000000000000000003 exceeds the "
     "order cap 4096"),
    (["verify", "bounds", "--grid", "Z1000000000000000003"], None,
     "grid entry 'Z1000000000000000003': Z1000000000000000003 exceeds the "
     "order cap 4096"),
    (["ring-info", "Z8190"], "8192",
     "graph on 6461 vertices exceeds the cap 4096"),
    # a family's own check runs before p^n is formed
    (["verify", "zpn", "--grid", "0,-1"], None,
     "grid entry '0,-1': 0 is not prime"),
    (["verify", "idealizations", "--grid", "2,-1"], None,
     "grid entry '2,-1': idealization rank must be >= 1, got -1"),
    (["verify", "idealizations", "--grid", "2,0"], None,
     "grid entry '2,0': idealization rank must be >= 1, got 0"),
], ids=["pair-grid-one-value", "pair-grid-three-values",
        "pair-grid-three-values-above-the-cap", "int-grid",
        "node-budget-not-integer", "time-budget-not-number", "order-cap-env",
        "order-cap-env-negative", "order-cap-env-one", "order-cap-verify",
        "order-cap-env-grid",
        "idealization-grid-not-prime", "solve-budget", "spectrum-budget",
        "node-budget-flag", "node-budget-flag-negative", "time-budget-flag",
        "time-budget-flag-negative", "time-budget-nan", "zpn-grid-not-prime", "zpn-grid-second-entry",
        "zpn-grid-exponent-one", "fields-grid-not-prime-power",
        "fields-grid-order", "z2z2F-grid-one", "z2FK-grid-small-field",
        "z2local-grid-not-local", "grid-no-entries", "grid-empty",
        "tables-grid", "format-without-out", "known-graphs-grid-field",
        "bounds-grid-field", "zpn-grid-huge-prime", "known-graphs-grid-huge-zn",
        "ring-info-huge-gf", "ring-info-huge-gf-degree-zero",
        "known-graphs-grid-huge-gf-degree",
        "fields-grid-huge", "idealization-grid-huge-prime",
        "z2local-grid-huge-rank", "zpn-grid-huge-exponent",
        "zpn-grid-power-above-the-cap", "z2z2F-grid-huge",
        "z2FK-grid-huge", "bounds-grid-huge-zn",
        "ring-info-graph-above-the-vertex-cap", "zpn-grid-zero-negative",
        "idealization-grid-negative-rank", "idealization-grid-rank-zero"])
def test_malformed_run_parameter_names_its_source(
        capsys, monkeypatch, argv, order_cap, message):
    if order_cap is not None:
        monkeypatch.setenv("ZDK_ORDER_CAP", order_cap)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_bad_grid_entry_builds_no_ring(capsys, monkeypatch):
    # Z9 comes first in the grid; the bad second entry must stop the run
    # before Z9 is built, let alone solved
    import zdalliance.verify as V

    def no_build(expr):
        raise AssertionError(f"built {expr}")

    monkeypatch.setattr(V, "build_ring", no_build)
    code, _, err = run(capsys, "verify", "zpn", "--grid", "3,2; 4,2")
    assert code == 1
    assert err == "error: grid entry '4,2': 4 is not prime\n"


@pytest.mark.parametrize("suite, grid, field", [
    ("known_graphs", "Z4; Z6; Z5", "Z5"), ("bounds", "Z9; GF(4)", "GF(4)"),
    ("bounds", "Z9; (GF(2, 3))", "GF(8)")])
def test_field_grid_entry_builds_no_ring(capsys, monkeypatch, suite, grid,
                                         field):
    # a field entry is refused from its expression, before the rings
    # ahead of it in the grid are built
    import zdalliance.verify as V

    def no_build(expr):
        raise AssertionError(f"built {expr}")

    monkeypatch.setattr(V, "build_ring", no_build)
    code, _, err = run(capsys, "verify", suite, "--grid", grid)
    assert code == 1
    entry = grid.split(";")[-1].strip()
    assert err == (f"error: grid entry {entry!r}: {field} is a field: "
                   "no nonzero zero-divisors\n")


@pytest.mark.parametrize("grid, entry", [
    ("Z9; Z6", "Z6"), ("Z9; GF(4)", "GF(4)"), ("Z8; Z7", "Z7"),
    ("Id(Z3, 1); Z2 x Z4", "Z2 x Z4"), ("Z4; Id(Z6, 1)", "Id(Z6, 1)")])
def test_non_local_grid_entry_builds_no_ring(capsys, monkeypatch, grid,
                                             entry):
    # z2local reads locality off the expression, so a non-local or field
    # entry is refused before the rings ahead of it in the grid are built
    import zdalliance.verify as V

    def no_build(expr):
        raise AssertionError(f"built {expr}")

    monkeypatch.setattr(V, "build_ring", no_build)
    code, _, err = run(capsys, "verify", "z2local", "--grid", grid)
    assert code == 1
    assert err == (f"error: grid entry {entry!r}: {entry} is not a local "
                   "non-field ring\n")


@pytest.mark.parametrize("suite, grid, ring", [
    ("z2local", "Z9; Z4096", "Z2 x Z4096"), ("zpn", "3,2; 2,13", "Z2^13"),
    ("idealizations", "2,1; 2,12", "Id(Z2, 12)"),
    ("known_graphs", "Z6; Z2 x Z4096", "Z2 x Z4096")])
def test_grid_entry_above_the_cap_builds_no_ring(capsys, monkeypatch, suite,
                                                 grid, ring):
    # the order is read off the entry's expression, so an entry above the
    # cap is refused before the rings ahead of it in the grid are built
    import zdalliance.verify as V

    def no_build(expr):
        raise AssertionError(f"built {expr}")

    monkeypatch.setattr(V, "build_ring", no_build)
    code, _, err = run(capsys, "verify", suite, "--grid", grid)
    assert code == 1
    entry = grid.split(";")[-1].strip()
    assert err == (f"error: grid entry {entry!r}: {ring} exceeds the order "
                   "cap 4096\n")


def test_semantic_error_exit_1(capsys):
    code, _, err = run(capsys, "ring-info", "GF(6)")
    assert code == 1
    assert "GF" in err


def test_order_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("ZDK_ORDER_CAP", "10")
    code, _, err = run(capsys, "ring-info", "Z100")
    assert code == 1
    assert "cap" in err
    monkeypatch.setenv("ZDK_ORDER_CAP", "200")
    code, _, _ = run(capsys, "ring-info", "Z100")
    assert code == 0
    # verify obeys the same cap: Z4913 = Z_{17^3} is above the default 4096
    monkeypatch.setenv("ZDK_ORDER_CAP", "5000")
    code, out, err = run(capsys, "verify", "zpn", "--grid", "17,3")
    assert code == 0, err
    assert out.splitlines()[0] == ("suite zpn: 304 records, 304 MATCH, "
                                   "0 WITHIN_BOUNDS, 0 MISMATCH, 0 SKIPPED")


def test_unknown_subcommand_exit_1(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    assert main(["verify", "tables", "--jobs", "2"]) == 1
    assert main(["verify", "tables", "--max-vertices", "4"]) == 1
    assert main(["verify", "zpn", "--config", "F"]) == 1


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    # each line of the README's CLI block, in order: a flag the CLI no
    # longer takes cannot linger in the docs
    block = README.read_text().split("## CLI\n\n```\n", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    assert len(lines) == 9
    monkeypatch.chdir(tmp_path)
    for line in lines:
        program, *argv = shlex.split(line)
        assert program == "zdalliance"
        assert main(argv) == 0, line
        capsys.readouterr()


def test_cli_import_starts_no_process_machinery():
    # `import zdalliance.cli` is the benchmark's setup_s; a process pool
    # costs it tens of milliseconds and about 2 MB
    probe = ("import sys, zdalliance.cli; print(sorted(m for m in "
             "('concurrent.futures', 'multiprocessing') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_spectrum_text(capsys):
    code, out, _ = run(capsys, "spectrum", "Z9")
    assert code == 0
    assert "k=  -1  gamma=1" in out
    assert "k=   1  gamma=2" in out


def test_spectrum_json(capsys):
    code, out, _ = run(capsys, "spectrum", "Z12", "--json")
    assert code == 0
    payload = json.loads(out)
    got = {row["k"]: row["size"] for row in payload["spectrum"]
           if row["feasible"]}
    assert got == {-4: 2, -3: 2, -2: 2, -1: 3, 0: 4, 1: 5}
    assert any(not row["feasible"] for row in payload["spectrum"])


def test_spectrum_budget_exhausted_json(capsys):
    code, out, err = run(capsys, "spectrum", "Z2 x Z4 x Z4", "--budget", "5",
                         "--json")
    assert code == 3
    payload = json.loads(out)
    assert payload["ring"] == "Z2 x Z4 x Z4"
    assert payload["status"] == "UNKNOWN"
    assert "budget" in payload["reason"]
    assert "budget" in err


def test_spectrum_budget_exhausted_text(capsys):
    code, out, err = run(capsys, "spectrum", "Z2 x Z4 x Z4", "--budget", "5")
    assert code == 3
    assert out == ""
    assert "budget exhausted" in err


def test_spectrum_oracle_agrees(capsys):
    code, out, _ = run(capsys, "spectrum", "Z12", "--oracle")
    assert code == 0
    assert out.splitlines()[-1] == "oracle: agrees"


def test_spectrum_oracle_json(capsys):
    code, out, _ = run(capsys, "spectrum", "Z12", "--oracle", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle"] == {"agrees": True, "disagrees_at": []}


def test_spectrum_oracle_skipped_over_cap(capsys):
    # 26 vertices; the spectrum still prints, the cross-check does not
    code, out, _ = run(capsys, "spectrum", "Z81", "--oracle")
    assert code == 0
    assert "k=   0  gamma=" in out
    assert out.splitlines()[-1].startswith("oracle: skipped (")
    assert "22" in out.splitlines()[-1]
    code, out, _ = run(capsys, "spectrum", "Z81", "--oracle", "--json")
    assert code == 0
    assert "22" in json.loads(out)["oracle"]["skipped"]


def test_spectrum_oracle_disagreement_exits_2(capsys, monkeypatch):
    import zdalliance.cli as C
    from zdalliance import oracle_spectrum

    def wrong_at_zero(graph):
        refs = oracle_spectrum(graph)
        refs[0] = refs[1]
        return refs

    monkeypatch.setattr(C, "oracle_spectrum", wrong_at_zero)
    code, out, _ = run(capsys, "spectrum", "Z12", "--oracle")
    assert code == 2
    assert out.splitlines()[-1] == "oracle: DISAGREES at k=0"


def test_verify_summary_and_report(capsys, tmp_path):
    out_file = tmp_path / "tables.csv"
    code, out, _ = run(capsys, "verify", "tables", "--out", str(out_file))
    assert code == 0
    assert "18 records, 18 MATCH" in out
    assert out_file.read_text().startswith("family,params,ring,")


def test_verify_json_then_report(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", "zpn", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["MISMATCH"] == 0
    records_file = tmp_path / "records.json"
    records_file.write_text(json.dumps(payload["records"]))
    code, out, _ = run(capsys, "report", "--in", str(records_file),
                       "--format", "md")
    assert code == 0
    assert out.startswith("# verification report")
    assert "## Z8" in out


def test_report_reads_the_verify_json_object(capsys, tmp_path):
    # report --in takes what verify --json prints, not only a bare list
    code, out, _ = run(capsys, "verify", "tables", "--json")
    assert code == 0
    records_file = tmp_path / "verify.json"
    records_file.write_text(out)
    code, report, _ = run(capsys, "report", "--in", str(records_file),
                          "--format", "json")
    assert code == 0
    assert json.loads(report) == json.loads(out)["records"]


def test_verify_mismatch_exits_2(capsys, monkeypatch):
    # a wrong pinned prediction must surface as exit code 2
    import zdalliance.verify as V

    def bad_suite(cfg):
        return [V.RingTask(V._check_formula, "Z8", "tables", "bad",
                           lambda k: formulas.exact(99) if k == 0
                           else formulas.out_of_range())]

    monkeypatch.setitem(V.SUITES, "tables", bad_suite)
    code, out, _ = run(capsys, "verify", "tables")
    assert code == 2
    assert "1 MISMATCH" in out
    assert "MISMATCH Z8" in out


def test_verify_grid_flag(capsys):
    code, out, _ = run(capsys, "verify", "zpn", "--grid", "3,2")
    assert code == 0
    assert "3 records" in out
    assert "3 MATCH" in out


def test_report_row_missing_key_exit_1(capsys, tmp_path):
    records_file = tmp_path / "records.json"
    records_file.write_text(json.dumps(
        [{"family": "tables", "ring": "Z8", "vertices": 3, "k": 0,
          "predicted_kind": "exact", "status": "MATCH"}]))
    code, out, err = run(capsys, "report", "--in", str(records_file))
    assert code == 1
    assert out == ""
    assert "error: record 0: missing key 'params'" in err


@pytest.mark.parametrize("key, value, message", [
    ("k", None, "error: record 1: key 'k': expected an integer, got None"),
    ("vertices", "three",
     "error: record 1: key 'vertices': expected an integer, got 'three'"),
    ("nodes", None,
     "error: record 1: key 'nodes': expected an integer, got None"),
    ("millis", [1], "error: record 1: key 'millis': expected a number, got [1]"),
    ("solved", 0, "error: record 1: key 'solved': expected None, "
     "'INFEASIBLE' or an integer >= 1, got 0"),
    ("solved", "x", "error: record 1: key 'solved': expected None, "
     "'INFEASIBLE' or an integer >= 1, got 'x'"),
    ("predicted_lo", "x", "error: record 1: key 'predicted_lo': "
     "expected None or an integer, got 'x'"),
    ("predicted_hi", [1], "error: record 1: key 'predicted_hi': "
     "expected None or an integer, got [1]"),
    ("status", "BOGUS", "error: record 1: key 'status': expected one of "
     "MATCH, WITHIN_BOUNDS, MISMATCH, SKIPPED, got 'BOGUS'"),
    ("predicted_kind", "guess", "error: record 1: key 'predicted_kind': "
     "expected one of exact, bounds, infeasible, got 'guess'"),
    ("ring", 5, "error: record 1: key 'ring': expected a string, got 5"),
])
def test_report_row_bad_value_exit_1(capsys, tmp_path, key, value, message):
    row = {"family": "tables", "params": "", "ring": "Z8", "vertices": 3,
           "k": 0, "predicted_kind": "exact", "status": "MATCH"}
    records_file = tmp_path / "records.json"
    records_file.write_text(json.dumps([row, dict(row, **{key: value})]))
    code, out, err = run(capsys, "report", "--in", str(records_file))
    assert code == 1
    assert out == ""
    assert message in err
    assert "Traceback" not in err


def test_report_scalar_file_exit_1(capsys, tmp_path):
    records_file = tmp_path / "records.json"
    records_file.write_text("5")
    code, out, err = run(capsys, "report", "--in", str(records_file))
    assert code == 1
    assert out == ""
    assert "error:" in err and "got int" in err


def test_report_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "report", "--in", str(tmp_path / "nope.json"))
    assert code == 1
    assert "error" in err
