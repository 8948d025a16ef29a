"""No package module touches another object's private names.

A private name is one with a single leading underscore (dunders are
public protocol).  Only ``self`` and ``cls`` may reach them through an
attribute, and no ``from ... import`` may name one; a module's own
private functions are called by bare name.  The test references obey the
same rule, so they cannot borrow the engine code they check.  Only
``rings`` reads the environment: it alone decides the ring order cap.
The cap is checked where input enters: besides ``rings``, only the
expression parser and ``verify``'s grid-integer reader and ``_zpn`` name
``capped_order``, so no suite family grows a check of its own.
In ``solver`` only the class search names ``_ClassTables``, which groups
the twins, so the oracle stays independent of the class view.  The class
search sees the graph only through those tables: ``_Search``,
``_solve_with_gamma`` and ``_alliance_lower_bound`` read no graph
attribute.  The symmetry finder works on class-table data alone, and
only ``_ClassTables`` calls it; the oracle and the vertex-search
reference never name it or the symmetries, so the cross-checks stay
independent of the rule they check.  No test module imports another:
shared strategies and helpers live in ``tests/strategies.py``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "zdalliance"
SOURCES = sorted(PACKAGE.glob("*.py"))
TESTS = Path(__file__).resolve().parent
ENVIRONMENT_NAMES = ("environ", "getenv")
TEST_MODULES = sorted(TESTS.glob("test_*.py"))
REFERENCES = sorted([TESTS / "vertex_search.py", TESTS / "ring_axioms.py",
                     *TESTS.glob("*_reference.py")])
CLASS_SEARCH = ("_Search", "_solve_with_gamma", "_alliance_lower_bound")
GRAPH_ATTRIBUTES = ("graph", "adj", "closed", "full_mask", "vertex_count",
                    "min_degree", "max_degree")
ORACLE = ("_oracle_pass", "oracle_solve", "oracle_spectrum")
# the symmetry finder and its helpers, and the tables' name for its output
FINDER = ("_class_automorphisms", "_refine", "_pin", "_lifts")
FINDER_ARGUMENTS = ["size", "clique", "nb", "degree"]
# the top-level definitions outside rings that may name capped_order
CAP_GATES = {"expressions.py": {"_Parser"},
             "verify.py": {"_within_cap", "_zpn"}}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _foreign_private_reads(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [f"{path.name}:{node.lineno}: import {alias.name}"
                      for alias in node.names if _is_private(alias.name)]
            continue
        if not isinstance(node, ast.Attribute) or not _is_private(node.attr):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id in ("self", "cls"):
            continue
        found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    return found


def _test_module_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    return [name for name in modules
            if name.split(".")[-1].startswith("test_")]


def _environment_reads(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"{path.name}:{node.lineno}: import {alias.name}"
                      for alias in node.names
                      if alias.name in ENVIRONMENT_NAMES]
        elif (isinstance(node, ast.Attribute)
              and node.attr in ENVIRONMENT_NAMES
              and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    return found


def _names(path: Path, target: str) -> dict[str, bool]:
    """Whether each top-level definition but ``target`` itself names
    ``target``, in its body or in an annotation."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {top.name: any(isinstance(node, ast.Name) and node.id == target
                          for node in ast.walk(top))
            for top in tree.body if getattr(top, "name", target) != target}


def _mentions(tree: ast.AST, names: tuple[str, ...]) -> list[str]:
    """Every name or attribute in ``names`` used anywhere in ``tree``."""
    return [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in names
            or isinstance(node, ast.Attribute) and node.attr in names]


def _graph_reads(path: Path, names: tuple[str, ...]) -> dict[str, list]:
    """The graph attributes read inside each named top-level definition."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {top.name: [f"{node.lineno}: {ast.unparse(node)}"
                       for node in ast.walk(top)
                       if isinstance(node, ast.Attribute)
                       and node.attr in GRAPH_ATTRIBUTES]
            for top in tree.body if getattr(top, "name", None) in names}


def test_package_sources_found():
    assert {p.name for p in SOURCES} >= {"rings.py", "graphs.py", "solver.py"}
    assert {p.name for p in REFERENCES} >= {
        "vertex_search.py", "ring_axioms.py", "oracle_reference.py",
        "graph_reference.py", "local_reference.py"}
    assert {p.name for p in TEST_MODULES} >= {"test_rings.py", "test_solver.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_foreign_private_reads(path):
    assert _foreign_private_reads(path) == []


@pytest.mark.parametrize("path", REFERENCES, ids=lambda p: p.name)
def test_reference_reads_no_private_names(path):
    assert _foreign_private_reads(path) == []


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda p: p.name)
def test_no_test_module_imports_another(path):
    assert _test_module_imports(path) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_rings_reads_the_environment(path):
    reads = _environment_reads(path)
    assert bool(reads) == (path.name == "rings.py"), reads


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "rings.py"],
                         ids=lambda p: p.name)
def test_only_the_input_gates_name_the_cap_check(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    named = {getattr(top, "name", f"line {top.lineno}") for top in tree.body
             if _mentions(top, ("capped_order",))}
    assert named == CAP_GATES.get(path.name, set())


def test_only_the_class_search_names_the_class_tables():
    names = _names(PACKAGE / "solver.py", "_ClassTables")
    assert {name for name, used in names.items() if used} == {
        "solve", "spectrum", "_Search", "_alliance_lower_bound"}
    assert [names[name] for name in ORACLE] == [False] * len(ORACLE)


def test_class_search_sees_the_graph_only_through_its_tables():
    reads = _graph_reads(PACKAGE / "solver.py", CLASS_SEARCH)
    assert reads == {name: [] for name in CLASS_SEARCH}


def test_the_finder_reads_only_class_table_data():
    path = PACKAGE / "solver.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    finder = {top.name: top for top in tree.body
              if getattr(top, "name", None) in FINDER}
    assert sorted(finder) == sorted(FINDER)
    assert [a.arg for a in finder["_class_automorphisms"].args.args] == \
        FINDER_ARGUMENTS
    assert _graph_reads(path, FINDER) == {name: [] for name in FINDER}
    # the helpers take the neighbour masks and partitions, nothing else
    for name in FINDER:
        assert not _mentions(finder[name], ("self", "tables", "graph")), name


def test_only_the_class_tables_call_the_finder():
    names = _names(PACKAGE / "solver.py", "_class_automorphisms")
    assert {name for name, used in names.items() if used} == {"_ClassTables"}


def test_the_cross_checks_never_name_the_symmetries():
    path = PACKAGE / "solver.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    oracle = [top for top in tree.body if getattr(top, "name", None) in ORACLE]
    assert len(oracle) == len(ORACLE)
    names = (*FINDER, "symmetries")
    for top in oracle:
        assert _mentions(top, names) == [], top.name
    reference = TESTS / "vertex_search.py"
    assert _mentions(ast.parse(reference.read_text(encoding="utf-8")),
                     names) == []
