"""Rules that the package source itself keeps."""

import ast
import graphlib
import pathlib

import cdiag

PACKAGE = pathlib.Path(cdiag.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so no check may rest on one
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    found = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _package_imports() -> dict:
    """{module: the sibling modules it imports}, read from every
    ``from .x import ...`` and ``from . import x`` in the package."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        deps = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                deps.update([node.module.split(".")[0]] if node.module
                            else [alias.name for alias in node.names])
        graph[path.stem] = deps
    return graph


def test_the_package_import_graph_is_acyclic():
    graph = _package_imports()
    assert {"chains", "classifying"} <= graph["finset"] and "cli" in graph["__main__"]
    # the two closed-form families share the comparison, never each other
    assert "finvect" not in graph["finset"] and "finset" not in graph["finvect"]
    # raises graphlib.CycleError on an import cycle
    assert set(graphlib.TopologicalSorter(graph).static_order()) >= set(graph)


def test_the_row_fields_are_spelled_once():
    # a component row is a tuple in Component field order; only the JSON
    # mapping names its fields, so no command copies the schema
    counts = {name: 0 for name in ("representative", "orbit_size", "group_order", "group_expr")}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Constant) and node.value in counts:
                counts[node.value] += 1
    assert counts == dict.fromkeys(counts, 1)
