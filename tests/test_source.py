"""Rules that the package source itself keeps."""

import ast
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
