"""Rules that the package source itself keeps."""

import ast
import graphlib
import importlib
import pathlib
import re

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


MODULES = {path.stem: importlib.import_module(f"cdiag.{path.stem}")
           for path in sorted(PACKAGE.glob("*.py")) if not path.stem.startswith("_")}


def _resolves(name: str) -> bool:
    """Whether ``name``, dotted or bare, names an attribute of the package:
    from ``cdiag``, from one of its modules, or from a class one of them
    defines.  A dataclass field counts as an attribute of its class."""
    head, *rest = name.split(".")
    if head == "cdiag" or head in MODULES:
        obj = MODULES.get(head, cdiag)
    else:
        owners = [getattr(m, head) for m in MODULES.values() if hasattr(m, head)]
        if not owners:
            return False
        obj = owners[0]
    for attr in rest:
        if not (hasattr(obj, attr) or attr in getattr(obj, "__dataclass_fields__", {})):
            return False
        obj = getattr(obj, attr, None)
    return True


def test_the_readme_names_only_what_exists():
    # a backticked name that starts at the package, one of its modules or a
    # class (``chains.level_blocks``, ``TupleBlock.orders``, ``Orbit``), or
    # a bare private name (``_SCAN_CELLS``), must still be there; other
    # spans (flags, commands, JSON keys) are not names of the package
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    spans = re.findall(r"`([^`\n]+)`", readme.read_text(encoding="utf-8"))
    names = {span.removesuffix("()") for span in spans}
    checked = sorted(n for n in names if re.fullmatch(r"\w+(\.\w+)*", n)
                     and (n.split(".")[0] in MODULES or n.startswith(("cdiag.", "_"))
                          or re.match(r"[A-Z][a-z]", n)))
    assert len(checked) > 40
    assert [n for n in checked if not _resolves(n)] == []


def test_no_process_wide_caches_in_the_package():
    # a memo lives as long as the command that made it (groups.GroupMemo);
    # functools.cache or lru_cache would keep results across commands, so
    # that the second command of one process would be faster than any
    # command line run alone
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, ast.ImportFrom) and node.module == "functools"
                     else [node.attr] if isinstance(node, ast.Attribute) else [])
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name in ("cache", "lru_cache")]
    assert found == []
