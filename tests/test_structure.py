"""Structural guards over the library source, read as syntax trees."""

import ast
from pathlib import Path

import pytest

import fnclass

SOURCES = sorted(Path(fnclass.__file__).parent.glob("*.py"))


def tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_np_unique(path):
    # rows are grouped by `bitops.group_rows`, the one row grouper
    calls = [node.lineno for node in ast.walk(tree(path))
             if isinstance(node, ast.Attribute) and node.attr == "unique"
             and isinstance(node.value, ast.Name)
             and node.value.id in ("np", "numpy")]
    assert not calls, f"np.unique at lines {calls}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_at_module_level(path):
    nested = [node.lineno for fn in ast.walk(tree(path))
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn)
              if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not nested, f"imports inside functions at lines {nested}"


def test_all_names_resolve():
    # every export exists and is public: a deleted function's name fails
    missing = [name for name in fnclass.__all__
               if not hasattr(fnclass, name)]
    private = [name for name in fnclass.__all__ if name.startswith("_")]
    assert not missing and not private, (missing, private)


def test_scan5_is_a_leaf_of_bitops_and_groups():
    path = Path(fnclass.__file__).parent / "scan5.py"
    package = set()
    for node in ast.walk(tree(path)):
        if isinstance(node, ast.ImportFrom) and node.level:
            package |= ({alias.name for alias in node.names}
                        if node.module is None else {node.module})
    assert package == {"bitops", "groups"}


def test_scan5_builds_lattices_straight_from_ids():
    # binary ids are their own row keys: nothing in scan5 decodes them
    path = Path(fnclass.__file__).parent / "scan5.py"
    names = {node.attr for node in ast.walk(tree(path))
             if isinstance(node, ast.Attribute)}
    assert "keys_from_ids" in names and "tables_from_ids" not in names


def test_one_label_pass_in_groups():
    # the orbit labels are gathered in one pass, which resumes from a
    # group's base: no second gather loop beside it
    path = Path(fnclass.__file__).parent / "groups.py"
    callers = {fn.name for fn in ast.walk(tree(path))
               if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
               for node in ast.walk(fn)
               if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr == "take"
               and isinstance(node.func.value, ast.Name)
               and node.func.value.id in ("np", "numpy")}
    assert len(callers) == 1, f"np.take in {sorted(callers)}"
