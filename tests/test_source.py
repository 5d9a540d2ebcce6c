"""Checks on the source of the fszd package itself."""
import ast
from pathlib import Path

import fszd


def test_no_assert_statements():
    # invariant checks raise a typed FszdError; an assert would vanish under python -O
    files = sorted(Path(fszd.__file__).parent.glob("*.py"))
    assert len(files) >= 8
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_indicators_imports_no_private_chartab_name():
    # the integer forms of table values are chartab's own format: indicators
    # sums over table rows through chartab's public functions only
    path = Path(fszd.__file__).parent / "indicators.py"
    found = [
        f"indicators.py:{node.lineno} {alias.name}"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.level, node.module) in ((1, "chartab"), (0, "fszd.chartab"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def test_every_nt_helper_has_a_caller_elsewhere():
    # a helper in _nt that no other module calls is dead code
    package = Path(fszd.__file__).parent
    helpers = {
        node.name
        for node in ast.parse((package / "_nt.py").read_text()).body
        if isinstance(node, ast.FunctionDef)
    }
    called = {
        node.func.id
        for path in package.glob("*.py")
        if path.name != "_nt.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert len(helpers) >= 5
    assert sorted(helpers - called) == []


def test_no_function_defined_in_two_modules():
    # one definition of each helper: a module that needs another's uses it from there
    where: dict[str, list[str]] = {}
    for path in sorted(Path(fszd.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where.setdefault(node.name, []).append(path.name)
    assert len(where) >= 50
    assert {name: files for name, files in where.items() if len(files) > 1} == {}
