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
