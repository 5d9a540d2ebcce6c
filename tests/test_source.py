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
