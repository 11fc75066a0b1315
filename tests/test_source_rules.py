"""Rules checked on the package source text."""

import ast
from pathlib import Path

import deltatower

SOURCES = sorted(Path(deltatower.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # guards are real errors, so they still hold under ``python -O``
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and found == []
