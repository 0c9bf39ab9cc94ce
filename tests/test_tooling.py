"""Checks on the package source itself."""

import ast
from pathlib import Path

import sgfp

SOURCES = sorted(Path(sgfp.__file__).parent.glob("*.py"))


def test_sources_are_found():
    assert {"graph.py", "construct.py", "cli.py"} <= {p.name for p in SOURCES}


def test_no_assert_in_package_code():
    # Runtime checks raise an SgfpError; `python -O` would strip an assert.
    found = [f"{p.name}:{node.lineno}" for p in SOURCES
             for node in ast.walk(ast.parse(p.read_text(encoding="utf-8"), str(p)))
             if isinstance(node, ast.Assert)]
    assert found == []
