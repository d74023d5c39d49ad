"""The library stays dependency-free: every absolute import in
src/fivevertex is a standard-library module or fivevertex itself."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent
                  / "src" / "fivevertex").glob("*.py"))


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_fivevertex(path):
    allowed = sys.stdlib_module_names | {"fivevertex"}
    assert [name for name in _absolute_imports(path)
            if name.partition(".")[0] not in allowed] == []
