"""The package checks its inputs with exceptions, never with ``assert``:
``python -O`` strips assert statements, so a check made with one is silently
skipped there."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "weylkit"


def test_package_has_no_assert_statements():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths, PACKAGE
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
