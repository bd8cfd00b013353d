"""The package's modules form one stack: each imports only from modules
below it in ``ORDER``, function-level imports included, so no module reaches
up to one that builds on it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "weylkit"

ORDER = ["bareiss", "intmat", "schemas", "core", "gcm", "axioms", "checks", "roots", "cartan",
         "cosets", "report", "weyl", "characters", "pushforward", "rootdata", "isogeny",
         "chevalley", "clitext", "cli"]


def _relative_imports(tree):
    """(line, module) for each module a relative import names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.lineno, node.module.split(".")[0]
            else:
                for alias in node.names:
                    yield node.lineno, alias.name


def test_every_module_has_a_place_in_the_order():
    names = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
    assert names == sorted(ORDER)


def test_relative_imports_point_down_the_order():
    found = []
    for name in ORDER:
        path = PACKAGE / f"{name}.py"
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, module in _relative_imports(tree):
            if ORDER.index(module) >= ORDER.index(name):
                found.append(f"{path.name}:{line} -> {module}")
    assert not found, found
