import doctest
import importlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "weylkit"


def test_doctests():
    names = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
    assert names
    for name in names:
        module = importlib.import_module(f"weylkit.{name}")
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
