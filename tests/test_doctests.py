import doctest
import importlib
from pathlib import Path

import oracles

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "weylkit"


def test_doctests():
    names = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
    assert names
    for name in names:
        module = importlib.import_module(f"weylkit.{name}")
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__


def test_oracle_doctests():
    # the oracles freeze expected values, so their own examples must hold too
    result = doctest.testmod(oracles)
    assert result.attempted and result.failed == 0
