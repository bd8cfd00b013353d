import doctest

from weylkit import cartan, intmat, pushforward, schemas, weyl


def test_doctests():
    for module in (cartan, pushforward, intmat, schemas, weyl):
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
