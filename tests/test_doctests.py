import doctest

from weylkit import cartan, intmat, pushforward, rootdata, schemas, weyl


def test_doctests():
    for module in (cartan, pushforward, intmat, rootdata, schemas, weyl):
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
