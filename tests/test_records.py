"""The package's record classes behave as values: equal and hashed by
their fields, immune to assignment, and shown as ``Name(field=value, ...)``."""

import copy
import pickle

import pytest

from weylkit import gcm
from weylkit.cartan import DynkinType
from weylkit.characters import EulerData
from weylkit.chevalley import IdealCheckReport, RootString, SteinbergReport, StructureConstant
from weylkit.core import GCM
from weylkit.isogeny import PMorphism
from weylkit.rootdata import PinnedRootDatum
from weylkit.roots import Root, Symmetrizer, generate_roots
from weylkit.schemas import ListOf, OneOf
from weylkit.weyl import WeylElement

A1 = generate_roots(gcm.parse_type("A1"))
DATUM = PinnedRootDatum(1, ((1,), (-1,)), ((2,), (-2,)), (0,))
OTHER_DATUM = PinnedRootDatum(1, ((2,), (-2,)), ((1,), (-1,)), (0,))

# (class, field names, arguments, arguments differing in one field)
RECORDS = [
    (GCM, ("n", "entries"), (1, ((2,),)), (2, ((2, 0), (0, 2)))),
    (Symmetrizer, ("d", "lengths"), ((3, 1), (1, 3)), ((1, 1), (1, 3))),
    (DynkinType, ("components",), ((("G", 2, (0, 1)),),), ((("G", 2, (1, 0)),),)),
    (Root, ("index", "coords", "coroot", "weight", "height", "positive", "length"),
     (0, (1,), (1,), (2,), 1, True, 1), (1, (1,), (1,), (2,), 1, True, 1)),
    (RootString, ("base", "direction", "down", "up"),
     ((1, 0), (0, 1), 0, 1), ((1, 0), (0, 1), 1, 1)),
    (EulerData, ("rs", "rho", "positive_coroots", "rho_pairings", "m"),
     (A1, (1,), ((1,),), (1,), 1), (A1, (1,), ((1,),), (1,), 2)),
    (StructureConstant, ("alpha", "beta", "m", "down", "up"),
     ((1, 0), (0, 1), 1, 0, 1), ((1, 0), (1, 1), 1, 0, 1)),
    (SteinbergReport, ("alpha", "beta", "down", "up", "length_ratio", "holds"),
     ((0, 1), (1, 0), 1, 1, 2, True), ((0, 1), (1, 0), 0, 1, 2, False)),
    (IdealCheckReport, ("p", "bracket_triples", "square_triples", "violations", "steinberg"),
     (2, (), (), (), ()), (3, (), (), (), ())),
    (PinnedRootDatum, ("rank", "roots", "coroots", "simples"),
     (1, ((1,), (-1,)), ((2,), (-2,)), (0,)), (1, ((1,), (-1,)), ((2,), (-2,)), (1,))),
    (PMorphism, ("source", "target", "f", "u", "q", "p"),
     (DATUM, DATUM, ((1,),), (0,), (1,), 2), (DATUM, OTHER_DATUM, ((1,),), (0,), (1,), 2)),
    (ListOf, ("item",), (int,), (str,)),
    (OneOf, ("alternatives",), (bool, None), (bool, "skipped")),
    (WeylElement, ("rs", "perm"), (A1, (0, 1)), (A1, (1, 0))),
]


@pytest.mark.parametrize("cls,fields,args,other", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_is_a_value(cls, fields, args, other):
    first, second, different = cls(*args), cls(*args), cls(*other)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert first != different
    values = args if cls is not OneOf else (args,)
    assert tuple(getattr(first, name) for name in fields) == values
    assert repr(first) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(fields, values)) + ")"
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(first, name, None)
    assert first == second
    for twin in (copy.copy(first), copy.deepcopy(first), pickle.loads(pickle.dumps(first))):
        if cls in (EulerData, WeylElement):   # their root system compares by identity
            assert repr(twin) == repr(first)
        else:
            assert twin == first


def test_gcm_caches_its_leading_minors():
    g = gcm.parse_type("B3")
    assert g.finite_type is True and g.leading_minors == (2, 3, 2)
    assert g.leading_minors is g.leading_minors
    assert g == gcm.catalog("B", 3) and hash(g) == hash(gcm.catalog("B", 3))
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert twin == g and twin.leading_minors == (2, 3, 2)
