import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from weylkit import cartan
from weylkit.intmat import matvec, transpose
from weylkit.rootdata import (FundamentalGroupTooLarge, RootDatumError,
                              adjoint_datum, fundamental_group, fundamental_group_order,
                              intermediate_lattices, pinned_isomorphism,
                              simply_connected_datum)

from oracles import cofactor_det

CLASSICAL_TABLE = {
    "A": lambda n: (n + 1,) if n >= 1 else (),
    "B": lambda n: (2,),
    "C": lambda n: (2,),
    "D": lambda n: (2, 2) if n % 2 == 0 else (4,),
    "E": lambda n: {6: (3,), 7: (2,), 8: ()}[n],
    "F": lambda n: (),
    "G": lambda n: (),
}


def test_fundamental_groups_match_classical_table():
    for family, rank in cartan.catalog_types(max_rank=8):
        g = cartan.catalog(family, rank)
        got = tuple(sorted(fundamental_group(g)))
        expected = tuple(sorted(x for x in CLASSICAL_TABLE[family](rank) if x > 1))
        assert got == expected, (family, rank)


def test_fundamental_group_order_is_determinant():
    # cofactor expansion is exponential, so the oracle stops at rank 6
    for family, rank in cartan.catalog_types(max_rank=6):
        g = cartan.catalog(family, rank)
        assert fundamental_group_order(g) == abs(cofactor_det(g.rows()))


def test_fundamental_group_examples():
    assert fundamental_group(cartan.parse_type("A1")) == (2,)
    assert fundamental_group(cartan.parse_type("A2")) == (3,)
    assert fundamental_group(cartan.parse_type("G2")) == ()


def test_adjoint_datum_shape():
    a1 = adjoint_datum(cartan.parse_type("A1"))
    assert a1.simple_root(0) == (1,)
    assert a1.simple_coroot(0) == (2,)
    assert a1.pairing(a1.simples[0], a1.simples[0]) == 2

    a2 = adjoint_datum(cartan.parse_type("A2"))
    assert len(a2.roots) == 6
    assert a2.cartan_matrix() == cartan.parse_type("A2").rows()
    a2.validate()

    g2 = adjoint_datum(cartan.parse_type("G2"))
    assert len(g2.roots) == 12
    g2.validate()


@pytest.mark.parametrize("field,index,value,message", [
    ("roots", 2, (5, 7), "does not pair to 2"),
    ("coroots", 2, (1, 1), "does not permute the roots"),
    ("simples", 0, 0, "not of finite type"),
], ids=["own-pairing", "reflection", "pinning"])
def test_validate_raises_on_each_axiom(field, index, value, message):
    datum = adjoint_datum(cartan.parse_type("B2"))
    entries = list(getattr(datum, field))
    entries[index] = value
    broken = dataclasses.replace(datum, **{field: tuple(entries)})
    with pytest.raises(RootDatumError, match=message):
        broken.validate()


def test_simply_connected_datum_roots_are_cartan_rows():
    for label in ["A1", "A2", "B2"]:
        g = cartan.parse_type(label)
        sc = simply_connected_datum(g)
        for k in range(g.n):
            assert sc.simple_root(k) == g.entries[k]
            assert sc.simple_coroot(k) == tuple(
                1 if i == k else 0 for i in range(g.n))
        sc.validate()


def test_ad_and_sc_share_the_pairing_matrix():
    for label in ["A2", "B2", "G2", "B3", "F4"]:
        g = cartan.parse_type(label)
        assert adjoint_datum(g).cartan_matrix() == \
            simply_connected_datum(g).cartan_matrix() == g.rows()


def test_intermediate_lattice_counts():
    assert len(intermediate_lattices(cartan.parse_type("A1"))) == 2
    assert len(intermediate_lattices(cartan.parse_type("A3"))) == 3
    assert len(intermediate_lattices(cartan.parse_type("G2"))) == 1
    # subgroups of (Z/2)^2: trivial, three lines, everything
    assert len(intermediate_lattices(cartan.parse_type("D4"))) == 5
    # subgroups of Z/6: four divisors
    assert len(intermediate_lattices(cartan.parse_type("A5"))) == 4


def test_intermediate_lattices_are_valid_and_bracketed():
    for label in ["A1", "A2", "A3", "B2", "D4"]:
        g = cartan.parse_type(label)
        data = intermediate_lattices(g)
        for datum in data:
            datum.validate()
            assert datum.cartan_matrix() == g.rows()
        # first is the root lattice, last the weight lattice
        assert pinned_isomorphism(adjoint_datum(g), data[0]) is not None
        assert pinned_isomorphism(simply_connected_datum(g), data[-1]) is not None
        # and the extremes differ unless the fundamental group is trivial
        if fundamental_group(g):
            assert pinned_isomorphism(data[0], data[-1]) is None


def test_intermediate_lattice_bound():
    with pytest.raises(FundamentalGroupTooLarge):
        intermediate_lattices(cartan.parse_type("A3"), max_index=3)


@pytest.mark.parametrize("build", [adjoint_datum, simply_connected_datum,
                                   intermediate_lattices])
def test_builders_refuse_affine_a2(build):
    affine_a2 = cartan.validate_gcm([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    with pytest.raises(cartan.NotFiniteType):
        build(affine_a2)


def test_pinned_isomorphism_identity():
    for label in ["A2", "B2", "G2"]:
        datum = adjoint_datum(cartan.parse_type(label))
        f = pinned_isomorphism(datum, datum)
        n = datum.rank
        assert f == tuple(tuple(1 if i == j else 0 for j in range(n))
                          for i in range(n))


def test_pinned_isomorphism_ad_vs_sc_fails():
    g = cartan.parse_type("A2")
    assert pinned_isomorphism(adjoint_datum(g), simply_connected_datum(g)) is None
    assert pinned_isomorphism(simply_connected_datum(g), adjoint_datum(g)) is None


def _change_basis(datum, basis):
    """Rewrite a datum in a new basis of the same lattice (columns of basis)."""
    from weylkit.intmat import rational_inverse

    inv = rational_inverse(basis)
    roots = tuple(
        tuple(int(sum(inv[i][j] * r[j] for j in range(datum.rank))) for i in range(datum.rank))
        for r in datum.roots
    )
    bt = transpose(basis)
    coroots = tuple(tuple(matvec(bt, list(cv))) for cv in datum.coroots)
    return type(datum)(datum.rank, roots, coroots, datum.simples)


BASES = [
    [[0, 1], [1, 0]],
    [[1, 1], [0, 1]],
    [[1, -1], [0, -1]],
]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["A2", "B2", "G2"]), st.sampled_from(BASES))
def test_pinned_isomorphism_recovers_change_of_basis(label, basis):
    datum = adjoint_datum(cartan.parse_type(label))
    moved = _change_basis(datum, basis)
    moved.validate()
    f = pinned_isomorphism(moved, datum)
    # f maps original coordinates to new ones: it must be the basis inverse
    assert f is not None
    got = pinned_isomorphism(datum, moved)
    assert got == tuple(tuple(row) for row in basis)
    # and the two directions invert each other
    from weylkit.intmat import identity, matmul

    assert matmul([list(r) for r in f], [list(r) for r in got]) == identity(2)


def test_pinned_isomorphism_unique_by_exhaustion():
    # brute-force witness that no second isomorphism exists: scan every
    # 2x2 unimodular matrix with small entries against a rebased A2 datum
    from itertools import product as iproduct

    from weylkit.intmat import det, matvec, transpose as tr

    datum = adjoint_datum(cartan.parse_type("A2"))
    moved = _change_basis(datum, [[1, 1], [0, 1]])
    expected = pinned_isomorphism(datum, moved)
    assert expected is not None

    def is_pinned_iso(f):
        if det([list(r) for r in f]) not in (1, -1):
            return False
        index = {r: i for i, r in enumerate(datum.roots)}
        ft = tr([list(r) for r in f])
        for k in range(2):
            if tuple(matvec([list(r) for r in f],
                            list(moved.simple_root(k)))) != datum.simple_root(k):
                return False
        for i, root in enumerate(moved.roots):
            img = tuple(matvec([list(r) for r in f], list(root)))
            j = index.get(img)
            if j is None:
                return False
            if tuple(matvec(ft, list(datum.coroots[j]))) != moved.coroots[i]:
                return False
        return True

    found = [f for f in (tuple((a, b) for a, b in [(w, x), (y, z)])
                         for w, x, y, z in iproduct(range(-3, 4), repeat=4))
             if is_pinned_iso(f)]
    assert found == [expected]


def test_pinned_isomorphism_symmetric():
    g = cartan.parse_type("B2")
    data = intermediate_lattices(g)
    for d1 in data:
        for d2 in data:
            f12 = pinned_isomorphism(d1, d2)
            f21 = pinned_isomorphism(d2, d1)
            assert (f12 is None) == (f21 is None)
