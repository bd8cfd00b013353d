import random
from itertools import permutations
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from weylkit import axioms, cartan, core, gcm, rootdata
from weylkit.cartan import fundamental_group
from weylkit.intmat import identity, transpose
from weylkit.roots import generate_roots
from weylkit.rootdata import (PinnedRootDatum, RootDatumError, TooManyLattices,
                              adjoint_datum, intermediate_lattices, pinned_isomorphism,
                              simply_connected_datum)

from oracles import (adjoint_per_root, cofactor_det, hermite_rows, intermediate_per_root,
                     pinned_isomorphism_all_roots, rebased, simply_connected_per_root,
                     subgroups_by_closure)

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
        g = gcm.catalog(family, rank)
        got = tuple(sorted(fundamental_group(g)))
        expected = tuple(sorted(x for x in CLASSICAL_TABLE[family](rank) if x > 1))
        assert got == expected, (family, rank)


def test_fundamental_group_order_is_determinant():
    # cofactor expansion is exponential, so the oracle stops at rank 6
    for family, rank in cartan.catalog_types(max_rank=6):
        g = gcm.catalog(family, rank)
        assert prod(fundamental_group(g)) == abs(cofactor_det(g.rows()))


def test_fundamental_group_examples():
    assert fundamental_group(gcm.parse_type("A1")) == (2,)
    assert fundamental_group(gcm.parse_type("A2")) == (3,)
    assert fundamental_group(gcm.parse_type("G2")) == ()


@pytest.mark.parametrize("i", [14, 20, 24, 36, 44, 45])
def test_fundamental_group_of_d60_relabellings(i):
    # the Smith elimination with transforms ran past 3 s on each of these
    perm = list(range(60))
    random.Random(60000 + i).shuffle(perm)
    d60 = gcm.catalog("D", 60)
    g = axioms.validate_gcm([[d60[a][b] for b in perm] for a in perm])
    assert fundamental_group(g) == (2, 2)


def test_adjoint_datum_shape():
    a1 = adjoint_datum(gcm.parse_type("A1"))
    assert a1.simple_root(0) == (1,)
    assert a1.simple_coroot(0) == (2,)
    assert a1.pairing(a1.simples[0], a1.simples[0]) == 2

    a2 = adjoint_datum(gcm.parse_type("A2"))
    assert len(a2.roots) == 6
    assert a2.cartan_matrix() == gcm.parse_type("A2").rows()
    a2.validate()

    g2 = adjoint_datum(gcm.parse_type("G2"))
    assert len(g2.roots) == 12
    g2.validate()


@pytest.mark.parametrize("field,index,value,message", [
    ("roots", 2, (5, 7), "root 2 or its coroot is not generated by the simples"),
    ("coroots", 2, (1, 1), "root 2 or its coroot is not generated by the simples"),
    ("simples", 0, 0, "not of finite type"),
], ids=["own-pairing", "reflection", "pinning"])
def test_validate_raises_on_each_axiom(field, index, value, message):
    datum = adjoint_datum(gcm.parse_type("B2"))
    entries = list(getattr(datum, field))
    entries[index] = value
    broken = datum._replace(**{field: tuple(entries)})
    with pytest.raises(RootDatumError, match=message):
        broken.validate()


def test_validate_refuses_a_root_listed_twice():
    a1 = adjoint_datum(gcm.parse_type("A1"))
    twice = a1._replace(roots=a1.roots + a1.roots[:1], coroots=a1.coroots + a1.coroots[:1])
    with pytest.raises(RootDatumError,
                       match="the datum lists 3 roots, 2 distinct; the simples generate 2"):
        twice.validate()


def test_validate_accepts_a_torus():
    # no roots and no simples: every axiom holds vacuously
    assert PinnedRootDatum(2, (), (), ()).validate() is None


def _is_base(roots, pair) -> bool:
    """Every root is an integer combination of the pair with coefficients
    all >= 0 or all <= 0, by a 2x2 solve (Cramer's rule)."""
    (a0, a1), (b0, b1) = roots[pair[0]], roots[pair[1]]
    det = a0 * b1 - a1 * b0
    if det == 0:
        return False
    for r0, r1 in roots:
        x, y = r0 * b1 - r1 * b0, a0 * r1 - a1 * r0
        if x % det or y % det:
            return False
        x, y = x // det, y // det
        if not (x >= 0 and y >= 0 or x <= 0 and y <= 0):
            return False
    return True


@pytest.mark.parametrize("label,bases", [("A2", 6), ("B2", 8), ("G2", 12)])
def test_validate_accepts_exactly_the_bases(label, bases):
    # one base per Weyl chamber, so |W| bases, each in two orders; refused
    # pairs include two long roots of G2 (pairing matrix [[2, 1], [1, 2]] or
    # of type A2), which the Sylvester test alone lets through
    datum = adjoint_datum(gcm.parse_type(label))
    accepted = 0
    for pair in permutations(range(len(datum.roots)), 2):
        try:
            datum._replace(simples=pair).validate()
            valid = True
        except RootDatumError:
            valid = False
        assert valid == _is_base(datum.roots, pair), pair
        accepted += valid
    assert accepted == 2 * bases


def test_validate_counts_roots_before_generating(monkeypatch):
    # the 60 simples of A60 alone: refused without building A60's 3660 roots
    g = gcm.parse_type("A60")
    unit = tuple(tuple(int(i == k) for i in range(60)) for k in range(60))
    datum = PinnedRootDatum(60, unit, tuple(map(tuple, transpose(g.rows()))),
                            tuple(range(60)))
    monkeypatch.setattr(rootdata, "generate_roots", None)
    with pytest.raises(RootDatumError, match="60 roots are too few"):
        datum.validate()


def test_builders_match_per_root_oracle():
    def parts(datum):
        return datum.roots, datum.coroots, datum.simples

    for family, rank in cartan.catalog_types(max_rank=7):
        g = gcm.catalog(family, rank)
        rs = generate_roots(g)
        assert parts(adjoint_datum(g)) == adjoint_per_root(rs), (family, rank)
        assert parts(simply_connected_datum(g)) == simply_connected_per_root(rs)
        assert [parts(d) for d in intermediate_lattices(g)] == intermediate_per_root(rs)


def test_builders_equal_the_general_image():
    # each builder reads one side off the root system as it stands; _image
    # combines both sides over the bases the builders' docstrings name
    for family, rank in cartan.catalog_types(max_rank=12):
        g = gcm.catalog(family, rank)
        rs = generate_roots(g)
        assert adjoint_datum(g) == rootdata._image(rs, identity(rank), transpose(g.rows()),
                                                   rank), (family, rank)
        assert simply_connected_datum(g) == rootdata._image(rs, g.entries, identity(rank),
                                                            rank), (family, rank)


def test_simply_connected_datum_roots_are_cartan_rows():
    for label in ["A1", "A2", "B2"]:
        g = gcm.parse_type(label)
        sc = simply_connected_datum(g)
        for k in range(g.n):
            assert sc.simple_root(k) == g.entries[k]
            assert sc.simple_coroot(k) == tuple(
                1 if i == k else 0 for i in range(g.n))
        sc.validate()


def test_ad_and_sc_share_the_pairing_matrix():
    for label in ["A2", "B2", "G2", "B3", "F4"]:
        g = gcm.parse_type(label)
        assert adjoint_datum(g).cartan_matrix() == \
            simply_connected_datum(g).cartan_matrix() == g.rows()


def test_intermediate_lattice_counts():
    assert len(intermediate_lattices(gcm.parse_type("A1"))) == 2
    assert len(intermediate_lattices(gcm.parse_type("A3"))) == 3
    assert len(intermediate_lattices(gcm.parse_type("G2"))) == 1
    # subgroups of (Z/2)^2: trivial, three lines, everything
    assert len(intermediate_lattices(gcm.parse_type("D4"))) == 5
    # subgroups of Z/6: four divisors
    assert len(intermediate_lattices(gcm.parse_type("A5"))) == 4
    # subgroups of (Z/2)^6
    assert len(intermediate_lattices(gcm.parse_type("+".join(["A1"] * 6)))) == 2825


def test_intermediate_lattices_are_valid_and_bracketed():
    for family, rank in cartan.catalog_types(max_rank=7):
        g = gcm.catalog(family, rank)
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



@pytest.mark.parametrize("family,rank", cartan.catalog_types(max_rank=4))
def test_datum_json_round_trip(family, rank):
    g = gcm.catalog(family, rank)
    for datum in [adjoint_datum(g), simply_connected_datum(g), *intermediate_lattices(g)]:
        assert PinnedRootDatum.from_json(datum.to_json()) == datum

def _invariant_factor_chains(limit, prev=1):
    """Every d1 | d2 | ... with each di >= 2 and product <= limit."""
    chains = [()]
    for d in range(max(prev, 2), limit + 1):
        if d % prev == 0:
            chains += [(d,) + rest for rest in _invariant_factor_chains(limit // d, d)]
    return chains


def test_subgroup_walk_matches_the_closure_oracle():
    # every abelian group of order <= 32, plus Smith diagonals with unit
    # factors; at q = diag(m) the lattices between q and Z^k are the
    # subgroups of the product of the Z/m_i, each spanned by its lifts and
    # the rows m_i e_i, so the walk finds each subgroup's basis once
    chains = _invariant_factor_chains(32) + [(1, 1, 6), (1, 2, 2)]
    assert len(chains) == 57
    for moduli in chains:
        q = [[m * (i == j) for j in range(len(moduli))] for i, m in enumerate(moduli)]
        expected = sorted((len(s), hermite_rows([list(e) for e in s] + q))
                          for s in subgroups_by_closure(moduli))
        assert rootdata._hermite_bases(q) == [basis for _, basis in expected], moduli


@pytest.mark.parametrize("label, copies", [("A1", 14), ("A2", 9), ("D4", 15), ("A4", 12)])
def test_lattice_count_alone_refuses_large_fundamental_groups(label, copies, monkeypatch):
    # |P/Q| from 2^14 up to 4^15 = 2^30: the count of lattices stops the
    # walk, however large the group, before any datum is built
    monkeypatch.setattr(rootdata, "_image", None)
    with pytest.raises(TooManyLattices, match="more than 10000"):
        intermediate_lattices(gcm.parse_type("+".join([label] * copies)))


def test_lattice_count_is_bounded_before_any_datum(monkeypatch):
    # |P/Q| = 8 192, and (Z/2)^13 has about 3.8e13 subgroups; the walk
    # refuses before any datum is built
    monkeypatch.setattr(rootdata, "_image", None)
    with pytest.raises(TooManyLattices, match="more than 10000"):
        intermediate_lattices(gcm.parse_type("+".join(["A1"] * 13)))


@pytest.mark.parametrize("build", [adjoint_datum, simply_connected_datum,
                                   intermediate_lattices, fundamental_group])
def test_builders_refuse_affine_a2(build):
    affine_a2 = axioms.validate_gcm([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    with pytest.raises(core.NotFiniteType):
        build(affine_a2)


def test_pinned_isomorphism_identity():
    for label in ["A2", "B2", "G2"]:
        datum = adjoint_datum(gcm.parse_type(label))
        f = pinned_isomorphism(datum, datum)
        n = datum.rank
        assert f == tuple(tuple(1 if i == j else 0 for j in range(n))
                          for i in range(n))


def test_pinned_isomorphism_ad_vs_sc_fails():
    g = gcm.parse_type("A2")
    assert pinned_isomorphism(adjoint_datum(g), simply_connected_datum(g)) is None
    assert pinned_isomorphism(simply_connected_datum(g), adjoint_datum(g)) is None


BASES = [
    [[0, 1], [1, 0]],
    [[1, 1], [0, 1]],
    [[1, -1], [0, -1]],
]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["A2", "B2", "G2"]), st.sampled_from(BASES))
def test_pinned_isomorphism_recovers_change_of_basis(label, basis):
    datum = adjoint_datum(gcm.parse_type(label))
    moved = rebased(datum, basis)
    moved.validate()
    f = pinned_isomorphism(moved, datum)
    # f maps original coordinates to new ones: it must be the basis inverse
    assert f is not None
    got = pinned_isomorphism(datum, moved)
    assert got == tuple(tuple(row) for row in basis)
    # and the two directions invert each other
    from weylkit.intmat import matmul

    assert matmul([list(r) for r in f], [list(r) for r in got]) == identity(2)


def test_pinned_isomorphism_unique_by_exhaustion():
    # brute-force witness that no second isomorphism exists: scan every
    # 2x2 unimodular matrix with small entries against a rebased A2 datum
    from itertools import product as iproduct

    from weylkit.intmat import det, matvec, transpose as tr

    datum = adjoint_datum(gcm.parse_type("A2"))
    moved = rebased(datum, [[1, 1], [0, 1]])
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
    g = gcm.parse_type("B2")
    data = intermediate_lattices(g)
    for d1 in data:
        for d2 in data:
            f12 = pinned_isomorphism(d1, d2)
            f21 = pinned_isomorphism(d2, d1)
            assert (f12 is None) == (f21 is None)


# an A1 datum in a rank-2 lattice: one simple, so not semisimple
A1_IN_RANK_2 = PinnedRootDatum(2, ((1, 0), (-1, 0)), ((2, 0), (-2, 0)), (0,))
A2, B2 = gcm.parse_type("A2"), gcm.parse_type("B2")


@pytest.mark.parametrize("first,second", [
    (adjoint_datum(A2), adjoint_datum(gcm.parse_type("A3"))),
    (A1_IN_RANK_2, A1_IN_RANK_2),
    (adjoint_datum(A2), simply_connected_datum(A2)),
    (simply_connected_datum(A2), adjoint_datum(A2)),
    (adjoint_datum(B2), adjoint_datum(axioms.validate_gcm(transpose(B2.rows())))),
], ids=["rank-mismatch", "not-semisimple", "ad-to-sc-not-integral",
        "sc-to-ad-not-unimodular", "coroot-equation-fails"])
def test_pinned_isomorphism_refusals(first, second):
    first.validate()
    second.validate()
    assert pinned_isomorphism(first, second) is None
    assert pinned_isomorphism_all_roots(first, second) is None


def test_pinned_isomorphism_refuses_an_invalid_datum():
    a2 = adjoint_datum(A2)
    bad = a2._replace(simples=(1, 3))
    for pair in ((bad, bad), (bad, a2), (a2, bad)):
        with pytest.raises(RootDatumError):
            pinned_isomorphism(*pair)


def _unimodular(n: int, rng: random.Random):
    """A unimodular matrix: a random unitriangular one with columns permuted."""
    upper = [[int(i == j) or (rng.randint(-2, 2) if j > i else 0) for j in range(n)]
             for i in range(n)]
    order = rng.sample(range(n), n)
    return [[row[j] for j in order] for row in upper]


def test_pinned_isomorphism_matches_all_roots_oracle():
    rng = random.Random(12)
    by_rank = {}
    for family, rank in cartan.catalog_types(max_rank=4):
        g = gcm.catalog(family, rank)
        data = intermediate_lattices(g) + [adjoint_datum(g), simply_connected_datum(g)]
        data += [rebased(d, _unimodular(rank, rng)) for d in data]
        for d1 in data:
            for d2 in data:
                assert pinned_isomorphism(d1, d2) == pinned_isomorphism_all_roots(d1, d2)
        by_rank.setdefault(rank, []).append(adjoint_datum(g))
    # across types of one rank, only a type with itself is isomorphic
    for data in by_rank.values():
        for i, d1 in enumerate(data):
            for j, d2 in enumerate(data):
                f = pinned_isomorphism(d1, d2)
                assert f == pinned_isomorphism_all_roots(d1, d2)
                assert (f is not None) == (i == j)
