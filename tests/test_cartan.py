import gc
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from weylkit import cartan, intmat
from weylkit.cartan import (AsymmetricZero, DiagonalNotTwo, GCMError,
                            InvalidType, NotFiniteType, PositiveOffDiagonal)
from weylkit.intmat import leading_principal_minors
from weylkit.isogeny import enumerate_special
from weylkit.roots import generate_roots

from oracles import (brute_scaled_pairs, cofactor_det, first_permutation_match,
                     reflection_closure, symmetrizer_fractions)

ALL_TYPES = cartan.catalog_types(max_rank=8)


def test_validate_rank_one():
    g = cartan.validate_gcm([[2]])
    assert g.n == 1


def test_validate_asymmetric_zero_names_first_entry():
    with pytest.raises(AsymmetricZero) as exc:
        cartan.validate_gcm([[2, -1], [0, 2]])
    assert (exc.value.i, exc.value.j) == (0, 1)


def test_validate_affine_matrix_is_still_a_gcm():
    g = cartan.validate_gcm([[2, -2], [-2, 2]])
    assert g.n == 2
    assert not cartan.is_finite_type(g)


def test_validate_diagonal_and_positivity():
    with pytest.raises(DiagonalNotTwo):
        cartan.validate_gcm([[1]])
    with pytest.raises(PositiveOffDiagonal):
        cartan.validate_gcm([[2, 1], [1, 2]])
    with pytest.raises(GCMError):
        cartan.validate_gcm([[2, -1]])


def test_finite_type_examples():
    assert cartan.is_finite_type(cartan.validate_gcm([[2, -1], [-1, 2]]))
    assert not cartan.is_finite_type(cartan.validate_gcm([[2, -2], [-2, 2]]))
    g2 = cartan.validate_gcm([[2, -1], [-3, 2]])
    # minors frozen from the cofactor oracle: det [[2]] = 2, det G2 = 1
    assert [cofactor_det([[2]]), cofactor_det(g2.rows())] == [2, 1]
    assert leading_principal_minors(g2.rows()) == [2, 1]
    assert cartan.is_finite_type(g2)


def test_finite_verdict_reads_no_minor_past_the_first_zero(monkeypatch):
    # the rank-60 chain ending in a triple bond, relabelled: its 29th leading
    # minor is the first zero, and no determinant past it is computed
    n = 60
    chain = cartan.catalog("A", n).rows()
    chain[n - 2][n - 1], chain[n - 1][n - 2] = -1, -3
    perm = list(range(n))
    random.Random(1).shuffle(perm)
    g = cartan.validate_gcm(_permute(chain, perm))
    calls, det = [], intmat.det
    monkeypatch.setattr(intmat, "det", lambda a: calls.append(len(a)) or det(a))
    assert g.finite_type is False
    assert calls == []
    assert len(g.leading_minors) == 29 and g.leading_minors[-1] == 0


CATALOG_SUMS = ["B4+G2", "A1+A1+C3", "D4+D5+E6"]


@pytest.mark.parametrize("label", [f"{f}{r}" for f, r in cartan.catalog_types(max_rank=12)]
                         + ["A60", "B60", "C60", "D60"] + CATALOG_SUMS)
def test_catalog_verdict_is_the_sylvester_verdict(label):
    # catalog matrices and their sums come with finite_type set, before any
    # elimination; the verdict must be the one the leading minors give
    g = cartan.parse_type(label)
    assert vars(g) == {"finite_type": True}
    assert all(m > 0 for m in leading_principal_minors(g.rows()))


def test_only_catalog_parts_set_the_verdict_of_a_sum():
    a2 = cartan.validate_gcm([[2, -1], [-1, 2]])
    assert vars(a2) == {}
    assert vars(cartan.block_diag(cartan.catalog("G", 2), a2)) == {}
    # past the rank bound the test still refuses the rank
    big = cartan.catalog("A", cartan.MAX_RANK + 1)
    assert vars(big) == {}
    with pytest.raises(cartan.RankTooLarge):
        big.finite_type


def test_symmetrizer_values():
    assert cartan.symmetrizer(cartan.parse_type("A2")).d == (1, 1)
    b2 = cartan.symmetrizer(cartan.parse_type("B2"))
    assert b2.d == (2, 1)            # solves d0*(-1) = d1*(-2) minimally
    assert b2.lengths == (1, 2)      # first node short, second long
    g2 = cartan.symmetrizer(cartan.parse_type("G2"))
    assert g2.d == (3, 1)
    assert g2.lengths == (1, 3)


def test_symmetrizer_identity_exact():
    for family, rank in ALL_TYPES:
        g = cartan.catalog(family, rank)
        d = cartan.symmetrizer(g).d
        for i in range(rank):
            for j in range(rank):
                assert d[i] * g[i][j] == d[j] * g[j][i]


def test_symmetrizer_gcd_one_per_component():
    from math import gcd

    g = cartan.parse_type("B2+G2+A1")
    sym = cartan.symmetrizer(g)
    for comp in g.components():
        assert gcd(*(sym.d[i] for i in comp)) == 1


def test_symmetrizer_matches_fraction_oracle():
    # every catalog type up to rank 20, then seeded relabellings of sums of
    # them, so a walk may start at any node and meet edges in any direction
    for family, rank in cartan.catalog_types(max_rank=20):
        g = cartan.catalog(family, rank)
        assert cartan.symmetrizer(g).d == symmetrizer_fractions(g.rows()), (family, rank)
    rng = random.Random(18)
    small = cartan.catalog_types(max_rank=6)
    for _ in range(60):
        label = "+".join(f"{f}{r}" for f, r in rng.sample(small, rng.randint(1, 3)))
        g = cartan.parse_type(label)
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = cartan.validate_gcm([[g[a][b] for b in perm] for a in perm])
        assert cartan.symmetrizer(h).d == symmetrizer_fractions(h.rows()), (label, perm)


def test_symmetrizer_requires_finite_type():
    with pytest.raises(NotFiniteType):
        cartan.symmetrizer(cartan.validate_gcm([[2, -2], [-2, 2]]))


def test_classify_examples():
    assert cartan.classify(cartan.validate_gcm([[2, -1], [-1, 2]])).multiset() == (("A", 2),)
    assert cartan.classify(cartan.validate_gcm([[2, -1], [-3, 2]])).multiset() == (("G", 2),)
    two_a1 = cartan.classify(cartan.parse_type("A1+A1"))
    assert two_a1.multiset() == (("A", 1), ("A", 1))
    assert [nodes for _, _, nodes in two_a1.components] == [(0,), (1,)]


def test_classify_rejects_non_finite():
    with pytest.raises(NotFiniteType):
        cartan.classify(cartan.validate_gcm([[2, -2], [-2, 2]]))


def test_catalog_round_trip_all_types():
    for family, rank in ALL_TYPES:
        g = cartan.catalog(family, rank)
        dtype = cartan.classify(g)
        assert dtype.components == ((family, rank, tuple(range(rank))),)


def test_catalog_pinned_matrices():
    assert cartan.catalog("A", 1).rows() == [[2]]
    assert cartan.catalog("G", 2).rows() == [[2, -1], [-3, 2]]
    assert cartan.catalog("B", 2).rows() == [[2, -1], [-2, 2]]


def test_catalog_invalid():
    for family, rank in [("C", 2), ("D", 3), ("E", 9), ("F", 5), ("G", 3), ("A", 0), ("H", 3)]:
        with pytest.raises(InvalidType):
            cartan.catalog(family, rank)


@pytest.mark.parametrize("label", ["A0", "E9", "X3", "A2+", "", "C2", "Bx", "B2+F5",
                                   "A", "Ax", "A1+", "X5",
                                   pytest.param("A" + "1" * 5000, id="A-digit-limit"),
                                   "A6_0", "A1_1", "A 2", "A-2",
                                   pytest.param("A\u0666\u0660", id="A-arabic-indic-digits")])
def test_parse_label_refuses_what_parse_type_refuses(label):
    with pytest.raises(InvalidType) as by_label:
        cartan.parse_label(label)
    with pytest.raises(InvalidType) as by_type:
        cartan.parse_type(label)
    assert by_label.value.to_json() == by_type.value.to_json()


def test_parse_label_spells_the_classified_type():
    for family, rank in ALL_TYPES:
        label = f"{family}{rank}"
        assert cartan.parse_label(label) == [(family, rank)]
        assert cartan.classify(cartan.parse_type(label)).multiset() == ((family, rank),)
    assert cartan.parse_label(" b2 + a1") == [("B", 2), ("A", 1)]


def _permute(matrix, perm):
    n = len(matrix)
    return [[matrix[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_classification_invariant_under_relabeling(data):
    family, rank = data.draw(st.sampled_from(ALL_TYPES))
    g = cartan.catalog(family, rank)
    perm = data.draw(st.permutations(range(rank)))
    relabeled = cartan.validate_gcm(_permute(g.rows(), list(perm)))
    assert cartan.classify(relabeled).multiset() == ((family, rank),)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_relabeled_products_classify_to_same_multiset(data):
    labels = data.draw(st.lists(
        st.sampled_from(["A1", "A2", "B2", "G2", "A3", "B3"]),
        min_size=1, max_size=3))
    g = cartan.parse_type("+".join(labels))
    perm = data.draw(st.permutations(range(g.n)))
    base = cartan.classify(g).multiset()
    relabeled = cartan.validate_gcm(_permute(g.rows(), list(perm)))
    assert cartan.classify(relabeled).multiset() == base


AFFINE_EXAMPLES = [
    [[2, -2], [-2, 2]],
    [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],          # cycle
    [[2, -4], [-1, 2]],
]


def _orbit_terminates(g):
    """Whether the raw reflection closure of the simple roots is finite."""
    return reflection_closure(g) is not None


def test_finite_type_iff_root_orbit_terminates():
    # cross-oracle: positive definiteness matches termination of the
    # reflection orbit of the simple roots
    for family, rank in ALL_TYPES:
        g = cartan.catalog(family, rank)
        assert cartan.is_finite_type(g)
        assert _orbit_terminates(g)
        generate_roots(g)   # and the library agrees
    for rows in AFFINE_EXAMPLES:
        g = cartan.validate_gcm(rows)
        assert not cartan.is_finite_type(g)
        assert not _orbit_terminates(g)
        with pytest.raises(NotFiniteType):
            generate_roots(g)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_classify_node_maps_are_first_permutation_matches(data):
    labels = data.draw(st.lists(
        st.sampled_from([f"{f}{r}" for f, r in cartan.catalog_types(max_rank=6)]),
        min_size=1, max_size=3).filter(
            lambda ls: sum(int(label[1:]) for label in ls) <= 6))
    g = cartan.parse_type("+".join(labels))
    perm = data.draw(st.permutations(range(g.n)))
    relabeled = cartan.validate_gcm(_permute(g.rows(), list(perm)))
    expected = []
    for nodes in relabeled.components():
        rank = len(nodes)
        expected.append(next(
            (family, rank, node_map)
            for family, r in cartan.catalog_types(max_rank=rank) if r == rank
            for node_map in [first_permutation_match(
                cartan.catalog(family, rank).rows(), relabeled.rows(), nodes)]
            if node_map is not None))
    assert cartan.classify(relabeled).components == tuple(expected)


def test_isomorphisms_sorted_match_bijection_oracle():
    # the oracle's pairs with q all 1 are the isomorphisms, in permutation order
    for family, rank in cartan.catalog_types(max_rank=5):
        src = cartan.catalog(family, rank)
        for tgt_family, r in cartan.catalog_types(max_rank=rank):
            if r != rank:
                continue
            tgt = cartan.catalog(tgt_family, rank)
            found = sorted(cartan.isomorphisms(src, tgt, range(rank)))
            assert found == [u for u, q in brute_scaled_pairs(src.rows(), tgt.rows(), 2)
                             if set(q) == {1}], (family, tgt_family, rank)


def test_searches_leave_no_cyclic_garbage():
    # the search recurses through a module-level generator, not a closure
    # that refers to itself, so with the collector off nothing is left for it
    perm = list(range(30))
    random.Random(30).shuffle(perm)
    relabelled_d30 = cartan.validate_gcm(_permute(cartan.catalog("D", 30).rows(), perm))
    calls = [lambda: cartan.classify(relabelled_d30),
             lambda: enumerate_special("B", 12, 2)]
    gc.collect()
    gc.disable()
    try:
        unreachable = [(call(), gc.collect())[1] for call in calls]
    finally:
        gc.enable()
    assert unreachable == [0, 0]


@pytest.mark.parametrize("case", ["classify A60", "classify B60", "classify C60",
                                  "classify D60", "enumerate B60", "enumerate C60"])
def test_search_steps_stay_linear_in_the_rank(case, monkeypatch):
    # a node tries only nodes of its own degree, so each family a rank-60
    # search tries fails or matches along one chain: at most 5 (rank + 1)
    # steps, where trying every node of a failing family took thousands
    action, label = case.split()
    rank = int(label[1:])
    if action == "classify":
        # a relabelling as perfbench.workloads.relabel makes one
        perm = list(range(rank))
        random.Random(7).shuffle(perm)
        g = cartan.validate_gcm(_permute(cartan.catalog(label[0], rank).rows(), perm))
        call, args = cartan.classify, (g,)
    else:
        call, args = enumerate_special, (label[0], rank, 2)
    steps, extend = [], cartan._extend
    monkeypatch.setattr(cartan, "_extend", lambda *a: steps.append(a[-1]) or extend(*a))
    assert call(*args)
    assert 0 < len(steps) <= 5 * (rank + 1)


def test_recognize_script_walks_every_example():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, str(root / "scripts" / "recognize.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    blocks = proc.stdout.split("== ")[1:]
    assert len(blocks) == 6
    titles = {block.split(":", 1)[0]: block for block in blocks}
    assert "   type F4   " in titles["a relabeled F4"]
    for affine in ["an affine rank-2 matrix", "a 3-cycle (affine A2)"]:
        assert "not finite type" in titles[affine]
