import importlib.util
from pathlib import Path

import pytest

from weylkit import cartan
from weylkit.isogeny import (PRIMALITY_BOUND, InvalidPMorphism,
                             IsogenyError, PMorphism, PrimalityBoundExceeded,
                             QNotPowerOfP, compose, enumerate_special,
                             extend_to_roots, factor_primitive_constant,
                             frobenius, is_constant, is_prime, is_primitive,
                             validate_pmorphism)
from weylkit.rootdata import PinnedRootDatum, adjoint_datum, simply_connected_datum
from weylkit.roots import generate_roots

from oracles import brute_scaled_pairs, trial_division_is_prime

_spec = importlib.util.spec_from_file_location(
    "edge_table", Path(__file__).resolve().parents[1] / "scripts" / "edge_table.py")
edge_table = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(edge_table)

IRREDUCIBLE_RANK4 = [(f, r) for f, r in cartan.catalog_types(max_rank=4)]

EXPECTED_SPECIAL = {(("B", 2), 2), (("B", 3), 2), (("C", 3), 2),
                    (("B", 4), 2), (("C", 4), 2), (("F", 4), 2), (("G", 2), 3)}


def _identity_pmorphism(datum):
    n = datum.rank
    f = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    return PMorphism(datum, datum, f, tuple(range(len(datum.simples))),
                     tuple(1 for _ in datum.simples), 2)


def test_is_prime():
    assert [p for p in range(-3, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(1_000_000_000_039)
    assert not is_prime(1_000_000_000_039 * 3)


def test_frobenius_at_a_large_prime_validates():
    # Miller-Rabin costs at most 13 modular powers, so even a large prime is cheap
    phi = frobenius(adjoint_datum(cartan.parse_type("A1")), 1_000_000_000_039)
    assert phi.q == (1_000_000_000_039,)


@pytest.mark.parametrize("n", [0, -1])
def test_frobenius_refuses_a_non_positive_exponent(n):
    # a raise, not an assert: under python -O, n = 0 would return the identity
    with pytest.raises(IsogenyError):
        frobenius(adjoint_datum(cartan.parse_type("A1")), 2, n)


def test_is_prime_matches_trial_division_below_1e5():
    assert [p for p in range(100_000) if is_prime(p)] == \
        [p for p in range(100_000) if trial_division_is_prime(p)]


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the first 4, 11 and 12 prime bases: only a later
    # base exposes each, the last one only the 13th base, 41
    for n in (3_215_031_751, 3_825_123_056_546_413_051):
        assert not is_prime(n) and not trial_division_is_prime(n)
    # the smallest factor of this one is out of reach of trial division
    n = 318_665_857_834_031_151_167_461
    assert 399_165_290_221 * 798_330_580_441 == n
    assert not is_prime(n)


def test_is_prime_refuses_the_bound_and_beyond():
    assert not is_prime(PRIMALITY_BOUND - 2)
    for p in (PRIMALITY_BOUND, PRIMALITY_BOUND + 2, 10 ** 40):
        with pytest.raises(PrimalityBoundExceeded):
            is_prime(p)
    assert issubclass(PrimalityBoundExceeded, IsogenyError)


def test_enumerate_special_rejects_non_prime():
    for p in (0, 1, 4):
        with pytest.raises(IsogenyError, match="not prime"):
            enumerate_special("G", 2, p)


def test_identity_validates():
    datum = adjoint_datum(cartan.parse_type("A2"))
    validate_pmorphism(_identity_pmorphism(datum))


def test_frobenius_validates_on_both_lattices():
    for label in ["A2", "B2", "G2"]:
        g = cartan.parse_type(label)
        for datum in (adjoint_datum(g), simply_connected_datum(g)):
            for p, n in [(2, 1), (3, 2), (5, 1)]:
                phi = frobenius(datum, p, n)
                assert is_constant(phi)
                assert phi.q == tuple(p ** n for _ in datum.simples)


def test_frobenius_composition_is_frobenius():
    datum = adjoint_datum(cartan.parse_type("A2"))
    f1 = frobenius(datum, 3, 1)
    composed = compose(f1, f1)
    assert composed.f == frobenius(datum, 3, 2).f
    assert composed.q == (9, 9)


def test_bad_q_rejected():
    datum = adjoint_datum(cartan.parse_type("A1"))
    phi = PMorphism(datum, datum, ((6,),), (0,), (6,), 2)
    with pytest.raises(QNotPowerOfP):
        validate_pmorphism(phi)


def test_g2_wrong_scaling_is_cartan_incompatible():
    # swapping the simples with q = (1, 2) at p = 2 cannot work: the edge
    # weights force the ratio 3
    datum = adjoint_datum(cartan.parse_type("G2"))
    f = ((0, 1), (2, 0))
    phi = PMorphism(datum, datum, f, (1, 0), (1, 2), 2)
    with pytest.raises(InvalidPMorphism):
        validate_pmorphism(phi)
    # same shape with consistent f but bad Cartan scaling
    phi2 = PMorphism(datum, datum, ((0, 2), (1, 0)), (1, 0), (2, 1), 2)
    with pytest.raises(InvalidPMorphism):
        validate_pmorphism(phi2)


def test_factor_frobenius():
    datum = adjoint_datum(cartan.parse_type("B2"))
    phi = frobenius(datum, 2, 3)
    prim, k = factor_primitive_constant(phi)
    assert k == 3
    assert prim.q == (1, 1)
    assert is_primitive(prim)


def test_factor_already_primitive():
    phi = enumerate_special("B", 2, 2)[0]
    prim, k = factor_primitive_constant(phi)
    assert k == 0 and prim is phi


def test_factor_special_times_frobenius():
    special = enumerate_special("G", 2, 3)[0]
    composed = compose(frobenius(special.target, 3, 1), special)
    prim, k = factor_primitive_constant(composed)
    assert k == 1
    assert prim.q == special.q
    assert prim.f == special.f
    # recomposition with the Frobenius factor reproduces the original
    rebuilt = compose(frobenius(prim.target, prim.p, k), prim)
    assert rebuilt.f == composed.f and rebuilt.q == composed.q



def _a1_adjoint_to_simply_connected():
    # f(2) = 2 * 1 on the roots and f(2) = 2 * 1 on the coroots: q = 2, but
    # f has no factor 2, so there is no Frobenius factor to split off
    source = PinnedRootDatum(1, ((1,), (-1,)), ((2,), (-2,)), (0,))
    target = PinnedRootDatum(1, ((2,), (-2,)), ((1,), (-1,)), (0,))
    return PMorphism(source, target, ((1,),), (0,), (2,), 2)


def test_factor_reads_the_exponent_off_f_and_q():
    phi = _a1_adjoint_to_simply_connected()
    validate_pmorphism(phi)
    assert factor_primitive_constant(phi) == (phi, 0)
    assert not is_primitive(phi) and is_constant(phi)
    # one Frobenius after it divides both f and q by 2 once
    prim, k = factor_primitive_constant(compose(frobenius(phi.target, 2), phi))
    assert (prim, k) == (phi, 1)


@pytest.mark.parametrize("case", ["other-datum", "other-prime"])
def test_compose_refuses_morphisms_that_do_not_compose(case):
    a2 = adjoint_datum(cartan.parse_type("A2"))
    inner = frobenius(a2, 2)
    outer = (frobenius(simply_connected_datum(cartan.parse_type("A2")), 2)
             if case == "other-datum" else frobenius(a2, 3))
    with pytest.raises(InvalidPMorphism, match="morphisms do not compose"):
        compose(outer, inner)


@pytest.mark.parametrize("q,p", [((0, 1), 2), ((1, 1), 1)])
def test_factor_refuses_a_q_or_p_without_a_valuation(q, p):
    # 0 has no p-adic valuation and 1 divides everything: an unvalidated
    # morphism must be refused, not loop
    datum = adjoint_datum(cartan.parse_type("A1+A1"))
    phi = PMorphism(datum, datum, ((q[0], 0), (0, q[1])), (0, 1), q, p)
    with pytest.raises(InvalidPMorphism):
        factor_primitive_constant(phi)


@pytest.mark.parametrize("family,rank", IRREDUCIBLE_RANK4)
def test_pmorphism_json_round_trip(family, rank):
    for p in (2, 3):
        for phi in enumerate_special(family, rank, p):
            assert PMorphism.from_json(phi.to_json()) == phi

def test_enumerate_special_table():
    for p in (2, 3, 5):
        for family, rank in IRREDUCIBLE_RANK4:
            found = enumerate_special(family, rank, p)
            expected_nonempty = ((family, rank), p) in EXPECTED_SPECIAL
            assert bool(found) == expected_nonempty, (family, rank, p)
            for phi in found:
                validate_pmorphism(phi)
                assert is_primitive(phi) and not is_constant(phi)
                assert factor_primitive_constant(phi)[1] == 0


def test_g2_special_is_unique_and_swaps_lengths():
    found = enumerate_special("G", 2, 3)
    assert len(found) == 1
    phi = found[0]
    lengths = cartan.symmetrizer(cartan.parse_type("G2")).lengths
    for k in range(2):
        assert phi.q[k] == (3 if lengths[k] == 1 else 1)
        assert lengths[phi.u[k]] != lengths[k]


def test_b3_special_targets_c3():
    found = enumerate_special("B", 3, 2)
    assert len(found) == 1
    target_gcm = cartan.GCM(3, tuple(tuple(r) for r in found[0].target.cartan_matrix()))
    assert cartan.classify(target_gcm).multiset() == (("C", 3),)
    src_lengths = cartan.symmetrizer(cartan.parse_type("B3")).lengths
    assert all(found[0].q[k] == (2 if src_lengths[k] == 1 else 1) for k in range(3))


def test_q_times_length_constant_for_specials():
    for (family, rank), p in EXPECTED_SPECIAL:
        for phi in enumerate_special(family, rank, p):
            lengths = cartan.symmetrizer(cartan.catalog(family, rank)).lengths
            values = {phi.q[k] * lengths[k] for k in range(rank)}
            assert len(values) == 1


def test_self_composition_is_constant_times_automorphism():
    for family, rank, p in [("B", 2, 2), ("G", 2, 3), ("F", 4, 2)]:
        phi = enumerate_special(family, rank, p)[0]
        assert phi.source == phi.target   # endo-typed
        square = compose(phi, phi)
        assert is_constant(square)
        assert set(square.q) == {p}
        prim, k = factor_primitive_constant(square)
        assert k == 1
        assert prim.q == tuple(1 for _ in range(rank))   # an automorphism


def test_q_rederived_from_f_matches():
    # brute-force recovery of q from f via the root equation
    for (family, rank), p in EXPECTED_SPECIAL:
        for phi in enumerate_special(family, rank, p):
            from weylkit.intmat import matvec

            for k in range(rank):
                img = matvec([list(r) for r in phi.f],
                             list(phi.target.simple_root(phi.u[k])))
                alpha = phi.source.simple_root(k)
                ratios = {x // a for x, a in zip(img, alpha) if a != 0}
                assert ratios == {phi.q[k]}


def test_extension_to_all_roots():
    for family, rank, p in [("B", 2, 2), ("G", 2, 3), ("B", 3, 2)]:
        phi = enumerate_special(family, rank, p)[0]
        ext = extend_to_roots(phi)
        rs = generate_roots(cartan.catalog(family, rank))
        assert len(ext) == len(rs.roots)
        # image indices form a bijection and q values stay powers of p
        images = [j for j, _ in ext]
        assert sorted(images) == list(range(len(rs.roots)))
        for i, (j, q) in enumerate(ext):
            assert q in (1, p)
        # on the simples the extension restricts to (u, q)
        for k in range(rank):
            src_idx = rs.simple(k).index
            j, q = ext[src_idx]
            assert q == phi.q[k]
            assert phi.target.roots[j] == phi.target.simple_root(phi.u[k])


def test_extension_q_constant_on_length_classes():
    phi = enumerate_special("F", 4, 2)[0]
    rs = generate_roots(cartan.catalog("F", 4))
    ext = extend_to_roots(phi)
    by_length = {}
    for i, (j, q) in enumerate(ext):
        by_length.setdefault(rs.roots[i].length, set()).add(q)
    assert by_length == {1: {2}, 2: {1}}


def test_enumerate_special_matches_bijection_oracle():
    for family, rank in cartan.catalog_types(max_rank=7):
        src = cartan.catalog(family, rank).rows()
        for p in (2, 3, 5, 7):
            expected = [(tgt, u, q)
                        for f, r in cartan.catalog_types(max_rank=rank) if r == rank
                        for tgt in [cartan.catalog(f, r).rows()]
                        for u, q in brute_scaled_pairs(src, tgt, p)
                        if set(q) == {1, p}]
            found = [(phi.target.cartan_matrix(), phi.u, phi.q)
                     for phi in enumerate_special(family, rank, p)]
            assert found == expected, (family, rank, p)


def test_rank_12_search_is_bounded():
    found = enumerate_special("B", 12, 2)
    assert len(found) == 1
    target = cartan.GCM(12, tuple(tuple(r) for r in found[0].target.cartan_matrix()))
    assert cartan.classify(target).multiset() == (("C", 12),)
    assert enumerate_special("A", 12, 2) == []


def test_no_special_isogeny_at_rank_60_without_a_bond_of_multiplicity_p():
    # simply laced, or B60 at a p other than 2: no search runs, no datum is built
    assert enumerate_special("A", 60, 2) == []
    assert enumerate_special("D", 60, 2) == []
    assert enumerate_special("B", 60, int(edge_table.LARGE_PRIME)) == []
