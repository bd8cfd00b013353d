import pytest
from hypothesis import given, settings, strategies as st

from weylkit import cartan
from weylkit.roots import (IndexOutOfRange, NotARoot, RootsError, generate_roots,
                           nonsimple_positives, root_string)

from oracles import reflection_closure

CLOSED_FORM_POSITIVES = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


def _rs(label):
    return generate_roots(cartan.parse_type(label))


def test_positive_root_counts_match_closed_form():
    for family, rank in cartan.catalog_types(max_rank=8):
        rs = generate_roots(cartan.catalog(family, rank))
        assert rs.num_positive == CLOSED_FORM_POSITIVES[family](rank), (family, rank)


@pytest.mark.parametrize(
    "label", [f"{f}{r}" for f, r in cartan.catalog_types(max_rank=8)] + ["A2+G2+B3"])
def test_generate_roots_matches_reflection_closure(label):
    g = cartan.parse_type(label)
    closure = reflection_closure(g, cartan.symmetrizer(g).lengths)
    rs = generate_roots(g)
    assert {r.coords: (r.coroot, r.length) for r in rs.roots} == closure
    positives = sorted((c for c in closure if sum(c) > 0), key=lambda c: (sum(c), c))
    assert [r.coords for r in rs.roots] == positives + [
        tuple(-a for a in c) for c in positives]
    for index, r in enumerate(rs.roots):
        assert r.index == index
        assert r.height == sum(r.coords)
        assert r.positive == (r.height > 0)
        assert r.weight == tuple(sum(a * g[k][j] for k, a in enumerate(r.coords))
                                 for j in range(g.n))


def test_a2_positives_by_hand():
    rs = _rs("A2")
    assert {r.coords for r in rs.positives} == {(1, 0), (0, 1), (1, 1)}


def test_g2_positive_count():
    assert _rs("G2").num_positive == 6


def test_product_type_has_no_coupling():
    rs = _rs("A1+A1")
    assert {r.coords for r in rs.positives} == {(1, 0), (0, 1)}
    assert nonsimple_positives(rs) == []


def test_closed_under_negation_and_counts():
    for label in ["A2", "B2", "G2", "B3", "C3", "A3", "D4", "F4"]:
        rs = _rs(label)
        coords = {r.coords for r in rs.roots}
        assert len(rs.roots) == 2 * rs.num_positive
        assert coords == {tuple(-x for x in c) for c in coords}
        for r in rs.roots:
            assert r.positive == all(x >= 0 for x in r.coords)
            assert r.positive or all(x <= 0 for x in r.coords)


def test_negation_index_layout():
    rs = _rs("B3")
    for r in rs.roots:
        other = rs.roots[rs.negative_of(r.index)]
        assert other.coords == tuple(-x for x in r.coords)


def test_simple_index_out_of_range():
    # a simple index past the rank, or below 0, is refused by the root system
    # itself, not by a KeyError or IndexError from its tables
    rs = _rs("A2")
    for call in (lambda: rs.simple(2), lambda: rs.simple(-1), lambda: rs.simple_weight(5)):
        with pytest.raises(IndexOutOfRange, match="out of range for rank 2$"):
            call()
    assert issubclass(IndexOutOfRange, RootsError)


def test_pairing_of_root_with_own_coroot_is_two():
    for label in ["A2", "B2", "G2", "F4", "C3", "D4"]:
        rs = _rs(label)
        for r in rs.roots:
            assert rs.pairing(r.weight, r.coroot) == 2


def test_coroot_coords_scale_by_length():
    # the coroot of alpha has coordinates a_i * len_i / len(alpha)
    for label in ["B2", "G2", "F4", "B3", "C3"]:
        rs = _rs(label)
        for r in rs.roots:
            for i, (a, b) in enumerate(zip(r.coords, r.coroot)):
                assert a * rs.sym.lengths[i] == b * r.length


def test_length_constant_on_orbits():
    # any simple reflection preserves the stored length class
    for label in ["B2", "G2", "F4"]:
        rs = _rs(label)
        for r in rs.roots:
            for i in range(rs.rank):
                img = rs.root(rs.reflect_coords(i, r.coords))
                assert img.length == r.length
                assert rs.reflection_perms[i][r.index] == img.index


def test_deterministic_ordering():
    rs1 = _rs("F4")
    rs2 = _rs("F4")
    assert [r.coords for r in rs1.roots] == [r.coords for r in rs2.roots]
    heights = [r.height for r in rs1.positives]
    assert heights == sorted(heights)


def test_string_a2_example():
    rs = _rs("A2")
    s = root_string(rs, (1, 0), (0, 1))
    assert (s.down, s.up) == (0, 1)


def test_string_through_self():
    # the string through a root along itself is -delta, 0, delta
    for label in ["A1", "B2", "G2"]:
        rs = _rs(label)
        for r in rs.positives:
            s = root_string(rs, r.coords, r.coords)
            assert (s.down, s.up) == (2, 0)
            assert s.elements()[0] == tuple(-x for x in r.coords)


def test_string_b2_long_through_short():
    rs = _rs("B2")
    long_simple = next(r for r in rs.simples if r.length_class == "long")
    short_simple = next(r for r in rs.simples if r.length_class == "short")
    s = root_string(rs, long_simple.coords, short_simple.coords)
    assert (s.down, s.up) == (0, 2)
    assert all(rs.is_root(e) for e in s.elements())


def test_string_through_zero():
    rs = _rs("B2")
    zero = (0, 0)
    for r in rs.roots:
        s = root_string(rs, zero, r.coords)
        assert (s.down, s.up) == (1, 1)


def test_string_requires_roots():
    rs = _rs("A2")
    with pytest.raises(NotARoot):
        root_string(rs, (2, 0), (1, 0))
    with pytest.raises(NotARoot):
        root_string(rs, (1, 0), (1, 2))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_string_identity_down_minus_up(data):
    label = data.draw(st.sampled_from(["A2", "B2", "G2", "A3", "B3", "C3"]))
    rs = _rs(label)
    beta = data.draw(st.sampled_from(rs.roots))
    delta = data.draw(st.sampled_from(rs.roots))
    s = root_string(rs, beta.coords, delta.coords)
    assert s.down - s.up == rs.pairing(beta.weight, delta.coroot)


def test_nonsimple_positives():
    assert {r.coords for r in nonsimple_positives(_rs("A2"))} == {(1, 1)}
    assert nonsimple_positives(_rs("A1")) == []
    assert len(nonsimple_positives(_rs("G2"))) == 4


def test_coroots_form_the_dual_root_system():
    # the coroot coordinate vectors must reproduce, as a set, the roots of
    # the transposed Cartan matrix (an independent generation path)
    for family, rank in cartan.catalog_types(max_rank=4):
        g = cartan.catalog(family, rank)
        dual = cartan.validate_gcm([list(row) for row in zip(*g.rows())])
        dual_roots = {r.coords for r in generate_roots(dual).roots}
        coroots = {r.coroot for r in generate_roots(g).roots}
        assert coroots == dual_roots, (family, rank)


def test_support_travels_along_strings():
    # for positive beta != delta with gamma in the support, every string
    # point beta + i*delta on the surviving ranges keeps both gamma and
    # delta in its support (exhaustive, rank <= 4)
    for family, rank in cartan.catalog_types(max_rank=4):
        rs = generate_roots(cartan.catalog(family, rank))
        for delta in rs.simples:
            d = delta.coords.index(1)
            for beta in rs.positives:
                if beta.coords == delta.coords:
                    continue
                gammas = [k for k, a in enumerate(beta.coords) if a > 0 and k != d]
                assert gammas, "a positive nonproportional root has other support"
                n_val = -rs.pairing(beta.weight, delta.coroot)
                if n_val >= 0:
                    rng = range(1, n_val + 1)
                elif n_val <= -2:
                    rng = range(n_val + 1, 0)
                else:
                    continue
                for i in rng:
                    point = tuple(b + i * dd for b, dd in zip(beta.coords, delta.coords))
                    assert rs.is_root(point)
                    root = rs.root(point)
                    assert root.coords[d] > 0
                    for g in gammas:
                        assert root.coords[g] > 0
