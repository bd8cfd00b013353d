from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from weylkit import cartan
from weylkit.characters import EulerData, shifted_euler_characteristic, volume, weyl_dim
from weylkit.isogeny import enumerate_special, pmorphism_chi_factors, translated_word
from weylkit.pushforward import (chi_restriction, pushforward_multiset, pushforward_states,
                                 pushforward_step, pushforward_word)
from weylkit.roots import (IndexOutOfRange, NotARoot, NotAWeight, RootsError, check_weight,
                           check_word, generate_roots, nonsimple_positives, root_string)
from weylkit.weyl import (demazure_product, element_from_word, is_reduced, reflect,
                          word_from_vector)

from oracles import (reflect_coords, reflection_closure, string_rule_roots,
                     tuple_reflection_perms, tuple_root_strings)

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


@pytest.mark.parametrize(
    "label", [f"{f}{r}" for f, r in cartan.catalog_types(max_rank=9)]
    + ["A60", "B60", "C60", "D60", "B30+C30", "D30+D30", "E8+A2", "G2+F4", "B3+C4+G2"])
def test_generate_roots_matches_string_rule(label):
    g = cartan.parse_type(label)
    roots, keys = string_rule_roots(g, cartan.symmetrizer(g).lengths)
    rs = generate_roots(g)
    assert list(rs.roots) == roots
    assert list(rs.keys) == keys


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


def test_check_weight_returns_the_tuple_it_checked():
    rs = _rs("A2")
    assert check_weight(rs, [1, -2]) == (1, -2)
    with pytest.raises(NotAWeight, match=r"^\(True, 0\) is not a weight of rank 2") as err:
        check_weight(rs, iter([True, 0]))
    assert (err.value.weight, err.value.n) == ((True, 0), 2)
    assert issubclass(NotAWeight, RootsError)


# each public function taking a weight, called on the root system, its
# EulerData and a weight; the empty word and max_len = 0 reach no step
WEIGHT_ENTRY_POINTS = {
    "reflect": lambda rs, ed, w: reflect(rs, 0, w),
    "act_weight": lambda rs, ed, w: element_from_word(rs, (0,)).act_weight(w),
    "word_from_vector": lambda rs, ed, w: word_from_vector(rs, w),
    "shifted_euler_characteristic": lambda rs, ed, w: shifted_euler_characteristic(ed, w),
    "volume": lambda rs, ed, w: volume(ed, w),
    "weyl_dim": lambda rs, ed, w: weyl_dim(ed, w),
    "pushforward_step": lambda rs, ed, w: pushforward_step(rs, w, 0),
    "pushforward_word": lambda rs, ed, w: pushforward_word(rs, (), w),
    "pushforward_states": lambda rs, ed, w: list(pushforward_states(rs, w, 0, None)),
    "chi_restriction": lambda rs, ed, w: chi_restriction(rs, (), w),
}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_every_weight_entry_point_refuses_a_malformed_weight(data):
    rs = _rs(data.draw(st.sampled_from(["A2", "B3", "G2"])))
    ed = EulerData.from_root_system(rs)
    if data.draw(st.booleans()):
        length = data.draw(st.integers(0, rs.rank + 2).filter(lambda k: k != rs.rank))
        weight = data.draw(st.lists(st.integers(-3, 3), min_size=length, max_size=length))
    else:
        weight = data.draw(st.lists(st.integers(-3, 3), min_size=rs.rank, max_size=rs.rank))
        weight[data.draw(st.integers(0, rs.rank - 1))] = data.draw(
            st.sampled_from([True, False, 1.5, 1.0, "1", None]))
    for name, call in WEIGHT_ENTRY_POINTS.items():
        with pytest.raises(NotAWeight):
            call(rs, ed, tuple(weight))
            pytest.fail(f"{name} accepted {weight!r}")


def test_check_word_returns_the_tuple_it_checked():
    assert check_word(2, iter([1, 0, 1])) == (1, 0, 1)
    assert check_word(0, []) == ()
    with pytest.raises(IndexOutOfRange, match="^simple index '1' out of range for rank 2$"):
        check_word(2, (0, "1", 5))
    with pytest.raises(IndexOutOfRange, match="^simple index True out of range") as err:
        check_word(3, (True, 9))
    assert (err.value.i, err.value.n) == (True, 3)


# each public function taking a word, called on the root system and a word;
# pushforward_states takes a single letter, checked by the same rule
WORD_ENTRY_POINTS = {
    "element_from_word": element_from_word,
    "demazure_product": demazure_product,
    "is_reduced": is_reduced,
    "pushforward_word": lambda rs, word: pushforward_word(rs, word, (0,) * rs.rank),
    "pushforward_multiset": lambda rs, word: pushforward_multiset(rs, word, Counter()),
    "chi_restriction": lambda rs, word: chi_restriction(rs, word, (1,) * rs.rank),
}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_every_word_entry_point_refuses_a_bad_letter(data):
    label = data.draw(st.sampled_from(["A2", "B3", "G2"]))
    rs = _rs(label)
    word = data.draw(st.lists(st.integers(0, rs.rank - 1), max_size=6))
    bad = data.draw(st.sampled_from([-1, rs.rank, rs.rank + 3, True, False, 1.0, "1", None]))
    word.insert(data.draw(st.integers(0, len(word))), bad)
    calls = {name: (lambda call=call: call(rs, tuple(word)))
             for name, call in WORD_ENTRY_POINTS.items()}
    if bad is not None:
        calls["pushforward_states"] = lambda: list(
            pushforward_states(rs, (0,) * rs.rank, 0, bad))
    if label == "G2":
        phi = enumerate_special("G", 2, 3)[0]
        for call in (pmorphism_chi_factors, translated_word):
            calls[call.__name__] = lambda call=call: call(phi, tuple(word))
    for name, call in calls.items():
        with pytest.raises(IndexOutOfRange):
            call()
            pytest.fail(f"{name} accepted {word!r}")


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
                img = rs.root(reflect_coords(rs, i, r.coords))
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


KEYED_LABELS = [f"{f}{r}" for f, r in cartan.catalog_types(max_rank=8)] + ["A2+G2+B3"]


@pytest.mark.parametrize("label", KEYED_LABELS + ["A60", "C60", "D60", "B40"])
def test_reflection_perms_match_tuple_oracle(label):
    rs = _rs(label)
    assert rs.reflection_perms == tuple_reflection_perms(rs)


@pytest.mark.parametrize("label", KEYED_LABELS)
def test_root_strings_match_tuple_oracle(label):
    rs = _rs(label)
    strings = tuple_root_strings(rs)
    assert len(strings) == (len(rs.roots) + 1) * len(rs.roots)
    for (base, direction), steps in strings.items():
        s = root_string(rs, base, direction)
        assert (s.down, s.up) == steps, (base, direction)


def test_keys_are_linear_and_add_matches_coordinates():
    rs = _rs("G2+B3")
    index = {r.coords: r.index for r in rs.roots}
    for r in rs.roots:
        assert rs.keys[r.index] == sum(a * 256 ** k for k, a in enumerate(r.coords))
        for s in rs.roots:
            for k in (-4, -3, -2, -1, 0, 1, 2, 3, 4):
                total = tuple(a + k * b for a, b in zip(r.coords, s.coords))
                assert rs.add(r.index, s.index, k) == index.get(total), (r, s, k)


def test_lookups_do_not_alias_across_digits_or_lengths():
    rs = _rs("A2")
    for coords in [(256, 0), (1,), (1, 0, 0), (-256, 1), (0, 0), ()]:
        assert rs.index_of(coords) is None, coords
        assert not rs.is_root(coords), coords
        with pytest.raises(NotARoot):
            rs.root(coords)
    assert rs.root((1.0, 0)).coords == (1, 0)
    assert rs.is_root([0, 1]) and rs.index_of(iter((1, 1))) == rs.root((1, 1)).index


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
