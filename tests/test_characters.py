import random
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings, strategies as st

from weylkit import cartan, gcm
from weylkit.characters import (EulerData, NotDominant,
                                shifted_euler_characteristic, volume, weyl_dim)
from weylkit.pushforward import PushforwardTooLarge, pushforward_word
from weylkit.roots import generate_roots
from weylkit.weyl import enumerate_weyl, is_reduced, reflect

from oracles import euler_characteristic_by_generator, freudenthal_dim

RANK4_TYPES = [f"{f}{r}" for f, r in cartan.catalog_types(max_rank=4)]


def _ed(label):
    rs = generate_roots(gcm.parse_type(label))
    return rs, EulerData.from_root_system(rs)


@pytest.mark.parametrize("label", ["E8", "A60", "B60"])
def test_chi_matches_the_generator_pairing(label):
    # regular dominant weights pair to nonzero values with every coroot;
    # mixed-sign ones mostly give chi = 0, at the first zero pairing
    rs, ed = _ed(label)
    rng = random.Random(label)
    for k in range(24):
        low = 1 if k % 2 else -6
        d = tuple(rng.randint(low, 6) for _ in range(rs.rank))
        assert shifted_euler_characteristic(ed, d) == euler_characteristic_by_generator(ed, d)


def test_chi_at_rho_is_one_for_all_small_types():
    for label in RANK4_TYPES:
        rs, ed = _ed(label)
        assert shifted_euler_characteristic(ed, ed.rho) == 1, label


def test_chi_vanishes_on_mirrors():
    rs, ed = _ed("B2")
    for cv in ed.positive_coroots:
        # a nonzero integer weight orthogonal to the coroot
        j = next(k for k, x in enumerate(cv) if x != 0)
        d = [0] * rs.rank
        d[j] = -cv[(j + 1) % rs.rank]
        d[(j + 1) % rs.rank] = cv[j]
        assert sum(a * b for a, b in zip(d, cv)) == 0
        assert shifted_euler_characteristic(ed, tuple(d)) == 0
        assert volume(ed, tuple(d)) == 0


def test_a2_frozen_values():
    _, ed = _ed("A2")
    assert shifted_euler_characteristic(ed, (2, 2)) == 8
    assert volume(ed, (2, 2)) == 48
    assert ed.m == 3


def test_a1_volume_is_degree_of_projective_line():
    _, ed = _ed("A1")
    assert volume(ed, (1,)) == 1
    assert ed.m == 1


def test_degree_equals_mirror_count():
    # the volume form has degree m = number of positive roots = number of
    # distinct reflection mirrors
    for label in ["A2", "B2", "G2", "A3", "B3"]:
        rs, ed = _ed(label)
        group = enumerate_weyl(rs)
        assert ed.m == rs.num_positive == len(group.reflections())


def test_weyl_dim_examples():
    _, ed1 = _ed("A1")
    for n in range(6):
        assert weyl_dim(ed1, (n,)) == n + 1
    _, ed2 = _ed("A2")
    assert weyl_dim(ed2, (0, 0)) == 1
    assert weyl_dim(ed2, (1, 0)) == 3


def test_weyl_dim_rejects_negative_coordinates():
    _, ed = _ed("A2")
    with pytest.raises(NotDominant):
        weyl_dim(ed, (-1, 0))


def test_weyl_dim_product_types_multiply():
    _, ed = _ed("A1+A1")
    assert weyl_dim(ed, (2, 3)) == 12


def test_weyl_dim_integral_rank_up_to_4():
    from itertools import product

    for label in RANK4_TYPES:
        rs, ed = _ed(label)
        for lam in product(range(3), repeat=rs.rank):
            value = weyl_dim(ed, lam)   # asserts integrality internally
            assert value >= 1


def test_weyl_dim_matches_freudenthal_oracle():
    from itertools import product

    for label in ["A1", "A2", "B2", "G2", "A3", "B3", "C3"]:
        rs, ed = _ed(label)
        for lam in product(range(3), repeat=rs.rank):
            assert weyl_dim(ed, lam) == freudenthal_dim(rs, lam), (label, lam)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_antisymmetry_under_simple_reflections(data):
    label = data.draw(st.sampled_from(RANK4_TYPES))
    rs, ed = _ed(label)
    d = tuple(data.draw(st.integers(-8, 8)) for _ in range(rs.rank))
    for i in range(rs.rank):
        assert shifted_euler_characteristic(ed, reflect(rs, i, d)) == \
            -shifted_euler_characteristic(ed, d)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_volume_equivariance_full_group_rank3(data):
    label = data.draw(st.sampled_from(["A2", "B2", "G2", "A3", "B3", "C3", "A1+A2"]))
    rs, ed = _ed(label)
    elements = enumerate_weyl(rs).elements()
    w = data.draw(st.sampled_from(elements))
    d = tuple(data.draw(st.integers(-6, 6)) for _ in range(rs.rank))
    assert volume(ed, w.act_weight(d)) == Fraction(w.det()) * volume(ed, d)


def test_volume_equivariance_sampled_rank4():
    rng = random.Random(20260808)
    for label in ["B4", "D4", "F4"]:
        rs, ed = _ed(label)
        elements = enumerate_weyl(rs).elements()
        for _ in range(100):
            w = rng.choice(elements)
            d = tuple(rng.randint(-6, 6) for _ in range(rs.rank))
            assert volume(ed, w.act_weight(d)) == w.det() * volume(ed, d)


def test_exactness_no_floats():
    _, ed = _ed("G2")
    value = shifted_euler_characteristic(ed, (5, 7))
    assert isinstance(value, Fraction)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_borel_weil_bott_along_a_random_reduced_word_for_w0(data):
    # pushing L_lambda down the Bott-Samelson tower of a reduced word for
    # w0 gives the cohomology of G/B, so its signed total is chi(G/B, L_lambda)
    label = data.draw(st.sampled_from(RANK4_TYPES), label="type")
    rs, ed = _ed(label)
    lam = data.draw(st.tuples(*[st.integers(-4, 4)] * rs.rank), label="lambda")
    # w0 takes -rho to rho; stripping a negative coordinate is one reflection
    # closer, so the letters spell a reduced word for w0
    v, word = (-1,) * rs.rank, []
    while negatives := [i for i, x in enumerate(v) if x < 0]:
        i = data.draw(st.sampled_from(negatives))
        v, word = reflect(rs, i, v), word + [i]
    assert len(word) == rs.num_positive and is_reduced(rs, word)
    try:
        gw = pushforward_word(rs, word, lam)
    except PushforwardTooLarge:
        reject()
    signed = sum((-1) ** degree * mult for (_, degree), mult in gw.items())
    assert signed == shifted_euler_characteristic(ed, tuple(x + 1 for x in lam))
