import contextlib
import random
from math import prod
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from weylkit import axioms, cartan, cosets, gcm, weyl
from weylkit.checks import IndexOutOfRange, NotAWeight
from weylkit.cosets import CapExceeded, poincare_series, weyl_order
from weylkit.roots import generate_roots
from weylkit.weyl import (NotInRhoOrbit, WeylElement, demazure_product, element_from_word,
                          enumerate_weyl, is_reduced, poincare_polynomial, reduced_word,
                          reflect, simple_reflections, word_from_vector)

from oracles import (coset_chain, dihedral_lengths, rho_orbit_layers,
                     symmetric_group_lengths, tuple_walk, weyl_order_closed_form)


def _rs(label):
    return generate_roots(gcm.parse_type(label))


# -- reflect ------------------------------------------------------------

def test_reflect_fixes_orthogonal_weights():
    rs = _rs("A2")
    assert reflect(rs, 0, (0, 5)) == (0, 5)


def test_reflect_a1_fundamental_weight():
    rs = _rs("A1")
    assert reflect(rs, 0, (1,)) == (-1,)


def test_reflect_negates_own_simple_root():
    rs = _rs("A2")
    alpha1 = rs.simple_weight(0)
    assert alpha1 == (2, -1)
    assert reflect(rs, 0, alpha1) == (-2, 1)


def test_reflect_is_involutive_and_integral():
    rs = _rs("G2")
    for d in [(3, -2), (0, 0), (-1, 5)]:
        for i in range(2):
            img = reflect(rs, i, d)
            assert all(isinstance(x, int) for x in img)
            assert reflect(rs, i, img) == d


def test_reflect_index_range():
    rs = _rs("A2")
    for i in (2, -1):
        with pytest.raises(IndexOutOfRange):
            reflect(rs, i, (0, 0))


# -- enumeration --------------------------------------------------------

def test_a2_matches_symmetric_group():
    group = enumerate_weyl(_rs("A2"))
    assert group.order == 6
    assert group.histogram == symmetric_group_lengths(3)
    assert group.longest_element().length == 3


def test_g2_is_dihedral_of_order_twelve():
    group = enumerate_weyl(_rs("G2"))
    assert group.order == 12
    assert group.histogram == dihedral_lengths(6)


def test_a1_group():
    group = enumerate_weyl(_rs("A1"))
    assert group.order == 2
    refl = group.reflections()
    assert len(refl) == 1
    assert refl[0] in group.elements()


def test_enumeration_matches_closed_form_small():
    for label in ["A3", "B3", "C3", "D4", "F4", "B4", "A1+A1"]:
        rs = _rs(label)
        group = enumerate_weyl(rs)
        assert group.order == weyl_order(rs), label


def test_weyl_order_formulas():
    assert weyl_order(_rs("A2")) == 6
    assert weyl_order(_rs("F4")) == 1152
    assert weyl_order(_rs("A1+A1")) == 4
    assert weyl_order(_rs("E8")) == 696_729_600


CLOSED_FORM_DEGREES = {
    "A": lambda n: list(range(2, n + 2)),
    "B": lambda n: list(range(2, 2 * n + 1, 2)),
    "C": lambda n: list(range(2, 2 * n + 1, 2)),
    "D": lambda n: sorted([*range(2, 2 * n - 1, 2), n]),
    "E": lambda n: {6: [2, 5, 6, 8, 9, 12], 7: [2, 6, 8, 10, 12, 14, 18],
                    8: [2, 8, 12, 14, 18, 20, 24, 30]}[n],
    "F": lambda n: [2, 6, 8, 12],
    "G": lambda n: [2, 6],
}


def test_degrees_match_closed_forms_all_types():
    for family, rank in cartan.catalog_types(max_rank=8):
        rs = generate_roots(gcm.catalog(family, rank))
        degrees = cosets.degrees(rs)
        assert degrees == CLOSED_FORM_DEGREES[family](rank), (family, rank)
        assert weyl_order(rs) == weyl_order_closed_form(family, rank), (family, rank)


def test_degrees_of_a_product_are_the_union():
    assert cosets.degrees(_rs("A2+G2+B3")) == [2, 2, 2, 3, 4, 6, 6]
    assert weyl_order(_rs("A2+G2+B3")) == 6 * 12 * 48


# every catalog type with |W| <= 60 000, and a product of three
SMALL_LABELS = [f"{f}{r}" for f, r in cartan.catalog_types()
                if weyl_order_closed_form(f, r) <= 60_000] + ["A2+G2+B3"]
# rank 9 or more, past every catalog type up to rank 8
WIDE_LABELS = ["+".join(["A1"] * 12), "A2+G2+B3+A1+A1+A1"]


def test_each_element_generated_once_matches_bfs_oracle():
    for label in SMALL_LABELS:
        c = gcm.parse_type(label)
        group = enumerate_weyl(generate_roots(c))
        expected = rho_orbit_layers(c)
        assert len(group.layers) == len(expected), label
        for k, (layer, oracle) in enumerate(zip(group.layers, expected)):
            rows = [tuple(r) for r in layer.tolist()]
            assert len(set(rows)) == len(rows), (label, k)
            assert set(rows) == oracle, (label, k)


def test_layers_keep_the_tuple_walks_rows_in_the_same_order():
    for label in SMALL_LABELS + WIDE_LABELS:
        rs = _rs(label)
        layers, expected = enumerate_weyl(rs).layers, tuple_walk(rs)
        assert len(layers) == len(expected), label
        for k, (layer, oracle) in enumerate(zip(layers, expected)):
            assert layer.tolist() == oracle.tolist(), (label, k)
            assert len(layer) == len(oracle)
            assert layer.nbytes == len(layer) * rs.rank * 2, (label, k)


def _degree_product(rs):
    """The product of the q-integers [d]_q over the invariant degrees d."""
    poly = [1]
    for d in cosets.degrees(rs):
        poly = [sum(poly[j - t] for t in range(d) if 0 <= j - t < len(poly))
                for j in range(len(poly) + d - 1)]
    return poly


def test_histogram_is_product_of_degree_q_integers():
    for family, rank in cartan.catalog_types(max_rank=7):
        rs = generate_roots(gcm.catalog(family, rank))
        if weyl_order(rs) > cosets.DEFAULT_CAP:
            continue
        assert enumerate_weyl(rs).histogram == _degree_product(rs), (family, rank)


# -- the Poincare series from the degrees ----------------------------------

def _relabel(c, seed):
    """c with its nodes in a seeded random order."""
    perm = list(range(c.n))
    random.Random(seed).shuffle(perm)
    return axioms.validate_gcm([[c[a][b] for b in perm] for a in perm])


def _relabelled(c, seed):
    """The root system of c with its nodes in a seeded random order."""
    return generate_roots(_relabel(c, seed))


def test_poincare_series_is_the_enumerated_histogram():
    # every admitted catalog type up to rank 8, the product labels, and
    # seeded relabellings of each; the histogram is walked once per label,
    # since relabelling the nodes leaves the group and its lengths alone
    labels = [f"{f}{r}" for f, r in cartan.catalog_types(max_rank=8)
              if weyl_order_closed_form(f, r) <= cosets.DEFAULT_CAP]
    for label in dict.fromkeys(labels + SMALL_LABELS + WIDE_LABELS):
        c = gcm.parse_type(label)
        histogram = enumerate_weyl(generate_roots(c)).histogram
        assert poincare_series(generate_roots(c)) == histogram, label
        for seed in range(1, 6):
            assert poincare_series(_relabelled(c, seed)) == histogram, (label, seed)


def test_coset_chain_is_product_of_degree_q_integers():
    # the chain skips the admission, so it reaches past the cap
    for family, rank in cartan.catalog_types(max_rank=12) + [("E", 8)]:
        rs = generate_roots(gcm.catalog(family, rank))
        assert coset_chain(rs.gcm) == _degree_product(rs), (family, rank)


def test_degree_product_is_the_coset_chain():
    # the W(q) that weyl_counts writes, from the heights of the raising
    # pass, against the coset-orbit walk: every catalog type up to rank 9,
    # the classical families to rank 20, mixed labels and seeded
    # relabellings, with no admission, so past the cap too
    labels = [f"{f}{r}" for f, r in cartan.catalog_types(max_rank=9)]
    labels += [f"{f}{r}" for f in "ABCD" for r in range(10, 21)]
    labels += ["G2+F4", "B3+C4+G2", "D30+D30"]
    for label in labels:
        c = gcm.parse_type(label)
        chain = coset_chain(c)
        assert cosets._q_product(cosets.matrix_degrees(c)) == chain, label
        for seed in range(1, 4) if c.n <= 9 or "+" in label else ():
            relabelled = _relabel(c, seed)
            assert cosets._q_product(cosets.matrix_degrees(relabelled)) == chain, (label, seed)


def _outcome(count, rs, cap):
    """The histogram a count gives, or its error's class, fields and message."""
    try:
        result = count(rs, cap)
    except cosets.WeylError as exc:
        return type(exc), vars(exc), str(exc)
    return result if isinstance(result, list) else result.histogram


@pytest.mark.parametrize("label", ["A1", "B3", "G2+A2", "E6", "D7", "E8"])
@pytest.mark.parametrize("cap", [None, 0, 10, 48, 51_840, 700_000_000])
def test_poincare_series_admits_as_enumerate_weyl(label, cap):
    rs = _rs(label)
    assert _outcome(poincare_series, rs, cap) == _outcome(enumerate_weyl, rs, cap)


def test_poincare_series_shares_the_layer_bound(monkeypatch):
    # B3's layers take 48 * 3 * 2 = 288 bytes
    rs = _rs("B3")
    for bound in (288, 287, 0):
        monkeypatch.setattr(cosets, "MAX_LAYER_BYTES", bound)
        got = _outcome(poincare_series, rs, None)
        assert got == _outcome(enumerate_weyl, rs, None), bound
        assert (got[0] is cosets.LayersTooLarge) == (bound < 288), bound


@pytest.mark.parametrize("label, poincare", [("E6", list), ("D60", str)])
def test_weyl_counts_reads_the_degrees_once(label, poincare, monkeypatch):
    # the admission takes |W| from its caller: E6 is admitted and its W(q)
    # counted, D60 is past the cap and skipped; no root system is built
    calls, degrees = [], cosets.matrix_degrees
    monkeypatch.setattr(cosets, "matrix_degrees", lambda c: calls.append(c) or degrees(c))
    monkeypatch.setattr(cosets, "degrees", None)
    order, num_positive, _, poly = cosets.weyl_counts(gcm.parse_type(label), None)
    assert len(calls) == 1
    assert isinstance(poly, poincare) and order == prod(degrees(calls[0]))
    assert num_positive == _rs(label).num_positive


def test_cap_exceeded():
    with pytest.raises(CapExceeded):
        enumerate_weyl(_rs("B3"), cap=10)


def test_elements_refuse_a_group_past_the_materialize_cap(monkeypatch):
    group = enumerate_weyl(_rs("A2"))   # |W| = 6
    monkeypatch.setattr(weyl, "MATERIALIZE_CAP", 5)
    with pytest.raises(CapExceeded) as exc:
        group.elements()
    assert exc.value.cap == 5


def test_cap_is_checked_from_the_order_before_any_work():
    # E8's |W| is over the default cap: the refusal comes from weyl_order,
    # before numpy is imported or a layer built
    code = (
        "import sys\n"
        "from weylkit import cosets, gcm, roots, weyl\n"
        "rs = roots.generate_roots(gcm.parse_type('E8'))\n"
        "try:\n"
        "    weyl.enumerate_weyl(rs)\n"
        "except cosets.CapExceeded as exc:\n"
        "    print(exc.cap, 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(cosets.DEFAULT_CAP), "False"]


def test_elements_are_distinct_and_lengths_match_layers():
    group = enumerate_weyl(_rs("B3"))
    elements = group.elements()
    assert len(set(elements)) == group.order == 48
    by_length = {}
    for e in elements:
        by_length[e.length] = by_length.get(e.length, 0) + 1
    assert [by_length.get(k, 0) for k in range(len(group.histogram))] == group.histogram


def test_permutation_respects_negation():
    rs = _rs("B2")
    group = enumerate_weyl(rs)
    for e in group.elements():
        for r in rs.roots:
            assert e.perm[rs.negative_of(r.index)] == rs.negative_of(e.perm[r.index])


def test_det_is_length_parity_on_weights():
    # the permutation determinant on the weight lattice is (-1)^length
    from weylkit.intmat import det

    rs = _rs("B2")
    for e in enumerate_weyl(rs).elements():
        cols = [e.act_weight(tuple(1 if k == j else 0 for k in range(rs.rank)))
                for j in range(rs.rank)]
        matrix = [[cols[j][i] for j in range(rs.rank)] for i in range(rs.rank)]
        assert det(matrix) == e.det() == (-1) ** e.length


# -- longest element ----------------------------------------------------

def test_longest_elements():
    assert enumerate_weyl(_rs("A1")).longest_element().length == 1
    w0 = enumerate_weyl(_rs("A2")).longest_element()
    assert w0.length == 3
    s1s2s1 = element_from_word(_rs("A2"), (0, 1, 0))
    # both reduced expressions give the longest element
    assert w0.perm == s1s2s1.perm
    assert enumerate_weyl(_rs("B2")).longest_element().length == 4


def test_longest_element_sends_positives_negative():
    for label in ["A2", "B2", "G2", "A3"]:
        rs = _rs(label)
        w0 = enumerate_weyl(rs).longest_element()
        np_ = rs.num_positive
        assert all(w0.perm[i] >= np_ for i in range(np_))
        assert (w0 * w0).is_identity()


# -- reflections --------------------------------------------------------

def test_changing_simple_reflections_changes_no_later_result():
    rs = _rs("A2")
    with contextlib.suppress(AttributeError):
        simple_reflections(rs).clear()
    assert len(simple_reflections(rs)) == 2
    assert element_from_word(rs, (0,)).length == 1
    assert element_from_word(rs, (0, 1, 0)).length == 3


def test_weyl_calls_leave_the_root_system_as_built():
    rs = _rs("B3")
    built = dict(vars(rs))
    simple_reflections(rs)
    element_from_word(rs, (0, 1, 2))
    demazure_product(rs, (0, 1, 0, 2))
    reduced_word(element_from_word(rs, (2, 1)))
    enumerate_weyl(rs).elements()
    now = vars(rs)
    changed = [k for k, v in built.items() if k not in now or now[k] is not v]
    assert not changed, changed


def test_reflection_set_bijects_with_positive_roots():
    for label in ["A2", "B2", "G2", "B3"]:
        rs = _rs(label)
        group = enumerate_weyl(rs)
        refl = group.reflections()
        assert len(refl) == rs.num_positive
        assert len({t.perm for t in refl}) == rs.num_positive
        mirrors = set()
        for t in refl:
            negated = [i for i in range(rs.num_positive)
                       if t.perm[i] == rs.negative_of(i)]
            assert len(negated) == 1   # the positive root normal to Fix(t)
            mirrors.add(negated[0])
        assert mirrors == set(range(rs.num_positive))


def test_reflections_belong_to_group():
    for label in ["A2", "B2"]:
        group = enumerate_weyl(_rs(label))
        elements = set(group.elements())
        assert all(t in elements for t in group.reflections())


def test_length_bounded_by_reflection_count():
    for label in ["A2", "B2", "G2"]:
        rs = _rs(label)
        group = enumerate_weyl(rs)
        bound = len(group.reflections())
        assert all(e.length <= bound for e in group.elements())


# -- braid relations ----------------------------------------------------

M_TABLE = {0: 2, 1: 3, 2: 4, 3: 6}


def test_braid_orders_rank_up_to_four():
    for family, rank in cartan.catalog_types(max_rank=4):
        rs = generate_roots(gcm.catalog(family, rank))
        gens = simple_reflections(rs)
        for i in range(rank):
            for j in range(i + 1, rank):
                prod = gens[i] * gens[j]
                order = 1
                cur = prod
                while not cur.is_identity():
                    cur = cur * prod
                    order += 1
                assert order == M_TABLE[rs.gcm[i][j] * rs.gcm[j][i]]


# -- words --------------------------------------------------------------

def test_reduced_word_of_identity_is_empty():
    rs = _rs("A2")
    assert reduced_word(WeylElement.identity(rs)) == ()


def test_is_reduced_examples():
    rs = _rs("A2")
    assert not is_reduced(rs, (0, 0))
    assert is_reduced(rs, (0, 1, 0))


def test_is_reduced_reads_its_word_once():
    assert is_reduced(_rs("A2"), iter([0, 1])) is True


def test_reduced_word_round_trip_and_determinism():
    for label in ["A2", "B2", "G2", "B3"]:
        rs = _rs(label)
        for e in enumerate_weyl(rs).elements():
            word = reduced_word(e)
            assert len(word) == e.length
            assert element_from_word(rs, word).perm == e.perm
            assert reduced_word(e) == word


def test_reduced_word_smallest_descent_rule():
    # for the longest element of A2 the rule picks s1 first: word (1,2,1)
    rs = _rs("A2")
    w0 = enumerate_weyl(rs).longest_element()
    assert reduced_word(w0) == (0, 1, 0)


def test_word_from_vector_rejects_vectors_outside_rho_orbit():
    # (1, 2) has no descent to strip; (0, -1) strips s2, then s1, and ends at
    # (1, 0); the other three are not of the rank's length, so not weights
    rs = _rs("A2")
    for vector in [(1, 2), (0, -1)]:
        with pytest.raises(NotInRhoOrbit):
            word_from_vector(rs, vector)
    for vector in [(1,), (1, 1, 1), (-1,)]:
        with pytest.raises(NotAWeight):
            word_from_vector(rs, vector)


def test_demazure_examples():
    rs1 = _rs("A1")
    s1 = simple_reflections(rs1)[0]
    assert demazure_product(rs1, (0, 0)).perm == s1.perm
    rs = _rs("A2")
    assert demazure_product(rs, (0, 1)).perm == element_from_word(rs, (0, 1)).perm
    w0 = enumerate_weyl(rs).longest_element()
    assert demazure_product(rs, (0, 1, 0, 0)).perm == w0.perm


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_demazure_fold_properties(data):
    label = data.draw(st.sampled_from(["A2", "B2", "G2", "A3"]))
    rs = _rs(label)
    word = data.draw(st.lists(st.integers(0, rs.rank - 1), max_size=10))
    folded = demazure_product(rs, word)
    if is_reduced(rs, word):
        assert folded.perm == element_from_word(rs, word).perm
    extra = data.draw(st.integers(0, rs.rank - 1))
    assert demazure_product(rs, list(word) + [extra]).length >= folded.length


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_poincare_palindrome_and_sum(data):
    label = data.draw(st.sampled_from(["A2", "B2", "G2", "A3", "B3", "D4"]))
    rs = _rs(label)
    group = enumerate_weyl(rs)
    poly = poincare_polynomial(group)
    assert sum(poly) == group.order
    assert poly[0] == poly[-1] == 1
    assert poly == poly[::-1]
    assert len(poly) - 1 == rs.num_positive


def test_poincare_values():
    assert poincare_polynomial(enumerate_weyl(_rs("A1"))) == [1, 1]
    assert poincare_polynomial(enumerate_weyl(_rs("A2"))) == [1, 2, 2, 1]
    assert poincare_polynomial(enumerate_weyl(_rs("B2"))) == [1, 2, 2, 2, 1]
