import random

import pytest
from hypothesis import example, given, settings, strategies as st

from weylkit import intmat
from weylkit.cartan import catalog, catalog_types, parse_type

from oracles import cofactor_det, hermite_rows, smith_normal_form, solve_fractions

small_matrix = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n),
        min_size=n, max_size=n,
    )
)

rect_matrix = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda shape: st.lists(
        st.lists(st.integers(-6, 6), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0], max_size=shape[0],
    )
)


@settings(max_examples=200, deadline=None)
@given(small_matrix)
def test_det_matches_cofactor_oracle(m):
    assert intmat.det(m) == cofactor_det(m)


def _minors_to_first_zero(m):
    """The cofactor leading minors of m, cut after the first zero one."""
    minors = [cofactor_det([row[: k + 1] for row in m[: k + 1]]) for k in range(len(m))]
    return minors[: next((k + 1 for k, x in enumerate(minors) if x == 0), len(m))]


@settings(max_examples=200, deadline=None)
@given(small_matrix)
def test_leading_minors_match_oracle(m):
    assert intmat.leading_principal_minors(m) == _minors_to_first_zero(m)


@settings(max_examples=150, deadline=None)
@given(rect_matrix)
def test_smith_normal_form_properties(m):
    u, d, v = smith_normal_form(m)
    assert intmat.matmul(intmat.matmul(u, m), v) == d
    assert intmat.det(u) in (1, -1)
    assert intmat.det(v) in (1, -1)
    rows, cols = len(d), len(d[0])
    diag = [d[i][i] for i in range(min(rows, cols))]
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0


def _smith_diagonal(m):
    d = smith_normal_form(m)[1]
    return [d[i][i] for i in range(len(d))]


@settings(max_examples=200, deadline=None)
@given(small_matrix, st.integers(1, 3))
@example([[6, 4, -3, 1], [-6, 3, -2, -6], [4, -2, 0, -4], [-4, -6, -4, 6]], 1)   # four Hermite rounds
def test_invariant_factors_match_smith_diagonal(m, multiple):
    # any positive multiple of |det| is a valid modulus
    d = abs(intmat.det(m))
    if d:
        assert intmat.invariant_factors(m, multiple * d) == _smith_diagonal(m)


def _relabel(m, rng: random.Random):
    perm = list(range(len(m)))
    rng.shuffle(perm)
    return [[m[a][b] for b in perm] for a in perm]


def test_invariant_factors_match_smith_diagonal_on_cartan_matrices():
    # every catalog type up to rank 20, and seeded relabellings up to rank 12
    cases = [catalog(f, n).rows() for f, n in catalog_types(20)]
    rng = random.Random(12)
    cases += [_relabel(catalog(f, n).rows(), rng) for f, n in catalog_types(12) for _ in range(3)]
    # relabelled sums, most of which take a second, transposed Hermite round
    cases += [_relabel(parse_type(label).rows(), rng)
              for label in ("A5+A2+A1", "A3+A3+A3") for _ in range(5)]
    for m in cases:
        assert intmat.invariant_factors(m, intmat.det(m)) == _smith_diagonal(m), m
    # up to three rounds at rank 60, where the unbounded oracle is not run:
    # P/Q of A59+A1 is Z/2 x Z/60
    a59_a1 = parse_type("A59+A1").rows()
    for seed in range(10):
        m = _relabel(a59_a1, random.Random(seed))
        assert intmat.invariant_factors(m, intmat.det(m)) == [1] * 58 + [2, 60], seed


# a square matrix, sometimes with its last row replaced by its first (so
# singular from size 2 on), and a right-hand side of as many rows
square_and_rhs = small_matrix.flatmap(lambda m: st.tuples(
    st.sampled_from([m, m[:-1] + m[:1]]),
    st.integers(0, 3).flatmap(lambda width: st.lists(
        st.lists(st.integers(-6, 6), min_size=width, max_size=width),
        min_size=len(m), max_size=len(m)))))


@settings(max_examples=200, deadline=None)
@given(square_and_rhs)
@example(([[1, 2], [2, 4]], [[1], [0]]))
@example(([[3, 1], [1, 2]], [[], []]))
def test_solve_matches_fraction_oracle(case):
    a, b = case
    n, width = len(a), len(b[0])
    d, x = intmat.solve(a, b)
    assert d == cofactor_det(a)
    assert (d == 0) == (solve_fractions(a, [0] * n) is None)
    if d == 0:
        assert x == [[0] * width] * n
        return
    columns = [solve_fractions(a, [row[c] for row in b]) for c in range(width)]
    assert x == [[d * col[i] for col in columns] for i in range(n)]


@pytest.mark.parametrize("m,minors", [
    ([[0, 1], [1, 0]], [0]),
    ([[1, 1, 0], [1, 1, 1], [0, 1, 1]], [1, 0]),
    ([[0, 0], [0, 0]], [0]),
    ([[2, 1], [4, 2]], [2, 0]),
    ([[0, 2, 1], [3, 0, 1], [1, 1, 0]], [0]),
], ids=["swap-first", "swap-middle", "zero", "singular-last", "swap-then-nonzero"])
def test_leading_minors_after_a_zero_pivot(m, minors):
    # past the first zero pivot the elimination swaps rows, so its pivots
    # are no longer leading minors: the list stops at that zero, which
    # already rules out finite type
    assert intmat.leading_principal_minors(m) == minors
    assert minors == _minors_to_first_zero(m)


def test_leading_minors_of_a100_are_2_to_101():
    # the k-th leading block of catalog A_n is A_k, of determinant k + 1
    assert intmat.leading_principal_minors(catalog("A", 100).rows()) == list(range(2, 102))


def _row_span_membership(basis, vec):
    """Does vec lie in the integer row span of basis? Solve by HNF echelon."""
    work = [list(r) for r in basis] + [list(vec)]
    reduced = hermite_rows(work)
    again = hermite_rows([list(r) for r in basis])
    return reduced == again


@settings(max_examples=150, deadline=None)
@given(rect_matrix)
def test_hermite_rows_canonical_and_span_preserving(m):
    h = hermite_rows(m)
    # idempotent canonical form
    assert hermite_rows(h) == h
    # every original row is in the span of h and vice versa
    for row in m:
        assert _row_span_membership(h, row) or not any(row)
    for row in h:
        assert _row_span_membership(m, row)
    # echelon with positive pivots, reduced entries above
    pivots = []
    for row in h:
        j = next(k for k, x in enumerate(row) if x != 0)
        assert row[j] > 0
        pivots.append(j)
    assert pivots == sorted(pivots)
    for r, j in enumerate(pivots):
        for above in range(r):
            assert 0 <= h[above][j] < h[r][j]


def test_hermite_zero_rows_dropped():
    assert hermite_rows([[0, 0], [2, 4], [1, 2]]) == [[1, 2]]


@settings(max_examples=200, deadline=None)
@given(small_matrix, st.integers(1, 3))
def test_hermite_form_matches_hermite_rows(m, multiple):
    # any positive multiple of |det| is a valid modulus
    d = abs(intmat.det(m))
    if d:
        assert intmat.hermite_form(m, multiple * d) == hermite_rows(m)


def test_hermite_form_of_relabelled_d60():
    # the unbounded oracle runs past seconds on some of these (seed 60004)
    d60 = catalog("D", 60).rows()
    for seed in range(60000, 60060):
        m = _relabel(d60, random.Random(seed))
        h = intmat.hermite_form(m, 4)
        assert intmat.det(h) == intmat.det(m) == 4, seed
        assert intmat.invariant_factors(m, 4) == [1] * 58 + [2, 2], seed
        for row in m:   # each row reduces to zero down the echelon basis
            for j, pivot_row in enumerate(h):
                f, rest = divmod(row[j], pivot_row[j])
                assert rest == 0, seed
                row = [x - f * y for x, y in zip(row, pivot_row)]
            assert not any(row), seed
    # the back-reduction does the most work on these
    a59_a1 = _relabel(parse_type("A59+A1").rows(), random.Random(0))
    for m in [catalog(f, 60).rows() for f in "ABCD"] + [catalog("E", 8).rows(), a59_a1]:
        d = intmat.det(m)
        h = intmat.hermite_form(m, d)
        assert intmat.det(h) == d
        for row in m:
            for j, pivot_row in enumerate(h):
                f, rest = divmod(row[j], pivot_row[j])
                assert rest == 0
                row = [x - f * y for x, y in zip(row, pivot_row)]
            assert not any(row)
        for j, pivot_row in enumerate(h):   # every entry above a pivot lies in [0, pivot)
            assert all(0 <= h[i][j] < pivot_row[j] for i in range(j))
