from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weylkit import intmat

from oracles import cofactor_det

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


@settings(max_examples=200, deadline=None)
@given(small_matrix)
def test_leading_minors_match_oracle(m):
    got = intmat.leading_principal_minors(m)
    expected = [cofactor_det([row[: k + 1] for row in m[: k + 1]])
                for k in range(len(m))]
    assert got == expected


@settings(max_examples=150, deadline=None)
@given(rect_matrix)
def test_smith_normal_form_properties(m):
    u, d, v = intmat.smith_normal_form(m)
    assert intmat.matmul(intmat.matmul(u, m), v) == d
    assert intmat.det(u) in (1, -1)
    assert intmat.det(v) in (1, -1)
    diag = intmat.diagonal(d)
    rows, cols = len(d), len(d[0])
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


@settings(max_examples=150, deadline=None)
@given(small_matrix)
def test_rational_inverse_round_trip(m):
    if intmat.det(m) == 0:
        with pytest.raises(ValueError):
            intmat.rational_inverse(m)
        return
    inv = intmat.rational_inverse(m)
    n = len(m)
    prod = [[sum(Fraction(m[i][k]) * inv[k][j] for k in range(n))
             for j in range(n)] for i in range(n)]
    assert prod == [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _row_span_membership(basis, vec):
    """Does vec lie in the integer row span of basis? Solve by HNF echelon."""
    work = [list(r) for r in basis] + [list(vec)]
    reduced = intmat.hermite_rows(work)
    again = intmat.hermite_rows([list(r) for r in basis])
    return reduced == again


@settings(max_examples=150, deadline=None)
@given(rect_matrix)
def test_hermite_rows_canonical_and_span_preserving(m):
    h = intmat.hermite_rows(m)
    # idempotent canonical form
    assert intmat.hermite_rows(h) == h
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
    assert intmat.hermite_rows([[0, 0], [2, 4], [1, 2]]) == [[1, 2]]
