"""Exact integer matrix utilities.

Everything here works over Python ints; no floating point. Matrices are
lists of lists, row-major. The fraction-free elimination and the leading
principal minors live in ``bareiss``, which a finite-type verdict runs
without this module.
"""

from math import gcd

from .bareiss import _bareiss
# bound for perfbench/tracer.py's TRACED alone, until ROADMAP item 2, step 1
from .bareiss import leading_principal_minors

Matrix = list[list[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def copy(a) -> Matrix:
    return [list(row) for row in a]


def transpose(a) -> Matrix:
    return [list(col) for col in zip(*a)]


def matmul(a, b) -> Matrix:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def matvec(a, v) -> list:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def solve(a, b) -> tuple[int, Matrix]:
    """(d, x) with a x = d b and d = det(a), all in integers, for a square a
    and b of as many rows; x is zero when d is.

    >>> solve([[2, 1], [1, 1]], [[1, 0], [0, 1]])
    (1, [[1, -1], [-1, 2]])
    """
    n, width = len(a), len(b[0]) if b else 0
    m = [list(row) + list(extra) for row, extra in zip(a, b)]
    sign, _ = _bareiss(m, n)
    d = sign * (m[-1][n - 1] if m else 1)
    x: Matrix = [[0] * width for _ in range(n)]
    for i in reversed(range(n if d else 0)):   # back substitution, exact by Cramer
        x[i] = [(d * m[i][n + c] - sum(m[i][j] * x[j][c] for j in range(i + 1, n))) // m[i][i]
                for c in range(width)]
    return d, x


def det(a) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    return solve(a, [[] for _ in a])[0]


def is_unimodular(a) -> bool:
    return det(a) in (1, -1)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(u, v, g) with u a + v b = g = gcd(a, b), for a, b >= 0: the 2x2
    steps of ``hermite_form``, the modular one of the two eliminations here
    (``_bareiss`` is the fraction-free one)."""
    u0, v0, u1, v1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        u0, v0, u1, v1 = u1, v1, u0 - q * u1, v0 - q * v1
    return u0, v0, a


def invariant_factors(a, d: int) -> list[int]:
    """The Smith diagonal d1 | d2 | ... of a nonsingular square a, given a
    positive multiple d of |det a|, with no transforms.

    Row and column Hermite forms in turn (Kannan and Bachem, SIAM J.
    Comput. 8, 1979), by ``hermite_form``, the modular elimination: a
    transpose keeps |det|, and a lattice of determinant D contains D Z^n,
    so every form is read modulo d. Entries above a pivot lie in [0, pivot),
    so a pivot 1 has a unit column; its row and column split off as a
    factor 1. At most log2 d indices, of pivots >= 2, outlast the first
    form. A round's first pivot is the gcd of the first row before it, so
    each round halves the first unsettled pivot or settles it, its row and
    column zero off the diagonal for good: at most (log2 d + 1) log2 d
    rounds until the block is diagonal. gcd/lcm pairs then order it.

    >>> invariant_factors([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]], 4)
    [1, 1, 2, 2]
    """
    h = hermite_form(a, d)
    while True:
        keep = [i for i, row in enumerate(h) if row[i] != 1]
        h = [[h[i][j] for j in keep] for i in keep]
        if not any(x for i, row in enumerate(h) for x in row[i + 1:]):   # h is upper triangular
            break
        h = hermite_form(transpose(h), d)
    diag = [row[i] for i, row in enumerate(h)]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return [1] * (len(a) - len(diag)) + diag


def hermite_form(a, d: int) -> Matrix:
    """The row Hermite normal form of the full-rank lattice spanned by the
    rows of a, given a positive multiple d of its determinant: the
    upper-triangular basis with positive pivots and every entry above a
    pivot in [0, pivot), which is unique to the lattice (GTM 138, §2.4.3).

    Cohen's elimination modulo d (GTM 138, Alg. 2.4.8): the lattice
    contains R Z^n for a modulus R that starts at d, so the rows are kept
    modulo R. Unimodular 2x2 steps gather column i into one row, whose
    gcd with R is the pivot; the remaining lattice has index dividing
    R / pivot, which becomes the next modulus; no entry of this elimination
    exceeds d. ``reduce_rows`` then reduces above the pivots in integers,
    from the last row up, so each row meets only rows already reduced.
    The rows of D4's Cartan matrix span a lattice of index 4:

    >>> hermite_form([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]], 4)
    [[1, 0, 1, 1], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]
    """
    n = len(a[0]) if a else 0
    r, rows, h = d, [[x % d for x in row] for row in a], []
    for i in range(n):
        top = [0] * n
        for row in rows:   # gather column i into top by row steps
            if row[i]:
                u, v, g = _xgcd(top[i], row[i])
                x, y = top[i] // g, row[i] // g
                top[i:], row[i:] = ([(u * p + v * q) % r for p, q in zip(top[i:], row[i:])],
                                    [(x * q - y * p) % r for p, q in zip(top[i:], row[i:])])
        u, _, g = _xgcd(top[i], r)
        h.append([0] * i + [g] + [u * x % r for x in top[i + 1:]])
        r //= g
        rows = [[x % r for x in row] for row in rows if any(row)] if g > 1 else rows
    for k in reversed(range(n)):
        h[k] = reduce_rows(h[k], h[k + 1:], k + 1)
    return h


def reduce_rows(v, rows, start: int) -> list[int]:
    """v with its entries at the pivot columns start, start + 1, ... of the
    upper-triangular ``rows`` reduced into [0, pivot) by those rows."""
    for j, row in enumerate(rows, start):
        f = v[j] // row[j]
        if f:
            v = [x - f * y for x, y in zip(v, row)]
    return v
