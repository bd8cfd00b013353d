"""Exact integer matrix utilities.

Everything here works over Python ints; no floating point. Matrices are
lists of lists, row-major.
"""

from __future__ import annotations

from math import gcd

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


def _bareiss(m, n: int) -> tuple[int, int]:
    """Fraction-free (Bareiss) elimination of the first n columns of the n
    rows of m, in place; further columns are carried along. Rows swap only
    on a zero pivot. Returns the swap parity (0 if the n columns are
    singular) and the first step with a zero pivot (n if none); before it,
    m[k][k] is the k-th leading principal minor (Bareiss, Math. Comp. 22).
    """
    sign, step, prev = 1, n, 1
    for k in range(n):
        if m[k][k] == 0:
            step = min(step, k)
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0, step
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot, tail = m[k][k], m[k][k + 1:]
        for row in m[k + 1:]:
            a = row[k]
            row[k:] = [0] + [(x * pivot - a * y) // prev for x, y in zip(row[k + 1:], tail)]
        prev = pivot
    return sign, step


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


def leading_principal_minors(a) -> list[int]:
    """Determinants of the upper-left k-by-k blocks, k = 1..n: the pivots of
    one elimination up to its first zero pivot, then a ``det`` per block."""
    m = copy(a)
    _, step = _bareiss(m, len(a))
    return ([m[k][k] for k in range(step)]
            + [det([row[: k + 1] for row in a[: k + 1]]) for k in range(step, len(a))])


def is_unimodular(a) -> bool:
    return det(a) in (1, -1)


def hermite_rows(a) -> Matrix:
    """Canonical row Hermite normal form of the lattice spanned by the rows.

    Returns an echelon basis: pivots positive, entries above each pivot
    reduced into [0, pivot). Zero rows are dropped, so the result has one
    row per dimension of the row span.
    """
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    r = 0
    for c in range(cols):
        # clear column c below row r by gcd steps
        while True:
            nz = [i for i in range(r + 1, rows) if m[i][c] != 0]
            if not nz:
                break
            if m[r][c] == 0:
                m[r], m[nz[0]] = m[nz[0]], m[r]
                continue
            for i in nz:
                q = m[i][c] // m[r][c]
                m[i] = [x - q * y for x, y in zip(m[i], m[r])]
                if m[i][c] != 0:
                    m[r], m[i] = m[i], m[r]
        if r < rows and m[r][c] != 0:
            if m[r][c] < 0:
                m[r] = [-x for x in m[r]]
            for i in range(r):
                q = m[i][c] // m[r][c]
                if q:
                    m[i] = [x - q * y for x, y in zip(m[i], m[r])]
            r += 1
            if r == rows:
                break
    return [row for row in m[:r]]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(u, v, g) with u a + v b = g = gcd(a, b), for a, b >= 0, and
    (1, 0, a) when a divides b, so that a step by it leaves a's line as is."""
    if a and b % a == 0:
        return 1, 0, a
    u0, v0, u1, v1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        u0, v0, u1, v1 = u1, v1, u0 - q * u1, v0 - q * v1
    return u0, v0, a


def invariant_factors(a, d: int) -> list[int]:
    """The Smith diagonal d1 | d2 | ... of a nonsingular square a, given a
    positive multiple d of |det a|, with no transforms.

    Cohen's elimination modulo d (GTM 138, Alg. 2.4.14): the lattice of
    the columns contains d Z^n, so every entry is kept in [0, R) for a
    modulus R that starts at d and is divided by each factor found; no
    entry ever exceeds d. Each stage clears row i and column i of the
    block by unimodular 2x2 steps, then adds a row whose entries the pivot
    does not divide until it divides all of the block.

    >>> invariant_factors([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]], 4)
    [1, 1, 2, 2]
    """
    n = len(a)
    if n == 0:
        return []
    r = d
    m = [[x % r for x in row] for row in a]
    found = []
    for i in range(n - 1, 0, -1):
        while True:
            for j in range(i - 1, -1, -1):   # clear row i by column steps
                if m[i][j]:
                    u, v, g = _xgcd(m[i][i], m[i][j])
                    x, y = m[i][i] // g, m[i][j] // g
                    for row in m[: i + 1]:
                        p, q = row[i], row[j]
                        row[i], row[j] = (u * p + v * q) % r, (x * q - y * p) % r
            steps = 0
            for j in range(i - 1, -1, -1):   # clear column i by row steps
                if m[j][i]:
                    u, v, g = _xgcd(m[i][i], m[j][i])
                    x, y = m[i][i] // g, m[j][i] // g
                    top, low = m[i][: i + 1], m[j][: i + 1]
                    m[i][: i + 1] = [(u * p + v * q) % r for p, q in zip(top, low)]
                    m[j][: i + 1] = [(x * q - y * p) % r for p, q in zip(top, low)]
                    steps += 1
            if steps:
                continue
            b = m[i][i]
            stray = None if b == 1 else next(
                (k for k in range(i) if any(x % b if b else x for x in m[k][:i])), None)
            if stray is None:
                break
            m[i][:i] = [(p + q) % r for p, q in zip(m[i][:i], m[stray][:i])]
        found.append(gcd(m[i][i], r))
        r //= found[-1]
    found.append(gcd(m[0][0], r))   # the stages find the factors smallest first
    return found


def smith_normal_form(a) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form with transforms: returns (u, d, v) with u a v = d.

    d is diagonal with nonnegative entries d1 | d2 | ..., and u, v are
    unimodular. Works for any rectangular integer matrix, but the entries of
    u and v swell on dense input: a random 7x7 with entries in [-6, 6] can
    give transforms with thousands of digits and take seconds, and the
    block itself swells on some relabelled Cartan matrices of rank 60.
    ``invariant_factors`` reads the diagonal alone without either.
    """
    m = copy(a)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    u = identity(rows)
    v = identity(cols)

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        m[dst] = [x + q * y for x, y in zip(m[dst], m[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in m:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(rows, cols):
        # find a pivot of least absolute value in the remaining block
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < best):
                    best = abs(m[i][j])
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    add_row(i, t, -(m[i][t] // m[t][t]))
                    if m[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    add_col(j, t, -(m[t][j] // m[t][t]))
                    if m[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
        if m[t][t] < 0:
            negate_row(t)
        # enforce divisibility of the rest of the block by the pivot
        stray = next(((i, j) for i in range(t + 1, rows) for j in range(t + 1, cols)
                      if m[i][j] % m[t][t] != 0), None)
        if stray is not None:
            add_row(t, stray[0], 1)
            continue
        t += 1
    return u, m, v


def diagonal(d: Matrix) -> list[int]:
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
