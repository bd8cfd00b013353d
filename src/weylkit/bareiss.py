"""Fraction-free elimination and the leading principal minors it reads.

The finite-type verdict of a Cartan matrix from outside reads its leading
minors here, so a ``classify`` that stops at that verdict compiles none of
``intmat``'s lattice code.
"""


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


def leading_principal_minors(a) -> list[int]:
    """Determinants of the upper-left k-by-k blocks, k = 1, 2, ..., up to
    and including the first zero one: the pivots of one elimination before
    its first zero pivot, then that 0. All n are there, the last det a,
    exactly when none is zero.

    >>> leading_principal_minors([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
    [1, 0]
    """
    m = [list(row) for row in a]
    _, step = _bareiss(m, len(a))
    return [m[k][k] for k in range(step)] + [0] * (step < len(a))
