"""Generalized Cartan matrices as the catalog builds them: the catalog, type
labels and the positive roots as the raising reflections reach them.

Convention (used throughout the package): the entry ``C[i][j]`` is the pairing
of simple root i against simple coroot j, so row i of C lists the
fundamental-weight coordinates of the i-th simple root. Many references use
the transposed convention; the CLI offers a ``--transpose`` adapter.

Catalog matrices follow Bourbaki node numbering. In the B family the double
edge sits at the end of the chain with ``C[n-2][n-1] = -1, C[n-1][n-2] = -2``
(matching the rank-2 catalog entry); the C family is the transpose
orientation. B2 and C2 name the same abstract type and the catalog exposes it
as (B, 2). The error base, the matrix type and its finite-type verdict
live in ``core``, which a ``classify`` runs without this module until its
input is of finite type. A ``--type`` request runs this module and
``core`` alone of those that hold Cartan matrices: a matrix from outside is
validated in ``axioms`` and classified in ``cartan``. ``positive_roots`` is
the one pass that finds the roots: ``roots`` builds its records from it,
and ``cosets`` reads the root heights off it, so a ``weyl`` request runs no
``roots``.
"""

from .core import GCM, MAX_RANK, GCMError, NotFiniteType, RankTooLarge, is_finite_type

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")


class InvalidType(GCMError):
    """No catalog type; ``rank`` is unset when the label gives none."""

    def __init__(self, family: str, rank: int | None = None):
        self.family = family
        if rank is not None:
            self.rank = rank
        super().__init__(f"({family},{'?' if rank is None else rank}) is not a valid finite type")


def positive_roots(c: GCM) -> dict[int, tuple[int, ...]]:
    """The positive roots of C, each as its key, sum(coords[k] * 2**(8k)),
    mapped to its weight (its pairings with the simple coroots), found by
    closing the simple roots under the raising reflections.

    If the i-th weight coordinate x = <beta, alpha_i^vee> of a positive
    root beta is negative, s_i beta = beta - x * alpha_i is a positive root
    of greater height, and every positive root is reached from a simple
    root by such steps (Humphreys, Introduction to Lie Algebras, 10.3): a
    positive root that is not simple pairs positively with some simple
    coroot, and that reflection lowers it. A step moves the key by
    ``-x * 2**(8i)`` and the weight by ``-x * C[i]``. A coordinate is at
    most 6 (E8), so the key's bytes, little-endian, are the coordinates.
    Raises NotFiniteType, before any step, unless C is of finite type.
    """
    if not is_finite_type(c):
        raise NotFiniteType()
    # a step along alpha_i changes only the weight entries where row i of C is nonzero
    row_support = [[(j, a) for j, a in enumerate(row) if a] for row in c]
    found = {1 << 8 * i: row for i, row in enumerate(c)}
    stack = list(found)
    while stack:
        key = stack.pop()
        weight = found[key]
        for i, x in enumerate(weight):
            if x < 0 and (up := key - x * (1 << 8 * i)) not in found:
                raised = list(weight)
                for j, a in row_support[i]:
                    raised[j] -= x * a
                found[up] = tuple(raised)
                stack.append(up)
    return found


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

def _valid_type(family: str, rank: int) -> bool:
    return {
        "A": rank >= 1,
        "B": rank >= 2,
        "C": rank >= 3,
        "D": rank >= 4,
        "E": rank in (6, 7, 8),
        "F": rank == 4,
        "G": rank == 2,
    }.get(family, False)


def catalog(family: str, rank: int) -> GCM:
    """Standard matrix of a finite type in the fixed node ordering.

    >>> catalog("A", 1).rows()
    [[2]]
    >>> catalog("B", 2).rows()
    [[2, -1], [-2, 2]]
    >>> catalog("G", 2).rows()
    [[2, -1], [-3, 2]]
    """
    if not _valid_type(family, rank):
        raise InvalidType(family, rank)
    n = rank
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def edge(i, j, cij=-1, cji=-1):
        m[i][j] = cij
        m[j][i] = cji

    if family == "A":
        for i in range(n - 1):
            edge(i, i + 1)
    elif family == "B":
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 2, n - 1, -1, -2)
    elif family == "C":
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 2, n - 1, -2, -1)
    elif family == "D":
        for i in range(n - 3):
            edge(i, i + 1)
        edge(n - 3, n - 2)
        edge(n - 3, n - 1)
    elif family == "E":
        edge(0, 2)
        edge(1, 3)
        for i in range(2, n - 1):
            edge(i, i + 1)
    elif family == "F":
        edge(0, 1)
        edge(1, 2, -2, -1)
        edge(2, 3)
    elif family == "G":
        edge(0, 1, -1, -3)
    return _known_finite(GCM(n, tuple(tuple(row) for row in m)))


def _known_finite(c: GCM) -> GCM:
    """c, known to be of finite type, with its verdict set, so reading it
    runs no elimination; past MAX_RANK the verdict is left to
    ``leading_minors``, which refuses the rank."""
    if c.n <= MAX_RANK:
        c.finite_type = True
    return c


def block_diag(*parts: GCM) -> GCM:
    """Direct sum of Cartan matrices (disjoint union of diagrams), with its
    finite-type verdict set when every part's is already known true."""
    n = sum(p.n for p in parts)
    m = [[0] * n for _ in range(n)]
    off = 0
    for p in parts:
        for i in range(p.n):
            for j in range(p.n):
                m[off + i][off + j] = p[i][j]
        off += p.n
    out = GCM(n, tuple(tuple(row) for row in m))
    return _known_finite(out) if all(vars(p).get("finite_type") for p in parts) else out


def parse_label(label: str) -> list[tuple[str, int]]:
    """The (family, rank) of each ``+``-separated piece of a type label.

    Raises InvalidType at the first piece that names no catalog type, with
    the rank the piece gives, if any, and then RankTooLarge when the ranks
    sum past MAX_RANK, before any matrix is built.

    >>> parse_label("B4"), parse_label("a1 + G2")
    ([('B', 4)], [('A', 1), ('G', 2)])
    """
    parts = []
    for piece in label.split("+"):
        piece = piece.strip()
        family = piece[:1].upper() if piece[:1].upper() in FAMILIES else piece[:1]
        digits = piece[1:]
        try:   # ASCII digits only: int() also takes signs, spaces, "_" and other scripts
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError(digits)
            rank = int(digits)
        except ValueError:   # no rank, or one past the int-from-str digit limit
            raise InvalidType(family) from None
        if not _valid_type(family, rank):
            raise InvalidType(family, rank)
        parts.append((family, rank))
    total = sum(rank for _, rank in parts)
    if total > MAX_RANK:
        raise RankTooLarge(total)
    return parts


def parse_type(label: str) -> GCM:
    """Parse labels like ``G2`` or ``A1+A1`` into a catalog matrix.

    >>> parse_type("A1+A1").rows()
    [[2, 0], [0, 2]]
    >>> from weylkit.cartan import classify
    >>> classify(parse_type("F4")).label()
    'F4'
    """
    return block_diag(*(catalog(family, rank) for family, rank in parse_label(label)))
