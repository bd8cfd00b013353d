"""Generalized Cartan matrices: validation, finite type, fundamental group,
symmetrizer, classification.

Convention (used throughout the package): the entry ``C[i][j]`` is the pairing
of simple root i against simple coroot j, so row i of C lists the
fundamental-weight coordinates of the i-th simple root. Many references use
the transposed convention; the CLI offers a ``--transpose`` adapter.

Catalog matrices follow Bourbaki node numbering. In the B family the double
edge sits at the end of the chain with ``C[n-2][n-1] = -1, C[n-1][n-2] = -2``
(matching the rank-2 catalog entry); the C family is the transpose
orientation. B2 and C2 name the same abstract type and the catalog exposes it
as (B, 2). ``catalog_type`` alone matches a connected matrix to the catalog,
for ``classify`` and ``isogeny.enumerate_special``.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from math import gcd

from . import intmat

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

# largest rank a type label or the finite-type test accepts. Root generation
# grows as n^3 in time and memory: end to end on a 2-core x86-64 machine,
# `roots --type A60` takes 0.2-0.3 s and `isogeny enumerate --type B60 --p 2`
# 0.5-0.6 s at 56 MB, and the latter 2.2-2.9 s at 184 MB for B100. Catalog and
# non-finite test inputs reach rank 60.
MAX_RANK = 60


class WeylkitError(ValueError):
    """Base of every error the package raises on bad input.

    The error code is the class name. ``to_json`` writes it, the message,
    and each attribute named in ``details`` that the instance has set.
    """

    details: tuple[str, ...] = ()

    @property
    def code(self) -> str:
        return type(self).__name__

    def to_json(self) -> dict:
        payload = {"code": self.code, "message": str(self)}
        for key in self.details:
            if hasattr(self, key):
                payload[key] = getattr(self, key)
        return payload


class RankTooLarge(WeylkitError):
    details = ("rank",)

    def __init__(self, rank: int):
        self.rank = rank
        super().__init__(f"rank {rank} exceeds the bound {MAX_RANK}")


class GCMError(WeylkitError):
    """Base for Cartan-matrix validation and classification failures."""

    details = ("i", "j", "family", "rank")


class DiagonalNotTwo(GCMError):
    def __init__(self, i: int):
        self.i = i
        super().__init__(f"diagonal entry at ({i},{i}) is not 2")


class PositiveOffDiagonal(GCMError):
    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        super().__init__(f"off-diagonal entry at ({i},{j}) is positive")


class AsymmetricZero(GCMError):
    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        super().__init__(f"entry ({i},{j}) is zero iff ({j},{i}) is not")


class NotFiniteType(GCMError):
    def __init__(self):
        super().__init__("matrix is not of finite type")


class InvalidType(GCMError):
    """No catalog type; ``rank`` is unset when the label gives none."""

    def __init__(self, family: str, rank: int | None = None):
        self.family = family
        if rank is not None:
            self.rank = rank
        super().__init__(f"({family},{'?' if rank is None else rank}) is not a valid finite type")


class GCM(tuple):
    """A validated generalized Cartan matrix ``GCM(n, entries)``: the tuple
    of its rows, so ``gcm[i][j]`` is C[i][j], ``n`` is its rank and
    ``entries`` the matrix itself. Copies and pickles rebuild it from both.
    """

    def __new__(cls, n: int, entries: tuple[tuple[int, ...], ...]):
        return super().__new__(cls, entries)

    n = property(len)
    entries = property(lambda self: self)

    def __getnewargs__(self):
        return self.n, tuple(self)

    def __repr__(self) -> str:
        return f"GCM(n={self.n!r}, entries={tuple(self)!r})"

    def rows(self) -> list[list[int]]:
        return [list(r) for r in self]

    @cached_property
    def leading_minors(self) -> tuple[int, ...]:
        """Determinants of the upper-left k-by-k blocks up to the first zero
        one, so all n of them, the last det C, in finite type.

        Cached on the immutable matrix, so one elimination serves every
        finite-type guard and every reading of det C, which comes after a
        finite verdict. A rank over MAX_RANK raises RankTooLarge first.
        """
        if self.n > MAX_RANK:
            raise RankTooLarge(self.n)
        return tuple(intmat.leading_principal_minors(self.rows()))

    @cached_property
    def finite_type(self) -> bool:
        """Sylvester criterion in exact integers: all leading minors positive.

        ``catalog`` and ``block_diag`` of catalog matrices set it instead,
        as every catalog matrix is of finite type (Cartan-Killing), so
        reading it runs no elimination; a matrix from ``validate_gcm`` gets
        the derived verdict.
        """
        return all(m > 0 for m in self.leading_minors)

    def components(self) -> list[list[int]]:
        """Connected components of the Dynkin graph, by sorted node index."""
        seen: set[int] = set()
        comps = []
        for start in range(self.n):
            if start in seen:
                continue
            stack, comp = [start], []
            seen.add(start)
            while stack:
                i = stack.pop()
                comp.append(i)
                for j in range(self.n):
                    if j not in seen and self[i][j] != 0:
                        seen.add(j)
                        stack.append(j)
            comps.append(sorted(comp))
        return comps


class Symmetrizer(namedtuple("Symmetrizer", "d lengths")):
    """Minimal positive integers d with d[i] C[i][j] = d[j] C[j][i].

    ``lengths[i]`` is the squared-length ratio of simple root i, normalized
    so the short roots of each component have length 1. With the pairing
    convention above this is max(d over the component) / d[i]; in particular
    the short nodes of a doubly-laced component carry the larger d value.
    """

    __slots__ = ()


class DynkinType(namedtuple("DynkinType", "components")):
    """Irreducible components as (family, rank, node map into the input)."""

    __slots__ = ()

    def label(self) -> str:
        return "+".join(f"{f}{r}" for f, r, _ in self.components) or "empty"

    def multiset(self) -> tuple[tuple[str, int], ...]:
        return tuple(sorted((f, r) for f, r, _ in self.components))


def validate_gcm(matrix) -> GCM:
    """Check the three Cartan axioms, reporting the first violation row-major."""
    n = len(matrix)
    if n == 0:
        raise GCMError("matrix is empty")
    if any(not isinstance(row, (list, tuple)) for row in matrix):
        raise GCMError("matrix rows must be lists")
    if any(len(row) != n for row in matrix):
        raise GCMError("matrix is not square")
    for row in matrix:
        for x in row:
            if not isinstance(x, int) or isinstance(x, bool):
                raise GCMError("matrix entries must be integers")
    for i in range(n):
        for j in range(n):
            if i == j:
                if matrix[i][i] != 2:
                    raise DiagonalNotTwo(i)
            else:
                if matrix[i][j] > 0:
                    raise PositiveOffDiagonal(i, j)
                if (matrix[i][j] == 0) != (matrix[j][i] == 0):
                    raise AsymmetricZero(i, j)
    return GCM(n, tuple(tuple(row) for row in matrix))


def is_finite_type(c: GCM) -> bool:
    """The finite-type verdict ``GCM.finite_type``, computed once per matrix."""
    return c.finite_type


def fundamental_group(c: GCM) -> tuple[int, ...]:
    """Invariant factors (> 1) of the weight lattice modulo the root lattice,
    read modulo det C, so no entry of the elimination passes it."""
    if not is_finite_type(c):
        raise NotFiniteType()
    return tuple(x for x in intmat.invariant_factors(c.rows(), c.leading_minors[-1]) if x != 1)


def symmetrizer(c: GCM) -> Symmetrizer:
    """Symmetrizing vector and per-node squared-length ratios."""
    if not is_finite_type(c):
        raise NotFiniteType()
    n = c.n
    d = [0] * n
    comps = c.components()
    for comp in comps:
        d[comp[0]] = 1
        stack = [comp[0]]
        while stack:
            i = stack.pop()
            for j in comp:
                if c[i][j] != 0 and d[j] == 0:
                    # d_i C_ij = d_j C_ji along the edge i - j; where C_ji does
                    # not divide d_i C_ij, scale the values found so far by the
                    # least factor that makes it, so they stay coprime
                    scale = -c[j][i] // gcd(d[i] * c[i][j], c[j][i])
                    if scale > 1:
                        for k in comp:
                            d[k] *= scale
                    d[j] = d[i] * c[i][j] // c[j][i]
                    stack.append(j)
    lengths = [0] * n
    for comp in comps:
        top = max(d[i] for i in comp)
        for i in comp:   # finite type: d[i] is top, top / 2 or top / 3
            lengths[i] = top // d[i]
    return Symmetrizer(tuple(d), tuple(lengths))


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


def catalog_types(max_rank: int = 8) -> list[tuple[str, int]]:
    """All valid catalog (family, rank) pairs up to the given rank."""
    out = []
    for family in FAMILIES:
        for rank in range(1, max_rank + 1):
            if _valid_type(family, rank):
                out.append((family, rank))
    return out


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


def isomorphisms(src: GCM, tgt: GCM, nodes):
    """Every u with src[i][j] == tgt[u[i]][u[j]] for all i, j.

    u sends source node i to a distinct target node drawn from ``nodes``.
    Source nodes are assigned in index order, trying candidate nodes in the
    order given; hits come out in that depth-first order. A node with an
    earlier neighbour only tries the nodes adjacent to that neighbour's
    image, and is checked against the most recently assigned nodes first.
    A node tries only nodes of its own degree, the only ones it can map to.
    On G2 the only one is the identity:

    >>> g2 = catalog("G", 2)
    >>> list(isomorphisms(g2, g2, range(2)))
    [(0, 1)]
    """
    nodes = list(nodes)
    near = {t: [s for s in nodes if s != t and tgt[t][s]] for t in nodes}
    anchor = [next((j for j in range(i) if src[i][j]), None) for i in range(src.n)]
    degree = [sum(map(bool, row)) - 1 for row in src]
    return _extend(src, tgt, nodes, near, anchor, degree, [0] * src.n, 0)


def _extend(src: GCM, tgt: GCM, nodes, near, anchor, degree, u: list[int], i: int):
    """The isomorphisms that keep u[:i], the nodes already assigned; u's
    entries from i on are stale. A generator of its own arguments rather
    than a closure over them, so a search leaves no reference cycle."""
    if i == src.n:
        yield tuple(u)
        return
    for t in nodes if anchor[i] is None else near[u[anchor[i]]]:
        if len(near[t]) == degree[i] and t not in u[:i] and all(
                src[i][j] == tgt[t][u[j]] and src[j][i] == tgt[u[j]][t]
                for j in range(i - 1, -1, -1)):
            u[i] = t
            yield from _extend(src, tgt, nodes, near, anchor, degree, u, i + 1)


def catalog_type(c: GCM, nodes) -> tuple[str, tuple[int, ...]]:
    """The first family, in FAMILIES order, whose rank-``len(nodes)`` catalog
    matrix maps onto c on ``nodes``, and the first node map u the search
    finds, sending catalog node k to c's node u[k]. The caller owns the
    finite-type verdict; nodes of no catalog type raise StopIteration."""
    rank = len(nodes)
    return next((family, u) for family in FAMILIES if _valid_type(family, rank)
                for u in isomorphisms(catalog(family, rank), c, nodes))


def classify(c: GCM) -> DynkinType:
    """Match each connected component against the finite-type catalog,
    which holds every component of a finite-type matrix, by ``catalog_type``.

    A node map is the first isomorphism the search finds, so it is
    deterministic.
    """
    if not is_finite_type(c):
        raise NotFiniteType()
    comps = []
    for nodes in c.components():
        family, u = catalog_type(c, nodes)
        comps.append((family, len(nodes), u))
    return DynkinType(tuple(comps))


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
    >>> classify(parse_type("F4")).label()
    'F4'
    """
    return block_diag(*(catalog(family, rank) for family, rank in parse_label(label)))
