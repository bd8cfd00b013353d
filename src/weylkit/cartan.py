"""Cartan matrices from outside past their finite-type verdict: Dynkin
classification and the fundamental group.

``classify`` names each component of a finite-type matrix by its catalog
type. ``catalog_type`` alone matches a connected matrix to the catalog,
for ``classify`` and ``isogeny.enumerate_special``. The stages before it
live below: ``validate_gcm``, the three Cartan axioms, in ``axioms``; the
matrix type and its finite-type verdict in ``core``; the catalog and type
labels in ``gcm``; the symmetrizer in ``roots``. ``report`` runs this
module only after a finite verdict, and a ``--type`` request not at all.
"""

from collections import namedtuple

from . import intmat
from .core import GCM, NotFiniteType, is_finite_type
from .gcm import FAMILIES, _valid_type, catalog
# bound for perfbench/tracer.py's TRACED alone, until ROADMAP item 2, step 1
from .axioms import validate_gcm
from .roots import symmetrizer


class DynkinType(namedtuple("DynkinType", "components")):
    """Irreducible components as (family, rank, node map into the input)."""

    __slots__ = ()

    def label(self) -> str:
        return "+".join(f"{f}{r}" for f, r, _ in self.components) or "empty"

    def multiset(self) -> tuple[tuple[str, int], ...]:
        return tuple(sorted((f, r) for f, r, _ in self.components))


def fundamental_group(c: GCM) -> tuple[int, ...]:
    """Invariant factors (> 1) of the weight lattice modulo the root lattice,
    read modulo det C, so no entry of the elimination passes it."""
    if not is_finite_type(c):
        raise NotFiniteType()
    return tuple(x for x in intmat.invariant_factors(c.rows(), c.leading_minors[-1]) if x != 1)


# ---------------------------------------------------------------------------
# Catalog search
# ---------------------------------------------------------------------------

def catalog_types(max_rank: int = 8) -> list[tuple[str, int]]:
    """All valid catalog (family, rank) pairs up to the given rank."""
    out = []
    for family in FAMILIES:
        for rank in range(1, max_rank + 1):
            if _valid_type(family, rank):
                out.append((family, rank))
    return out


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


