"""Pinned root data: adjoint and simply connected forms, intermediate
lattices, fundamental group, and rigidity of pinned isomorphisms.

A datum records the roots as integer vectors in a chosen basis of the
character lattice M and the coroots in the dual basis of the dual lattice,
with the ordered simple roots as the pinning. Datum equality is therefore
basis-dependent by design; ``pinned_isomorphism`` is the basis-free notion.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import mul

from . import intmat
from .cartan import GCM, NotFiniteType, WeylkitError, is_finite_type
from .roots import RootSystem, generate_roots

Vec = tuple[int, ...]


class RootDatumError(WeylkitError):
    """Base for root-datum failures."""


class FundamentalGroupTooLarge(RootDatumError):
    def __init__(self, order: int, bound: int):
        self.order, self.bound = order, bound
        super().__init__(f"fundamental group of order {order} exceeds bound {bound}")


@dataclass(frozen=True)
class PinnedRootDatum:
    """(M, roots, ordered simples, coroots) in explicit coordinates."""

    rank: int
    roots: tuple[Vec, ...]
    coroots: tuple[Vec, ...]          # aligned with roots
    simples: tuple[int, ...]          # indices into roots, in pinned order

    def pairing(self, root_idx: int, coroot_idx: int) -> int:
        return sum(a * b for a, b in zip(self.roots[root_idx],
                                         self.coroots[coroot_idx]))

    def cartan_matrix(self) -> list[list[int]]:
        return [[self.pairing(i, j) for j in self.simples] for i in self.simples]

    def simple_root(self, k: int) -> Vec:
        return self.roots[self.simples[k]]

    def simple_coroot(self, k: int) -> Vec:
        return self.coroots[self.simples[k]]

    def validate(self) -> None:
        """Check the shape, then the root-datum axioms; raises RootDatumError.

        The shape: one coroot per root, ``rank`` entries in every vector and
        simple indices inside the roots. The axioms: each root pairs to 2
        with its own coroot, each root reflection permutes the roots, and the
        pairing matrix of the simples is of finite type. The reflections cost
        O(N^2 rank) for N roots.
        """
        roots, coroots = self.roots, self.coroots
        if len(coroots) != len(roots):
            raise RootDatumError("a datum needs one coroot per root")
        if any(len(v) != self.rank for v in roots + coroots):
            raise RootDatumError(f"every root and coroot needs {self.rank} entries")
        if any(not 0 <= s < len(roots) for s in self.simples):
            raise RootDatumError("simple index outside the roots")
        for i in range(len(roots)):
            if self.pairing(i, i) != 2:
                raise RootDatumError(f"root {i} does not pair to 2 with its own coroot")
        root_set = set(roots)
        for i, (alpha, acv) in enumerate(zip(roots, coroots)):
            for beta in roots:
                pair = sum(map(mul, beta, acv))
                if tuple(b - pair * a for b, a in zip(beta, alpha)) not in root_set:
                    raise RootDatumError(
                        f"the reflection in root {i} does not permute the roots")
        gcm = GCM(len(self.simples),
                  tuple(tuple(row) for row in self.cartan_matrix()))
        if not is_finite_type(gcm):
            raise RootDatumError("the pairing matrix of the simples is not of finite type")

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "roots": [list(r) for r in self.roots],
            "coroots": [list(c) for c in self.coroots],
            "simple": list(self.simples),
        }


def _datum_from_root_system(rs: RootSystem, to_m, to_dual) -> PinnedRootDatum:
    roots = tuple(to_m(r) for r in rs.roots)
    coroots = tuple(to_dual(r) for r in rs.roots)
    simples = tuple(rs.simple(i).index for i in range(rs.rank))
    return PinnedRootDatum(rs.rank, roots, coroots, simples)


def adjoint_datum(c: GCM) -> PinnedRootDatum:
    """Character lattice = root lattice with the simple roots as basis.

    Roots keep their simple-root coordinates; a coroot has dual-basis
    coordinates C b where b is its simple-coroot coordinate vector.
    """
    rs = generate_roots(c)
    rows = c.rows()

    def to_dual(r):
        return tuple(sum(rows[i][j] * r.coroot[j] for j in range(c.n))
                     for i in range(c.n))

    return _datum_from_root_system(rs, lambda r: r.coords, to_dual)


def simply_connected_datum(c: GCM) -> PinnedRootDatum:
    """Character lattice = weight lattice with the fundamental weights as basis.

    Roots are written in fundamental-weight coordinates (simple root i is
    row i of C); coroots keep their simple-coroot coordinates.
    """
    return _datum_from_root_system(generate_roots(c), lambda r: r.weight,
                                   lambda r: r.coroot)


def fundamental_group(c: GCM) -> tuple[int, ...]:
    """Invariant factors (> 1) of the weight lattice modulo the root lattice."""
    if not is_finite_type(c):
        raise NotFiniteType()
    _, d, _ = intmat.smith_normal_form(c.rows())
    return tuple(x for x in intmat.diagonal(d) if x not in (0, 1))


def fundamental_group_order(c: GCM) -> int:
    out = 1
    for f in fundamental_group(c):
        out *= f
    return out


# ---------------------------------------------------------------------------
# Intermediate lattices
# ---------------------------------------------------------------------------

def _subgroups(moduli: tuple[int, ...]) -> list[list[Vec]]:
    """All subgroups of Z/m1 x ... x Z/mk, each as a sorted element list."""
    elements = [tuple(x) for x in product(*(range(m) for m in moduli))]

    def close(gens: frozenset[Vec]) -> frozenset[Vec]:
        zero = tuple(0 for _ in moduli)
        seen = {zero}
        frontier = [zero]
        while frontier:
            g = frontier.pop()
            for h in gens:
                s = tuple((a + b) % m for a, b, m in zip(g, h, moduli))
                if s not in seen:
                    seen.add(s)
                    frontier.append(s)
        return frozenset(seen)

    subgroups = {close(frozenset())}
    frontier = list(subgroups)
    while frontier:
        sub = frontier.pop()
        for g in elements:
            if g not in sub:
                bigger = close(sub | {g})
                if bigger not in subgroups:
                    subgroups.add(bigger)
                    frontier.append(bigger)
    return [sorted(s) for s in sorted(subgroups, key=lambda s: (len(s), sorted(s)))]


def intermediate_lattices(c: GCM, max_index: int = 10_000) -> list[PinnedRootDatum]:
    """All lattices between the root and weight lattices, as pinned data.

    One datum per subgroup of the fundamental group, ordered by subgroup
    size (the root-lattice datum first, the weight-lattice datum last).
    Each lattice gets the canonical Hermite basis of its generating set, so
    equal lattices always produce identical data.
    """
    rs = generate_roots(c)
    n = c.n
    # quotient of the weight lattice (fw coordinates) by the root lattice,
    # whose basis vectors are the rows of C
    u, d, v = intmat.smith_normal_form(intmat.transpose(c.rows()))
    diag = intmat.diagonal(d)
    order = 1
    for x in diag:
        order *= x
    if order > max_index:
        raise FundamentalGroupTooLarge(order, max_index)
    u_inv = _integer_inverse(u)

    moduli = tuple(diag)
    out = []
    for subgroup in _subgroups(moduli):
        gens = [list(c.entries[i]) for i in range(n)]
        for elem in subgroup:
            # lift the coset back to weight-lattice coordinates: x = U^{-1} e
            gens.append(intmat.matvec(u_inv, list(elem)))
        basis_rows = intmat.hermite_rows(gens)
        assert len(basis_rows) == n
        basis_t = intmat.transpose(basis_rows)   # columns = basis vectors
        inv = intmat.rational_inverse(basis_t)
        roots = []
        for r in rs.roots:
            coords = [sum(inv[i][j] * r.weight[j] for j in range(n))
                      for i in range(n)]
            assert all(x.denominator == 1 for x in coords)
            roots.append(tuple(int(x) for x in coords))
        roots = tuple(roots)
        coroots = tuple(
            tuple(intmat.matvec(basis_rows, list(r.coroot))) for r in rs.roots
        )
        simples = tuple(rs.simple(i).index for i in range(n))
        out.append(PinnedRootDatum(n, roots, coroots, simples))
    return out


def _integer_inverse(m) -> list[list[int]]:
    inv = intmat.rational_inverse(m)
    assert all(x.denominator == 1 for row in inv for x in row)
    return [[int(x) for x in row] for row in inv]


# ---------------------------------------------------------------------------
# Pinned isomorphisms
# ---------------------------------------------------------------------------

def pinned_isomorphism(r1: PinnedRootDatum, r2: PinnedRootDatum):
    """The unique lattice isomorphism M2 -> M1 respecting the pinnings, or None.

    The matrix f (acting on column vectors of M2-coordinates) must send the
    k-th simple root of r2 to the k-th simple root of r1 and intertwine the
    root and coroot bijections. Since the simple roots span a finite-index
    sublattice, f is already determined over the rationals by the pinning;
    existence only asks that this forced candidate is integral, unimodular
    and maps the root data onto each other, so uniqueness is automatic.
    """
    if r1.rank != r2.rank or len(r1.roots) != len(r2.roots):
        return None
    if len(r1.simples) != len(r2.simples):
        return None
    if r1.cartan_matrix() != r2.cartan_matrix():
        return None
    n = r1.rank
    if len(r1.simples) != n:
        return None
    s1 = intmat.transpose([list(r1.simple_root(k)) for k in range(n)])
    s2 = intmat.transpose([list(r2.simple_root(k)) for k in range(n)])
    try:
        s2_inv = intmat.rational_inverse(s2)
    except ValueError:
        return None
    f_rat = [[sum(a * b for a, b in zip(row, col)) for col in zip(*s2_inv)]
             for row in s1]
    if any(x.denominator != 1 for row in f_rat for x in row):
        return None
    f = [[int(x) for x in row] for row in f_rat]
    if not intmat.is_unimodular(f):
        return None
    # f must map the root multiset of r2 onto that of r1, matching coroots
    # through the transpose
    index1 = {root: i for i, root in enumerate(r1.roots)}
    ft = intmat.transpose(f)
    for i, root in enumerate(r2.roots):
        img = tuple(intmat.matvec(f, list(root)))
        j = index1.get(img)
        if j is None:
            return None
        if tuple(intmat.matvec(ft, list(r1.coroots[j]))) != r2.coroots[i]:
            return None
    return tuple(tuple(row) for row in f)
