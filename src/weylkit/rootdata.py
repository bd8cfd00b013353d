"""Pinned root data: adjoint and simply connected forms, intermediate
lattices, and rigidity of pinned isomorphisms.

A datum records the roots as integer vectors in a chosen basis of the
character lattice M and the coroots in the dual basis of the dual lattice,
with the ordered simple roots as the pinning, so datum equality is
basis-dependent; ``pinned_isomorphism`` is the basis-free notion. Every
datum is the image of the root system of its pinning: a root with
simple-root coordinates c is sum c[k] (simple root k), its coroot the same
sum over the simple coroots. The builders choose the simple vectors, and
``validate`` asks a datum to be that image.
"""

from collections import namedtuple
from itertools import product
from math import prod

from . import intmat
from .intmat import reduce_rows
from .axioms import validate_gcm
# bound for perfbench/tracer.py's TRACED alone, until ROADMAP item 2, step 1
from .cartan import fundamental_group
from .core import GCM, GCMError, WeylkitError
from .roots import RootSystem, generate_roots

Vec = tuple[int, ...]


class RootDatumError(WeylkitError):
    """Base for root-datum failures."""


class TooManyLattices(RootDatumError):
    def __init__(self, bound: int):
        self.bound = bound
        super().__init__(f"more than {bound} lattices lie between the root and weight lattices")


# the most intermediate lattices one request may build
MAX_LATTICES = 10_000


class PinnedRootDatum(namedtuple("PinnedRootDatum", "rank roots coroots simples")):
    """(M, roots, ordered simples, coroots) in explicit coordinates: the
    ``coroots`` align with the ``roots``, and ``simples`` are indices into
    the roots, in pinned order."""

    __slots__ = ()

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
        """Check the shape, then that the pinning generates the datum.

        The shape: one coroot per root, ``rank`` entries in every vector and
        simple indices inside the roots. Then the pairing matrix of the
        simples must be a Cartan matrix of finite type, and the (root,
        coroot) pairs exactly those of its root system carried onto the
        simples, which holds every datum axiom and makes the simples a base.
        A datum without simples is valid iff it has no roots. Roots 1 and 3
        of A2 pair to 1, so they are no base:

        >>> from weylkit.gcm import parse_type
        >>> a2 = adjoint_datum(parse_type("A2"))
        >>> a2.roots[1], a2.roots[3]
        ((1, 0), (0, -1))
        >>> a2._replace(simples=(1, 3)).validate()
        Traceback (most recent call last):
        ...
        weylkit.rootdata.RootDatumError: the pairing matrix of the simples is not of finite type: off-diagonal entry at (0,1) is positive
        """
        roots, coroots = self.roots, self.coroots
        if len(coroots) != len(roots):
            raise RootDatumError("a datum needs one coroot per root")
        if any(len(v) != self.rank for v in roots + coroots):
            raise RootDatumError(f"every root and coroot needs {self.rank} entries")
        if any(not 0 <= s < len(roots) for s in self.simples):
            raise RootDatumError("simple index outside the roots")
        if not roots:   # a torus: the index check left no simples either
            return
        try:
            gcm = validate_gcm(self.cartan_matrix())
            # A_r has the fewest roots of a connected rank-r system, r(r + 1)
            if len(roots) < sum(len(c) * (len(c) + 1) for c in gcm.components()):
                raise RootDatumError(f"{len(roots)} roots are too few for the pinning")
            rs = generate_roots(gcm)
        except GCMError as exc:
            raise RootDatumError(
                f"the pairing matrix of the simples is not of finite type: {exc}") from exc
        image = _image(rs, [roots[s] for s in self.simples],
                       [coroots[s] for s in self.simples], self.rank)
        generated, pairs = set(zip(image.roots, image.coroots)), list(zip(roots, coroots))
        for i, pair in enumerate(pairs):
            if pair not in generated:
                raise RootDatumError(f"root {i} or its coroot is not generated by the simples")
        if len(set(pairs)) != len(pairs) or len(pairs) != len(generated):
            raise RootDatumError(f"the datum lists {len(pairs)} roots, {len(set(pairs))} "
                                 f"distinct; the simples generate {len(generated)}")

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "roots": [list(r) for r in self.roots],
            "coroots": [list(c) for c in self.coroots],
            "simple": list(self.simples),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "PinnedRootDatum":
        """The datum of a ``to_json`` document (shape ``schemas.DATUM``)."""
        return cls(doc["rank"], tuple(map(tuple, doc["roots"])),
                   tuple(map(tuple, doc["coroots"])), tuple(doc["simple"]))


def _combiner(basis, rank: int):
    """The map from coefficients over ``basis`` (vectors of ``rank``
    entries) to their combination, summing only nonzero terms."""
    terms = [[(i, x) for i, x in enumerate(v) if x] for v in basis]

    def image(coeffs) -> Vec:
        out = [0] * rank
        for a, vec in zip(coeffs, terms):
            if a:
                for i, x in vec:
                    out[i] += a * x
        return tuple(out)
    return image


def _simples(rs: RootSystem) -> tuple[int, ...]:
    return tuple(rs.simple(k).index for k in range(rs.rank))


def _image(rs: RootSystem, simple_roots, simple_coroots, rank: int) -> PinnedRootDatum:
    """``rs`` carried onto the given simple roots and coroots (vectors of
    ``rank`` entries)."""
    to_m, to_dual = _combiner(simple_roots, rank), _combiner(simple_coroots, rank)
    return PinnedRootDatum(rank, tuple(to_m(r.coords) for r in rs.roots),
                           tuple(to_dual(r.coroot) for r in rs.roots), _simples(rs))


def adjoint_datum(c: GCM) -> PinnedRootDatum:
    """Character lattice = root lattice, the simple roots its basis, so roots
    keep their coordinates; coroot entry j of a root b is <a_j, b~> =
    weight[j] * length(a_j) / length(b), read off the weight as
    ``Root.coroot`` is read off ``coords``."""
    rs = generate_roots(c)
    lengths = rs.sym.lengths
    return PinnedRootDatum(c.n, tuple(r.coords for r in rs.roots),
                           tuple(tuple(w * n // r.length for w, n in zip(r.weight, lengths))
                                 for r in rs.roots), _simples(rs))


def simply_connected_datum(c: GCM) -> PinnedRootDatum:
    """Character lattice = weight lattice, the fundamental weights its basis,
    so a root is its weight (simple root k is row k of C); coroots keep their
    coordinates."""
    rs = generate_roots(c)
    return PinnedRootDatum(c.n, tuple(r.weight for r in rs.roots),
                           tuple(r.coroot for r in rs.roots), _simples(rs))


def datum_report(c: GCM, kind: str) -> dict:
    """The ``datum`` document's fields: the datum of c that ``kind`` names,
    ``"adjoint"`` or ``"sc"`` (simply connected), as ``to_json`` writes it."""
    build, name = {"adjoint": (adjoint_datum, "adjoint"),
                   "sc": (simply_connected_datum, "simply-connected")}[kind]
    return {"kind": name, **build(c).to_json()}


# ---------------------------------------------------------------------------
# Intermediate lattices
# ---------------------------------------------------------------------------

def _hermite_bases(q) -> "list[intmat.Matrix]":
    """The Hermite bases of the lattices L with span(q) <= L <= Z^n, for a
    nonsingular q in Hermite form, ordered by |L / span(q)| and then by rows.

    A walk from the last row up, each lattice found once (Cohen, GTM 138,
    §2.4.3, for the uniqueness of the basis). Row i has a pivot h dividing
    q_ii and entries reduced modulo the pivots of the rows below, and
    holds q_i in the lattice when (q_ii / h) row - q_i reduces to zero
    modulo those rows (``intmat.reduce_rows``, the back-reduction that ends
    ``hermite_form``); for h = q_ii the one such row is q_i reduced. Each
    basis of the rows below extends, so the walk raises TooManyLattices as
    soon as one level holds more than MAX_LATTICES of them.
    """
    n, bases = len(q), [[]]
    for i in reversed(range(n)):
        qi, grown = q[i], []
        for below in bases:
            tails = [range(row[j]) for j, row in enumerate(below, i + 1)]
            for h in (h for h in range(1, qi[i] + 1) if qi[i] % h == 0):
                k = qi[i] // h
                rows = [reduce_rows(qi, below, i + 1)] if k == 1 else (
                    row for row in ([0] * i + [h, *tail] for tail in product(*tails))
                    if not any(reduce_rows([k * x - y for x, y in zip(row, qi)], below, i + 1)))
                for row in rows:
                    grown.append([row, *below])
                    if len(grown) > MAX_LATTICES:
                        raise TooManyLattices(MAX_LATTICES)
        bases = grown
    index = prod(row[i] for i, row in enumerate(q))
    return sorted(bases, key=lambda b: (index // prod(row[i] for i, row in enumerate(b)), b))


def intermediate_lattices(c: GCM) -> list[PinnedRootDatum]:
    """All lattices between the root and weight lattices, as pinned data.

    In fundamental-weight coordinates the weight lattice P is Z^r and the
    root lattice Q is spanned by the rows of C. Each lattice L between
    them gets its canonical Hermite basis B, walked from that of Q, which
    is read modulo det C, so equal lattices always produce identical data.
    The data are ordered by |L/Q| and then by the rows of B: the
    root-lattice datum first, the weight-lattice datum last. One bound,
    ``MAX_LATTICES`` on the number of lattices, stops the walk before any
    datum is built, however large |P/Q| = det C: A1x6 (|P/Q| = 64) has
    2 825 lattices, A1x7 (128) has 29 212 and is refused.
    """
    rs = generate_roots(c)
    a = intmat.transpose(c.rows())
    out = []
    for basis in _hermite_bases(intmat.hermite_form(c.rows(), c.leading_minors[-1])):
        # columns of basis_t span the lattice, its rows are the simple coroots
        # in the dual basis, and column k of x / det is simple root k
        basis_t = intmat.transpose(basis)
        det, x = intmat.solve(basis_t, a)
        simple_roots = [[y // det for y in col] for col in zip(*x)]
        out.append(_image(rs, simple_roots, basis_t, c.n))
    return out


# ---------------------------------------------------------------------------
# Pinned isomorphisms
# ---------------------------------------------------------------------------

def equation_failure(source: PinnedRootDatum, target: PinnedRootDatum, f, u, q):
    """The first failing defining equation of a morphism of pinned data.

    f is an integer matrix from the target lattice to the source one, u
    sends source simple k to target simple u[k] and q scales it. For
    ascending k this checks f(u(a_k)) = q_k a_k, then transpose(f)(a_k~) =
    q_k u(a_k)~, and returns (k, "root") or (k, "coroot") at the first that
    fails, or None when all hold. The two imply the Cartan compatibility
    q_i <a_i, a_j~> = q_j <u(a_i), u(a_j)~>: pair the first equation at i
    with a_j~ and move f across the pairing.
    """
    ft = intmat.transpose(f)
    for k in range(len(source.simples)):
        a, b = source.simple_root(k), target.simple_root(u[k])
        if intmat.matvec(f, b) != [q[k] * x for x in a]:
            return k, "root"
        a, b = source.simple_coroot(k), target.simple_coroot(u[k])
        if intmat.matvec(ft, a) != [q[k] * x for x in b]:
            return k, "coroot"
    return None


def pinned_isomorphism(r1: PinnedRootDatum, r2: PinnedRootDatum):
    """The unique lattice isomorphism M2 -> M1 respecting the pinnings, or None.

    Both data must be valid (else RootDatumError) and semisimple, with as
    many simples as their rank. Then the simple roots span a finite-index
    sublattice, so the matrix f (acting on column vectors of M2-coordinates)
    that sends simple root k of r2 to simple root k of r1 is forced: f =
    S1 S2^-1 for the simple-root matrices. It is the isomorphism when it is
    integral and unimodular and transpose(f) sends the simple coroots of r1
    to those of r2, the equations of ``equation_failure`` with u = id and
    q = 1. Those give r1 and r2 one Cartan matrix, and both data are images
    of its root system, so f then carries every root and coroot across too.

    >>> from weylkit.gcm import parse_type
    >>> a2 = parse_type("A2")
    >>> pinned_isomorphism(adjoint_datum(a2), adjoint_datum(a2))
    ((1, 0), (0, 1))
    >>> pinned_isomorphism(adjoint_datum(a2), simply_connected_datum(a2)) is None
    True
    """
    r1.validate()
    r2.validate()
    n = r1.rank
    if r2.rank != n or len(r1.simples) != n or len(r2.simples) != n:
        return None
    # x = d transpose(f): simple root k of r2 times x is d times that of r1
    d, x = intmat.solve(*([r.simple_root(k) for k in range(n)] for r in (r2, r1)))
    if any(v % d for row in x for v in row):
        return None
    f = [[v // d for v in col] for col in zip(*x)]
    if not intmat.is_unimodular(f) or equation_failure(r1, r2, f, range(n), (1,) * n):
        return None
    return tuple(tuple(row) for row in f)
