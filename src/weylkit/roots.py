"""Finite root systems generated from a Cartan matrix.

Every root carries three coordinate systems at once:

* ``coords``: coefficients in the simple-root basis,
* ``coroot``: coefficients of its coroot in the simple-coroot basis,
* ``weight``: pairings with the simple coroots (fundamental-weight basis).

The positive roots and their weights come from ``gcm.positive_roots``,
which raises the simple roots by simple reflections; the coordinates are a
key's bytes and the coroot follows from the squared lengths the
symmetrizer gives, so arbitrary root-against-coroot pairings are integer
dot products: pairing(beta, alpha) = weight(beta) . coroot(alpha). The
symmetrizer lives here, the first module to read it. A root's key,
sum(coords[k] * 2**(8k)), is linear, so a reflection step and ``add(r, s,
k)``, the index of the root r + k*s, are each one sum and one dict lookup.
Coordinates stay within +-6 (E8), a reflection step adds at most 3 alpha_i,
and sums have |k| <= 4, so each base-256 digit stays within +-30 < 128:
equal keys are equal roots, and ``index_of`` checks what a packed tuple
finds, so no other length or range aliases a root. The input rules (the
word, simple-index, weight and root checks and their errors) live in
``checks``, which ``simple``, ``simple_weight`` and ``root`` read on use
through the module object, so a request that passes no index or root
compiles none of them. Root strings live in ``chevalley``, their one user.
"""

from collections import namedtuple
from functools import cached_property
from itertools import repeat
from math import gcd
from operator import floordiv, mul, neg

# read on use, through the module object, so a request that passes no
# index or root runs none of the input checks
from . import checks
from .core import GCM, NotFiniteType, is_finite_type
from .gcm import positive_roots

Coords = tuple[int, ...]


class Symmetrizer(namedtuple("Symmetrizer", "d lengths")):
    """Minimal positive integers d with d[i] C[i][j] = d[j] C[j][i].

    ``lengths[i]`` is the squared-length ratio of simple root i, normalized
    so the short roots of each component have length 1. With the pairing
    convention of ``gcm`` this is max(d over the component) / d[i]; in particular
    the short nodes of a doubly-laced component carry the larger d value.
    """

    __slots__ = ()


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


class Root(namedtuple("Root", "index coords coroot weight height positive length")):
    """One root of a RootSystem, at ``index`` in its root order.

    ``coords`` are in the simple-root basis, ``coroot`` in the simple-coroot
    basis and ``weight`` in the fundamental-weight basis (pairings with the
    simple coroots); ``length`` is the squared-length ratio, short = 1 in
    each component.
    """

    __slots__ = ()

    @property
    def length_class(self) -> str:
        return "short" if self.length == 1 else "long"


class RootSystem:
    """All roots of a finite-type Cartan matrix, in a deterministic order.

    Positive roots come first, sorted by (height, coords); the negatives
    follow in the mirrored order, so ``i`` and ``i + num_positive`` are
    always a root and its negative. The root system owns its simple
    reflections as permutations of its root indices (``reflection_perms``),
    built on first use. Instances are immutable after construction and safe
    to share.
    """

    def __init__(self, gcm: GCM, sym: Symmetrizer, roots: list[Root], keys: list[int]):
        self.gcm = gcm
        self.sym = sym
        self.roots = tuple(roots)
        self.rank = gcm.n
        self.num_positive = len(roots) // 2
        self.keys = tuple(keys)
        self._by_key = dict(zip(self.keys, range(len(self.keys)))) | {0: None}

    # -- lookups ------------------------------------------------------------

    def index_of(self, coords) -> int | None:
        coords = tuple(coords)
        idx = self._by_key.get(sum(a * 256 ** k for k, a in enumerate(coords)))
        return idx if idx is not None and self.roots[idx].coords == coords else None

    def is_root(self, coords) -> bool:
        return self.index_of(coords) is not None

    def root(self, coords) -> Root:
        idx = self.index_of(coords)
        if idx is None:
            raise checks.NotARoot(coords)
        return self.roots[idx]

    def add(self, r: int, s: int, k: int = 1) -> int | None:
        """The index of the root r + k*s (root indices, |k| <= 4), or None.

        >>> rs = generate_roots(GCM(2, ((2, -1), (-1, 2))))   # A2
        >>> a1, a2 = rs.simple(0).index, rs.simple(1).index
        >>> rs.roots[rs.add(a1, a2)].coords, rs.add(a1, a1), rs.add(a1, a1, -1)
        ((1, 1), None, None)
        """
        return self._by_key.get(self.keys[r] + k * self.keys[s])

    def simple(self, i: int) -> Root:
        checks.check_index(self, i)
        return self.roots[self._by_key[1 << 8 * i]]

    @property
    def simples(self) -> list[Root]:
        return [self.simple(i) for i in range(self.rank)]

    @property
    def positives(self) -> list[Root]:
        return [r for r in self.roots if r.positive]

    def negative_of(self, index: int) -> int:
        n = self.num_positive
        return index + n if index < n else index - n

    def simple_weight(self, i: int) -> Coords:
        """Fundamental-weight coordinates of the i-th simple root (row i of C)."""
        checks.check_index(self, i)
        return self.gcm[i]

    # -- pairings and reflections --------------------------------------------

    def pairing(self, weight, coroot) -> int:
        return sum(w * c for w, c in zip(weight, coroot))

    @cached_property
    def reflection_perms(self) -> tuple[tuple[int, ...], ...]:
        """s_i as a permutation of the root indices: r goes to ``reflection_perms[i][r]``,
        which is r less ``r.weight[i]`` (its pairing with coroot i) times simple root i."""
        by = self._by_key
        return tuple(
            tuple(by[key - r.weight[i] * unit] for key, r in zip(self.keys, self.roots))
            for i, unit in enumerate(1 << 8 * i for i in range(self.rank)))

    def __repr__(self) -> str:
        return f"RootSystem(rank={self.rank}, roots={len(self.roots)})"


def generate_roots(c: GCM) -> RootSystem:
    """The roots of C: the positive ones ``gcm.positive_roots`` finds, then
    their negatives in the mirrored order.

    A root beta of weight w has squared length sum(coords[k] * w[k] *
    length(alpha_k)) / 2, since (beta, alpha_k) = w[k] * length(alpha_k) / 2,
    and its coroot the simple-coroot coordinates ``coords[k] *
    length(alpha_k) / length``. The symmetrizer raises NotFiniteType unless
    C is of finite type.
    """
    sym = symmetrizer(c)
    n = c.n
    found = positive_roots(c)
    positives = sorted((sum(coords), coords, key) for key in found
                       for coords in [tuple(key.to_bytes(n, "little"))])
    roots: list[Root] = []
    for idx, (height, coords, key) in enumerate(positives):
        weight = found[key]
        scaled = tuple(map(mul, coords, sym.lengths))
        length = sum(map(mul, scaled, weight)) // 2
        coroot = scaled if length == 1 else tuple(map(floordiv, scaled, repeat(length)))
        roots.append(Root(idx, coords, coroot, weight, height, True, length))
    np_ = len(roots)
    for r in roots[:np_]:
        roots.append(Root(np_ + r.index, tuple(map(neg, r.coords)), tuple(map(neg, r.coroot)),
                          tuple(map(neg, r.weight)), -r.height, False, r.length))
    return RootSystem(c, sym, roots, [k for *_, k in positives] + [-k for *_, k in positives])


def nonsimple_positives(rs: RootSystem) -> list[Root]:
    """Positive roots of height at least 2 (the positives minus the simples)."""
    return [r for r in rs.positives if r.height >= 2]
