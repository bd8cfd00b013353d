"""Finite root systems generated from a Cartan matrix.

Every root carries three coordinate systems at once:

* ``coords``: coefficients in the simple-root basis,
* ``coroot``: coefficients of its coroot in the simple-coroot basis,
* ``weight``: pairings with the simple coroots (fundamental-weight basis).

Generation carries all three forward from the simple roots, so arbitrary
root-against-coroot pairings are integer dot products: pairing(beta, alpha)
= weight(beta) . coroot(alpha). The simple-index rule lives here too:
``check_index``, which ``simple`` and ``simple_weight`` apply.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .cartan import GCM, Symmetrizer, WeylkitError, symmetrizer

Coords = tuple[int, ...]


class RootsError(WeylkitError):
    """Base for root-system failures."""


class NotARoot(RootsError):
    def __init__(self, coords):
        self.coords = tuple(coords)
        super().__init__(f"{tuple(coords)} is not a root")


class IndexOutOfRange(RootsError):
    def __init__(self, i: int, n: int):
        self.i, self.n = i, n
        super().__init__(f"simple index {i} out of range for rank {n}")


def check_index(rs: RootSystem, i: int) -> None:
    """Raise IndexOutOfRange unless i is a 0-based simple index of rs."""
    if not 0 <= i < rs.rank:
        raise IndexOutOfRange(i, rs.rank)


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

    def __init__(self, gcm: GCM, sym: Symmetrizer, roots: list[Root]):
        self.gcm = gcm
        self.sym = sym
        self.roots = tuple(roots)
        self.rank = gcm.n
        self.num_positive = len(roots) // 2
        self._index = {r.coords: r.index for r in roots}

    # -- lookups ------------------------------------------------------------

    def index_of(self, coords) -> int | None:
        return self._index.get(tuple(coords))

    def is_root(self, coords) -> bool:
        return tuple(coords) in self._index

    def root(self, coords) -> Root:
        idx = self.index_of(coords)
        if idx is None:
            raise NotARoot(coords)
        return self.roots[idx]

    def simple(self, i: int) -> Root:
        check_index(self, i)
        e = tuple(1 if k == i else 0 for k in range(self.rank))
        return self.roots[self._index[e]]

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
        check_index(self, i)
        return self.gcm[i]

    # -- pairings and reflections --------------------------------------------

    def pairing(self, weight, coroot) -> int:
        return sum(w * c for w, c in zip(weight, coroot))

    def reflect_coords(self, i: int, coords) -> Coords:
        """Simple reflection s_i on root coordinates."""
        pair = sum(a * self.gcm[k][i] for k, a in enumerate(coords))
        return tuple(a - pair if k == i else a for k, a in enumerate(coords))

    @cached_property
    def reflection_perms(self) -> tuple[tuple[int, ...], ...]:
        """s_i as a permutation of the root indices: r goes to ``reflection_perms[i][r]``,
        which is r less ``r.weight[i]`` (its pairing with coroot i) times simple root i."""
        return tuple(
            tuple(self._index[r.coords[:i] + (r.coords[i] - r.weight[i],) + r.coords[i + 1:]]
                  for r in self.roots)
            for i in range(self.rank))

    def __repr__(self) -> str:
        return f"RootSystem(rank={self.rank}, roots={len(self.roots)})"


def weight_of(gcm: GCM, coords) -> Coords:
    """Fundamental-weight coordinates of a simple-root-basis vector: the
    sum of coords[k] times row k of C, so (-1, 0) on A2 gives (-2, 1)."""
    return tuple(
        sum(a * gcm[k][j] for k, a in enumerate(coords))
        for j in range(gcm.n)
    )


def generate_roots(c: GCM) -> RootSystem:
    """Build the positive roots height by height with the string rule.

    For a positive root beta and a simple root alpha_i, let p be the number
    of steps the alpha_i-string through beta extends below beta. Then
    beta + alpha_i is a root exactly when p > <beta, alpha_i^vee>, the i-th
    weight coordinate of beta. Root strings are unbroken, so each edge
    beta -> beta + alpha_i gives the new root p + 1 steps below it along
    alpha_i; every root of height h is expanded before height h + 1, so
    each root's counts are complete when its turn comes. The new root's
    weight is ``weight + C[i]`` and its squared length is
    ``length + (weight[i] + 1) * length(alpha_i)``; the coroot of a root
    has simple-coroot coordinates ``coords[k] * length(alpha_k) / length``.
    The negative roots mirror the positive ones. The symmetrizer raises
    NotFiniteType unless C is of finite type.
    """
    sym = symmetrizer(c)
    n = c.n
    lengths = sym.lengths
    # coords -> (weight, length, steps of each alpha_i-string below the root)
    found: dict[Coords, tuple[Coords, int, list[int]]] = {}
    layer: list[Coords] = []
    for i in range(n):
        e = tuple(1 if k == i else 0 for k in range(n))
        found[e] = (c[i], lengths[i], [0] * n)
        layer.append(e)
    positives: list[Coords] = []
    while layer:
        layer.sort()
        positives.extend(layer)
        above: list[Coords] = []
        for coords in layer:
            weight, length, below = found[coords]
            for i in range(n):
                if below[i] <= weight[i]:
                    continue
                up = coords[:i] + (coords[i] + 1,) + coords[i + 1:]
                if up not in found:
                    found[up] = (tuple(w + a for w, a in zip(weight, c[i])),
                                 length + (weight[i] + 1) * lengths[i], [0] * n)
                    above.append(up)
                found[up][2][i] = below[i] + 1
        layer = above

    roots: list[Root] = []
    for idx, coords in enumerate(positives):
        weight, length, _ = found[coords]
        coroot = tuple(a * lengths[k] // length for k, a in enumerate(coords))
        roots.append(Root(idx, coords, coroot, weight, sum(coords), True, length))
    np_ = len(roots)
    for r in roots[:np_]:
        roots.append(Root(np_ + r.index, tuple(-a for a in r.coords),
                          tuple(-b for b in r.coroot), tuple(-w for w in r.weight),
                          -r.height, False, r.length))
    return RootSystem(c, sym, roots)


def nonsimple_positives(rs: RootSystem) -> list[Root]:
    """Positive roots of height at least 2 (the positives minus the simples)."""
    return [r for r in rs.positives if r.height >= 2]


class RootString(namedtuple("RootString", "base direction down up")):
    """Maximal interval base + k*direction inside the roots-and-zero set.

    ``down`` (r) steps of the direction can be subtracted and ``up`` (s)
    added while staying inside; the classical identity down - up =
    pairing(base, direction-coroot) holds for every string.
    """

    __slots__ = ()

    def elements(self) -> list[Coords]:
        return [
            tuple(b + k * d for b, d in zip(self.base, self.direction))
            for k in range(-self.down, self.up + 1)
        ]


def root_string(rs: RootSystem, base, direction) -> RootString:
    """The direction-string through base, with base in roots or zero."""
    base = tuple(base)
    direction = tuple(direction)
    if not rs.is_root(direction):
        raise NotARoot(direction)
    zero = tuple(0 for _ in range(rs.rank))
    if base != zero and not rs.is_root(base):
        raise NotARoot(base)

    def inside(coords):
        return coords == zero or rs.is_root(coords)

    down = 0
    while inside(tuple(b - (down + 1) * d for b, d in zip(base, direction))):
        down += 1
    up = 0
    while inside(tuple(b + (up + 1) * d for b, d in zip(base, direction))):
        up += 1
    return RootString(base, direction, down, up)
