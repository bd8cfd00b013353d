"""Weyl groups as permutations of the root set.

Elements act on roots by permutation and on weight vectors through the
coroot bookkeeping of the root system, so everything stays in exact
integers. Enumeration walks the orbit of the strictly dominant vector
rho = (1, ..., 1): the orbit map w -> w(rho) is a bijection, and each
element of length k + 1 is generated exactly once, from its canonical
parent of length k (Casselman's smallest-descent rule). That keeps the
enumeration at a few bytes per element with no deduplication (E7's 2.9
million elements fit comfortably). |W| comes from the invariant degrees
read off the root heights, so a group over the cap (E8 at the default) is
refused before any layer is built. numpy holds the layers and is imported
by ``enumerate_weyl`` alone, so nothing else in the package loads it.
"""

from __future__ import annotations

from collections import Counter
from math import prod
from typing import TYPE_CHECKING

from .cartan import WeylkitError
from .roots import Coords, RootSystem

if TYPE_CHECKING:
    import numpy as np

DEFAULT_CAP = 3_000_000
MATERIALIZE_CAP = 200_000


class WeylError(WeylkitError):
    """Base for Weyl-group failures."""


class IndexOutOfRange(WeylError):
    def __init__(self, i: int, n: int):
        self.i, self.n = i, n
        super().__init__(f"simple index {i} out of range for rank {n}")


class NotInRhoOrbit(WeylError):
    def __init__(self, vector):
        self.vector = tuple(vector)
        super().__init__(f"{self.vector} is not in the orbit of rho")


class CapExceeded(WeylError):
    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"Weyl group enumeration would exceed {cap} elements")


def check_index(rs: RootSystem, i: int) -> None:
    """Raise IndexOutOfRange unless i is a 0-based simple index of rs."""
    if not 0 <= i < rs.rank:
        raise IndexOutOfRange(i, rs.rank)


def reflect(rs: RootSystem, i: int, weight) -> Coords:
    """Simple reflection s_i on a weight in fundamental-weight coordinates.

    s_i(D) = D - <D, coroot_i> alpha_i, an involution fixing the hyperplane
    where the i-th coordinate vanishes.
    """
    check_index(rs, i)
    w = tuple(weight)
    pair = w[i]
    alpha = rs.simple_weight(i)
    return tuple(x - pair * a for x, a in zip(w, alpha))


class WeylElement:
    """A Weyl group element: its root system and a permutation of the root
    index set, nothing else; the length is counted on each read."""

    __slots__ = ("rs", "perm")

    def __init__(self, rs: RootSystem, perm: tuple[int, ...]):
        self.rs = rs
        self.perm = perm

    @classmethod
    def identity(cls, rs: RootSystem) -> "WeylElement":
        return cls(rs, tuple(range(len(rs.roots))))

    @property
    def length(self) -> int:
        np_ = self.rs.num_positive
        return sum(1 for i in range(np_) if self.perm[i] >= np_)

    def det(self) -> int:
        return -1 if self.length % 2 else 1

    def is_identity(self) -> bool:
        return all(p == i for i, p in enumerate(self.perm))

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        p, q = self.perm, other.perm
        return WeylElement(self.rs, tuple(p[q[i]] for i in range(len(p))))

    def act_weight(self, weight) -> Coords:
        """Image of a weight: <wD, coroot_j> = <D, w^{-1} coroot_j>."""
        rs, w = self.rs, tuple(weight)
        return tuple(rs.pairing(w, rs.roots[self.perm.index(rs.simple(j).index)].coroot)
                     for j in range(rs.rank))

    def __eq__(self, other) -> bool:
        return isinstance(other, WeylElement) and self.perm == other.perm

    def __hash__(self) -> int:
        return hash(self.perm)

    def __repr__(self) -> str:
        return f"WeylElement(len={self.length})"


def simple_reflections(rs: RootSystem) -> tuple[WeylElement, ...]:
    """The generators s_i, wrapping the root system's reflection permutations."""
    return tuple(WeylElement(rs, perm) for perm in rs.reflection_perms)


def element_from_word(rs: RootSystem, word) -> WeylElement:
    gens = simple_reflections(rs)
    out = WeylElement.identity(rs)
    for i in word:
        check_index(rs, i)
        out = out * gens[i]
    return out


def word_from_vector(rs: RootSystem, vector) -> tuple[int, ...]:
    """Reduced word of the element w with w(rho) = vector.

    Strips the smallest left-descent at each step: coordinate i of the
    vector is negative exactly when s_i shortens the element from the left.
    Raises NotInRhoOrbit when the stripping does not end at rho.
    """
    v = tuple(int(x) for x in vector)
    word = []
    while True:
        i = next((k for k, x in enumerate(v) if x < 0), None)
        if i is None:
            break
        word.append(i)
        v = reflect(rs, i, v)
    if any(x != 1 for x in v):
        raise NotInRhoOrbit(vector)
    return tuple(word)


def root_reflection(rs: RootSystem, root_index: int) -> WeylElement:
    """The reflection in an arbitrary root, as a permutation of the roots."""
    alpha = rs.roots[root_index]
    perm = []
    for r in rs.roots:
        pair = rs.pairing(r.weight, alpha.coroot)
        img = tuple(a - pair * b for a, b in zip(r.coords, alpha.coords))
        perm.append(rs.index_of(img))
    return WeylElement(rs, tuple(perm))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

class WeylGroup:
    """An enumerated Weyl group.

    ``layers[k]`` holds the rho-orbit vectors of the length-k elements as an
    int16 array, each row generated once from its canonical parent, in
    generation order; the layer sizes are the Poincare coefficients. Full
    permutation elements are materialized on demand and only sensible for
    small groups.
    """

    def __init__(self, rs: RootSystem, layers: list[np.ndarray]):
        self.rs = rs
        self.layers = layers
        self.histogram = [len(layer) for layer in layers]
        self.order = sum(self.histogram)

    def longest_element(self) -> WeylElement:
        neg_rho = tuple(-1 for _ in range(self.rs.rank))
        return element_from_word(self.rs, word_from_vector(self.rs, neg_rho))

    def reflections(self) -> list[WeylElement]:
        """The set T of all reflections, indexed by the positive roots."""
        return [root_reflection(self.rs, i) for i in range(self.rs.num_positive)]

    def elements(self) -> list[WeylElement]:
        if self.order > MATERIALIZE_CAP:
            raise CapExceeded(MATERIALIZE_CAP)
        out = []
        for layer in self.layers:
            for row in layer:
                out.append(element_from_word(self.rs, word_from_vector(self.rs, row)))
        return out


def enumerate_weyl(rs: RootSystem, cap: int = DEFAULT_CAP) -> WeylGroup:
    """The rho-orbit layer by layer, each element generated exactly once.

    Coordinate i of w(rho) is negative exactly when s_i is a left descent of
    w, and no coordinate is ever 0. A child s_i v of a layer-k vector v with
    v[i] > 0 is kept only when i is its smallest negative coordinate, the
    descent ``word_from_vector`` strips first, so every element of length
    k + 1 comes from exactly one parent. When |W| (``weyl_order``) is over
    ``cap`` it raises CapExceeded before numpy is imported or a layer built.

    >>> from weylkit.cartan import parse_type
    >>> from weylkit.roots import generate_roots
    >>> enumerate_weyl(generate_roots(parse_type("G2"))).histogram
    [1, 2, 2, 2, 2, 2, 1]
    """
    if weyl_order(rs) > cap:
        raise CapExceeded(cap)
    import numpy as np

    n = rs.rank
    c = np.array(rs.gcm.rows(), dtype=np.int16)
    cur = np.ones((1, n), dtype=np.int16)
    layers = [cur]
    while True:
        children = []
        for i in range(n):
            parents = cur[cur[:, i] > 0]
            child = parents - np.outer(parents[:, i], c[i])
            children.append(child[(child[:, :i] > 0).all(axis=1)])
        cur = np.concatenate(children)
        if len(cur) == 0:
            break
        layers.append(cur)
    return WeylGroup(rs, layers)


# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------

def reduced_word(w: WeylElement) -> tuple[int, ...]:
    """A reduced word for w, by smallest-descent stripping (deterministic)."""
    rs = w.rs
    rho = tuple(1 for _ in range(rs.rank))
    return word_from_vector(rs, w.act_weight(rho))


def is_reduced(rs: RootSystem, word) -> bool:
    return element_from_word(rs, word).length == len(word)


def demazure_product(rs: RootSystem, word) -> WeylElement:
    """Monotone fold of a word: take the step only when it lengthens."""
    gens = simple_reflections(rs)
    out = WeylElement.identity(rs)
    for i in word:
        check_index(rs, i)
        nxt = out * gens[i]
        if nxt.length > out.length:
            out = nxt
    return out


def poincare_polynomial(group: WeylGroup) -> list[int]:
    """Coefficient list b_l = number of elements of length l."""
    return list(group.histogram)


def degrees(rs: RootSystem) -> list[int]:
    """Degrees of the basic invariants, in increasing order (Kostant).

    The exponents form the partition dual to the height distribution of the
    positive roots: if m_h roots have height h, exactly m_h - m_{h+1}
    exponents equal h. The degrees are the exponents plus one.
    """
    heights = Counter(r.height for r in rs.positives)
    return [h + 1 for h in sorted(heights) for _ in range(heights[h] - heights[h + 1])]


def weyl_order(rs: RootSystem) -> int:
    """Group order as the product of the invariant degrees."""
    return prod(degrees(rs))
