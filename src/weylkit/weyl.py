"""Weyl groups as permutations of the root set.

Elements act on roots by permutation and on weight vectors through the
coroot bookkeeping of the root system, so everything stays in exact
integers; words are checked by ``checks.check_word`` and weights by
``checks.check_weight``, once each at entry.
``enumerate_weyl`` is the library's element walk. It walks the orbit of
the strictly dominant vector rho = (1, ..., 1): the orbit map w -> w(rho)
is a bijection, and each element of length k + 1 is generated exactly
once, from its canonical parent of length k (Casselman's smallest-descent
rule). That keeps the enumeration at a few bytes per element with no
deduplication (E7's 2.9 million elements fit comfortably). The CLI reads
only the layer sizes, which ``cosets`` counts as the product of
q-integers over the invariant degrees, and ``enumerate_weyl`` admits a
group by ``cosets``'s rule and bounds.

Each layer is an int16 numpy array, one row per element, built a layer at
a time with each step vectorised over the layer. numpy is imported by
``enumerate_weyl`` alone, after its admission, so nothing else in the
package loads it and no CLI request does.
"""

from collections import namedtuple

# the counts live in cosets, so the weyl and classify subcommands run
# without this module
from .cosets import CapExceeded, WeylError, _admit, weyl_order
from .checks import check_weight, check_word
from .roots import Coords, RootSystem

MATERIALIZE_CAP = 200_000


class NotInRhoOrbit(WeylError):
    def __init__(self, vector):
        self.vector = tuple(vector)
        super().__init__(f"{self.vector} is not in the orbit of rho")


def reflect(rs: RootSystem, i: int, weight) -> Coords:
    """Simple reflection s_i on a weight in fundamental-weight coordinates.

    s_i(D) = D - <D, coroot_i> alpha_i, an involution fixing the hyperplane
    where the i-th coordinate vanishes.
    """
    alpha = rs.simple_weight(i)
    w = check_weight(rs, weight)
    pair = w[i]
    return tuple(x - pair * a for x, a in zip(w, alpha))


class WeylElement(namedtuple("WeylElement", "rs perm")):
    """A Weyl group element: its root system and a permutation of the root
    index set, nothing else; the length is counted on each read. Equal
    elements share the root system object, which compares by identity."""

    __slots__ = ()

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
        rs, w = self.rs, check_weight(self.rs, weight)
        preimage = dict(zip(self.perm, range(len(self.perm))))
        return tuple(rs.pairing(w, rs.roots[preimage[s.index]].coroot) for s in rs.simples)


def simple_reflections(rs: RootSystem) -> tuple[WeylElement, ...]:
    """The generators s_i, wrapping the root system's reflection permutations."""
    return tuple(WeylElement(rs, perm) for perm in rs.reflection_perms)


def element_from_word(rs: RootSystem, word) -> WeylElement:
    gens = simple_reflections(rs)
    out = WeylElement.identity(rs)
    for i in check_word(rs.rank, word):
        out = out * gens[i]
    return out


def word_from_vector(rs: RootSystem, vector) -> tuple[int, ...]:
    """Reduced word of the element w with w(rho) = vector.

    Strips the smallest left-descent at each step: coordinate i of the
    vector is negative exactly when s_i shortens the element from the left.
    Raises NotAWeight when the vector is not a weight of rs (``check_weight``)
    and NotInRhoOrbit when the stripping does not end at rho.
    """
    v = check_weight(rs, vector)
    word = []
    while True:
        i = next((k for k, x in enumerate(v) if x < 0), None)
        if i is None:
            break
        word.append(i)
        v = tuple(x - v[i] * a for x, a in zip(v, rs.gcm[i]))
    if any(x != 1 for x in v):
        raise NotInRhoOrbit(vector)
    return tuple(word)


def root_reflection(rs: RootSystem, root_index: int) -> WeylElement:
    """The reflection in an arbitrary root, as a permutation of the roots."""
    coroot = rs.roots[root_index].coroot
    return WeylElement(rs, tuple(rs.add(r.index, root_index, -rs.pairing(r.weight, coroot))
                                 for r in rs.roots))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

class WeylGroup:
    """An enumerated Weyl group.

    ``layers[k]`` holds the rho-orbit vectors of the length-k elements as
    int16 rows, each generated once from its canonical parent, in generation
    order, in one numpy array a layer; the layer sizes are the Poincare
    coefficients. Full permutation elements are materialized on demand and
    only sensible for small groups.
    """

    def __init__(self, rs: RootSystem, layers: list):
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
            for row in layer.tolist():
                out.append(element_from_word(self.rs, word_from_vector(self.rs, row)))
        return out


def enumerate_weyl(rs: RootSystem, cap: int | None = None) -> WeylGroup:
    """The rho-orbit layer by layer, each element generated exactly once.

    Coordinate i of w(rho) is negative exactly when s_i is a left descent of
    w, and no coordinate is ever 0. A child s_i v of a layer-k vector v with
    v[i] > 0 is kept only when i is its smallest negative coordinate, the
    descent ``word_from_vector`` strips first, so every element of length
    k + 1 comes from exactly one parent. |W| (``weyl_order``) is checked
    before numpy is imported or a layer built: over ``cap``, which is
    ``cosets.DEFAULT_CAP`` when None, it raises CapExceeded, and with layers
    past ``cosets.MAX_LAYER_BYTES`` LayersTooLarge. Each step is vectorised
    over a layer: the children for i = 0..n-1 in turn, each over the
    parents in order.

    >>> from weylkit.gcm import parse_type
    >>> from weylkit.roots import generate_roots
    >>> enumerate_weyl(generate_roots(parse_type("G2"))).histogram
    [1, 2, 2, 2, 2, 2, 1]
    """
    _admit(rs.rank, weyl_order(rs), cap)
    import numpy as np

    n = rs.rank
    c = np.array(rs.gcm.rows(), dtype=np.int16)
    cur = np.ones((1, n), dtype=np.int16)
    layers = []
    while len(cur):
        layers.append(cur)
        children = []
        for i in range(n):
            parents = cur[cur[:, i] > 0]
            child = parents - np.outer(parents[:, i], c[i])
            children.append(child[(child[:, :i] > 0).all(axis=1)])
        cur = np.concatenate(children)
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
    word = check_word(rs.rank, word)
    return element_from_word(rs, word).length == len(word)


def demazure_product(rs: RootSystem, word) -> WeylElement:
    """Monotone fold of a word: take the step only when it lengthens."""
    gens = simple_reflections(rs)
    out = WeylElement.identity(rs)
    for i in check_word(rs.rank, word):
        nxt = out * gens[i]
        if nxt.length > out.length:
            out = nxt
    return out


def poincare_polynomial(group: WeylGroup) -> list[int]:
    """Coefficient list b_l = number of elements of length l."""
    return list(group.histogram)

