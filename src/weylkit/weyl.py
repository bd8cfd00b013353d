"""Weyl groups as permutations of the root set.

Elements act on roots by permutation and on weight vectors through the
coroot bookkeeping of the root system, so everything stays in exact
integers; words are checked by ``roots.check_word`` and weights by
``roots.check_weight``, once each at entry.
``enumerate_weyl`` is the library's element walk. It walks the orbit of
the strictly dominant vector rho = (1, ..., 1): the orbit map w -> w(rho)
is a bijection, and each element of length k + 1 is generated exactly
once, from its canonical parent of length k (Casselman's smallest-descent
rule). That keeps the enumeration at a few bytes per element with no
deduplication (E7's 2.9 million elements fit comfortably). The CLI reads
only the layer sizes, and ``poincare_series`` counts those by parabolic
cosets: a few orbits of fundamental weights, each within 2 160 vectors
(E8) on the catalog labels, in place of |W| rows. |W| comes from the
invariant degrees read off the root heights, and both counts admit a group
by it: one over the cap (E8 at the default) is refused before any work,
and so is one whose layers would pass ``MAX_LAYER_BYTES`` (E8 at any cap).

Each layer is an int16 numpy array, one row per element, built a layer at
a time with each step vectorised over the layer. numpy is imported by
``enumerate_weyl`` alone, after its admission, so nothing else in the
package loads it and no CLI request does.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from math import prod

from .cartan import WeylkitError
from .roots import Coords, RootSystem, check_weight, check_word

DEFAULT_CAP = 3_000_000
MATERIALIZE_CAP = 200_000
# most bytes of int16 layers (|W| * rank * 2) any enumeration may build,
# whatever the cap: E7's 41 MB pass, E8's 11.1 GB do not
MAX_LAYER_BYTES = 256 * 2 ** 20


class WeylError(WeylkitError):
    """Base for Weyl-group failures."""


class NotInRhoOrbit(WeylError):
    def __init__(self, vector):
        self.vector = tuple(vector)
        super().__init__(f"{self.vector} is not in the orbit of rho")


class CapExceeded(WeylError):
    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"Weyl group enumeration would exceed {cap} elements")


class LayersTooLarge(WeylError):
    details = ("layer_bytes", "bound")

    def __init__(self, layer_bytes: int):
        self.layer_bytes, self.bound = layer_bytes, MAX_LAYER_BYTES
        super().__init__(f"Weyl group layers would take {layer_bytes} bytes, "
                         f"past the bound {MAX_LAYER_BYTES}")


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
    ``DEFAULT_CAP`` when None, it raises CapExceeded, and with layers past
    ``MAX_LAYER_BYTES`` LayersTooLarge. Each step is vectorised over a
    layer: the children for i = 0..n-1 in turn, each over the parents in
    order.

    >>> from weylkit.cartan import parse_type
    >>> from weylkit.roots import generate_roots
    >>> enumerate_weyl(generate_roots(parse_type("G2"))).histogram
    [1, 2, 2, 2, 2, 2, 1]
    """
    _admit(rs, cap)
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


def _admit(rs: RootSystem, cap: int | None) -> None:
    """Admit W to a count: CapExceeded when |W| passes the cap
    (``DEFAULT_CAP`` when None), LayersTooLarge when its int16 layers pass
    ``MAX_LAYER_BYTES``. ``enumerate_weyl`` and ``poincare_series`` share
    this one rule."""
    order = weyl_order(rs)
    cap = DEFAULT_CAP if cap is None else cap
    if order > cap:
        raise CapExceeded(cap)
    layer_bytes = order * rs.rank * 2  # one int16 row per element
    if layer_bytes > MAX_LAYER_BYTES:
        raise LayersTooLarge(layer_bytes)


def poincare_series(rs: RootSystem, cap: int | None = None) -> list[int]:
    """The Poincare polynomial of W, b_l = number of elements of length l,
    counted by parabolic cosets instead of by element.

    W(q) = W_I(q) * W^I(q) for I = S minus a node j, and the minimal coset
    representatives W^I biject with the orbit of the fundamental weight w_j,
    lengths included (Humphreys, Reflection Groups and Coxeter Groups,
    1.10-1.11). So the polynomial is a product of orbit layer sizes, one
    orbit per node removed. It admits W as ``enumerate_weyl`` does, with the
    same errors, and its histogram equals that of ``enumerate_weyl``.

    >>> from weylkit.cartan import parse_type
    >>> from weylkit.roots import generate_roots
    >>> poincare_series(generate_roots(parse_type("G2")))
    [1, 2, 2, 2, 2, 2, 1]
    """
    _admit(rs, cap)
    return _coset_chain(rs)


def _coset_chain(rs: RootSystem) -> list[int]:
    """W(q) as the product of the coset orbits' layer sizes, with no admission.

    Each step removes the smallest-index leaf j of the Dynkin graph on the
    nodes left, I, and walks the orbit of w_j under W_{I+j} in weight
    coordinates over I + j. As in the rho walk, a child s_i v of v with
    v[i] > 0 is kept only when no coordinate before i is negative, so each
    coset representative comes once from its smallest-descent parent; the
    coordinates may now be 0, where the rho walk's never are. A leaf keeps
    every orbit small: D_n's first node has 2n, its spin node 2**(n - 1).
    """
    c = rs.gcm
    live = list(range(rs.rank))
    poly = [1]
    while live:
        j = next(k for k in live if sum(1 for m in live if m != k and c[k][m]) <= 1)
        rows = [[c[i][m] for m in live] for i in live]
        layer = [tuple(int(m == j) for m in live)]
        sizes = []
        while layer:
            sizes.append(len(layer))
            layer = [child for i, row in enumerate(rows) for v in layer if v[i] > 0
                     for child in [tuple(x - v[i] * a for x, a in zip(v, row))]
                     if min(child[:i], default=0) >= 0]
        live.remove(j)
        product = [0] * (len(poly) + len(sizes) - 1)
        for a, x in enumerate(poly):
            for b, y in enumerate(sizes):
                product[a + b] += x * y
        poly = product
    return poly


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
