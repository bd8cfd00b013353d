"""Finite root systems generated from a Cartan matrix.

Every root carries three coordinate systems at once:

* ``coords``: coefficients in the simple-root basis,
* ``coroot``: coefficients of its coroot in the simple-coroot basis,
* ``weight``: pairings with the simple coroots (fundamental-weight basis).

Generation raises the simple roots by simple reflections and carries all
three forward, so arbitrary root-against-coroot pairings are integer dot
products: pairing(beta, alpha) = weight(beta) . coroot(alpha). A root's key,
sum(coords[k] * 2**(8k)), is linear, so a reflection step and ``add(r, s,
k)``, the index of the root r + k*s, are each one sum and one dict lookup.
Coordinates stay within +-6 (E8), a reflection step adds at most 3 alpha_i,
and sums have |k| <= 4, so each base-256 digit stays within +-30 < 128:
equal keys are equal roots, and ``index_of`` checks what a packed tuple
finds, so no other length or range aliases a root. The input rules live
here too, each applied once at a public entry: ``check_word`` to a word
(``weyl``, ``pushforward``, ``isogeny``), ``check_index``, its one-letter
case, in ``simple`` and ``simple_weight``, ``check_weight`` to a weight,
and ``is_prime`` to a prime (``isogeny``, ``chevalley``), which refuses one
at or past ``PRIMALITY_BOUND`` with ``PrimalityBoundExceeded``, an
``IsogenyError``.
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
        super().__init__(f"simple index {i!r} out of range for rank {n}")


def check_word(n: int, word) -> tuple[int, ...]:
    """``tuple(word)``, or IndexOutOfRange at the first letter that is not a
    0-based simple index of n simples: an int in [0, n), and not a bool."""
    word = tuple(word)
    for i in word:
        if not (isinstance(i, int) and not isinstance(i, bool) and 0 <= i < n):
            raise IndexOutOfRange(i, n)
    return word


def check_index(rs: RootSystem, i: int) -> None:
    """Raise IndexOutOfRange unless i is a 0-based simple index of rs."""
    check_word(rs.rank, (i,))


class NotAWeight(RootsError):
    def __init__(self, weight, n: int):
        self.weight, self.n = weight, n
        super().__init__(f"{weight!r} is not a weight of rank {n}: "
                         f"it needs {n} int entries")


def check_weight(rs: RootSystem, weight) -> Coords:
    """``tuple(weight)``, or NotAWeight unless it has ``rs.rank`` entries,
    each an int and not a bool (the entry rule of ``validate_gcm``)."""
    w = tuple(weight)
    if len(w) != rs.rank or not all(isinstance(x, int) and not isinstance(x, bool)
                                    for x in w):
        raise NotAWeight(w, rs.rank)
    return w


class IsogenyError(WeylkitError):
    """Base for p-morphism and isogeny failures."""


class PrimalityBoundExceeded(IsogenyError):
    def __init__(self, p: int):
        super().__init__(f"{p} is at or above the primality bound {PRIMALITY_BOUND}")


# Deterministic Miller-Rabin over the first 13 prime bases is exact below
# PRIMALITY_BOUND (Sorenson and Webster, Math. Comp. 86, 2017).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; raises PrimalityBoundExceeded past the bound."""
    if p >= PRIMALITY_BOUND:
        raise PrimalityBoundExceeded(p)
    if p < 2 or any(p % b == 0 for b in _BASES):
        return p in _BASES
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


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
            raise NotARoot(coords)
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
        check_index(self, i)
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
        check_index(self, i)
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


def weight_of(gcm: GCM, coords) -> Coords:
    """Fundamental-weight coordinates of a simple-root-basis vector: the
    sum of coords[k] times row k of C, so (-1, 0) on A2 gives (-2, 1)."""
    return tuple(
        sum(a * gcm[k][j] for k, a in enumerate(coords))
        for j in range(gcm.n)
    )


def generate_roots(c: GCM) -> RootSystem:
    """Close the simple roots under the raising reflections.

    If the i-th weight coordinate x = <beta, alpha_i^vee> of a positive
    root beta is negative, s_i beta = beta - x * alpha_i is a positive root
    of greater height, and every positive root is reached from a simple
    root by such steps (Humphreys, Introduction to Lie Algebras, 10.3): a
    positive root that is not simple pairs positively with some simple
    coroot, and that reflection lowers it. A step moves the key by
    ``-x * 2**(8i)``, as ``reflection_perms`` does, and the weight by
    ``-x * C[i]``; a reflection keeps the squared length. The coroot of a
    root has simple-coroot coordinates ``coords[k] * length(alpha_k) /
    length``. The negative roots mirror the positive ones. The symmetrizer
    raises NotFiniteType unless C is of finite type.
    """
    sym = symmetrizer(c)
    n = c.n
    lengths = sym.lengths
    # a step along alpha_i changes only the weight entries where row i of C is nonzero
    row_support = [[(j, a) for j, a in enumerate(c[i]) if a] for i in range(n)]
    # key -> (coords, weight, length)
    found: dict[int, tuple[Coords, Coords, int]] = {
        1 << 8 * i: (tuple(1 if k == i else 0 for k in range(n)), c[i], lengths[i])
        for i in range(n)}
    stack = list(found)
    while stack:
        key = stack.pop()
        coords, weight, length = found[key]
        for i, x in enumerate(weight):
            if x < 0 and (up := key - x * (1 << 8 * i)) not in found:
                raised = list(weight)
                for j, a in row_support[i]:
                    raised[j] -= x * a
                found[up] = (coords[:i] + (coords[i] - x,) + coords[i + 1:], tuple(raised),
                             length)
                stack.append(up)
    positives = sorted((sum(coords), coords, key) for key, (coords, _, _) in found.items())

    roots: list[Root] = []
    for idx, (height, coords, key) in enumerate(positives):
        _, weight, length = found[key]
        coroot = tuple(a * lengths[k] // length for k, a in enumerate(coords))
        roots.append(Root(idx, coords, coroot, weight, height, True, length))
    np_ = len(roots)
    for r in roots[:np_]:
        roots.append(Root(np_ + r.index, tuple(-a for a in r.coords),
                          tuple(-b for b in r.coroot), tuple(-w for w in r.weight),
                          -r.height, False, r.length))
    return RootSystem(c, sym, roots, [k for *_, k in positives] + [-k for *_, k in positives])


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
    base, direction = tuple(base), tuple(direction)
    d = rs.keys[rs.root(direction).index]
    b = 0 if base == (0,) * rs.rank else rs.keys[rs.root(base).index]
    return RootString(base, direction, *string_steps(rs, b, d))


def string_steps(rs: RootSystem, base: int, direction: int) -> tuple[int, int]:
    """(down, up) of the direction-string through base, as root keys (base may be 0)."""
    by = rs._by_key   # holds key 0 too
    down = up = 0
    while base - (down + 1) * direction in by:
        down += 1
    while base + (up + 1) * direction in by:
        up += 1
    return down, up
