"""Weight pushforward along words of simple indices.

A word is read as an iterated chain of line bundles over projective-line
fibrations; pushing a weight down one step along the fibration for simple
index d depends only on l = <weight, coroot_d>:

    l >= 0   degree 0, weights  w, w - a_d, ..., w - l a_d      (l+1 of them)
    l == -1  nothing survives
    l <= -2  degree 1, weights  w + a_d, ..., w + (-l-1) a_d    (-l-1 of them)

(the two rank-one cohomology counts of O(l) on the projective line, with the
twist by the relative canonical class built in). A whole word is processed
from the LAST letter to the first: the bundle attached to the final letter
is the innermost fibration, so its pushforward happens first. Degrees add
up across steps and multiplicities are tracked as a Counter keyed by
(weight, degree); no cancellation between degrees is modeled.

Words that end the same way share every intermediate state, so
``pushforward_suffixes`` walks the reversed-word (suffix) trie and computes
each word's state once, from its parent; the containment scan uses it.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator

from .cartan import WeylkitError
from .roots import Coords, RootSystem
from .weyl import IndexOutOfRange

Word = tuple[int, ...]

# multiset of (weight, cohomological degree) -> multiplicity
GradedWeights = Counter


class PushforwardError(WeylkitError):
    """Base for pushforward failures."""


class KeyLemmaViolation(PushforwardError):
    """Internal-consistency failure of the rank dichotomy; never valid output."""


def _check_letter(rs: RootSystem, i: int) -> None:
    if not 0 <= i < rs.rank:
        raise IndexOutOfRange(i, rs.rank)


def occurs(word, i: int) -> bool:
    """Whether the simple index i appears among the letters.

    >>> occurs((0, 1, 0), 1), occurs((0, 0), 1), occurs((), 0)
    (True, False, False)
    """
    return i in tuple(word)


def pushforward_step(rs: RootSystem, weight, i: int) -> tuple[int, list[Coords]]:
    """One-step pushforward: returns (degree increment, surviving weights)."""
    _check_letter(rs, i)
    w = tuple(weight)
    l = w[i]
    alpha = rs.simple_weight(i)
    if l >= 0:
        return 0, [tuple(x - k * a for x, a in zip(w, alpha)) for k in range(l + 1)]
    if l == -1:
        return 0, []
    return 1, [tuple(x + k * a for x, a in zip(w, alpha)) for k in range(1, -l)]


def pushforward_multiset(rs: RootSystem, word, entries: GradedWeights) -> GradedWeights:
    """Push an existing graded multiset down a word, last letter first."""
    cur = Counter(entries)
    for letter in reversed(tuple(word)):
        _check_letter(rs, letter)
        nxt: GradedWeights = Counter()
        for (w, d), mult in cur.items():
            inc, weights = pushforward_step(rs, w, letter)
            for img in weights:
                nxt[(img, d + inc)] += mult
        cur = nxt
    return cur


def pushforward_word(rs: RootSystem, word, weight) -> GradedWeights:
    """Graded weight multiset of a weight pushed down the whole word."""
    start: GradedWeights = Counter({(tuple(weight), 0): 1})
    return pushforward_multiset(rs, word, start)


def pushforward_suffixes(rs: RootSystem, weight,
                         max_len: int) -> Iterator[tuple[Word, GradedWeights]]:
    """Yield (word, graded multiset) for every word of length <= max_len, once each.

    The walk runs over the reversed-word (suffix) trie: the word (i,) + w
    pushes its last letters exactly as w does, so its multiset is w's pushed
    one more step along i. Each state is computed once, from its parent.
    Parents come before their children, and a word's children are pushed
    before the word is yielded, so the caller may change what it is handed.

    >>> from weylkit.cartan import parse_type
    >>> from weylkit.roots import generate_roots
    >>> rs = generate_roots(parse_type("A1"))
    >>> [(w, dict(gw)) for w, gw in pushforward_suffixes(rs, (-2,), 2)]
    [((), {((-2,), 0): 1}), ((0,), {((0,), 1): 1}), ((0, 0), {((0,), 1): 1})]
    """
    start: GradedWeights = Counter({(tuple(weight), 0): 1})
    stack = [((), start)] if max_len >= 0 else []
    while stack:
        word, gw = stack.pop()
        if len(word) < max_len:
            for i in reversed(range(rs.rank)):
                stack.append(((i,) + word, pushforward_multiset(rs, (i,), gw)))
        yield word, gw


def sorted_entries(gw: GradedWeights) -> list[tuple[Coords, int, int]]:
    """Deterministic (weight, degree, multiplicity) listing."""
    return [(w, d, m) for (w, d), m in sorted(gw.items(), key=lambda kv: (kv[0][1], kv[0][0]))]


def h0_rank(rs: RootSystem, word, alpha_index: int) -> int:
    """Rank of the degree-zero invariants: 1 iff the letter occurs, else 0.

    Computed as the number of zero-weight entries of the pushforward of
    minus the simple root; the run asserts every zero-weight entry sits in
    degree exactly 1 with total multiplicity matching the occurrence
    dichotomy, and raises KeyLemmaViolation otherwise (an implementation
    bug, never a valid outcome).
    """
    _check_letter(rs, alpha_index)
    lam = tuple(-x for x in rs.simple_weight(alpha_index))
    gw = pushforward_word(rs, word, lam)
    zero = tuple(0 for _ in range(rs.rank))
    count = 0
    for (w, d), mult in gw.items():
        if w == zero:
            if d != 1:
                raise KeyLemmaViolation(
                    f"zero weight at degree {d} for word {tuple(word)}"
                )
            count += mult
    expected = 1 if occurs(word, alpha_index) else 0
    if count != expected:
        raise KeyLemmaViolation(
            f"zero-weight multiplicity {count}, expected {expected}"
        )
    return count


def last_occurrence(word, b: int) -> int | None:
    """j(b): the maximal 1-based position whose letter is b, if any.

    >>> last_occurrence((0, 1, 0), 0), last_occurrence((0, 1, 0), 2)
    (3, None)
    """
    word = tuple(word)
    for pos in range(len(word), 0, -1):
        if word[pos - 1] == b:
            return pos
    return None


def chi_restriction(rs: RootSystem, word, weight) -> list[tuple[int, int]]:
    """Restriction of a weight to a word, as (position j(b), coefficient) pairs.

    The weight is given in fundamental-weight coordinates n_b. Simple
    indices that do not occur in the word contribute nothing, and vanishing
    coefficients are dropped with them.
    """
    w = tuple(weight)
    out = []
    for b in range(rs.rank):
        pos = last_occurrence(word, b)
        if pos is not None and w[b] != 0:
            out.append((pos, w[b]))
    return out


def pmorphism_chi_factors(phi, word) -> list[int]:
    """Per-position scaling factors q(letter) of a p-morphism along a word.

    The word is over the source's simple indices; the translated word is
    ``translated_word(phi, word)``.
    """
    from .isogeny import validate_pmorphism

    validate_pmorphism(phi)
    word = tuple(word)
    n = len(phi.q)
    for letter in word:
        if not 0 <= letter < n:
            raise IndexOutOfRange(letter, n)
    return [phi.q[letter] for letter in word]


def translated_word(phi, word) -> Word:
    """Image of a source word under the simple-root bijection of a p-morphism."""
    return tuple(phi.u[letter] for letter in word)
