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

The multiset of (i,) + w depends only on the multiset of w, so
``pushforward_states`` walks distinct states rather than words, counting the
words that reach each one, and pushes each distinct (state, letter) once per
call however often the state comes back; the containment scan uses it. A
step that would produce more than ``MAX_STEP_WEIGHTS`` weights, or take the
sum over a call's steps past ``MAX_PUSH_WEIGHTS``, raises
PushforwardTooLarge before it starts. Each public function checks its
words, weights and letter at entry, before any step. ``chi_restriction``
restricts a weight to a word; the factors a p-morphism puts on a word's
letters are kept with p-morphisms.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator

from .cartan import WeylkitError
from .roots import Coords, RootSystem, check_index, check_weight, check_word

Word = tuple[int, ...]

# multiset of (weight, cohomological degree) -> multiplicity
GradedWeights = Counter

# most weights one pushforward step may produce, summed over its entries
MAX_STEP_WEIGHTS = 100_000
# most weights a whole pushforward may produce, summed over its steps: at
# 300 000-450 000 weights/s in-process (2-core x86-64) some 0.6-0.8 s, and
# 16 times the largest the tests ask for (15 064 weights, a 16-letter word)
MAX_PUSH_WEIGHTS = 250_000


class PushforwardError(WeylkitError):
    """Base for pushforward failures."""


class KeyLemmaViolation(PushforwardError):
    """Internal-consistency failure of the rank dichotomy; never valid output."""


class PushforwardTooLarge(PushforwardError):
    def __init__(self, what: str, size: int, bound: int):
        super().__init__(f"{what} would produce {size} weights, over the bound {bound}")


def occurs(word, i: int) -> bool:
    """Whether the simple index i appears among the letters.

    >>> occurs((0, 1, 0), 1), occurs((0, 0), 1), occurs((), 0)
    (True, False, False)
    """
    return i in tuple(word)


def pushforward_step(rs: RootSystem, weight, i: int) -> tuple[int, list[Coords]]:
    """One-step pushforward: returns (degree increment, surviving weights)."""
    return _step(rs.simple_weight(i), check_weight(rs, weight), i)


def _step(alpha: Coords, w: Coords, i: int) -> tuple[int, list[Coords]]:
    l = w[i]
    if l >= 0:
        return 0, [tuple(x - k * a for x, a in zip(w, alpha)) for k in range(l + 1)]
    if l == -1:
        return 0, []
    return 1, [tuple(x + k * a for x, a in zip(w, alpha)) for k in range(1, -l)]


def pushforward_multiset(rs: RootSystem, word, entries: GradedWeights) -> GradedWeights:
    """Push an existing graded multiset down a word, last letter first."""
    word = check_word(rs.rank, word)
    cur = Counter({(check_weight(rs, w), d): m for (w, d), m in entries.items()})
    return _push(rs, word, cur)


def _push(rs: RootSystem, word: Word, cur: GradedWeights) -> GradedWeights:
    total = 0
    for letter in reversed(word):
        size = sum(max(w[letter] + 1, -w[letter] - 1) for w, _ in cur)
        total += size
        if size > MAX_STEP_WEIGHTS:
            raise PushforwardTooLarge("a pushforward step", size, MAX_STEP_WEIGHTS)
        if total > MAX_PUSH_WEIGHTS:
            raise PushforwardTooLarge("the whole pushforward", total, MAX_PUSH_WEIGHTS)
        nxt: GradedWeights = Counter()
        alpha = rs.gcm[letter]
        for (w, d), mult in cur.items():
            inc, weights = _step(alpha, w, letter)
            for img in weights:
                nxt[(img, d + inc)] += mult
        cur = nxt
    return cur


def pushforward_word(rs: RootSystem, word, weight) -> GradedWeights:
    """Graded weight multiset of a weight pushed down the whole word."""
    return _push(rs, check_word(rs.rank, word), Counter({(check_weight(rs, weight), 0): 1}))


def pushforward_states(rs: RootSystem, weight, max_len: int, letter: int | None
                      ) -> Iterator[tuple[Word, GradedWeights, bool, int]]:
    """Yield (word, graded multiset, letter occurs, word count) per distinct state.

    The multiset of (i,) + w is w's pushed one more step along i, and
    ``letter`` (None: no letter) occurs in (i,) + w iff it is i or occurs in
    w. So each length 0..max_len keeps each state once, with one of its
    words and their number. A state that comes back at a later length, or
    with the other answer for ``letter``, is not pushed again: each distinct
    (multiset, i) goes through the budgeted walk once per call, and later
    children are copied from what that push gave, in the same order. A
    state's children are built before it is yielded and every yielded
    multiset is a fresh Counter, so the caller may change what it is handed.
    The weight and the letter are checked before the first state, whatever
    ``max_len``.

    >>> from weylkit.cartan import parse_type
    >>> from weylkit.roots import generate_roots
    >>> rs = generate_roots(parse_type("A2"))
    >>> [(w, dict(gw), hit, n) for w, gw, hit, n
    ...  in pushforward_states(rs, (-2, 1), 2, 0) if len(w) == 2]
    [((0, 0), {((0, 0), 1): 1}, True, 3), ((1, 1), {((-2, 1), 0): 1, ((-1, -1), 0): 1}, False, 1)]
    """
    start = Counter({(check_weight(rs, weight), 0): 1})
    if letter is not None:
        check_index(rs, letter)
    # (state, i) -> the state pushed along i: its key and an ordered snapshot
    pushed: dict = {}
    level = {(frozenset(start.items()), False): [(), start, 1]}
    for length in range(max_len + 1):
        nxt: dict = {}
        for (state, hit), (word, gw, count) in level.items():
            for i in range(rs.rank if length < max_len else 0):
                child, fresh = pushed.get((state, i)), None
                if child is None:
                    fresh = _push(rs, (i,), gw)
                    child = pushed[state, i] = (frozenset(fresh.items()), dict(fresh))
                key = (child[0], hit or i == letter)
                if key in nxt:
                    nxt[key][2] += count
                else:
                    nxt[key] = [(i,) + word, fresh or Counter(child[1]), count]
            yield word, gw, hit, count
        level = nxt


def sorted_entries(gw: GradedWeights) -> list[tuple[Coords, int, int]]:
    """Deterministic (weight, degree, multiplicity) listing."""
    return [(w, d, m) for (w, d), m in sorted(gw.items(), key=lambda kv: (kv[0][1], kv[0][0]))]


def zero_weight_rank(gw: GradedWeights, hit: bool, where: str = "") -> int:
    """Total multiplicity of the zero weight, checked against the key lemma.

    Zero weight must sit only in degree 1, with total multiplicity 1 if the
    letter occurs (``hit``) and 0 otherwise; anything else is a bug and
    raises KeyLemmaViolation, its message ending in ``where``.
    """
    count = 0
    for (w, d), mult in gw.items():
        if not any(w):
            if d != 1:
                raise KeyLemmaViolation(f"zero weight at degree {d}{where}")
            count += mult
    expected = 1 if hit else 0
    if count != expected:
        raise KeyLemmaViolation(
            f"zero-weight multiplicity {count}, expected {expected}{where}")
    return count


def h0_rank(rs: RootSystem, word, alpha_index: int) -> int:
    """Rank of the degree-zero invariants: 1 iff the letter occurs, else 0.

    Computed as the number of zero-weight entries of the pushforward of
    minus the simple root, checked by ``zero_weight_rank``.
    """
    word = check_word(rs.rank, word)
    lam = tuple(-x for x in rs.simple_weight(alpha_index))
    gw = pushforward_word(rs, word, lam)
    return zero_weight_rank(gw, occurs(word, alpha_index), f" for word {word}")


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
    word, w = check_word(rs.rank, word), check_weight(rs, weight)
    out = []
    for b in range(rs.rank):
        pos = last_occurrence(word, b)
        if pos is not None and w[b] != 0:
            out.append((pos, w[b]))
    return out
