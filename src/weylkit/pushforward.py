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
``pushforward_states`` walks distinct states rather than words: each comes
once, with the number of words of any length up to the bound that reach it
and one shortest such word, and each distinct (multiset, letter) is pushed
once per call however often the state comes back; the containment scan uses
it. Within one call, each (weight, letter) step is computed once. A step
that would produce more than ``MAX_STEP_WEIGHTS`` weights, or take the sum
over a call's steps past ``MAX_PUSH_WEIGHTS``, raises PushforwardTooLarge
before it starts. Each public function checks its words, weights and letter
at entry, before any step. ``chi_restriction`` restricts a weight to a
word; the factors a p-morphism puts on a word's letters are kept with
p-morphisms.
"""

from collections import Counter, defaultdict
from collections.abc import Iterator

from .checks import check_index, check_weight, check_word
from .core import WeylkitError
from .roots import Coords, RootSystem

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
    # w - k alpha for k = 0..l, or for k = -1 down to l + 1 in degree 1
    l = w[i]
    ks = range(l + 1) if l >= 0 else range(-1, l, -1)
    return int(l < -1), [tuple(x - k * a for x, a in zip(w, alpha)) for k in ks]


def pushforward_multiset(rs: RootSystem, word, entries: GradedWeights) -> GradedWeights:
    """Push an existing graded multiset down a word, last letter first."""
    word = check_word(rs.rank, word)
    cur = {(check_weight(rs, w), d): m for (w, d), m in entries.items()}
    return Counter(_push(rs, word, cur, {}))


def _push(rs: RootSystem, word: Word, cur: dict, memo: dict) -> dict:
    # memo: letter -> weight -> that step's (degree increment, weights)
    total = 0
    for letter in reversed(word):
        size = sum(abs(w[letter] + 1) for w, _ in cur)
        total += size
        if size > MAX_STEP_WEIGHTS:
            raise PushforwardTooLarge("a pushforward step", size, MAX_STEP_WEIGHTS)
        if total > MAX_PUSH_WEIGHTS:
            raise PushforwardTooLarge("the whole pushforward", total, MAX_PUSH_WEIGHTS)
        nxt: dict = defaultdict(int)
        steps = memo.setdefault(letter, {})
        for (w, d), mult in cur.items():
            if w not in steps:
                steps[w] = _step(rs.gcm[letter], w, letter)
            inc, weights = steps[w]
            for img in weights:
                nxt[(img, d + inc)] += mult
        cur = nxt
    return cur


def pushforward_word(rs: RootSystem, word, weight) -> GradedWeights:
    """Graded weight multiset of a weight pushed down the whole word."""
    return Counter(_push(rs, check_word(rs.rank, word), {(check_weight(rs, weight), 0): 1}, {}))


def pushforward_states(rs: RootSystem, weight, max_len: int, letter: int | None
                      ) -> Iterator[tuple[Word, GradedWeights, bool, int]]:
    """Yield (word, graded multiset, letter occurs, word count) per distinct state.

    The multiset of (i,) + w is w's pushed one more step along i, and
    ``letter`` (None: no letter) occurs in (i,) + w iff it is i or occurs in
    w. So the walk carries, length by length, the number of words of each
    length that reach each state, along a table from (multiset, i) to the
    child multiset, and each distinct state comes once, after the walk, with
    the number of words of length <= ``max_len`` that reach it and one
    shortest such word. Each distinct (multiset, i) below the last length
    goes through the budgeted push once per call, and the one-step images of
    each (weight, i) are computed once per call. Every yielded multiset is a
    fresh Counter. The weight and the letter are checked before the first
    state, whatever ``max_len``.

    >>> from weylkit.gcm import parse_type
    >>> from weylkit.roots import generate_roots
    >>> rs = generate_roots(parse_type("A2"))
    >>> for w, gw, hit, n in pushforward_states(rs, (-2, 1), 2, 0):
    ...     print(w, sorted(gw.items()), hit, n)
    () [(((-2, 1), 0), 1)] False 1
    (0,) [(((0, 0), 1), 1)] True 4
    (1,) [(((-2, 1), 0), 1), (((-1, -1), 0), 1)] False 2
    """
    start = frozenset({((check_weight(rs, weight), 0), 1)})
    if letter is not None:
        check_index(rs, letter)
    # (multiset, letter occurs) -> a shortest word; (multiset, i) -> child
    words, children, memo = {(start, False): ()}, {}, {}
    counts, level = defaultdict(int), {(start, False): 1}
    for length in range(max_len + 1):
        nxt: dict = defaultdict(int)
        for (state, hit), count in level.items():
            counts[state, hit] += count
            word = words[state, hit]
            for i in range(rs.rank if length < max_len else 0):
                if (state, i) not in children:
                    children[state, i] = frozenset(_push(rs, (i,), dict(state), memo).items())
                key = (children[state, i], hit or i == letter)
                nxt[key] += count
                if key not in words:
                    words[key] = (i,) + word
        level = nxt
    for (state, hit), count in counts.items():
        yield words[state, hit], Counter(dict(state)), hit, count


def sorted_entries(gw: GradedWeights) -> list[tuple[Coords, int, int]]:
    """Deterministic (weight, degree, multiplicity) listing."""
    return [(w, d, m) for (w, d), m in sorted(gw.items(), key=lambda kv: kv[0][::-1])]


def word_report(rs: RootSystem, word: Word, weight) -> dict:
    """The ``bs-weights`` document's fields: the word, 1-based, the weight,
    and the graded weights pushed down the word, one object an entry."""
    gw = pushforward_word(rs, word, weight)
    return {
        "word": [i + 1 for i in word],
        "weight": weight,
        "entries": [{"weight": w, "degree": d, "mult": m} for w, d, m in sorted_entries(gw)],
    }


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
    return len(word) - word[::-1].index(b) if b in word else None


def chi_restriction(rs: RootSystem, word, weight) -> list[tuple[int, int]]:
    """Restriction of a weight to a word, as (position j(b), coefficient) pairs.

    The weight is given in fundamental-weight coordinates n_b. Simple
    indices that do not occur in the word contribute nothing, and vanishing
    coefficients are dropped with them.
    """
    word, w = check_word(rs.rank, word), check_weight(rs, weight)
    return [(last_occurrence(word, b), w[b]) for b in range(rs.rank) if b in word and w[b]]
