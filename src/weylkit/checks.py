"""The input rules for root systems, each applied once at a public entry.

``check_word`` applies to a word (``weyl``, ``pushforward``, ``isogeny``),
``check_index``, its one-letter case, in ``RootSystem.simple`` and
``RootSystem.simple_weight``, ``check_weight`` to a weight, and
``is_prime`` to a prime (``isogeny``, ``chevalley``), which refuses one at
or past ``PRIMALITY_BOUND`` with ``PrimalityBoundExceeded``, an
``IsogenyError``. ``weight_of`` reads a root-basis vector as a weight.
``parse_word`` and ``parse_weight`` read the command line's comma-separated
``--word`` and ``--weight`` values (``parse_ints``), refusing a malformed
one with ``ParseError``. The subcommands that take a word, a weight, a
prime or a p-morphism share this module; ``roots`` reads it on use, so a
``roots``, ``weyl`` or ``classify`` request compiles none of it.
"""

from .core import GCM, ParseError, WeylkitError


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


def check_index(rs: "roots.RootSystem", i: int) -> None:
    """Raise IndexOutOfRange unless i is a 0-based simple index of rs."""
    check_word(rs.rank, (i,))


class NotAWeight(RootsError):
    def __init__(self, weight, n: int):
        self.weight, self.n = weight, n
        super().__init__(f"{weight!r} is not a weight of rank {n}: "
                         f"it needs {n} int entries")


def check_weight(rs: "roots.RootSystem", weight) -> tuple[int, ...]:
    """``tuple(weight)``, or NotAWeight unless it has ``rs.rank`` entries,
    each an int and not a bool (the entry rule of ``validate_gcm``)."""
    w = tuple(weight)
    if len(w) != rs.rank or not all(isinstance(x, int) and not isinstance(x, bool)
                                    for x in w):
        raise NotAWeight(w, rs.rank)
    return w


def weight_of(gcm: GCM, coords) -> tuple[int, ...]:
    """Fundamental-weight coordinates of a simple-root-basis vector: the
    sum of coords[k] times row k of C, so (-1, 0) on A2 gives (-2, 1)."""
    return tuple(
        sum(a * gcm[k][j] for k, a in enumerate(coords))
        for j in range(gcm.n)
    )


def parse_ints(text: str) -> list[int]:
    """Comma-separated integers; an empty or blank field is refused, so
    "1,,2" or "3," is not read as a shorter list."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ParseError(f"expected comma-separated integers, got {text!r}") from None


def parse_word(text: str, rank: int) -> tuple[int, ...]:
    """A 1-based ``--word`` of simple reflections as 0-based indices; ""
    is the empty word."""
    letters = parse_ints(text) if text else []
    word = []
    for x in letters:
        if not 1 <= x <= rank:
            raise IndexOutOfRange(x, rank)
        word.append(x - 1)
    return tuple(word)


def parse_weight(text: str, c: GCM, basis: str) -> tuple[int, ...]:
    """A ``--weight`` in coroot coordinates, or in root coordinates
    converted through c when ``basis`` is "root"."""
    coords = parse_ints(text)
    if len(coords) != c.n:
        raise ParseError(f"weight must have {c.n} coordinates")
    return weight_of(c, coords) if basis == "root" else tuple(coords)


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
