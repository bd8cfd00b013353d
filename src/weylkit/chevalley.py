"""Root-string structure constants and the short-root ideal checks.

The bracket of the basis vectors attached to roots a and b with a + b a
root has magnitude m(a, b), the smallest positive integer m with b - m a
not a root; equivalently one more than the number of steps the a-string
through b extends below b. For a short and a + b long the string data obey
the length identity (down + 1) = up * length(a+b) / length(a), which is
what makes the span of the torus directions and the short root vectors an
ideal closed under p-th powers when p is the squared-length ratio.

Every row pairs two short roots. A short a (|a|^2 = 1) and a long b
(|b|^2 = r, 2 or 3) give a long a + b only if 1 + r + 2(a, b) = r, that
is (a, b) = -1/2, but <a, b-coroot> = 2(a, b)/r is an integer, so (a, b)
lies in (r/2)Z. Roots of different components never sum to a root, a
simply-laced component has only short roots, and square rows need b short.
So ``short_root_ideal_check`` walks the a-string through b once per
candidate pair with a + b a root, for the bracket and Steinberg rows (a + b
long) and the square row (up >= 2, strings being unbroken). No square row
fails: an a-string reaching two steps above a short b either starts at b,
where <b, a-coroot> = -2 would make b long (Humphreys, Introduction to Lie
Algebras, 9.4), or holds four roots, as only in G2, where 2a + b is long.
So the violations are the bracket rows whose m p does not divide, and each
row's a + b or 2a + b is a long root t. The lookup rule is chosen per
component: where a's component has fewer long roots than short ones (B_n),
a's candidates b are the short t - a and t - 2a for the long t of that
component, else the component's short roots. Sums and string steps are
root-key lookups (``RootSystem.add``, ``string_steps``).
"""

from __future__ import annotations

from collections import namedtuple

from .cartan import WeylkitError
from .roots import RootSystem, is_prime, string_steps


class ChevalleyError(WeylkitError):
    """Base for structure-constant and ideal-check failures."""


class SumNotARoot(ChevalleyError):
    def __init__(self, alpha, beta):
        self.alpha, self.beta = tuple(alpha), tuple(beta)
        super().__init__(f"{tuple(alpha)} + {tuple(beta)} is not a root")


class HypothesesNotMet(ChevalleyError):
    """The pair is outside the identity's context; not a failure."""

    def __init__(self, which: str):
        self.which = which
        super().__init__(which)


class SimplyLaced(ChevalleyError):
    def __init__(self):
        super().__init__("root system has a single length class")


class StructureConstant(namedtuple("StructureConstant", "alpha beta m down up")):
    """The bracket magnitude ``m`` of alpha and beta, always 1, 2 or 3 in
    finite type, with the steps of the alpha-string below (``down``) and
    above (``up``) beta."""

    __slots__ = ()


def bracket_constant(rs: RootSystem, alpha, beta) -> StructureConstant:
    """The magnitude m(alpha, beta) read off the alpha-string through beta."""
    a, b = rs.root(alpha), rs.root(beta)
    if rs.add(b.index, a.index) is None:
        raise SumNotARoot(a.coords, b.coords)
    down, up = string_steps(rs, rs.keys[b.index], rs.keys[a.index])
    return StructureConstant(a.coords, b.coords, down + 1, down, up)


class SteinbergReport(namedtuple("SteinbergReport", "alpha beta down up length_ratio holds")):
    """The alpha-string through beta, ``length_ratio`` = length(alpha+beta) /
    length(alpha), and whether down + 1 == up * length_ratio ``holds``."""

    __slots__ = ()


def steinberg_check(rs: RootSystem, alpha, beta) -> SteinbergReport:
    """Check the string-length identity for alpha short and alpha+beta long."""
    a, b = rs.root(alpha), rs.root(beta)
    if a.length != 1:
        raise HypothesesNotMet("alpha-not-short")
    t = rs.add(b.index, a.index)
    if t is None:
        raise HypothesesNotMet("sum-not-a-root")
    length = rs.roots[t].length
    if length == 1:
        raise HypothesesNotMet("sum-not-long")
    down, up = string_steps(rs, rs.keys[b.index], rs.keys[a.index])
    return SteinbergReport(a.coords, b.coords, down, up, length, down + 1 == up * length)


class IdealCheckReport(namedtuple("IdealCheckReport",
                                   "p bracket_triples square_triples violations steinberg")):
    """Exhaustive evidence that the short-root span is a p-closed ideal.

    Every row pairs two short roots, alpha then beta in root order.
    ``bracket_triples`` lists (alpha, beta, alpha+beta, m) for each long
    root sum: the ideal property needs p to divide every m. ``steinberg``
    holds, row for row, the SteinbergReport of the same pair, read off the
    same string. ``square_triples`` lists (alpha, beta, 2a+b) for the pairs
    whose double step lands in the roots: p-closure needs 2a+b long, which
    finite type ensures. ``violations`` holds the bracket rows, tagged
    ``"bracket"``, whose m p does not divide: there the span is no ideal.
    It is empty on the types where the ideal exists.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.violations


def short_root_ideal_check(rs: RootSystem, p: int) -> IdealCheckReport:
    """Run both ideal checks, one string walk per candidate pair."""
    if not is_prime(p):
        raise ChevalleyError(f"{p} is not prime")
    roots, keys = rs.roots, rs.keys
    if all(r.length == 1 for r in roots):
        raise SimplyLaced()
    comps = rs.gcm.components()
    component = {k: c for c, nodes in enumerate(comps) for k in nodes}
    # per component: its short roots as (index, coords), its long root indices
    parts: list[tuple[list, list]] = [([], []) for _ in comps]
    short = []
    for r, key in zip(roots, keys):
        # |key| has the base-256 digits |coords|, so its lowest set bit lies
        # in the digit of a simple root in the support, which names the component
        low = abs(key) & -abs(key)
        c = component[(low.bit_length() - 1) >> 3]
        if r.length == 1:
            short.append((r.index, r.coords, c))
            parts[c][0].append((r.index, r.coords))
        else:
            parts[c][1].append(r.index)
    report = IdealCheckReport(p, [], [], [], [])
    for a, alpha, c in short:
        shorts, longs = parts[c]
        partners = shorts if len(longs) >= len(shorts) else sorted(
            (b, roots[b].coords) for b in {rs.add(t, a, k) for t in longs for k in (-1, -2)}
            if b is not None and roots[b].length == 1)
        for b, beta in partners:
            total = rs.add(b, a)
            if total is None:
                continue
            total = roots[total]
            down, up = string_steps(rs, keys[b], keys[a])
            if total.length > 1:
                report.bracket_triples.append((alpha, beta, total.coords, down + 1))
                report.steinberg.append(SteinbergReport(
                    alpha, beta, down, up, total.length, down + 1 == up * total.length))
            if up >= 2:   # unbroken: 2a + b is a root, and a long one
                report.square_triples.append((alpha, beta, roots[rs.add(b, a, 2)].coords))
    report.violations.extend(("bracket", *t) for t in report.bracket_triples if t[3] % p)
    return report
