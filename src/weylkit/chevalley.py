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
So ``short_root_ideal_check`` walks the a-string through b once per short
pair with a + b a root, for the bracket and Steinberg rows (a + b long) and
the square row (up >= 2, strings being unbroken), then reads off violations.
"""

from __future__ import annotations

from collections import namedtuple

from .cartan import WeylkitError
from .isogeny import is_prime
from .roots import RootSystem, root_string


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


def _sum(rs: RootSystem, a, b):
    """The root a + b of two roots, or None when the sum is not a root."""
    idx = rs.index_of(tuple(x + y for x, y in zip(a.coords, b.coords)))
    return None if idx is None else rs.roots[idx]


def bracket_constant(rs: RootSystem, alpha, beta) -> StructureConstant:
    """The magnitude m(alpha, beta) read off the alpha-string through beta."""
    a, b = rs.root(alpha), rs.root(beta)
    if _sum(rs, a, b) is None:
        raise SumNotARoot(a.coords, b.coords)
    s = root_string(rs, b.coords, a.coords)
    return StructureConstant(a.coords, b.coords, s.down + 1, s.down, s.up)


class SteinbergReport(namedtuple("SteinbergReport", "alpha beta down up length_ratio holds")):
    """The alpha-string through beta, ``length_ratio`` = length(alpha+beta) /
    length(alpha), and whether down + 1 == up * length_ratio ``holds``."""

    __slots__ = ()


def steinberg_check(rs: RootSystem, alpha, beta) -> SteinbergReport:
    """Check the string-length identity for alpha short and alpha+beta long."""
    a, b = rs.root(alpha), rs.root(beta)
    if a.length != 1:
        raise HypothesesNotMet("alpha-not-short")
    t = _sum(rs, a, b)
    if t is None:
        raise HypothesesNotMet("sum-not-a-root")
    if t.length == 1:
        raise HypothesesNotMet("sum-not-long")
    s = root_string(rs, b.coords, a.coords)
    return SteinbergReport(a.coords, b.coords, s.down, s.up, t.length,
                           s.down + 1 == s.up * t.length)


class IdealCheckReport(namedtuple("IdealCheckReport",
                                   "p bracket_triples square_triples violations steinberg")):
    """Exhaustive evidence that the short-root span is a p-closed ideal.

    Every row pairs two short roots, alpha then beta in root order.
    ``bracket_triples`` lists (alpha, beta, alpha+beta, m) for each long
    root sum: the ideal property needs p to divide every m. ``steinberg``
    holds, row for row, the SteinbergReport of the same pair, read off the
    same string. ``square_triples`` lists (alpha, beta, 2a+b) for the pairs
    whose double step lands in the roots: p-closure needs 2a+b long.
    ``violations``, read off both lists with bracket rows first, holds the
    rows that fail; it is empty on the types where the ideal exists.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.violations


def short_root_ideal_check(rs: RootSystem, p: int) -> IdealCheckReport:
    """Run both ideal checks, one string walk per short pair."""
    if not is_prime(p):
        raise ChevalleyError(f"{p} is not prime")
    short = [r for r in rs.roots if r.length == 1]
    if len(short) == len(rs.roots):
        raise SimplyLaced()
    report = IdealCheckReport(p, [], [], [], [])
    for a in short:
        for b in short:
            total = _sum(rs, a, b)
            if total is None:
                continue
            s = root_string(rs, b.coords, a.coords)
            if total.length > 1:
                m = s.down + 1
                report.bracket_triples.append((a.coords, b.coords, total.coords, m))
                report.steinberg.append(SteinbergReport(
                    a.coords, b.coords, s.down, s.up, total.length,
                    m == s.up * total.length))
            if s.up >= 2:   # unbroken: 2a + b is a root
                double = tuple(2 * x + y for x, y in zip(a.coords, b.coords))
                report.square_triples.append((a.coords, b.coords, double))
    report.violations.extend(("bracket", *t) for t in report.bracket_triples if t[3] % p)
    report.violations.extend(("square", *t) for t in report.square_triples
                             if rs.root(t[2]).length == 1)
    return report
